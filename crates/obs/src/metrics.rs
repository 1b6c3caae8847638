//! Aggregated metrics: per-core counters, per-cache counters, per-port
//! bus statistics, and the [`MetricsHub`] that collects them all at the
//! end of an observed run together with the merged event ring.
//!
//! The hub is plain owned data with `PartialEq` throughout, so the
//! determinism test can assert two observed runs produced *identical*
//! metrics, bit for bit.

use crate::hist::Histogram;
use crate::json::Json;
use crate::ring::EventRing;
use crate::trace::{TraceEvent, TraceKind};

/// Pipeline counters of one core (copied out of its CSR file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreCounters {
    /// Cycles the core has stepped.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions issued into the execute stage.
    pub issued: u64,
    /// Cycles the fetch stage stalled (instruction-side).
    pub if_stalls: u64,
    /// Cycles the memory stage stalled (data-side).
    pub mem_stalls: u64,
    /// Cycles lost to hazard interlocks.
    pub haz_stalls: u64,
    /// Operand reads satisfied by a forwarding path instead of the
    /// register file.
    pub fwd_uses: u64,
}

impl CoreCounters {
    /// Retired instructions per cycle (0.0 before the first cycle).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups that hit.
    pub write_hits: u64,
    /// Write lookups that missed.
    pub write_misses: u64,
    /// Lines dropped by invalidation.
    pub invalidations: u64,
}

impl CacheCounters {
    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Hit rate in `[0, 1]` (0.0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }
}

/// One per-cycle snapshot of a core, taken by the SoC observer to
/// compute deltas (events) between consecutive cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreSample {
    /// Counters at this cycle.
    pub counters: CoreCounters,
    /// Instruction-cache counters, if the core has an I$.
    pub icache: Option<CacheCounters>,
    /// Data-cache counters, if the core has a D$.
    pub dcache: Option<CacheCounters>,
    /// PC the fetch unit will fetch next.
    pub next_pc: u32,
    /// PC of the packet currently entering execute, if any.
    pub ex_pc: Option<u32>,
    /// Whether the core has halted.
    pub halted: bool,
}

/// Final metrics of one core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreMetrics {
    /// Pipeline counters.
    pub counters: CoreCounters,
    /// Instruction-cache counters, if present.
    pub icache: Option<CacheCounters>,
    /// Data-cache counters, if present.
    pub dcache: Option<CacheCounters>,
}

/// The certified worst-case grant latency of one bus port — the
/// analytical prediction an observed `max_grant_wait` is judged
/// against. Computed by the memory layer's `bounds` module (this crate
/// only carries the value so it can ride through metrics and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortBound {
    /// Any single request is granted within this many wait cycles.
    Bounded(u64),
    /// No finite bound exists: the arbitration policy lets other
    /// masters starve this port indefinitely. Certification must flag
    /// this — running an STL on such a port voids the determinism
    /// argument by construction.
    Unbounded,
}

impl PortBound {
    /// Whether `observed` wait cycles respect this bound. An unbounded
    /// port is never violated — there is nothing to violate, which is
    /// exactly why certification rejects unbounded ports up front.
    pub fn admits(&self, observed: u64) -> bool {
        match self {
            PortBound::Bounded(b) => observed <= *b,
            PortBound::Unbounded => true,
        }
    }

    /// The finite bound, if one exists.
    pub fn cycles(&self) -> Option<u64> {
        match self {
            PortBound::Bounded(b) => Some(*b),
            PortBound::Unbounded => None,
        }
    }
}

impl std::fmt::Display for PortBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortBound::Bounded(b) => write!(f, "{b}"),
            PortBound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Final metrics of one bus master port.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PortMetrics {
    /// Requests submitted on the port.
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
    /// Total cycles requests on this port spent waiting.
    pub wait_cycles: u64,
    /// Longest wait of any single request (including a still-pending
    /// one, so a starved port reports its growing wait).
    pub max_grant_wait: u64,
    /// Certified worst-case grant latency, when the platform computed
    /// one for this port.
    pub bound: Option<PortBound>,
    /// Distribution of per-grant wait times.
    pub wait_hist: Histogram,
}

/// Final metrics of the shared bus.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BusMetrics {
    /// Transactions completed.
    pub transactions: u64,
    /// Cycles the bus was busy with a transaction.
    pub busy_cycles: u64,
    /// Per-master-port metrics, port 0 first.
    pub ports: Vec<PortMetrics>,
}

/// The bus-side observer: owns the grant-latency histograms and the
/// bus half of the event ring. Attached to the bus as an
/// `Option<Box<BusObs>>` — `None` costs one branch per step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusObs {
    cycle: u64,
    requests: Vec<u64>,
    wait_hist: Vec<Histogram>,
    ring: EventRing,
}

impl BusObs {
    /// An observer for a bus with `ports` master ports, recording at
    /// most `ring_capacity` events.
    pub fn new(ports: usize, ring_capacity: usize) -> BusObs {
        BusObs {
            cycle: 0,
            requests: vec![0; ports],
            wait_hist: vec![Histogram::new(); ports],
            ring: EventRing::new(ring_capacity),
        }
    }

    /// Called once at the end of every bus step.
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// Called when a master submits a request.
    pub fn on_request(&mut self, port: usize) {
        if let Some(r) = self.requests.get_mut(port) {
            *r += 1;
        }
    }

    /// Called when the arbiter grants a pending request.
    pub fn on_grant(&mut self, port: usize, wait: u64, addr: u32, write: bool) {
        if let Some(h) = self.wait_hist.get_mut(port) {
            h.record(wait);
        }
        self.ring.push(TraceEvent {
            cycle: self.cycle,
            core: None,
            kind: TraceKind::BusGrant {
                port: port as u8,
                wait: wait.min(u64::from(u32::MAX)) as u32,
                addr,
                write,
            },
        });
    }

    /// Requests submitted per port so far.
    pub fn requests(&self) -> &[u64] {
        &self.requests
    }

    /// Grant-wait histogram of one port.
    pub fn wait_hist(&self, port: usize) -> &Histogram {
        &self.wait_hist[port]
    }

    /// The bus half of the event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Consumes the observer into its parts: per-port request counts,
    /// per-port wait histograms, and the event ring.
    pub fn into_parts(self) -> (Vec<u64>, Vec<Histogram>, EventRing) {
        (self.requests, self.wait_hist, self.ring)
    }
}

/// Recovery counters of a fleet-campaign orchestrator run: how many
/// shards were leased, how often workers had to be retried, stolen
/// from, or quarantined, and how often checkpoints saved work. The
/// fleet's lease table keeps them, and
/// [`FleetTelemetry`](crate::FleetTelemetry) renders them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetCounters {
    /// Shards in the plan.
    pub shards: u64,
    /// Shards whose verdicts were accepted.
    pub completed: u64,
    /// Shards that exhausted their retry budget.
    pub quarantined: u64,
    /// Leases granted (first tries + retries + steals).
    pub leases: u64,
    /// Failed attempts re-scheduled with backoff.
    pub retries: u64,
    /// Expired leases revoked and re-issued to another worker.
    pub steals: u64,
    /// Attempts that restored graded faults from a shard checkpoint.
    pub resumes: u64,
    /// Results that arrived after their lease had been revoked (or the
    /// shard already completed) and were dropped.
    pub late_results: u64,
}

/// Everything one observed run produced: final counters of every layer
/// plus the merged, cycle-sorted event window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsHub {
    /// SoC cycles simulated.
    pub cycles: u64,
    /// Per-core metrics, core 0 first.
    pub cores: Vec<CoreMetrics>,
    /// Shared-bus metrics.
    pub bus: BusMetrics,
    /// Merged trace events, sorted by cycle (stable: core events before
    /// bus events within a cycle).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring bounds.
    pub dropped_events: u64,
    /// SEU strikes rolled.
    pub seu_strikes: u64,
    /// SEU strikes that corrupted live state.
    pub seu_landed: u64,
    /// Requests issued by the traffic injector, if one was configured.
    pub injector_requests: Option<u64>,
}

impl MetricsHub {
    /// Renders a fixed-width human-readable summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("cycles simulated: {}\n", self.cycles));
        out.push_str(&format!(
            "{:<6} {:>10} {:>10} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}\n",
            "core", "cycles", "retired", "ipc", "if-stall", "mem-stall", "haz-stall", "fwd-uses",
            "i$-hit", "d$-hit",
        ));
        for (i, core) in self.cores.iter().enumerate() {
            let c = &core.counters;
            let rate = |cache: &Option<CacheCounters>| match cache {
                Some(s) if s.accesses() > 0 => format!("{:6.2}%", 100.0 * s.hit_rate()),
                Some(_) => "  cold ".to_string(),
                None => "   -   ".to_string(),
            };
            out.push_str(&format!(
                "{:<6} {:>10} {:>10} {:>6.2} {:>9} {:>9} {:>9} {:>9} {} {}\n",
                format!("core{i}"),
                c.cycles,
                c.retired,
                c.ipc(),
                c.if_stalls,
                c.mem_stalls,
                c.haz_stalls,
                c.fwd_uses,
                rate(&core.icache),
                rate(&core.dcache),
            ));
        }
        out.push_str(&format!(
            "bus: {} transactions, {} busy cycles\n",
            self.bus.transactions, self.bus.busy_cycles
        ));
        out.push_str(&format!(
            "{:<6} {:>9} {:>9} {:>11} {:>9} {:>9} {:>10}\n",
            "port", "requests", "grants", "wait-cycles", "max-wait", "mean-wait", "bound",
        ));
        for (p, port) in self.bus.ports.iter().enumerate() {
            let bound = match port.bound {
                None => "-".to_string(),
                Some(b) => b.to_string(),
            };
            let verdict = match port.bound {
                Some(b) if !b.admits(port.max_grant_wait) => " VIOLATED",
                _ => "",
            };
            out.push_str(&format!(
                "{:<6} {:>9} {:>9} {:>11} {:>9} {:>9.2} {:>10}{}\n",
                format!("port{p}"),
                port.requests,
                port.grants,
                port.wait_cycles,
                port.max_grant_wait,
                port.wait_hist.mean(),
                bound,
                verdict,
            ));
        }
        out.push_str(&format!(
            "events: {} kept, {} dropped; seu: {} rolled, {} landed",
            self.events.len(),
            self.dropped_events,
            self.seu_strikes,
            self.seu_landed,
        ));
        if let Some(inj) = self.injector_requests {
            out.push_str(&format!("; injector: {inj} requests"));
        }
        out.push('\n');
        out
    }

    /// Renders the run as a Chrome-trace (`chrome://tracing` /
    /// Perfetto) JSON document: one thread per core plus a `soc`
    /// thread, instant events from the ring, and final counter samples.
    pub fn to_chrome_trace(&self) -> String {
        let mut trace = Vec::new();
        let meta = |tid: u64, name: &str| {
            Json::Obj(vec![
                ("name".into(), Json::Str("thread_name".into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::int(0)),
                ("tid".into(), Json::int(tid)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str(name.into()))]),
                ),
            ])
        };
        trace.push(meta(0, "soc"));
        for i in 0..self.cores.len() {
            trace.push(meta(i as u64 + 1, &format!("core{i}")));
        }
        for event in &self.events {
            let tid = event.core.map_or(0, |c| u64::from(c) + 1);
            trace.push(Json::Obj(vec![
                ("name".into(), Json::Str(event.kind.name().into())),
                ("ph".into(), Json::Str("i".into())),
                ("s".into(), Json::Str("t".into())),
                ("ts".into(), Json::int(event.cycle)),
                ("pid".into(), Json::int(0)),
                ("tid".into(), Json::int(tid)),
                ("args".into(), event.args()),
            ]));
        }
        for (i, core) in self.cores.iter().enumerate() {
            let c = &core.counters;
            trace.push(Json::Obj(vec![
                ("name".into(), Json::Str("pipeline".into())),
                ("ph".into(), Json::Str("C".into())),
                ("ts".into(), Json::int(self.cycles)),
                ("pid".into(), Json::int(0)),
                ("tid".into(), Json::int(i as u64 + 1)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("retired".into(), Json::int(c.retired)),
                        ("if_stalls".into(), Json::int(c.if_stalls)),
                        ("mem_stalls".into(), Json::int(c.mem_stalls)),
                        ("haz_stalls".into(), Json::int(c.haz_stalls)),
                        ("fwd_uses".into(), Json::int(c.fwd_uses)),
                    ]),
                ),
            ]));
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(trace))]).render()
    }

    /// Renders the event window as JSONL: one compact object per line
    /// (`cycle`, `core`, `kind`, `args`), ready for `jq`-style
    /// filtering.
    pub fn to_jsonl(&self) -> String {
        self.events
            .iter()
            .map(|event| {
                let line = Json::Obj(vec![
                    ("cycle".into(), Json::int(event.cycle)),
                    ("core".into(), event.core.map_or(Json::Null, |c| Json::int(c.into()))),
                    ("kind".into(), Json::Str(event.kind.name().into())),
                    ("args".into(), event.args()),
                ]);
                line.render() + "\n"
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample_hub() -> MetricsHub {
        let mut bus_obs = BusObs::new(2, 8);
        bus_obs.on_request(0);
        bus_obs.tick();
        bus_obs.on_grant(0, 3, 0x2000_0000, true);
        let (requests, hists, ring) = bus_obs.into_parts();
        let mut hist_iter = hists.into_iter();
        MetricsHub {
            cycles: 100,
            cores: vec![CoreMetrics {
                counters: CoreCounters {
                    cycles: 100,
                    retired: 80,
                    issued: 90,
                    if_stalls: 5,
                    mem_stalls: 3,
                    haz_stalls: 2,
                    fwd_uses: 11,
                },
                icache: Some(CacheCounters {
                    read_hits: 70,
                    read_misses: 10,
                    ..CacheCounters::default()
                }),
                dcache: None,
            }],
            bus: BusMetrics {
                transactions: 1,
                busy_cycles: 8,
                ports: vec![
                    PortMetrics {
                        requests: requests[0],
                        grants: 1,
                        wait_cycles: 3,
                        max_grant_wait: 3,
                        bound: Some(PortBound::Bounded(44)),
                        wait_hist: hist_iter.next().expect("port 0"),
                    },
                    PortMetrics { wait_hist: hist_iter.next().expect("port 1"), ..PortMetrics::default() },
                ],
            },
            events: {
                let mut events = vec![TraceEvent {
                    cycle: 1,
                    core: Some(0),
                    kind: TraceKind::Fetch { pc: 0x400, slots: 2 },
                }];
                events.extend(ring.iter());
                events
            },
            dropped_events: 0,
            seu_strikes: 2,
            seu_landed: 1,
            injector_requests: Some(7),
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let hub = sample_hub();
        let doc = parse_json(&hub.to_chrome_trace()).expect("valid trace JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        // 2 thread-name records, 2 instants, 1 counter sample.
        assert_eq!(events.len(), 5);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("name").and_then(Json::as_str) == Some("bus-grant")
        }));
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let hub = sample_hub();
        let jsonl = hub.to_jsonl();
        assert_eq!(jsonl.lines().count(), hub.events.len());
        for line in jsonl.lines() {
            parse_json(line).expect("valid JSONL line");
        }
    }

    #[test]
    fn summary_table_mentions_every_section() {
        let table = sample_hub().summary_table();
        for needle in [
            "core0",
            "bus:",
            "port0",
            "seu: 2 rolled",
            "injector: 7 requests",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
    }

    #[test]
    fn bus_obs_counts_requests_and_histograms_waits() {
        let mut obs = BusObs::new(3, 4);
        obs.on_request(2);
        obs.on_request(2);
        obs.on_grant(2, 5, 0x0, false);
        assert_eq!(obs.requests()[2], 2);
        assert_eq!(obs.wait_hist(2).count(), 1);
        assert_eq!(obs.wait_hist(2).mass(), 5);
        assert_eq!(obs.ring().len(), 1);
    }
}
