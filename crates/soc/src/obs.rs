//! The SoC-level observer: per-cycle delta sampling of every core plus
//! collection of the final [`MetricsHub`].
//!
//! The observer is attached via [`SocBuilder::observe`] and stays a
//! strictly read-only passenger: each cycle it copies every core's
//! counters ([`sbst_cpu::Core::obs_sample`]), diffs them against the
//! previous cycle's copy, and turns the deltas into [`TraceEvent`]s in
//! a bounded ring. Disabled (the default), the whole layer is one
//! `Option` discriminant check per SoC step.
//!
//! [`SocBuilder::observe`]: crate::SocBuilder::observe

use sbst_mem::SeuTarget;
use sbst_obs::{
    BusMetrics, BusObs, CoreMetrics, CoreSample, EventRing, MetricsHub, PortMetrics, TraceEvent,
    TraceKind,
};

use crate::soc::Soc;

/// Configuration of the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capacity of each event ring (core-side and bus-side); the rings
    /// keep the most recent window and count what they drop.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { ring_capacity: 4096 }
    }
}

/// The core-side observer state carried by an observed [`Soc`].
#[derive(Debug, Clone)]
pub(crate) struct SocObs {
    ring: EventRing,
    prev: Vec<CoreSample>,
    watchdog_seen: bool,
    seu_seen: usize,
}

impl SocObs {
    /// An observer primed with the cores' current samples.
    pub(crate) fn new(cfg: ObsConfig, prev: Vec<CoreSample>) -> SocObs {
        SocObs { ring: EventRing::new(cfg.ring_capacity), prev, watchdog_seen: false, seu_seen: 0 }
    }

    /// Called at the end of every SoC step (before the cycle counter
    /// increments), with the cycle that just executed.
    pub(crate) fn observe(&mut self, soc: &Soc, cycle: u64) {
        for i in 0..soc.core_count() {
            let sample = soc.core(i).obs_sample();
            let prev = &self.prev[i];
            let issued = sample.counters.issued - prev.counters.issued;
            if issued > 0 {
                self.ring.push(TraceEvent {
                    cycle,
                    core: Some(i as u8),
                    kind: TraceKind::Fetch {
                        pc: sample.ex_pc.unwrap_or(sample.next_pc),
                        slots: issued.min(2) as u8,
                    },
                });
            }
            let misses = |c: &Option<sbst_obs::CacheCounters>| c.map_or(0, |s| s.misses());
            if misses(&sample.icache) > misses(&prev.icache) {
                self.ring.push(TraceEvent {
                    cycle,
                    core: Some(i as u8),
                    kind: TraceKind::ICacheMiss,
                });
            }
            if misses(&sample.dcache) > misses(&prev.dcache) {
                self.ring.push(TraceEvent {
                    cycle,
                    core: Some(i as u8),
                    kind: TraceKind::DCacheMiss,
                });
            }
            self.prev[i] = sample;
        }
        for event in &soc.seu_events()[self.seu_seen..] {
            let core = match event.strike.target {
                SeuTarget::ICache { core } | SeuTarget::DCache { core } => {
                    Some((core % soc.core_count()) as u8)
                }
                SeuTarget::BusData => None,
            };
            self.ring.push(TraceEvent {
                cycle,
                core,
                kind: TraceKind::SeuStrike { landed: event.landed },
            });
        }
        self.seu_seen = soc.seu_events().len();
        if !self.watchdog_seen && soc.bus().watchdog().bitten() {
            self.watchdog_seen = true;
            self.ring.push(TraceEvent { cycle, core: None, kind: TraceKind::WatchdogBite });
        }
    }

    /// The core-side event ring.
    pub(crate) fn ring(&self) -> &EventRing {
        &self.ring
    }
}

/// Builds the final hub from an observed SoC's pieces: per-core final
/// samples, bus statistics plus the bus observer's histograms, and the
/// two event rings merged in cycle order (stable, core events first
/// within a cycle).
pub(crate) fn collect(soc: &Soc, obs: &SocObs, bus_obs: &BusObs) -> MetricsHub {
    let cores = (0..soc.core_count())
        .map(|i| {
            let s = soc.core(i).obs_sample();
            CoreMetrics { counters: s.counters, icache: s.icache, dcache: s.dcache }
        })
        .collect();
    let stats = soc.bus().stats();
    let bounds = soc.bus().bound_params();
    let ports = (0..soc.bus().ports())
        .map(|p| PortMetrics {
            requests: bus_obs.requests()[p],
            grants: stats.grants[p],
            wait_cycles: stats.wait_cycles[p],
            max_grant_wait: stats.max_grant_wait[p],
            bound: Some(bounds.per_access_wcl(p)),
            wait_hist: bus_obs.wait_hist(p).clone(),
        })
        .collect();
    let mut events: Vec<TraceEvent> = obs.ring().to_vec();
    events.extend(bus_obs.ring().iter());
    events.sort_by_key(|e| e.cycle);
    MetricsHub {
        cycles: soc.cycle(),
        cores,
        bus: BusMetrics {
            transactions: stats.transactions,
            busy_cycles: stats.busy_cycles,
            ports,
        },
        events,
        dropped_events: obs.ring().dropped() + bus_obs.ring().dropped(),
        seu_strikes: soc.seu_events().len() as u64,
        seu_landed: soc.seu_landed() as u64,
        injector_requests: soc.injector_stats().map(|s| s.requests),
    }
}
