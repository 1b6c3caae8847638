//! Structured trace events.
//!
//! Every notable micro-architectural moment of a run can be recorded as
//! one small, `Copy`able [`TraceEvent`] in a bounded [`EventRing`]
//! (bounded so observation can never grow without limit on a hung run).
//! Events carry the cycle they occurred in and, where meaningful, the
//! core they belong to — enough to render a `chrome://tracing` timeline
//! of a whole boot-time STL run.
//!
//! [`EventRing`]: crate::ring::EventRing

use crate::json::Json;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A fetch packet entered the pipeline (one or two instructions).
    Fetch {
        /// PC of the first issued instruction.
        pc: u32,
        /// Instructions issued this cycle (1 or 2).
        slots: u8,
    },
    /// The instruction cache missed.
    ICacheMiss,
    /// The data cache missed (read or write lookup).
    DCacheMiss,
    /// The bus arbiter granted a port's pending request.
    BusGrant {
        /// Granted master port.
        port: u8,
        /// Cycles the request waited for this grant.
        wait: u32,
        /// Target address of the transaction.
        addr: u32,
        /// Whether the transaction writes (write or swap).
        write: bool,
    },
    /// A transient upset (SEU) was rolled.
    SeuStrike {
        /// Whether the strike corrupted real state (vs was absorbed).
        landed: bool,
    },
    /// The memory-mapped watchdog bit.
    WatchdogBite,
    /// The supervisor quarantined a core.
    Quarantine {
        /// Human-readable failure cause of the last attempt.
        cause: &'static str,
    },
    /// A fleet shard was leased to a worker. For fleet events the
    /// `cycle` field carries milliseconds since the fleet run started
    /// and `core` carries the worker id.
    ShardLease {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Attempt number (0 = first try).
        attempt: u8,
    },
    /// A failed shard attempt was scheduled for retry after backoff.
    ShardRetry {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Failures accumulated so far (drives the exponential backoff).
        failures: u8,
        /// Jittered backoff delay before the next lease, in ms.
        backoff_ms: u32,
        /// Human-readable failure cause.
        cause: &'static str,
    },
    /// An expired lease was revoked and its shard put back up for
    /// stealing by another worker.
    ShardSteal {
        /// Shard index within the fleet plan.
        shard: u32,
    },
    /// A shard exhausted its retry budget and was quarantined.
    ShardQuarantine {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Human-readable failure cause of the last attempt.
        cause: &'static str,
    },
    /// A shard's verdicts were accepted.
    ShardDone {
        /// Shard index within the fleet plan.
        shard: u32,
        /// Faults restored from its checkpoint instead of re-graded.
        restored: u32,
    },
}

impl TraceKind {
    /// Short stable name (Chrome-trace event name, JSONL `"kind"`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Fetch { .. } => "fetch",
            TraceKind::ICacheMiss => "icache-miss",
            TraceKind::DCacheMiss => "dcache-miss",
            TraceKind::BusGrant { .. } => "bus-grant",
            TraceKind::SeuStrike { .. } => "seu-strike",
            TraceKind::WatchdogBite => "watchdog-bite",
            TraceKind::Quarantine { .. } => "quarantine",
            TraceKind::ShardLease { .. } => "shard-lease",
            TraceKind::ShardRetry { .. } => "shard-retry",
            TraceKind::ShardSteal { .. } => "shard-steal",
            TraceKind::ShardQuarantine { .. } => "shard-quarantine",
            TraceKind::ShardDone { .. } => "shard-done",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Core the event belongs to (`None` for SoC-level events such as
    /// bus grants of the traffic injector or the watchdog).
    pub core: Option<u8>,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// The event's payload: the `args` object of its Chrome-trace
    /// instant and of its JSONL line.
    pub fn args(&self) -> Json {
        let int = |v: u32| Json::int(v.into());
        let hex = |v: u32| Json::Str(format!("{v:#x}"));
        let text = |s: &str| Json::Str(s.into());
        let fields = match self.kind {
            TraceKind::Fetch { pc, slots } => vec![("pc", hex(pc)), ("slots", int(slots.into()))],
            TraceKind::BusGrant { port, wait, addr, write } => vec![
                ("port", int(port.into())),
                ("wait", int(wait)),
                ("addr", hex(addr)),
                ("write", Json::Bool(write)),
            ],
            TraceKind::SeuStrike { landed } => vec![("landed", Json::Bool(landed))],
            TraceKind::Quarantine { cause } => vec![("cause", text(cause))],
            TraceKind::ShardLease { shard, attempt } => {
                vec![("shard", int(shard)), ("attempt", int(attempt.into()))]
            }
            TraceKind::ShardRetry { shard, failures, backoff_ms, cause } => vec![
                ("shard", int(shard)),
                ("failures", int(failures.into())),
                ("backoff_ms", int(backoff_ms)),
                ("cause", text(cause)),
            ],
            TraceKind::ShardSteal { shard } => vec![("shard", int(shard))],
            TraceKind::ShardQuarantine { shard, cause } => {
                vec![("shard", int(shard)), ("cause", text(cause))]
            }
            TraceKind::ShardDone { shard, restored } => {
                vec![("shard", int(shard)), ("restored", int(restored))]
            }
            TraceKind::ICacheMiss | TraceKind::DCacheMiss | TraceKind::WatchdogBite => Vec::new(),
        };
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind's JSONL line and Chrome-trace `args`, byte for byte
    /// as the hand-built renderer wrote them before `args` returned a
    /// [`Json`] value.
    #[test]
    fn args_render_as_valid_json() {
        use crate::json::parse_json;
        use crate::metrics::MetricsHub;

        let event = |cycle, core, kind| TraceEvent { cycle, core, kind };
        let cases = [
            (
                event(1, Some(0), TraceKind::Fetch { pc: 0x400, slots: 2 }),
                r#"{"cycle":1,"core":0,"kind":"fetch","args":{"pc":"0x400","slots":2}}"#,
            ),
            (
                event(2, None, TraceKind::WatchdogBite),
                r#"{"cycle":2,"core":null,"kind":"watchdog-bite","args":{}}"#,
            ),
            (
                event(
                    3,
                    None,
                    TraceKind::BusGrant { port: 6, wait: 17, addr: 0x100, write: false },
                ),
                r#"{"cycle":3,"core":null,"kind":"bus-grant","args":{"port":6,"wait":17,"addr":"0x100","write":false}}"#,
            ),
            (
                event(4, Some(2), TraceKind::Quarantine { cause: "x\"y" }),
                r#"{"cycle":4,"core":2,"kind":"quarantine","args":{"cause":"x\"y"}}"#,
            ),
            (
                event(5, Some(1), TraceKind::ShardLease { shard: 7, attempt: 0 }),
                r#"{"cycle":5,"core":1,"kind":"shard-lease","args":{"shard":7,"attempt":0}}"#,
            ),
            (
                event(
                    6,
                    Some(1),
                    TraceKind::ShardRetry {
                        shard: 7,
                        failures: 2,
                        backoff_ms: 12,
                        cause: "worker panic",
                    },
                ),
                r#"{"cycle":6,"core":1,"kind":"shard-retry","args":{"shard":7,"failures":2,"backoff_ms":12,"cause":"worker panic"}}"#,
            ),
            (
                event(7, None, TraceKind::ShardSteal { shard: 7 }),
                r#"{"cycle":7,"core":null,"kind":"shard-steal","args":{"shard":7}}"#,
            ),
            (
                event(8, None, TraceKind::ShardQuarantine { shard: 7, cause: "hang" }),
                r#"{"cycle":8,"core":null,"kind":"shard-quarantine","args":{"shard":7,"cause":"hang"}}"#,
            ),
            (
                event(9, Some(0), TraceKind::ShardDone { shard: 7, restored: 3 }),
                r#"{"cycle":9,"core":0,"kind":"shard-done","args":{"shard":7,"restored":3}}"#,
            ),
            (
                event(10, Some(1), TraceKind::ICacheMiss),
                r#"{"cycle":10,"core":1,"kind":"icache-miss","args":{}}"#,
            ),
            (
                event(11, Some(2), TraceKind::DCacheMiss),
                r#"{"cycle":11,"core":2,"kind":"dcache-miss","args":{}}"#,
            ),
            (
                event(12, None, TraceKind::SeuStrike { landed: true }),
                r#"{"cycle":12,"core":null,"kind":"seu-strike","args":{"landed":true}}"#,
            ),
            (
                event(
                    u64::MAX,
                    Some(255),
                    TraceKind::BusGrant { port: 255, wait: u32::MAX, addr: u32::MAX, write: true },
                ),
                r#"{"cycle":18446744073709551615,"core":255,"kind":"bus-grant","args":{"port":255,"wait":4294967295,"addr":"0xffffffff","write":true}}"#,
            ),
        ];
        for (e, line) in cases {
            let hub = MetricsHub { events: vec![e], ..MetricsHub::default() };
            assert_eq!(hub.to_jsonl(), format!("{line}\n"));
            let trace = parse_json(&hub.to_chrome_trace()).expect("valid trace");
            let instant = &trace.get("traceEvents").and_then(Json::as_arr).expect("events")[1];
            let args = &line[line.find(r#""args":"#).expect("args") + 7..line.len() - 1];
            assert_eq!(instant.get("args").map(Json::render).as_deref(), Some(args));
            assert_eq!(e.args().render(), args);
            assert!(!e.kind.name().is_empty());
        }
    }
}
