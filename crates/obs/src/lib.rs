#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-obs — the observability layer
//!
//! A dependency-free leaf crate every layer of the simulator can hook
//! into: per-core pipeline counters, per-cache hit/miss counters,
//! per-bus-port grant-latency histograms, a bounded structured event
//! ring, and campaign-level telemetry — plus Chrome-trace
//! (`chrome://tracing`) and JSONL exporters and a minimal hand-written
//! JSON parser/renderer (the workspace carries no serde).
//!
//! ## Design contract
//!
//! Observation is **strictly read-only with respect to the simulated
//! machine**: observers receive copies of counters and notifications of
//! events and accumulate them in their own plain-data state. Nothing an
//! observer does can change a signature, a verdict, or a cycle count —
//! the headline property test of the repository runs every SoC with and
//! without observers attached and asserts bit-identical architectural
//! results.
//!
//! The hot-path cost when disabled is a single `Option` discriminant
//! check: the simulator stores observers as `Option<Box<...>>` fields
//! that stay `None` unless explicitly attached (see
//! `SocBuilder::observe` in `sbst-soc`).

pub mod hist;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod telemetry;
pub mod trace;

pub use hist::Histogram;
pub use json::{parse_json, Json, JsonError};
pub use metrics::{
    BusMetrics, BusObs, CacheCounters, CoreCounters, CoreMetrics, CoreSample, FleetCounters,
    MetricsHub, PortBound, PortMetrics,
};
pub use ring::EventRing;
pub use telemetry::{FleetTelemetry, VerdictMix};
pub use trace::{TraceEvent, TraceKind};
