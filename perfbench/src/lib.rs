//! Benchmark of the det-sbst fault-grading stack.
//!
//! Two closed-loop workloads, each taken from one of the paper's
//! experiments, grade seeded fault samples through the entry points
//! users call and check every verdict against a recorded reference
//! oracle. An untraced run reports the end-to-end metrics; a traced run
//! times the calls into each layer and reports per-layer metrics. See
//! `README.md` for the workloads, the metrics and what each should move.

pub mod inputs;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Oracle checks.
    pub tally: oracle::Tally,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}
