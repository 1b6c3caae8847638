//! The untraced run: end-to-end metrics.
//!
//! The host this benchmark was tuned on switches between speed modes
//! up to 2× apart that last seconds to tens of seconds, so no single
//! timing is trusted. A run repeats equal passes — a fresh set-up, then
//! one grading of the whole sample — until `--seconds` have passed, and
//! reports the fastest grading and the fastest set-up, as
//! `bench_campaign` does: a slow episode only lengthens the passes it
//! overlaps, and sets a figure only if it covers the whole run.

use std::time::{Duration, Instant};

use crate::inputs::Workload;
use crate::oracle::{Oracle, Tally};
use crate::stats::peak_rss_mib;
use crate::trace::Tracer;
use crate::workload::{check, check_fleet_goldens, grade, scratch_dir, setup};
use crate::{Metric, Outcome};

/// Fewest measured passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 5;

/// Timings of the measured passes of one run.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// Faults graded per pass.
    pub items: usize,
    /// Set-up time of each pass.
    pub setup: Vec<Duration>,
    /// Grading time of each pass.
    pub grade: Vec<Duration>,
}

impl Passes {
    /// Faults per second of the fastest pass.
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / fastest(&self.grade)
    }

    /// Records one pass.
    pub fn push(&mut self, setup: Duration, grade: Duration, items: usize) {
        self.setup.push(setup);
        self.grade.push(grade);
        self.items = items;
    }

    /// Fastest set-up time in seconds.
    pub fn setup_s(&self) -> f64 {
        fastest(&self.setup)
    }
}

/// The shortest of `d` in seconds.
fn fastest(d: &[Duration]) -> f64 {
    d.iter()
        .min()
        .expect("a run makes at least one pass")
        .as_secs_f64()
}

/// Makes one pass: set-up, grading, oracle check. Returns the set-up
/// and grading times and the faults graded.
pub fn pass(
    workload: Workload,
    seed: u64,
    oracle: &Oracle,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Duration, Duration, usize) {
    let start = Instant::now();
    let prepared = setup(workload, seed, oracle, tracer);
    let setup_time = start.elapsed();
    let graded = grade(&prepared, seed, &scratch_dir(workload), tracer);
    check(&prepared, &graded, oracle, tally);
    (setup_time, graded.elapsed, prepared.items())
}

/// Runs `workload` for `seconds` untraced and reports `items_per_s`,
/// `setup_s` and `peak_rss_mb`.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64, oracle: &Oracle) -> Outcome {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);

    // One unmeasured pass lets lazy allocation and page faults settle.
    // The fleet grader keeps its golden runs to itself; check them once.
    let warm = setup(workload, seed, oracle, &mut tracer);
    let graded = grade(&warm, seed, &scratch_dir(workload), &mut tracer);
    check(&warm, &graded, oracle, &mut tally);
    if workload == Workload::CtlFleet {
        check_fleet_goldens(&warm, oracle, &mut tally);
    }
    drop(warm);

    let mut passes = Passes::default();
    let start = Instant::now();
    while passes.grade.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (s, g, items) = pass(workload, seed, oracle, &mut tally, &mut tracer);
        passes.push(s, g, items);
    }
    report_passes(&passes);

    let metrics = vec![
        Metric {
            name: "items_per_s",
            value: passes.items_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: passes.setup_s(),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mib().expect("the platform reports VmHWM"),
            unit: "MiB",
        },
    ];
    Outcome { tally, metrics }
}

/// Prints the pass timings to the error stream (diagnostics only).
fn report_passes(passes: &Passes) {
    let ms = |d: &[Duration]| {
        d.iter()
            .map(|t| format!("{:.0}", t.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "{} passes of {} faults; grade ms: {}; setup ms: {}",
        passes.grade.len(),
        passes.items,
        ms(&passes.grade),
        ms(&passes.setup)
    );
}
