//! Ablations of the cache-based wrapper: remove one ingredient at a time
//! and measure what breaks.
//!
//! The paper's §III argues each element of Figure 2b is necessary:
//! cache invalidation (3), the loading loop (1), full cache residency
//! (2.2) and the dummy-load transform under no-write-allocate (1). These
//! experiments make the argument quantitative: for each variant we check
//! whether the signature stays **deterministic** across SoC
//! configurations and what **fault coverage** it reaches.

use sbst_cpu::CoreKind;
use sbst_fault::Unit;
use sbst_soc::Scenario;

use crate::experiment::{ExecStyle, Experiment, ExperimentConfig};
use crate::faultsim::run_campaign_collapsed;
use crate::routines_for;
use crate::tables::Effort;

/// One wrapper variant under ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full method: invalidate + 2 iterations, cached.
    Full,
    /// No cache invalidation before the loop (paper §III.3).
    NoInvalidate,
    /// Single iteration — no loading loop (paper §III.1).
    NoLoadingLoop,
    /// Three iterations (does the extra loop buy anything?).
    ThreeIterations,
    /// Legacy uncached execution (the baseline the paper replaces).
    Uncached,
}

impl Variant {
    /// All variants, `Full` first.
    pub const ALL: [Variant; 5] = [
        Variant::Full,
        Variant::NoInvalidate,
        Variant::NoLoadingLoop,
        Variant::ThreeIterations,
        Variant::Uncached,
    ];

    fn style(self) -> ExecStyle {
        match self {
            Variant::Uncached => ExecStyle::LegacyUncached,
            _ => ExecStyle::CacheWrapped,
        }
    }

    fn wrap_overrides(self) -> (u32, bool) {
        // (iterations, invalidate)
        match self {
            Variant::Full => (2, true),
            Variant::NoInvalidate => (2, false),
            Variant::NoLoadingLoop => (1, true),
            Variant::ThreeIterations => (3, true),
            Variant::Uncached => (1, false),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Variant::Full => "full method",
            Variant::NoInvalidate => "no invalidation",
            Variant::NoLoadingLoop => "no loading loop",
            Variant::ThreeIterations => "3 iterations",
            Variant::Uncached => "uncached (legacy)",
        };
        f.write_str(s)
    }
}

/// Result of ablating one variant.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The variant.
    pub variant: Variant,
    /// Signature identical across all probed SoC configurations.
    pub deterministic: bool,
    /// Distinct signatures observed.
    pub distinct_signatures: usize,
    /// Fault coverage on the sampled list \[%\] (graded against the
    /// variant's own per-scenario golden).
    pub coverage: f64,
    /// Execution cycles of the golden run (first configuration).
    pub cycles: u64,
}

/// Runs the ablation study on the HDCU routine (the most
/// contention-sensitive one: it folds performance counters).
pub fn ablate(kind: CoreKind, effort: &Effort) -> Vec<AblationRow> {
    let factory = routines_for(Unit::Hdcu);
    let list = sbst_cpu::unit_fault_list(kind, Unit::Hdcu);
    let sample = effort.sample(&list);
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        let (iterations, invalidate) = variant.wrap_overrides();
        let mut signatures = Vec::new();
        let mut coverage = 0.0;
        let mut cycles = 0;
        for seed in 0..effort.seeds.max(2) {
            let scenario =
                Scenario { active_cores: 3, skew_seed: seed, ..Scenario::single_core() };
            let config = ExperimentConfig {
                iterations,
                invalidate,
                ..ExperimentConfig::new(kind, variant.style(), scenario)
            };
            let exp = Experiment::assemble_config(&*factory, &config).expect("ablation experiment");
            let golden = exp.golden();
            signatures.push(golden.signature);
            if seed == 0 {
                cycles = golden.cycles;
                coverage = run_campaign_collapsed(&exp, &golden, &sample, 0).coverage();
            }
        }
        signatures.sort_unstable();
        signatures.dedup();
        rows.push(AblationRow {
            variant,
            deterministic: signatures.len() == 1,
            distinct_signatures: signatures.len(),
            coverage,
            cycles,
        });
    }
    rows
}

/// Renders the ablation study.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "ABLATION — WRAPPER VARIANTS (HDCU routine, 3 active cores)\n\
         Variant            | Deterministic | Distinct sigs | FC [%] | Cycles\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} | {:>13} | {:>13} | {:>6.2} | {:>6}\n",
            r.variant.to_string(),
            if r.deterministic { "YES" } else { "no" },
            r.distinct_signatures,
            r.coverage,
            r.cycles
        ));
    }
    out
}
