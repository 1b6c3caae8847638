//! Chaos campaign: sweeping adversarial bus interference × transient
//! upset rate against the self-healing cache-wrapped runtime.
//!
//! Each cell of the sweep fixes an injector *intensity* (0 = quiet bus,
//! 100 = full saturation) and an SEU *rate* (strikes per million
//! cycles), then runs `trials` independent healed executions of the
//! counter-sensitive forwarding routine. Per trial the healer's
//! [`RecoveryReport`](sbst_stl::RecoveryReport) is classified:
//!
//! * **clean** — first run's signature cross-checked OK;
//! * **recovered** — a retry (fresh SoC, re-seeded transients) healed
//!   it;
//! * **quarantined** — the retry budget ran out, escalation;
//! * **silent** — the healer *trusted* a signature that differs from
//!   the fault-free golden. The headline invariant of the chaos layer
//!   is that this count stays **zero** in every cell.
//!
//! A second derived invariant: in cells with SEU rate 0 (interference
//! only), quarantine is a *false* quarantine — the deterministic
//! wrapper makes timing interference invisible to the signature, so
//! these must also be zero.

use std::sync::Arc;

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_mem::{InjectorProgram, Prng, SeuConfig};
use sbst_soc::{ChaosConfig, SocBuilder};
use sbst_stl::routines::ForwardingTest;
use sbst_stl::{
    cycle_budget_for, learn_golden_cached, run_self_healing, wrap_cached, CheckMode, HealAction,
    HealConfig, RoutineEnv, RunReport, WrapConfig, WrapError, RESULT_SIG_OFF, RESULT_STATUS_OFF,
};

/// Flash base the chaos program is assembled at.
const CHAOS_BASE: u32 = 0x1000;

/// The sweep's axes and budgets.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// Injector intensities (0..=100; 0 = idle, 100 = saturation).
    pub intensities: Vec<u32>,
    /// SEU rates in strikes per million cycles (0 = off).
    pub seu_rates: Vec<u32>,
    /// Healed executions per cell.
    pub trials: usize,
    /// Root seed: every injector program and strike schedule derives
    /// from it, so a sweep is reproducible end to end.
    pub seed: u64,
    /// Healer retry budget per trial.
    pub max_retries: usize,
}

impl ChaosSweepConfig {
    /// The default grid: quiet/moderate/saturated bus × off/low/high
    /// upset rates.
    pub fn default_sweep(seed: u64) -> ChaosSweepConfig {
        ChaosSweepConfig {
            intensities: vec![0, 40, 100],
            seu_rates: vec![0, 300, 3_000],
            trials: 4,
            seed,
            max_retries: 3,
        }
    }

    /// A tiny grid for CI smoke runs. The non-zero SEU rate is moderate
    /// (roughly one or two strikes per ~2k-cycle run) so both the
    /// recovery and the escalation legs get exercised.
    pub fn smoke(seed: u64) -> ChaosSweepConfig {
        ChaosSweepConfig {
            intensities: vec![0, 100],
            seu_rates: vec![0, 1_000],
            trials: 3,
            seed,
            max_retries: 3,
        }
    }
}

/// Aggregated outcomes of one (intensity, rate) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosCell {
    /// Injector intensity of this cell.
    pub intensity: u32,
    /// SEU rate of this cell (ppm).
    pub seu_rate_ppm: u32,
    /// Trials executed.
    pub trials: usize,
    /// Trials whose first run cross-checked clean.
    pub clean: usize,
    /// Trials healed by at least one retry.
    pub recovered: usize,
    /// Trials escalated to quarantine.
    pub quarantined: usize,
    /// Trials where a trusted signature differed from the golden —
    /// must stay 0.
    pub silent: usize,
    /// Full-SoC simulations consumed (runs, including votes/retries).
    pub runs: u64,
    /// SEU strikes that corrupted real state across all runs.
    pub seu_landed: u64,
    /// Requests the traffic injector issued across all runs.
    pub injector_requests: u64,
    /// Worst single grant latency observed on any bus port (cycles).
    pub max_grant_wait: u64,
    /// Total cycles any master spent waiting for a grant.
    pub bus_wait_cycles: u64,
    /// Analytical per-access worst-case grant latency certified for
    /// this cell's platform (round-robin over the cell's port count).
    pub certified_bound: u64,
    /// Runs in which any port's observed worst wait exceeded its
    /// certified bound — the sweep's hardest invariant: **0**, for
    /// every cell, including full saturation.
    pub bound_violations: u64,
}

/// The whole sweep's outcome.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Golden signature every trusted signature was audited against.
    pub golden: u32,
    /// One entry per (intensity, rate) cell, rate-major order.
    pub cells: Vec<ChaosCell>,
}

/// Sweep-level telemetry totals of a [`ChaosReport`] — the summary
/// `chaos_sweep` writes to `out/chaos_report.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosTelemetry {
    /// Sweep cells executed.
    pub cells: u64,
    /// Trials across all cells.
    pub trials: u64,
    /// Trials clean on the first run.
    pub clean: u64,
    /// Trials healed by a retry.
    pub recovered: u64,
    /// Trials escalated to quarantine.
    pub quarantined: u64,
    /// Silent corruptions (invariant: 0).
    pub silent: u64,
    /// Quarantines in interference-only cells (invariant: 0).
    pub false_quarantines: u64,
    /// Full-SoC simulations consumed.
    pub runs: u64,
    /// SEU strikes that corrupted real state.
    pub seu_landed: u64,
    /// Requests issued by the traffic injector.
    pub injector_requests: u64,
    /// Worst single grant latency on any bus port (cycles).
    pub max_grant_wait: u64,
    /// Total grant-wait cycles across all masters and runs.
    pub bus_wait_cycles: u64,
    /// Certified per-access worst-case grant latency (cycles).
    pub certified_bound: u64,
    /// Runs whose observed wait exceeded the certified bound
    /// (invariant: 0).
    pub bound_violations: u64,
}

impl ChaosTelemetry {
    /// Renders the totals as a JSON object.
    pub fn to_json(&self) -> sbst_obs::Json {
        use sbst_obs::Json;
        Json::Obj(vec![
            ("cells".into(), Json::int(self.cells)),
            ("trials".into(), Json::int(self.trials)),
            ("clean".into(), Json::int(self.clean)),
            ("recovered".into(), Json::int(self.recovered)),
            ("quarantined".into(), Json::int(self.quarantined)),
            ("silent".into(), Json::int(self.silent)),
            ("false_quarantines".into(), Json::int(self.false_quarantines)),
            ("runs".into(), Json::int(self.runs)),
            ("seu_landed".into(), Json::int(self.seu_landed)),
            ("injector_requests".into(), Json::int(self.injector_requests)),
            ("max_grant_wait".into(), Json::int(self.max_grant_wait)),
            ("bus_wait_cycles".into(), Json::int(self.bus_wait_cycles)),
            ("certified_bound".into(), Json::int(self.certified_bound)),
            ("bound_violations".into(), Json::int(self.bound_violations)),
        ])
    }
}

impl ChaosReport {
    /// Total silent corruptions — the invariant is 0.
    pub fn silent_total(&self) -> usize {
        self.cells.iter().map(|c| c.silent).sum()
    }

    /// Sweep-level telemetry totals.
    pub fn telemetry(&self) -> ChaosTelemetry {
        let mut t = ChaosTelemetry {
            cells: self.cells.len() as u64,
            false_quarantines: self.false_quarantines() as u64,
            ..ChaosTelemetry::default()
        };
        for c in &self.cells {
            t.trials += c.trials as u64;
            t.clean += c.clean as u64;
            t.recovered += c.recovered as u64;
            t.quarantined += c.quarantined as u64;
            t.silent += c.silent as u64;
            t.runs += c.runs;
            t.seu_landed += c.seu_landed;
            t.injector_requests += c.injector_requests;
            t.max_grant_wait = t.max_grant_wait.max(c.max_grant_wait);
            t.bus_wait_cycles += c.bus_wait_cycles;
            t.certified_bound = t.certified_bound.max(c.certified_bound);
            t.bound_violations += c.bound_violations;
        }
        t
    }

    /// Bound violations across the whole sweep — the invariant is 0.
    pub fn bound_violations_total(&self) -> u64 {
        self.cells.iter().map(|c| c.bound_violations).sum()
    }

    /// Quarantines in interference-only cells (SEU rate 0) — these are
    /// false alarms; the invariant is 0.
    pub fn false_quarantines(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.seu_rate_ppm == 0)
            .map(|c| c.quarantined)
            .sum()
    }

    /// Trials recovered across the whole sweep.
    pub fn recovered_total(&self) -> usize {
        self.cells.iter().map(|c| c.recovered).sum()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>9} {:>8} {:>6} {:>6} {:>10} {:>11} {:>7} {:>7} {:>9} {:>10} {:>7} {:>9}",
            "intensity", "seu_ppm", "clean", "recov", "quarantine", "silent",
            "runs", "strikes", "inj_reqs", "max_wait", "bound", "violation"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:>9} {:>8} {:>6} {:>6} {:>10} {:>11} {:>7} {:>7} {:>9} {:>10} {:>7} {:>9}",
                c.intensity, c.seu_rate_ppm, c.clean, c.recovered, c.quarantined,
                c.silent, c.runs, c.seu_landed, c.injector_requests, c.max_grant_wait,
                c.certified_bound, c.bound_violations
            )?;
        }
        write!(
            f,
            "totals: silent={} false_quarantines={} recovered={} bound_violations={}",
            self.silent_total(),
            self.false_quarantines(),
            self.recovered_total(),
            self.bound_violations_total()
        )
    }
}

/// Runs the chaos sweep.
///
/// The routine under test is the forwarding test *with* performance
/// counters — the paper's poster child for contention-sensitivity: its
/// unwrapped signature folds stall counters and therefore moves with
/// bus traffic, so any wrapper leak would show up immediately.
///
/// Trials alternate the healer's cross-check: even trials compare
/// against the learned golden, odd trials use the 2-of-3 vote (and the
/// voted signature is then *audited* against the golden — a vote that
/// trusts a wrong signature counts as silent corruption).
///
/// # Errors
///
/// Propagates wrapper/assembly errors.
pub fn run_chaos_campaign(cfg: &ChaosSweepConfig) -> Result<ChaosReport, WrapError> {
    let kind = CoreKind::A;
    let routine = ForwardingTest::with_pcs(kind);
    let env = RoutineEnv::for_core(kind);
    let wrap = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &wrap, kind, CHAOS_BASE)?;

    let asm = wrap_cached(&routine, &env, &wrap, "chaos")?;
    let program = asm.assemble(CHAOS_BASE)?;
    let budget = cycle_budget_for(&env, &asm);
    let image = {
        let mut b = SocBuilder::new();
        b = b.load(&program);
        b.freeze_image()
    };

    let root = Prng::new(cfg.seed);
    let mut cells = Vec::new();
    for (ri, &rate) in cfg.seu_rates.iter().enumerate() {
        for (ii, &intensity) in cfg.intensities.iter().enumerate() {
            let mut cell = ChaosCell {
                intensity,
                seu_rate_ppm: rate,
                trials: cfg.trials,
                clean: 0,
                recovered: 0,
                quarantined: 0,
                silent: 0,
                runs: 0,
                seu_landed: 0,
                injector_requests: 0,
                max_grant_wait: 0,
                bus_wait_cycles: 0,
                certified_bound: 0,
                bound_violations: 0,
            };
            for trial in 0..cfg.trials {
                let mut seeds =
                    root.split(((ri * 101 + ii) * 1009 + trial) as u64 + 1);
                let chaos = ChaosConfig {
                    injector: InjectorProgram::with_intensity(intensity, seeds.next_u64()),
                    seu: SeuConfig::at_rate(seeds.next_u64(), rate),
                };
                let check = if trial % 2 == 0 {
                    CheckMode::Golden(golden)
                } else {
                    CheckMode::Vote
                };
                let heal = HealConfig { max_retries: cfg.max_retries, check };
                let report = run_self_healing(&heal, |attempt| {
                    let mut soc = SocBuilder::new()
                        .core(CoreConfig::cached(kind, 0, CHAOS_BASE), 0)
                        .chaos(chaos.for_attempt(attempt))
                        .build_shared(Arc::clone(&image));
                    let outcome = soc.run(budget);
                    cell.runs += 1;
                    cell.seu_landed += soc.seu_landed() as u64;
                    if let Some(s) = soc.injector_stats() {
                        cell.injector_requests += s.requests;
                    }
                    let bs = soc.bus().stats();
                    cell.max_grant_wait = cell
                        .max_grant_wait
                        .max(bs.max_grant_wait.iter().copied().max().unwrap_or(0));
                    cell.bus_wait_cycles += bs.wait_cycles.iter().sum::<u64>();
                    // Judge every port's observed worst wait against the
                    // analytical bound of this platform (round-robin, so
                    // every port is bounded).
                    let bounds = soc.bus().bound_params();
                    let mut violated = false;
                    for (p, &observed) in bs.max_grant_wait.iter().enumerate() {
                        let b = bounds.per_access_wcl(p);
                        cell.certified_bound =
                            cell.certified_bound.max(b.cycles().unwrap_or(0));
                        violated |= !b.admits(observed);
                    }
                    cell.bound_violations += u64::from(violated);
                    RunReport {
                        outcome,
                        signature: soc.peek(env.result_addr + RESULT_SIG_OFF as u32),
                        status: soc.peek(env.result_addr + RESULT_STATUS_OFF as u32),
                        cycles: soc.cycle(),
                    }
                });
                match report.action {
                    HealAction::Clean => cell.clean += 1,
                    HealAction::Recovered { .. } => cell.recovered += 1,
                    HealAction::Quarantine { .. } => cell.quarantined += 1,
                }
                // Audit: a signature the healer trusted but that is not
                // the fault-free golden is a silent corruption.
                if let Some(sig) = report.signature {
                    if sig != golden {
                        cell.silent += 1;
                    }
                }
            }
            cells.push(cell);
        }
    }
    Ok(ChaosReport { golden, cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_has_no_silent_corruption_or_false_quarantine() {
        let cfg = ChaosSweepConfig {
            intensities: vec![0, 80],
            seu_rates: vec![0, 2_000],
            trials: 2,
            seed: 0xc4a0,
            max_retries: 3,
        };
        let report = run_chaos_campaign(&cfg).expect("sweep runs");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.silent_total(), 0, "{report}");
        assert_eq!(report.false_quarantines(), 0, "{report}");
        assert_eq!(report.bound_violations_total(), 0, "{report}");
        // Every cell carries the analytical certificate it was judged
        // against (1 core + injector = 3 ports, round-robin).
        for c in &report.cells {
            assert!(c.certified_bound > 0, "{report}");
            assert!(c.max_grant_wait <= c.certified_bound, "{report}");
        }
        // Interference-only cells are not merely non-quarantined: every
        // trial is clean on the first try (the wrapper absorbs timing).
        for c in report.cells.iter().filter(|c| c.seu_rate_ppm == 0) {
            assert_eq!(c.clean, c.trials, "{report}");
        }
        // The saturating injector demonstrably contended for the bus.
        let hot = report
            .cells
            .iter()
            .find(|c| c.intensity == 80 && c.seu_rate_ppm == 0)
            .expect("hot cell");
        assert!(hot.injector_requests > 0, "{report}");
        assert!(hot.max_grant_wait > 0, "{report}");
    }
}
