//! The parallel fault-simulation engine.
//!
//! Robustness contract: one fault's simulation crashing (a harness
//! defect — the fault model itself never panics on purpose) must not
//! abort the campaign. Every per-fault evaluation runs under
//! [`std::panic::catch_unwind`]; a panic is recorded as
//! [`Verdict::SimError`] against the offending [`FaultSite`] together
//! with the panic message, and every other fault's verdict is
//! unaffected. Worker-thread join failures are aggregated the same way
//! instead of being `expect`ed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sbst_fault::{FaultList, FaultPlane, FaultSite, Verdict};

use crate::experiment::{Experiment, Observation, Snapshot};
use crate::tail::LoopCheck;

/// Grades one fault site into a [`Verdict`] — the seam the campaign
/// engine runs behind. The production implementation is an
/// [`Experiment`] plus its golden [`Observation`]; tests substitute
/// graders that panic or misbehave to exercise the engine's isolation.
pub trait FaultGrader: Sync {
    /// Simulates `site` and classifies the outcome.
    fn grade(&self, site: FaultSite) -> Verdict;
}

/// The production grader: a fault-free reference plus the experiment.
pub(crate) struct ExperimentGrader<'a> {
    /// The configured experiment.
    pub experiment: &'a Experiment,
    /// Its golden observation.
    pub golden: &'a Observation,
}

impl FaultGrader for ExperimentGrader<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        self.experiment.test_fault(self.golden, site)
    }
}

/// The warm-start grader: clones the golden-prefix [`Snapshot`] per
/// fault and simulates only the tail through the tail driver (the
/// campaign fast path; verdict-equivalent to [`ExperimentGrader`],
/// asserted by the warm-start test suite). The warm tier and the PPSFP
/// fallback both grade with it.
pub(crate) struct WarmExperimentGrader<'a> {
    /// The configured experiment.
    pub experiment: &'a Experiment,
    /// Its golden observation.
    pub golden: &'a Observation,
    /// The golden-prefix snapshot (see [`Experiment::snapshot`]).
    pub snapshot: &'a Snapshot,
    /// Tails whose hang the loop decider decided.
    pub decided: AtomicUsize,
}

impl<'a> WarmExperimentGrader<'a> {
    pub fn new(
        experiment: &'a Experiment,
        golden: &'a Observation,
        snapshot: &'a Snapshot,
    ) -> WarmExperimentGrader<'a> {
        WarmExperimentGrader { experiment, golden, snapshot, decided: AtomicUsize::new(0) }
    }
}

impl FaultGrader for WarmExperimentGrader<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        let (faulty, check) =
            self.experiment.run_warm_checked(self.snapshot, FaultPlane::armed(site));
        if check == LoopCheck::Decided {
            self.decided.fetch_add(1, Ordering::Relaxed);
        }
        Experiment::classify(self.golden, &faulty)
    }
}

/// One recorded simulation failure: which fault's evaluation crashed
/// (or which worker died) and the rendered panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// The fault whose simulation crashed; `None` for a worker-level
    /// failure not attributable to a single site.
    pub site: Option<FaultSite>,
    /// Index of the fault in the graded list (`usize::MAX` for
    /// worker-level failures).
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.site {
            Some(site) => write!(f, "fault #{} {:?}: {}", self.index, site, self.message),
            None => write!(f, "worker: {}", self.message),
        }
    }
}

/// Renders a `catch_unwind` payload into a readable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Aggregated result of fault-simulating one fault list against one
/// experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignResult {
    /// Faults simulated.
    pub total: usize,
    /// Detected via signature mismatch.
    pub wrong_signature: usize,
    /// Detected via the routine's own FAIL status.
    pub test_fail: usize,
    /// Detected via an unexpected trap.
    pub unexpected_trap: usize,
    /// Detected via the watchdog (hang).
    pub hang: usize,
    /// Not detected.
    pub undetected: usize,
    /// Simulations that crashed (harness defects, not silicon verdicts).
    pub sim_errors: usize,
}

impl CampaignResult {
    /// Total detections (crashed simulations prove nothing and are
    /// excluded).
    pub fn detected(&self) -> usize {
        self.total - self.undetected - self.sim_errors
    }

    /// Fault coverage in percent.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.detected() as f64 / self.total as f64
    }

    /// Counts `n` faults graded `verdict` — the one place a verdict
    /// maps onto a counter.
    pub(crate) fn record(&mut self, verdict: Verdict, n: usize) {
        self.total += n;
        let counter = match verdict {
            Verdict::WrongSignature => &mut self.wrong_signature,
            Verdict::TestFail => &mut self.test_fail,
            Verdict::UnexpectedTrap => &mut self.unexpected_trap,
            Verdict::Hang => &mut self.hang,
            Verdict::Undetected => &mut self.undetected,
            Verdict::SimError => &mut self.sim_errors,
        };
        *counter += n;
    }

    /// Aggregates a stream of verdicts.
    pub(crate) fn tally(verdicts: impl IntoIterator<Item = Verdict>) -> CampaignResult {
        let mut result = CampaignResult::default();
        for v in verdicts {
            result.record(v, 1);
        }
        result
    }

    /// The verdict distribution in the observability layer's type.
    pub fn mix(&self) -> sbst_obs::VerdictMix {
        sbst_obs::VerdictMix {
            wrong_signature: self.wrong_signature as u64,
            test_fail: self.test_fail as u64,
            unexpected_trap: self.unexpected_trap as u64,
            hang: self.hang as u64,
            undetected: self.undetected as u64,
            sim_error: self.sim_errors as u64,
        }
    }

    /// Rebuilds the aggregate from per-fault records.
    pub fn from_records(records: &[(FaultSite, Verdict)]) -> CampaignResult {
        CampaignResult::tally(records.iter().map(|&(_, v)| v))
    }
}

impl std::fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} detected ({:.2}%): sig {}, fail {}, trap {}, hang {}",
            self.detected(),
            self.total,
            self.coverage(),
            self.wrong_signature,
            self.test_fail,
            self.unexpected_trap,
            self.hang
        )?;
        if self.sim_errors != 0 {
            write!(f, ", sim-errors {}", self.sim_errors)?;
        }
        Ok(())
    }
}

/// Resolves a requested thread count (0 = available parallelism).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// The core engine: grades `sites[i]` for every `i` where `pending`
/// holds `None`, writing verdicts in place and appending crash reports
/// to `errors`. Panics inside `grader.grade` become
/// [`Verdict::SimError`]; worker join failures become site-less
/// [`CampaignError`]s.
pub(crate) fn grade_pending(
    grader: &dyn FaultGrader,
    sites: &[FaultSite],
    pending: &Mutex<Vec<Option<Verdict>>>,
    errors: &Mutex<Vec<CampaignError>>,
    threads: usize,
) {
    let todo: Vec<usize> = {
        let slots = pending.lock().expect("verdict slots");
        assert_eq!(slots.len(), sites.len(), "slot/site length mismatch");
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.is_none().then_some(i))
            .collect()
    };
    if todo.is_empty() {
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = todo.get(t) else { break };
        let site = sites[i];
        let verdict = match catch_unwind(AssertUnwindSafe(|| grader.grade(site))) {
            Ok(v) => v,
            Err(payload) => {
                errors.lock().expect("error log").push(CampaignError {
                    site: Some(site),
                    index: i,
                    message: panic_message(payload),
                });
                Verdict::SimError
            }
        };
        pending.lock().expect("verdict slots")[i] = Some(verdict);
    };
    // A panic that escaped the per-fault isolation (e.g. in the engine
    // itself) is recorded instead of aborting the whole campaign.
    let escaped = |payload| {
        errors.lock().expect("error log").push(CampaignError {
            site: None,
            index: usize::MAX,
            message: panic_message(payload),
        });
    };
    // Worker 0 grades on the calling thread, so one worker spawns none
    // and its simulations allocate in the caller's heap.
    let threads = resolve_threads(threads).min(todo.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            escaped(payload);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                escaped(payload);
            }
        }
    });
}

/// Pairs every site with its filled verdict slot, in fault-list order,
/// and aggregates them.
pub(crate) fn finish(
    sites: &[FaultSite],
    slots: Mutex<Vec<Option<Verdict>>>,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>) {
    let records: Vec<(FaultSite, Verdict)> = sites
        .iter()
        .zip(slots.into_inner().expect("verdict slots"))
        .map(|(&s, v)| (s, v.expect("every fault graded")))
        .collect();
    (CampaignResult::from_records(&records), records)
}

/// Detailed campaign against any [`FaultGrader`]: per-fault verdicts in
/// fault-list order plus every recorded simulation crash. The seam the
/// panic-isolation tests inject misbehaving graders through.
pub fn run_campaign_graded(
    grader: &dyn FaultGrader,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, Vec<CampaignError>) {
    let sites = faults.sites();
    let pending = Mutex::new(vec![None::<Verdict>; sites.len()]);
    let errors = Mutex::new(Vec::new());
    grade_pending(grader, sites, &pending, &errors, threads);
    let (result, records) = finish(sites, pending);
    (result, records, errors.into_inner().expect("error log"))
}

/// The cold reference tier: fault-simulates every fault of `faults`
/// against `experiment`, each as an independent full-SoC simulation
/// from reset sharing the frozen Flash image, fanned out over `threads`
/// worker threads (0 = available parallelism). Returns the aggregate
/// and the per-fault verdicts in fault-list order. A crashing
/// simulation is recorded as [`Verdict::SimError`] rather than
/// aborting the campaign.
pub fn run_campaign_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>) {
    let grader = ExperimentGrader { experiment, golden };
    let (result, records, _) = run_campaign_graded(&grader, faults, threads);
    (result, records)
}

/// [`run_campaign_detailed`] through the warm-start fast path: the
/// golden-prefix snapshot is captured once, then every fault clones it
/// and simulates only the tail with early-verdict exit. Verdict-
/// equivalent to the cold path (asserted over full collapsed fault
/// lists by the warm-start test suite), several times faster on
/// hang-heavy lists.
pub fn run_campaign_warm_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>) {
    let snapshot = experiment.snapshot(golden);
    let grader = WarmExperimentGrader::new(experiment, golden, &snapshot);
    let (result, records, _) = run_campaign_graded(&grader, faults, threads);
    (result, records)
}

/// Buckets per-fault verdicts by element category — the diagnostic view
/// of where a routine's coverage holes are.
///
/// Returns `(category name, detected, total)` sorted by category name.
pub fn summarize_by_category(
    records: &[(FaultSite, Verdict)],
) -> Vec<(&'static str, usize, usize)> {
    use sbst_fault::Element;
    fn category(e: &Element) -> &'static str {
        match e {
            Element::MuxDataIn { .. } => "mux data input",
            Element::MuxSelStem { .. } => "mux select stem",
            Element::MuxSelBranch { .. } => "mux select branch",
            Element::MuxAndOut { .. } => "mux AND output",
            Element::MuxOrOut { .. } => "mux OR output",
            Element::MuxOrNode { .. } => "mux OR-chain node",
            Element::MuxPathDelay { .. } => "mux path delay",
            Element::CmpXnorOut { .. } => "comparator XNOR",
            Element::CmpChainNode { .. } => "comparator chain",
            Element::CmpValidIn => "comparator valid",
            Element::CmpOut => "comparator output",
            Element::StallLine { .. } => "stall line",
            Element::SelEncLine { .. } => "select encoder",
            Element::PendLatchQ { .. } => "ICU pending latch",
            Element::PendSetLine { .. } => "ICU pending set",
            Element::CauseMapLine { .. } => "ICU cause map",
            Element::CauseRegBit { .. } => "ICU cause register",
            Element::MaskBit { .. } => "ICU mask bit",
            Element::RecognizeLine => "ICU recognize line",
            Element::EpcBit { .. } => "ICU EPC capture",
            Element::DepthBit { .. } => "ICU depth counter",
        }
    }
    let mut buckets: std::collections::BTreeMap<&'static str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for (site, verdict) in records {
        let entry = buckets.entry(category(&site.element)).or_insert((0, 0));
        entry.1 += 1;
        if verdict.is_detected() {
            entry.0 += 1;
        }
    }
    buckets.into_iter().map(|(k, (d, t))| (k, d, t)).collect()
}

/// Runs a campaign over the *collapsed* fault universe and reports
/// coverage against the uncollapsed totals — the way commercial fault
/// simulators spend their cycles. Typically 30–40 % fewer simulations
/// for identical coverage (collapsing preserves verdicts; asserted by
/// the test suite).
pub fn run_campaign_collapsed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> CampaignResult {
    let collapsed = sbst_fault::collapse(faults);
    let (_, records) =
        run_campaign_detailed(experiment, golden, collapsed.representatives(), threads);
    let mut result = CampaignResult::default();
    for (i, &(_, verdict)) in records.iter().enumerate() {
        result.record(verdict, collapsed.class_size(i));
    }
    result
}
