//! The fleet orchestrator: leased shards, worker threads, a watchdog
//! monitor, and chaos-tolerant result merging.
//!
//! The headline property (asserted by the `fleet` test suite over
//! dozens of seeded chaos storms): a [`run_fleet`] invocation under
//! random injected worker failures **terminates**, never deadlocks,
//! and its merged verdict map is **bit-identical** to
//! [`run_fleet_serial`] on every completed shard, with every
//! non-completed shard explicitly accounted as quarantined with a
//! cause. The machinery that makes this true:
//!
//! * verdicts are pure functions of (ECU config, fault site), so a
//!   retried or stolen shard re-grades to the same answer;
//! * results are sealed with a checksum over (shard, fault-list
//!   fingerprint, ECU fingerprint, verdicts) — a corrupted result
//!   fails validation and is retried, never merged;
//! * stale-epoch reports (the lease was stolen meanwhile) are dropped,
//!   so a resurrected hung worker cannot double-merge;
//! * per-shard checkpoints are bound to both the shard's fault slice
//!   *and* its ECU configuration, so resuming a killed fleet cannot
//!   attribute one variant's verdicts to another.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sbst_fault::Verdict;
use sbst_obs::{FleetTelemetry, TraceEvent, TraceKind};
use sbst_stl::WrapError;

use crate::checkpoint::{fnv, Checkpoint};
use crate::experiment::{Experiment, Observation, Snapshot};
use crate::faultsim::CampaignResult;
use crate::ppsfp::grade_ppsfp;

use super::chaos::{ChaosAction, WorkerChaos};
use super::lease::{FailOutcome, FailureKind, Lease, LeasePolicy, LeaseTable, ShardFate};
use super::shard::{EcuSpec, FleetPlan, Shard};

/// Grades faults of one ECU variant — the seam the fleet engine runs
/// behind. The production implementation is [`ExperimentFleetGrader`];
/// the chaos property tests substitute pure synthetic graders so fifty
/// storms finish in seconds.
pub trait FleetGrader: Sync {
    /// Grades `site` on ECU variant `ecu` (`spec` is
    /// `plan.ecus[ecu]`).
    fn grade(&self, ecu: usize, spec: &EcuSpec, site: sbst_fault::FaultSite) -> Verdict;

    /// Grades `sites` on ECU variant `ecu`, one verdict per site in
    /// order: a shard attempt's pending faults, graded as one batch.
    /// By default, [`grade`](FleetGrader::grade) once per site.
    fn grade_batch(
        &self,
        ecu: usize,
        spec: &EcuSpec,
        sites: &[sbst_fault::FaultSite],
    ) -> Vec<Verdict> {
        sites.iter().map(|&site| self.grade(ecu, spec, site)).collect()
    }
}

/// Builds the full simulation stack for one ECU variant: the assembled
/// experiment, its golden observation, and the warm-start snapshot.
///
/// # Errors
///
/// Propagates wrapper/assembly errors.
pub fn assemble_ecu(spec: &EcuSpec) -> Result<(Experiment, Observation, Snapshot), WrapError> {
    let factory = crate::routines_for(spec.unit);
    let experiment = Experiment::assemble_config(&*factory, &spec.config)?;
    let golden = experiment.golden();
    let snapshot = experiment.snapshot(&golden);
    Ok((experiment, golden, snapshot))
}

/// The production fleet grader: one warm-start simulation stack per
/// ECU variant. A single fault is graded through the snapshot fast
/// path; a shard's batch rides the bit-parallel tier on the stored
/// snapshot, its fallen-off lanes graded on that same fast path.
pub struct ExperimentFleetGrader {
    cells: Vec<(Experiment, Observation, Snapshot)>,
}

impl ExperimentFleetGrader {
    /// Assembles the stack of every variant in `plan` up front (one
    /// golden run each).
    ///
    /// # Errors
    ///
    /// Propagates wrapper/assembly errors of any variant.
    pub fn new(plan: &FleetPlan) -> Result<ExperimentFleetGrader, WrapError> {
        let cells = plan.ecus.iter().map(assemble_ecu).collect::<Result<Vec<_>, _>>()?;
        Ok(ExperimentFleetGrader { cells })
    }
}

impl FleetGrader for ExperimentFleetGrader {
    fn grade(&self, ecu: usize, _spec: &EcuSpec, site: sbst_fault::FaultSite) -> Verdict {
        let (experiment, golden, snapshot) = &self.cells[ecu];
        experiment.test_fault_warm(golden, snapshot, site)
    }

    /// The batch on one thread (the fleet's workers are the
    /// parallelism). A simulation that crashed panics, as
    /// [`grade`](FleetGrader::grade) would, so the lease fails instead
    /// of merging a `SimError`.
    fn grade_batch(
        &self,
        ecu: usize,
        _spec: &EcuSpec,
        sites: &[sbst_fault::FaultSite],
    ) -> Vec<Verdict> {
        let (experiment, golden, snapshot) = &self.cells[ecu];
        let (_, records, _, errors) = grade_ppsfp(experiment, golden, snapshot, sites, 1);
        if let Some(error) = errors.first() {
            panic!("fleet grader: {error}");
        }
        records.into_iter().map(|(_, verdict)| verdict).collect()
    }
}

/// A sealed shard result: the verdicts plus a checksum binding them to
/// the exact shard, fault slice and ECU configuration that produced
/// them. Only results whose seal [validates](ShardResult::is_valid)
/// are ever merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// Shard index.
    pub shard: usize,
    /// Faults restored from a checkpoint rather than graded.
    pub resumed: u32,
    /// Per-fault verdicts, in shard fault order.
    pub verdicts: Vec<Verdict>,
    /// FNV-1a over (shard, fault fingerprint, ECU fingerprint,
    /// restored count, verdict tags).
    pub checksum: u64,
}

impl ShardResult {
    fn checksum_of(
        shard: usize,
        fault_fp: u64,
        ecu_fp: u64,
        resumed: u32,
        verdicts: &[Verdict],
    ) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, &(shard as u64).to_le_bytes());
        fnv(&mut h, &fault_fp.to_le_bytes());
        fnv(&mut h, &ecu_fp.to_le_bytes());
        fnv(&mut h, &resumed.to_le_bytes());
        for v in verdicts {
            fnv(&mut h, v.tag().as_bytes());
        }
        h
    }

    /// Seals a completed shard's verdicts.
    pub fn seal(
        shard: usize,
        fault_fp: u64,
        ecu_fp: u64,
        verdicts: Vec<Verdict>,
        resumed: u32,
    ) -> ShardResult {
        let checksum = ShardResult::checksum_of(shard, fault_fp, ecu_fp, resumed, &verdicts);
        ShardResult { shard, resumed, verdicts, checksum }
    }

    /// Whether the seal matches this shard/fault-slice/ECU binding —
    /// i.e. neither the verdicts nor the restored count were corrupted
    /// (or misrouted) in transit.
    pub fn is_valid(&self, shard: usize, fault_fp: u64, ecu_fp: u64) -> bool {
        self.shard == shard
            && self.checksum
                == ShardResult::checksum_of(shard, fault_fp, ecu_fp, self.resumed, &self.verdicts)
    }
}

/// Counters of what the chaos plane actually did (as opposed to was
/// configured to do), shared across workers.
#[derive(Default)]
pub(crate) struct InjectedTally {
    pub panics: AtomicU64,
    pub hangs: AtomicU64,
    pub slows: AtomicU64,
    pub corruptions: AtomicU64,
    pub checkpoints_rejected: AtomicU64,
    pub faults_graded: AtomicU64,
}

/// Outcome of one shard attempt that did not panic.
pub(crate) enum AttemptOutcome {
    /// A sealed (possibly chaos-corrupted) result.
    Sealed(ShardResult),
    /// The lease was stolen; the attempt stopped cooperatively and
    /// reports nothing.
    Cancelled,
}

/// Per-shard checkpoint path inside a fleet checkpoint directory.
pub fn shard_checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.ckpt.json"))
}

/// Executes one attempt of one shard: restores its checkpoint (when
/// enabled and valid for this fault slice, ECU and slot count), grades
/// the remaining faults in batches of `checkpoint_every` — each batch
/// walked in shard order (cancellation check, the chaos action rolled
/// for `(shard, attempt)` at its position, verdict), then persisted —
/// and seals the result.
///
/// Panics when the chaos action is an injected panic — callers run it
/// under `catch_unwind` (thread pool) or in a separate process.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_shard(
    plan: &FleetPlan,
    shard: &Shard,
    attempt: u8,
    chaos: &WorkerChaos,
    grader: &dyn FleetGrader,
    checkpoint_dir: Option<&Path>,
    checkpoint_every: usize,
    cancel: &AtomicBool,
    tally: &InjectedTally,
) -> AttemptOutcome {
    let spec = &plan.ecus[shard.ecu];
    let sites = plan.sites(shard);
    let faults = plan.shard_fault_list(shard);
    let fault_fp = plan.shard_fingerprint(shard);
    let ecu_fp = spec.fingerprint();
    let action = chaos.roll(shard.index, attempt, sites.len());

    if action == ChaosAction::Slow {
        tally.slows.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(chaos.slow_millis));
        if cancel.load(Ordering::Acquire) {
            return AttemptOutcome::Cancelled;
        }
    }

    // Restore this shard's checkpoint when it matches the fault slice,
    // the ECU configuration and the slot count; anything else is
    // discarded.
    let ckpt_path = checkpoint_dir.map(|d| shard_checkpoint_path(d, shard.index));
    let mut checkpoint = Checkpoint::with_config(&faults, ecu_fp);
    if let Some(path) = ckpt_path.as_deref() {
        if path.exists() {
            match Checkpoint::load(path) {
                Ok(cp)
                    if cp.fingerprint == checkpoint.fingerprint
                        && cp.config == ecu_fp
                        && cp.verdicts.len() == sites.len() =>
                {
                    checkpoint = cp;
                }
                _ => {
                    tally.checkpoints_rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    let resumed = checkpoint.completed() as u32;

    // Pending faults are graded in batches of `every`, each followed by
    // a checkpoint save: a cancelled or killed attempt loses at most one
    // batch, and a shard slower than its lease still gains ground across
    // attempts.
    let every = checkpoint_every.max(1);
    let pending: Vec<usize> =
        (0..sites.len()).filter(|&i| checkpoint.verdicts[i].is_none()).collect();
    let mut graded = 0usize;
    for batch in pending.chunks(every) {
        if cancel.load(Ordering::Acquire) {
            return AttemptOutcome::Cancelled;
        }
        let batch_sites: Vec<sbst_fault::FaultSite> = batch.iter().map(|&i| sites[i]).collect();
        let verdicts = grader.grade_batch(shard.ecu, spec, &batch_sites);
        assert_eq!(verdicts.len(), batch.len(), "one verdict per pending fault");
        for (&i, verdict) in batch.iter().zip(verdicts) {
            if cancel.load(Ordering::Acquire) {
                return AttemptOutcome::Cancelled;
            }
            match action {
                ChaosAction::Panic { after } if graded == after => {
                    tally.panics.fetch_add(1, Ordering::Relaxed);
                    panic!(
                        "chaos: injected worker panic (shard {}, attempt {attempt})",
                        shard.index
                    );
                }
                ChaosAction::Hang { after } if graded == after => {
                    tally.hangs.fetch_add(1, Ordering::Relaxed);
                    // Hang until the lease is stolen and the monitor
                    // cancels us (process workers are killed instead).
                    loop {
                        if cancel.load(Ordering::Acquire) {
                            return AttemptOutcome::Cancelled;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
            checkpoint.verdicts[i] = Some(verdict);
            graded += 1;
            tally.faults_graded.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(path) = ckpt_path.as_deref() {
            if graded.is_multiple_of(every) {
                // Best-effort: a failed write must not fail the shard.
                let _ = checkpoint.save(path);
            }
        }
    }
    if let Some(path) = ckpt_path.as_deref() {
        let _ = checkpoint.save(path);
    }

    let verdicts: Vec<Verdict> =
        checkpoint.verdicts.iter().map(|v| v.expect("every fault graded")).collect();
    let mut result = ShardResult::seal(shard.index, fault_fp, ecu_fp, verdicts, resumed);
    if action == ChaosAction::Corrupt {
        // Flip one verdict *after* sealing: the orchestrator's
        // validation must catch this, or the headline bit-identity
        // property dies.
        tally.corruptions.fetch_add(1, Ordering::Relaxed);
        result.verdicts[0] = match result.verdicts[0] {
            Verdict::Undetected => Verdict::Hang,
            _ => Verdict::Undetected,
        };
    }
    AttemptOutcome::Sealed(result)
}

/// Fleet orchestrator configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (or concurrent worker processes).
    pub workers: usize,
    /// Lease / retry / backoff policy.
    pub policy: LeasePolicy,
    /// Failure injection plane.
    pub chaos: WorkerChaos,
    /// Per-shard checkpoint directory (`None` disables checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Persist a shard's checkpoint every this many newly graded
    /// faults (and once at shard completion). A shard attempt grades
    /// its pending faults in batches of this size, so it is also the
    /// most work a cancelled or crashed attempt throws away.
    pub checkpoint_every: usize,
    /// Monitor poll interval (lease expiry granularity).
    pub poll: Duration,
}

impl FleetConfig {
    /// `workers` workers under [`LeasePolicy::fast`], chaos off, no
    /// checkpointing.
    pub fn new(workers: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            workers: workers.max(1),
            policy: LeasePolicy::fast(seed),
            chaos: WorkerChaos::off(),
            checkpoint_dir: None,
            checkpoint_every: 4,
            poll: Duration::from_millis(2),
        }
    }
}

/// Everything a fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// Terminal fate of every shard, in plan order.
    pub fates: Vec<ShardFate>,
    /// Merged verdicts per shard (`None` exactly for quarantined
    /// shards), in shard fault order.
    pub verdicts: Vec<Option<Vec<Verdict>>>,
    /// Run telemetry (counters, injections, throughput, verdict mix).
    pub telemetry: FleetTelemetry,
    /// Lease-protocol trace events (`cycle` is milliseconds since the
    /// run started, `core` the worker id).
    pub events: Vec<TraceEvent>,
}

impl FleetReport {
    /// Whether every shard completed (nothing quarantined).
    pub fn is_complete(&self) -> bool {
        self.fates.iter().all(|f| matches!(f, ShardFate::Completed { .. }))
    }

    /// Shard indices that were quarantined, with their causes.
    pub fn quarantined(&self) -> Vec<(usize, FailureKind)> {
        self.fates
            .iter()
            .enumerate()
            .filter_map(|(i, f)| match f {
                ShardFate::Quarantined { cause, .. } => Some((i, *cause)),
                ShardFate::Completed { .. } => None,
            })
            .collect()
    }
}

pub(crate) struct EventLog {
    pub(crate) start: Instant,
    pub(crate) events: Mutex<Vec<TraceEvent>>,
}

impl EventLog {
    pub(crate) fn new() -> EventLog {
        EventLog { start: Instant::now(), events: Mutex::new(Vec::new()) }
    }

    pub(crate) fn push(&self, core: Option<u8>, kind: TraceKind) {
        let cycle = self.start.elapsed().as_millis() as u64;
        self.events.lock().expect("event log").push(TraceEvent { cycle, core, kind });
    }

    pub(crate) fn fail_event(
        &self,
        core: Option<u8>,
        shard: usize,
        kind: FailureKind,
        outcome: FailOutcome,
    ) {
        match outcome {
            FailOutcome::Retry { backoff, failures } => self.push(
                core,
                TraceKind::ShardRetry {
                    shard: shard as u32,
                    failures,
                    backoff_ms: backoff.as_millis() as u32,
                    cause: kind.as_str(),
                },
            ),
            FailOutcome::Quarantined => self.push(
                core,
                TraceKind::ShardQuarantine { shard: shard as u32, cause: kind.as_str() },
            ),
            FailOutcome::Stale => {}
        }
    }
}

/// Accounts one sealed attempt result in either pool: a broken seal
/// fails the lease as [`FailureKind::Corrupt`]; a valid result
/// completes it, notes a checkpoint resume and logs `ShardDone`.
/// Returns the verdicts to merge, or `None` when the result was
/// rejected or arrived on a stale epoch (the shard was stolen and
/// re-graded; the table counted the late result).
pub(crate) fn accept(
    plan: &FleetPlan,
    table: &LeaseTable,
    log: &EventLog,
    core: Option<u8>,
    lease: &Lease,
    result: ShardResult,
) -> Option<Vec<Verdict>> {
    let shard = &plan.shards[lease.shard];
    let ecu_fp = plan.ecus[shard.ecu].fingerprint();
    if !result.is_valid(lease.shard, plan.shard_fingerprint(shard), ecu_fp) {
        let fail = table.fail(lease.shard, lease.epoch, FailureKind::Corrupt);
        log.fail_event(core, lease.shard, FailureKind::Corrupt, fail);
        return None;
    }
    if !table.complete(lease.shard, lease.epoch, result.resumed) {
        return None;
    }
    if result.resumed > 0 {
        table.note_resume();
    }
    log.push(core, TraceKind::ShardDone { shard: lease.shard as u32, restored: result.resumed });
    Some(result.verdicts)
}

/// Closes a fleet run in either pool: stamps the lease counters, the
/// restored-fault count, the throughput over graded + restored faults
/// and the verdict mix of every merged shard onto `telemetry`, whose
/// injection counters and `faults_graded` the pool filled in.
pub(crate) fn report(
    table: &LeaseTable,
    log: EventLog,
    verdicts: Vec<Option<Vec<Verdict>>>,
    mut telemetry: FleetTelemetry,
) -> FleetReport {
    let fates = table.fates();
    debug_assert!(
        fates.iter().zip(&verdicts).all(|(f, v)| {
            matches!(f, ShardFate::Completed { .. }) == v.is_some()
        }),
        "every completed shard has merged verdicts and vice versa"
    );
    let elapsed = log.start.elapsed().as_secs_f64();
    telemetry.counters = table.counters();
    telemetry.faults_restored = fates
        .iter()
        .map(|f| match f {
            ShardFate::Completed { resumed_faults, .. } => u64::from(*resumed_faults),
            ShardFate::Quarantined { .. } => 0,
        })
        .sum();
    let done = telemetry.faults_graded + telemetry.faults_restored;
    telemetry.elapsed_secs = elapsed;
    telemetry.faults_per_sec = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
    telemetry.mix = CampaignResult::tally(verdicts.iter().flatten().flatten().copied()).mix();
    FleetReport {
        fates,
        verdicts,
        telemetry,
        events: log.events.into_inner().expect("event log"),
    }
}

/// Serial reference run: every shard graded in plan order on the
/// calling thread, no leases, no chaos. The baseline the headline
/// property compares [`run_fleet`] against.
pub fn run_fleet_serial(plan: &FleetPlan, grader: &dyn FleetGrader) -> Vec<Vec<Verdict>> {
    plan.shards
        .iter()
        .map(|shard| {
            let spec = &plan.ecus[shard.ecu];
            plan.sites(shard).iter().map(|&s| grader.grade(shard.ecu, spec, s)).collect()
        })
        .collect()
}

/// Runs the fleet campaign on a pool of worker threads with lease
/// stealing, retry/backoff, quarantine and (optionally) per-shard
/// checkpoints; see the module docs for the guarantees.
///
/// Always terminates: every shard ends
/// [`Completed`](ShardFate::Completed) or
/// [`Quarantined`](ShardFate::Quarantined), and the monitor's lease
/// expiry bounds how long any failure can stall progress.
pub fn run_fleet(plan: &FleetPlan, grader: &dyn FleetGrader, cfg: &FleetConfig) -> FleetReport {
    let table = LeaseTable::new(plan.shard_count(), cfg.policy);
    let merged: Mutex<Vec<Option<Vec<Verdict>>>> = Mutex::new(vec![None; plan.shard_count()]);
    let tally = InjectedTally::default();
    let log = EventLog::new();

    std::thread::scope(|scope| {
        for worker in 0..cfg.workers.max(1) {
            let table = &table;
            let merged = &merged;
            let tally = &tally;
            let log = &log;
            scope.spawn(move || {
                let core = Some(worker as u8);
                loop {
                    if table.all_settled() {
                        break;
                    }
                    let Some(lease) = table.claim() else {
                        // Everything is leased or backing off; the
                        // monitor will free work up.
                        std::thread::sleep(cfg.poll);
                        continue;
                    };
                    let shard = &plan.shards[lease.shard];
                    log.push(
                        core,
                        TraceKind::ShardLease { shard: lease.shard as u32, attempt: lease.attempt },
                    );
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        execute_shard(
                            plan,
                            shard,
                            lease.attempt,
                            &cfg.chaos,
                            grader,
                            cfg.checkpoint_dir.as_deref(),
                            cfg.checkpoint_every,
                            &lease.cancel,
                            tally,
                        )
                    }));
                    match outcome {
                        Ok(AttemptOutcome::Sealed(result)) => {
                            if let Some(v) = accept(plan, table, log, core, &lease, result) {
                                merged.lock().expect("merged verdicts")[lease.shard] = Some(v);
                            }
                        }
                        Ok(AttemptOutcome::Cancelled) => {
                            // The steal already charged this failure.
                        }
                        Err(_) => {
                            let fail = table.fail(lease.shard, lease.epoch, FailureKind::Panic);
                            log.fail_event(core, lease.shard, FailureKind::Panic, fail);
                        }
                    }
                }
            });
        }

        // The monitor: expire leases, cancel their holders, put the
        // shards back on the market (or quarantine them).
        while !table.all_settled() {
            for (shard, outcome) in table.expire_stale() {
                log.push(None, TraceKind::ShardSteal { shard: shard as u32 });
                log.fail_event(None, shard, FailureKind::Timeout, outcome);
            }
            std::thread::sleep(cfg.poll);
        }
    });

    let telemetry = FleetTelemetry {
        injected_panics: tally.panics.into_inner(),
        injected_hangs: tally.hangs.into_inner(),
        injected_slowdowns: tally.slows.into_inner(),
        injected_corruptions: tally.corruptions.into_inner(),
        checkpoints_rejected: tally.checkpoints_rejected.into_inner(),
        faults_graded: tally.faults_graded.into_inner(),
        ..FleetTelemetry::default()
    };
    report(&table, log, merged.into_inner().expect("merged verdicts"), telemetry)
}
