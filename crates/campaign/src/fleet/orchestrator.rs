//! The fleet orchestrator: leased shards, worker threads, a watchdog
//! monitor, and chaos-tolerant result merging. Both pools run its one
//! lease loop; they differ only in how a worker thread runs a shard
//! attempt (in-thread here, in a child process in
//! [`process`](super::process)).
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

/// Counters of what the chaos plane did, shared across workers: a
/// thread attempt counts an injection when it fires, the process pool
/// when it schedules one for a child, which cannot report.
#[derive(Default)]
pub(crate) struct InjectedTally {
    panics: AtomicU64,
    hangs: AtomicU64,
    slows: AtomicU64,
    corruptions: AtomicU64,
    checkpoints_rejected: AtomicU64,
}

impl InjectedTally {
    /// Counts one injection of `action` (nothing for
    /// [`ChaosAction::None`]).
    pub(crate) fn count(&self, action: ChaosAction) {
        let counter = match action {
            ChaosAction::Panic { .. } => &self.panics,
            ChaosAction::Hang { .. } => &self.hangs,
            ChaosAction::Slow => &self.slows,
            ChaosAction::Corrupt => &self.corruptions,
            ChaosAction::None => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one shard attempt came to, in either pool.
pub(crate) enum Attempt {
    /// A sealed (possibly chaos-corrupted) result.
    Sealed(ShardResult),
    /// The lease was stolen; the attempt stopped and reports nothing.
    Cancelled,
    /// The attempt died without a result.
    Failed(FailureKind),
}

/// Per-shard checkpoint path inside a fleet checkpoint directory.
pub fn shard_checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.ckpt.json"))
}

/// Executes one attempt of one shard: restores its checkpoint (when
/// `cfg` enables them and the file is valid for this fault slice, ECU
/// and slot count), grades the remaining faults in batches of
/// `cfg.checkpoint_every` — each batch walked in shard order
/// (cancellation check, the chaos action rolled for `(shard, attempt)`
/// at its position, verdict), then persisted — and seals the result.
/// Never returns [`Attempt::Failed`].
///
/// Panics when the chaos action is an injected panic — callers run it
/// under `catch_unwind` (thread pool) or in a separate process.
pub(crate) fn execute_shard(
    plan: &FleetPlan,
    shard: &Shard,
    attempt: u8,
    cfg: &FleetConfig,
    grader: &dyn FleetGrader,
    cancel: &AtomicBool,
    tally: &InjectedTally,
) -> Attempt {
    let spec = &plan.ecus[shard.ecu];
    let sites = plan.sites(shard);
    let faults = plan.shard_fault_list(shard);
    let fault_fp = plan.shard_fingerprint(shard);
    let ecu_fp = spec.fingerprint();
    let action = cfg.chaos.roll(shard.index, attempt, sites.len());

    if action == ChaosAction::Slow {
        tally.count(action);
        std::thread::sleep(Duration::from_millis(cfg.chaos.slow_millis));
        if cancel.load(Ordering::Acquire) {
            return Attempt::Cancelled;
        }
    }

    // Restore this shard's checkpoint when it matches the fault slice,
    // the ECU configuration and the slot count; anything else is
    // discarded.
    let ckpt_path = cfg.checkpoint_dir.as_deref().map(|d| shard_checkpoint_path(d, shard.index));
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
    let every = cfg.checkpoint_every.max(1);
    let pending: Vec<usize> =
        (0..sites.len()).filter(|&i| checkpoint.verdicts[i].is_none()).collect();
    let mut graded = 0usize;
    for batch in pending.chunks(every) {
        if cancel.load(Ordering::Acquire) {
            return Attempt::Cancelled;
        }
        let batch_sites: Vec<sbst_fault::FaultSite> = batch.iter().map(|&i| sites[i]).collect();
        let verdicts = grader.grade_batch(shard.ecu, spec, &batch_sites);
        assert_eq!(verdicts.len(), batch.len(), "one verdict per pending fault");
        for (&i, verdict) in batch.iter().zip(verdicts) {
            if cancel.load(Ordering::Acquire) {
                return Attempt::Cancelled;
            }
            match action {
                ChaosAction::Panic { after } if graded == after => {
                    tally.count(action);
                    panic!(
                        "chaos: injected worker panic (shard {}, attempt {attempt})",
                        shard.index
                    );
                }
                ChaosAction::Hang { after } if graded == after => {
                    tally.count(action);
                    // Hang until the lease is stolen and the monitor
                    // cancels us (process workers are killed instead).
                    loop {
                        if cancel.load(Ordering::Acquire) {
                            return Attempt::Cancelled;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
            checkpoint.verdicts[i] = Some(verdict);
            graded += 1;
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
        tally.count(action);
        result.verdicts[0] = match result.verdicts[0] {
            Verdict::Undetected => Verdict::Hang,
            _ => Verdict::Undetected,
        };
    }
    Attempt::Sealed(result)
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

/// What the threads of one lease loop share.
struct Run {
    table: LeaseTable,
    /// Merged verdicts per shard (`None` until the shard completes).
    merged: Mutex<Vec<Option<Vec<Verdict>>>>,
    tally: InjectedTally,
    start: Instant,
    /// The lease-protocol trace (`cycle` is milliseconds since `start`,
    /// `core` the worker id).
    events: Mutex<Vec<TraceEvent>>,
}

impl Run {
    fn push(&self, core: Option<u8>, kind: TraceKind) {
        let cycle = self.start.elapsed().as_millis() as u64;
        self.events.lock().expect("event log").push(TraceEvent { cycle, core, kind });
    }

    /// Logs what a failure charged to `shard` came to.
    fn failed(&self, core: Option<u8>, shard: usize, kind: FailureKind, outcome: FailOutcome) {
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

    /// Accounts what an attempt on `lease` came to. A sealed result is
    /// merged, with a checkpoint resume noted and `ShardDone` logged,
    /// unless its seal is broken (a [`FailureKind::Corrupt`] failure)
    /// or its epoch stale (the shard was stolen; the table counts the
    /// late result). A cancelled attempt is ignored, since the steal
    /// already charged it; a failed one fails the lease.
    fn settle(&self, plan: &FleetPlan, core: Option<u8>, lease: &Lease, attempt: Attempt) {
        let kind = match attempt {
            Attempt::Sealed(result) => {
                let shard = &plan.shards[lease.shard];
                let ecu_fp = plan.ecus[shard.ecu].fingerprint();
                if result.is_valid(lease.shard, plan.shard_fingerprint(shard), ecu_fp) {
                    let (shard, restored) = (lease.shard as u32, result.resumed);
                    if self.table.complete(lease.shard, lease.epoch, restored) {
                        if restored > 0 {
                            self.table.note_resume();
                        }
                        self.push(core, TraceKind::ShardDone { shard, restored });
                        self.merged.lock().expect("merged verdicts")[lease.shard] =
                            Some(result.verdicts);
                    }
                    return;
                }
                FailureKind::Corrupt
            }
            Attempt::Cancelled => return,
            Attempt::Failed(kind) => kind,
        };
        let outcome = self.table.fail(lease.shard, lease.epoch, kind);
        self.failed(core, lease.shard, kind, outcome);
    }

    /// The report of a settled run: the fates, the merged verdicts, the
    /// trace and the telemetry, whose `faults_graded` is the merged
    /// verdicts minus the restored ones.
    fn finish(self) -> FleetReport {
        let fates = self.table.fates();
        let verdicts = self.merged.into_inner().expect("merged verdicts");
        debug_assert!(
            fates.iter().zip(&verdicts).all(|(f, v)| {
                matches!(f, ShardFate::Completed { .. }) == v.is_some()
            }),
            "every completed shard has merged verdicts and vice versa"
        );
        let faults_restored = fates
            .iter()
            .map(|f| match f {
                ShardFate::Completed { resumed_faults, .. } => u64::from(*resumed_faults),
                ShardFate::Quarantined { .. } => 0,
            })
            .sum();
        let mix = CampaignResult::tally(verdicts.iter().flatten().flatten().copied()).mix();
        let merged = mix.total();
        let elapsed_secs = self.start.elapsed().as_secs_f64();
        let tally = self.tally;
        let telemetry = FleetTelemetry {
            counters: self.table.counters(),
            injected_panics: tally.panics.into_inner(),
            injected_hangs: tally.hangs.into_inner(),
            injected_slowdowns: tally.slows.into_inner(),
            injected_corruptions: tally.corruptions.into_inner(),
            checkpoints_rejected: tally.checkpoints_rejected.into_inner(),
            faults_graded: merged - faults_restored,
            faults_restored,
            elapsed_secs,
            faults_per_sec: if elapsed_secs > 0.0 { merged as f64 / elapsed_secs } else { 0.0 },
            mix,
        };
        let events = self.events.into_inner().expect("event log");
        FleetReport { fates, verdicts, telemetry, events }
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
    run_leases(plan, cfg, &|lease: &Lease, tally: &InjectedTally| {
        let shard = &plan.shards[lease.shard];
        catch_unwind(AssertUnwindSafe(|| {
            execute_shard(plan, shard, lease.attempt, cfg, grader, &lease.cancel, tally)
        }))
        .unwrap_or(Attempt::Failed(FailureKind::Panic))
    })
}

/// The lease loop of both pools. `cfg.workers` scoped threads each
/// claim and log a lease, run `attempt` on it (the pool's way to grade
/// one shard attempt, which counts its injections in the tally and
/// must stop once the lease's cancel token is set) and settle what it
/// returns, while the calling thread expires stale leases until every
/// shard is settled.
pub(crate) fn run_leases(
    plan: &FleetPlan,
    cfg: &FleetConfig,
    attempt: &(dyn Fn(&Lease, &InjectedTally) -> Attempt + Sync),
) -> FleetReport {
    let run = Run {
        table: LeaseTable::new(plan.shard_count(), cfg.policy),
        merged: Mutex::new(vec![None; plan.shard_count()]),
        tally: InjectedTally::default(),
        start: Instant::now(),
        events: Mutex::new(Vec::new()),
    };
    std::thread::scope(|scope| {
        for worker in 0..cfg.workers.max(1) {
            let run = &run;
            scope.spawn(move || {
                let core = Some(worker as u8);
                while !run.table.all_settled() {
                    let Some(lease) = run.table.claim() else {
                        // Everything is leased or backing off; the
                        // monitor will free work up.
                        std::thread::sleep(cfg.poll);
                        continue;
                    };
                    run.push(
                        core,
                        TraceKind::ShardLease { shard: lease.shard as u32, attempt: lease.attempt },
                    );
                    run.settle(plan, core, &lease, attempt(&lease, &run.tally));
                }
            });
        }

        // The monitor: expire leases (which sets their cancel tokens)
        // and put the shards back on the market, or quarantine them.
        while !run.table.all_settled() {
            for (shard, outcome) in run.table.expire_stale() {
                run.push(None, TraceKind::ShardSteal { shard: shard as u32 });
                run.failed(None, shard, FailureKind::Timeout, outcome);
            }
            std::thread::sleep(cfg.poll);
        }
    });
    run.finish()
}
