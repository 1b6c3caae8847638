//! Process-per-worker fleet pool: true crash isolation.
//!
//! The thread pool in [`run_fleet`](super::run_fleet) isolates panics
//! with `catch_unwind`, but an aborting worker (stack overflow, OOM
//! kill, `std::process::abort`) would take the whole fleet down. This
//! pool runs every shard attempt in its **own child process**: the
//! child grades the shard, writes a sealed [`ShardResult`] file, and
//! exits; the parent reaps exits, validates seals, and kills children
//! whose lease expired. A child dying in *any* way — clean panic,
//! abort, SIGKILL — is just a failed attempt.
//!
//! The parent stays a single thread: the children are the parallelism,
//! and the lease table is the only shared state, so there is nothing
//! to deadlock on.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;

use sbst_fault::Verdict;
use sbst_obs::{FleetTelemetry, TraceKind};

use crate::checkpoint::{malformed, CheckpointError, Parser};

use super::chaos::ChaosAction;
use super::lease::{FailureKind, Lease, LeaseTable};
use super::orchestrator::{
    accept, execute_shard, report, AttemptOutcome, EventLog, FleetConfig, FleetGrader,
    FleetReport, InjectedTally, ShardResult,
};
use super::shard::{FleetPlan, Shard};

impl ShardResult {
    /// Serializes the result to the shard-result file format (one JSON
    /// object, same vocabulary as the checkpoint format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48 + 16 * self.verdicts.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"shard\": {},\n", self.shard));
        out.push_str(&format!("  \"resumed\": {},\n", self.resumed));
        out.push_str(&format!("  \"checksum\": {},\n", self.checksum));
        out.push_str("  \"verdicts\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(v.tag());
            out.push('"');
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses the shard-result file format.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on any deviation — a torn
    /// or truncated result file from a killed child must parse as
    /// garbage, never as a half-result.
    pub fn from_json(text: &str) -> Result<ShardResult, CheckpointError> {
        let mut p = Parser { rest: text };
        p.expect('{')?;
        let mut shard = None;
        let mut resumed = None;
        let mut checksum = None;
        let mut verdicts = None;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "shard" => shard = Some(p.integer()? as usize),
                "resumed" => resumed = Some(p.integer()? as u32),
                "checksum" => checksum = Some(p.integer()?),
                "verdicts" => {
                    let slots = p.verdict_array()?;
                    let mut out = Vec::with_capacity(slots.len());
                    for v in slots {
                        out.push(v.ok_or_else(|| malformed("null verdict in shard result"))?);
                    }
                    verdicts = Some(out);
                }
                other => {
                    return Err(malformed(&format!("unknown key {other:?}")));
                }
            }
            if !p.comma_or('}')? {
                break;
            }
        }
        Ok(ShardResult {
            shard: shard.ok_or_else(|| malformed("missing shard"))?,
            resumed: resumed.ok_or_else(|| malformed("missing resumed"))?,
            checksum: checksum.ok_or_else(|| malformed("missing checksum"))?,
            verdicts: verdicts.ok_or_else(|| malformed("missing verdicts"))?,
        })
    }
}

/// Child-process entry point: grades one shard attempt to a sealed
/// result. Injected chaos behaves like a real defect would in a
/// process worker — a panic unwinds into a non-zero exit, a hang spins
/// until the parent kills the process.
///
/// Intended for the `--worker` mode of a fleet binary: rebuild the
/// same deterministic [`FleetPlan`] from the CLI arguments, call this,
/// write the result with [`ShardResult::to_json`], exit zero.
pub fn execute_shard_standalone(
    plan: &FleetPlan,
    shard: &Shard,
    attempt: u8,
    cfg: &FleetConfig,
    grader: &dyn FleetGrader,
) -> ShardResult {
    let cancel = AtomicBool::new(false);
    let tally = InjectedTally::default();
    match execute_shard(
        plan,
        shard,
        attempt,
        &cfg.chaos,
        grader,
        cfg.checkpoint_dir.as_deref(),
        cfg.checkpoint_every,
        &cancel,
        &tally,
    ) {
        AttemptOutcome::Sealed(result) => result,
        // The cancel token is never set in a standalone process.
        AttemptOutcome::Cancelled => unreachable!("standalone shard attempts are never cancelled"),
    }
}

/// Builds the child [`Command`] for one shard attempt. The callback
/// receives the shard, the attempt number and the path the child must
/// write its [`ShardResult`] JSON to.
pub type ShardCommand<'a> = dyn Fn(&Shard, u8, &Path) -> Command + 'a;

struct ActiveChild {
    child: Child,
    lease: Lease,
    shard: usize,
    out: PathBuf,
    /// Set when the parent killed this child after a steal: its exit
    /// has already been accounted for and must not be reported again.
    killed: bool,
}

/// Runs the fleet campaign with one **child process per shard
/// attempt** — the crash-isolated twin of
/// [`run_fleet`](super::run_fleet), with the same lease / steal /
/// retry / quarantine semantics. Hung children are killed when their
/// lease expires; children that die without writing a valid sealed
/// result are charged as [`FailureKind::WorkerLost`].
///
/// Injection counters in the returned telemetry are computed
/// parent-side from the (pure) chaos rolls, since a crashed child
/// cannot report what it did.
///
/// # Errors
///
/// Propagates creation of the scratch directory for result files;
/// per-child spawn failures are charged to the shard instead.
pub fn run_fleet_process(
    plan: &FleetPlan,
    cfg: &FleetConfig,
    command: &ShardCommand<'_>,
) -> io::Result<FleetReport> {
    let scratch = std::env::temp_dir().join(format!(
        "sbst-fleet-{}-{:x}",
        std::process::id(),
        cfg.policy.seed
    ));
    std::fs::create_dir_all(&scratch)?;

    let table = LeaseTable::new(plan.shard_count(), cfg.policy);
    let mut merged: Vec<Option<Vec<Verdict>>> = vec![None; plan.shard_count()];
    let log = EventLog::new();
    let mut active: Vec<ActiveChild> = Vec::new();
    // Injections are counted as scheduled; graded faults as accepted.
    let mut telemetry = FleetTelemetry::default();

    while !table.all_settled() || !active.is_empty() {
        // 1. Expire stale leases; kill the children that held them.
        for (shard, outcome) in table.expire_stale() {
            log.push(None, TraceKind::ShardSteal { shard: shard as u32 });
            log.fail_event(None, shard, FailureKind::Timeout, outcome);
            for a in active.iter_mut().filter(|a| a.shard == shard && !a.killed) {
                let _ = a.child.kill();
                a.killed = true;
            }
        }

        // 2. Reap exited children and account their results.
        let mut still_active = Vec::new();
        for mut a in active {
            let status = match a.child.try_wait() {
                Ok(Some(status)) => status,
                Ok(None) => {
                    still_active.push(a);
                    continue;
                }
                // Treat a wait error like a lost worker.
                Err(_) => {
                    if !a.killed {
                        let fail = table.fail(a.shard, a.lease.epoch, FailureKind::WorkerLost);
                        log.fail_event(None, a.shard, FailureKind::WorkerLost, fail);
                    }
                    let _ = std::fs::remove_file(&a.out);
                    continue;
                }
            };
            if a.killed {
                // Already charged as a timeout steal.
                let _ = std::fs::remove_file(&a.out);
                continue;
            }
            let result = status
                .success()
                .then(|| std::fs::read_to_string(&a.out).ok())
                .flatten()
                .and_then(|text| ShardResult::from_json(&text).ok());
            let _ = std::fs::remove_file(&a.out);
            match result {
                Some(result) => {
                    let resumed = u64::from(result.resumed);
                    if let Some(v) = accept(plan, &table, &log, None, &a.lease, result) {
                        telemetry.faults_graded += (v.len() as u64).saturating_sub(resumed);
                        merged[a.shard] = Some(v);
                    }
                }
                None => {
                    // Non-zero exit (panic/abort/signal) or an
                    // unreadable/torn result file.
                    let fail = table.fail(a.shard, a.lease.epoch, FailureKind::WorkerLost);
                    log.fail_event(None, a.shard, FailureKind::WorkerLost, fail);
                }
            }
        }
        active = still_active;

        // 3. Fill free worker slots with new leases.
        while active.len() < cfg.workers.max(1) {
            let Some(lease) = table.claim() else { break };
            let shard = &plan.shards[lease.shard];
            log.push(
                None,
                TraceKind::ShardLease { shard: lease.shard as u32, attempt: lease.attempt },
            );
            match cfg.chaos.roll(lease.shard, lease.attempt, shard.len) {
                ChaosAction::Panic { .. } => telemetry.injected_panics += 1,
                ChaosAction::Hang { .. } => telemetry.injected_hangs += 1,
                ChaosAction::Slow => telemetry.injected_slowdowns += 1,
                ChaosAction::Corrupt => telemetry.injected_corruptions += 1,
                ChaosAction::None => {}
            }
            let out = scratch.join(format!("shard-{:04}-e{}.json", lease.shard, lease.epoch));
            let _ = std::fs::remove_file(&out);
            let mut cmd = command(shard, lease.attempt, &out);
            cmd.stdout(Stdio::null()).stderr(Stdio::null());
            match cmd.spawn() {
                Ok(child) => active.push(ActiveChild {
                    child,
                    shard: lease.shard,
                    lease,
                    out,
                    killed: false,
                }),
                Err(_) => {
                    let fail = table.fail(lease.shard, lease.epoch, FailureKind::WorkerLost);
                    log.fail_event(None, lease.shard, FailureKind::WorkerLost, fail);
                }
            }
        }

        std::thread::sleep(cfg.poll);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report(&table, log, merged, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_result_json_round_trips_and_rejects_torn_files() {
        let r = ShardResult::seal(
            5,
            0xabc,
            0xdef,
            vec![Verdict::Hang, Verdict::Undetected, Verdict::WrongSignature],
            2,
        );
        let text = r.to_json();
        let back = ShardResult::from_json(&text).expect("parses");
        assert_eq!(back, r);
        assert!(back.is_valid(5, 0xabc, 0xdef));
        assert!(!back.is_valid(5, 0xabc, 0xdee), "wrong ECU binding rejected");
        assert!(!back.is_valid(4, 0xabc, 0xdef), "wrong shard rejected");
        // Every torn prefix (anything short of the closing brace) is
        // rejected, never half-parsed.
        for cut in 0..text.trim_end().len() {
            assert!(ShardResult::from_json(&text[..cut]).is_err(), "accepted prefix {cut}");
        }
    }

    #[test]
    fn tampered_verdicts_fail_the_seal() {
        let mut r = ShardResult::seal(1, 10, 20, vec![Verdict::Undetected; 4], 0);
        assert!(r.is_valid(1, 10, 20));
        r.verdicts[2] = Verdict::Hang;
        assert!(!r.is_valid(1, 10, 20));
    }
}
