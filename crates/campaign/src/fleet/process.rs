//! Process-per-worker fleet pool: true crash isolation.
//!
//! The thread pool in [`run_fleet`](super::run_fleet) isolates panics
//! with `catch_unwind`, but an aborting worker (stack overflow, OOM
//! kill, `std::process::abort`) would take the whole fleet down. This
//! pool runs every shard attempt in its **own child process**: the
//! child grades the shard, writes a sealed [`ShardResult`] file, and
//! exits. A child dying in *any* way — clean panic, abort, SIGKILL —
//! is just a failed attempt.
//!
//! Both pools run the same lease loop: one parent thread per worker
//! slot claims a lease, spawns the attempt's child and waits on it,
//! killing and reaping it once the lease is stolen, and the parent's
//! calling thread expires stale leases. The children are the
//! parallelism; the parent's threads only wait.

use std::io;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sbst_obs::Json;

use crate::checkpoint::{expect_keys, integer, malformed, parse, verdict_slots, CheckpointError};

use super::lease::{FailureKind, Lease};
use super::orchestrator::{
    execute_shard, run_leases, Attempt, FleetConfig, FleetGrader, FleetReport, InjectedTally,
    ShardResult,
};
use super::shard::{FleetPlan, Shard};

impl ShardResult {
    /// The result as a JSON value: `shard`, `resumed`, `checksum` and
    /// `verdicts` (tags, never `null`) — the file a process worker
    /// hands its parent.
    pub fn to_json(&self) -> Json {
        let verdicts = self.verdicts.iter().map(|v| Json::Str(v.tag().into())).collect();
        Json::Obj(vec![
            ("shard".into(), Json::int(self.shard as u64)),
            ("resumed".into(), Json::int(self.resumed.into())),
            ("checksum".into(), Json::int(self.checksum)),
            ("verdicts".into(), Json::Arr(verdicts)),
        ])
    }

    /// Reads a result from its JSON value. Decoding checks the shape
    /// only; the seal ([`is_valid`](ShardResult::is_valid)) is the
    /// parent's to check.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on a missing or unknown
    /// key, a `null` or unknown verdict, a `shard` beyond `usize`, or a
    /// `resumed` beyond `u32` or above the verdict count.
    pub fn from_json(doc: &Json) -> Result<ShardResult, CheckpointError> {
        expect_keys(doc, &["shard", "resumed", "checksum", "verdicts"])?;
        let verdicts = verdict_slots(doc)?
            .into_iter()
            .map(|v| v.ok_or_else(|| malformed("null verdict in shard result")))
            .collect::<Result<Vec<_>, _>>()?;
        let shard = usize::try_from(integer(doc, "shard")?)
            .map_err(|_| malformed("shard index out of range"))?;
        let resumed = u32::try_from(integer(doc, "resumed")?)
            .ok()
            .filter(|&r| r as usize <= verdicts.len())
            .ok_or_else(|| malformed("resumed exceeds the verdict count"))?;
        Ok(ShardResult { shard, resumed, checksum: integer(doc, "checksum")?, verdicts })
    }
}

/// Child-process entry point: grades one shard attempt to a sealed
/// result. Injected chaos behaves like a real defect would in a
/// process worker — a panic unwinds into a non-zero exit, a hang spins
/// until the parent kills the process.
///
/// Intended for the `--worker` mode of a fleet binary: rebuild the
/// same deterministic [`FleetPlan`] from the CLI arguments, call this,
/// write the rendered [`ShardResult::to_json`], exit zero.
pub fn execute_shard_standalone(
    plan: &FleetPlan,
    shard: &Shard,
    attempt: u8,
    cfg: &FleetConfig,
    grader: &dyn FleetGrader,
) -> ShardResult {
    let cancel = AtomicBool::new(false);
    match execute_shard(plan, shard, attempt, cfg, grader, &cancel, &InjectedTally::default()) {
        Attempt::Sealed(result) => result,
        // `execute_shard` never fails, and nothing sets the cancel
        // token of a standalone process.
        _ => unreachable!("standalone shard attempts are never cancelled"),
    }
}

/// Builds the child [`Command`] for one shard attempt. The callback
/// receives the shard, the attempt number and the path the child must
/// write its [`ShardResult`] JSON to; the pool's worker threads call
/// it concurrently.
pub type ShardCommand<'a> = dyn Fn(&Shard, u8, &Path) -> Command + Sync + 'a;

/// Runs the fleet campaign with one **child process per shard
/// attempt** — the crash-isolated twin of
/// [`run_fleet`](super::run_fleet), through the same lease loop with
/// the same steal / retry / quarantine semantics. Each of `cfg.workers`
/// parent threads spawns its attempt's child and polls it every
/// `cfg.poll`; a child whose lease is stolen is killed and reaped
/// before its thread claims again. A child that cannot be spawned,
/// exits non-zero or leaves no readable result file is charged as
/// [`FailureKind::WorkerLost`].
///
/// Injection counters in the returned telemetry count the chaos
/// actions scheduled for the children, since a crashed child cannot
/// report what it did; `checkpoints_rejected` stays 0 for the same
/// reason.
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
    let report = run_leases(plan, cfg, &|lease: &Lease, tally: &InjectedTally| {
        let shard = &plan.shards[lease.shard];
        tally.count(cfg.chaos.roll(lease.shard, lease.attempt, shard.len));
        let out = scratch.join(format!("shard-{:04}-e{}.json", lease.shard, lease.epoch));
        let attempt = run_child(command(shard, lease.attempt, &out), &out, &lease.cancel, cfg.poll);
        let _ = std::fs::remove_file(&out);
        attempt
    });
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report)
}

/// One process attempt: spawns `cmd`, polls it every `poll` until it
/// exits — killing and reaping it once `cancel` is set — and decodes
/// the result it wrote to `out`. A spawn failure, a non-zero exit or
/// an unreadable result is [`FailureKind::WorkerLost`].
fn run_child(mut cmd: Command, out: &Path, cancel: &AtomicBool, poll: Duration) -> Attempt {
    let Ok(mut child) = cmd.stdout(Stdio::null()).stderr(Stdio::null()).spawn() else {
        return Attempt::Failed(FailureKind::WorkerLost);
    };
    let status = loop {
        if cancel.load(Ordering::Acquire) {
            // Stolen: the child must not outlive its lease.
            let _ = child.kill();
            let _ = child.wait();
            return Attempt::Cancelled;
        }
        match child.try_wait() {
            Ok(None) => std::thread::sleep(poll),
            // A failed wait counts as a lost worker.
            waited => break waited.ok().flatten(),
        }
    };
    status
        .filter(ExitStatus::success)
        .and_then(|_| std::fs::read_to_string(out).ok())
        .and_then(|text| ShardResult::from_json(&parse(&text).ok()?).ok())
        .map_or(Attempt::Failed(FailureKind::WorkerLost), Attempt::Sealed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_fault::Verdict;

    fn decode(text: &str) -> Result<ShardResult, CheckpointError> {
        ShardResult::from_json(&parse(text)?)
    }

    #[test]
    fn shard_result_json_round_trips_and_rejects_torn_files() {
        let r = ShardResult::seal(
            5,
            0xabc,
            0xdef,
            vec![Verdict::Hang, Verdict::Undetected, Verdict::WrongSignature],
            2,
        );
        let text = r.to_json().render();
        let back = decode(&text).expect("parses");
        assert_eq!(back, r);
        assert!(back.is_valid(5, 0xabc, 0xdef));
        assert!(!back.is_valid(5, 0xabc, 0xdee), "wrong ECU binding rejected");
        assert!(!back.is_valid(4, 0xabc, 0xdef), "wrong shard rejected");
        // Every torn prefix (anything short of the closing brace) is
        // rejected, never half-parsed.
        for cut in 0..text.trim_end().len() {
            assert!(decode(&text[..cut]).is_err(), "accepted prefix {cut}");
        }
        // Counts that do not fit are rejected, not truncated: a
        // `resumed` of 2^32 + 1 must not read as 1.
        let with = |key: &str, value: &str| {
            let mut doc = r.to_json();
            doc.set(key, parse(value).expect("value"));
            ShardResult::from_json(&doc)
        };
        for (key, value) in [
            ("resumed", "4294967297"),
            ("resumed", "4"),
            ("resumed", "-1"),
            ("shard", "18446744073709551616"),
            ("shard", "5.0"),
            ("checksum", "1e3"),
            ("verdicts", "[\"hang\",null]"),
            ("verdicts", "[\"bogus\"]"),
            ("extra", "0"),
        ] {
            assert!(with(key, value).is_err(), "accepted {key}: {value}");
        }
        assert_eq!(with("resumed", "3").expect("every fault restored").resumed, 3);
    }

    /// A result written by the hand-built renderer this codec replaced;
    /// its checksum is above 2^63, where an `f64` would round.
    #[test]
    fn shard_results_of_the_previous_renderer_load_unchanged() {
        let text = "{\n  \"shard\": 5,\n  \"resumed\": 4,\n  \"checksum\": 11938205178991634251,\n  \
                    \"verdicts\": [\"wrong-signature\", \"test-fail\", \"unexpected-trap\", \"hang\", \
                    \"undetected\", \"sim-error\"]\n}\n";
        let expected = ShardResult {
            shard: 5,
            resumed: 4,
            verdicts: vec![
                Verdict::WrongSignature,
                Verdict::TestFail,
                Verdict::UnexpectedTrap,
                Verdict::Hang,
                Verdict::Undetected,
                Verdict::SimError,
            ],
            checksum: 11_938_205_178_991_634_251,
        };
        assert_eq!(decode(text).expect("loads"), expected);
        assert_eq!(decode(&expected.to_json().render()).expect("round trips"), expected);
    }

    #[test]
    fn tampered_verdicts_fail_the_seal() {
        let mut r = ShardResult::seal(1, 10, 20, vec![Verdict::Undetected; 4], 0);
        assert!(r.is_valid(1, 10, 20));
        r.verdicts[2] = Verdict::Hang;
        assert!(!r.is_valid(1, 10, 20));
        // The restored count is sealed too: inflating it in transit
        // would inflate `faults_restored`.
        let mut r = ShardResult::seal(1, 10, 20, vec![Verdict::Undetected; 4], 1);
        assert!(r.is_valid(1, 10, 20));
        r.resumed = 3;
        assert!(!r.is_valid(1, 10, 20));
    }
}
