//! Fleet orchestrator robustness suite.
//!
//! The headline property: under seeded random worker failures (panics,
//! hangs, slowdowns, corrupted results) a fleet run **terminates**,
//! never deadlocks, every shard is explicitly accounted for, and the
//! merged verdict map is **bit-identical** to an uninterrupted serial
//! run on every completed shard. Asserted over 50 independent chaos
//! storms plus deterministic kill-and-resume and quarantine scenarios,
//! and the process pool's lost-child and stolen-child paths.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sbst_campaign::fleet::{
    run_fleet, run_fleet_serial, shard_checkpoint_path, ChaosAction, EcuSpec, FailureKind,
    FleetConfig, FleetGrader, FleetPlan, ForcedFailure, LeasePolicy, ShardFate, WorkerChaos,
};
use sbst_campaign::{fingerprint, Checkpoint};
use sbst_fault::{Element, FaultList, FaultSite, Polarity, Unit, Verdict};
use sbst_obs::VerdictMix;

/// A pure, instant grader: the verdict is a hash of (ECU index, fault
/// site), so retried / stolen / resumed shards must reproduce it
/// exactly — any double-merge, misroute or corruption shows up as a
/// baseline mismatch.
struct HashGrader;

impl FleetGrader for HashGrader {
    fn grade(&self, ecu: usize, _spec: &EcuSpec, site: FaultSite) -> Verdict {
        let mut h = ecu as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for b in format!("{site:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        match h % 5 {
            0 => Verdict::WrongSignature,
            1 => Verdict::TestFail,
            2 => Verdict::UnexpectedTrap,
            3 => Verdict::Hang,
            _ => Verdict::Undetected,
        }
    }
}

fn synthetic_list(n: u16) -> FaultList {
    (0..n)
        .map(|i| FaultSite {
            unit: Unit::Hdcu,
            instance: i,
            element: Element::CmpOut,
            polarity: if i % 2 == 0 { Polarity::StuckAt0 } else { Polarity::StuckAt1 },
        })
        .collect()
}

fn plan() -> FleetPlan {
    let ecus = EcuSpec::population(Unit::Hdcu);
    FleetPlan::build(ecus, vec![synthetic_list(24), synthetic_list(24), synthetic_list(24)], 7)
}

/// A fresh checkpoint directory under the system temp directory,
/// removed when the test ends, pass or fail.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sbst-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Checks the invariants every fleet run must satisfy, chaos or not:
/// full accounting (every shard Completed xor Quarantined, verdicts
/// present exactly for completed shards), bit-identity of every
/// completed shard against the serial baseline, and a telemetry
/// verdict mix and graded + restored fault counts that count exactly
/// the merged verdicts.
fn assert_invariants(
    report: &sbst_campaign::fleet::FleetReport,
    baseline: &[Vec<Verdict>],
    seed: u64,
) {
    assert_eq!(report.fates.len(), baseline.len(), "seed {seed}: every shard accounted");
    let mut completed = 0u64;
    let mut quarantined = 0u64;
    for (i, fate) in report.fates.iter().enumerate() {
        match fate {
            ShardFate::Completed { .. } => {
                completed += 1;
                let merged = report.verdicts[i]
                    .as_ref()
                    .unwrap_or_else(|| panic!("seed {seed}: completed shard {i} has verdicts"));
                assert_eq!(
                    merged, &baseline[i],
                    "seed {seed}: shard {i} verdicts must be bit-identical to the serial run"
                );
            }
            ShardFate::Quarantined { .. } => {
                quarantined += 1;
                assert!(
                    report.verdicts[i].is_none(),
                    "seed {seed}: quarantined shard {i} must not leak partial verdicts"
                );
            }
        }
    }
    let c = report.telemetry.counters;
    assert_eq!(c.completed, completed, "seed {seed}: completed counter");
    assert_eq!(c.quarantined, quarantined, "seed {seed}: quarantined counter");
    assert_eq!(
        c.completed + c.quarantined,
        c.shards,
        "seed {seed}: every shard terminal"
    );
    let merged: Vec<Verdict> = report.verdicts.iter().flatten().flatten().copied().collect();
    let count = |v: Verdict| merged.iter().filter(|&&m| m == v).count() as u64;
    let mix = VerdictMix {
        wrong_signature: count(Verdict::WrongSignature),
        test_fail: count(Verdict::TestFail),
        unexpected_trap: count(Verdict::UnexpectedTrap),
        hang: count(Verdict::Hang),
        undetected: count(Verdict::Undetected),
        sim_error: count(Verdict::SimError),
    };
    assert_eq!(report.telemetry.mix, mix, "seed {seed}: verdict mix of the merged shards");
    assert_eq!(
        report.telemetry.faults_graded + report.telemetry.faults_restored,
        merged.len() as u64,
        "seed {seed}: graded + restored faults count exactly the merged verdicts"
    );
}

/// The headline property, over 50 independent chaos storms.
#[test]
fn chaos_storms_terminate_and_match_the_serial_baseline() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    let mut injected = 0u64;
    let mut steals = 0u64;
    let mut retries = 0u64;
    for seed in 0..50 {
        let cfg = FleetConfig {
            workers: 4,
            policy: LeasePolicy {
                max_retries: 6,
                lease_timeout: Duration::from_millis(25),
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(8),
                seed,
            },
            chaos: WorkerChaos::storm(seed),
            checkpoint_dir: None,
            checkpoint_every: 4,
            poll: Duration::from_millis(1),
        };
        let report = run_fleet(&plan, &HashGrader, &cfg);
        assert_invariants(&report, &baseline, seed);
        let t = &report.telemetry;
        injected +=
            t.injected_panics + t.injected_hangs + t.injected_slowdowns + t.injected_corruptions;
        steals += t.counters.steals;
        retries += t.counters.retries;
    }
    // The storms must actually have stressed the machinery — a chaos
    // plane that never fires proves nothing.
    assert!(injected > 50, "chaos storms barely fired: {injected} injections over 50 runs");
    assert!(steals > 0, "no lease was ever stolen across 50 storms");
    assert!(retries > 0, "no shard was ever retried across 50 storms");
}

/// Without chaos the fleet is simply a parallel campaign: everything
/// completes first-try, nothing is stolen or retried.
#[test]
fn calm_fleet_completes_everything_first_try() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    // Calm runs must assert zero steals, so the lease has to be far
    // above any scheduling hiccup a loaded test machine can produce.
    let cfg = FleetConfig {
        policy: LeasePolicy { lease_timeout: Duration::from_secs(60), ..LeasePolicy::fast(99) },
        ..FleetConfig::new(4, 99)
    };
    let report = run_fleet(&plan, &HashGrader, &cfg);
    assert_invariants(&report, &baseline, 99);
    assert!(report.is_complete());
    let c = report.telemetry.counters;
    assert_eq!(c.leases, c.shards, "one lease per shard");
    assert_eq!((c.retries, c.steals, c.late_results), (0, 0, 0));
    assert_eq!(report.telemetry.faults_graded, plan.total_faults() as u64);
    // Lease/done trace events for every shard.
    let leases = report.events.iter().filter(|e| e.kind.name() == "shard-lease").count();
    let dones = report.events.iter().filter(|e| e.kind.name() == "shard-done").count();
    assert_eq!((leases, dones), (plan.shard_count(), plan.shard_count()));
}

/// Kill-and-resume: a worker is killed (injected panic) at a random
/// fault index mid-shard; the retry restores the graded prefix from
/// the shard checkpoint and the merged verdicts are identical to the
/// uninterrupted baseline.
#[test]
fn killed_worker_resumes_from_checkpoint_with_identical_verdicts() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    for seed in 0..8 {
        let scratch = Scratch::new(&format!("resume-{seed}"));
        // Kill one pseudo-random shard at a pseudo-random fault index.
        let victim = (seed as usize * 7 + 3) % plan.shard_count();
        let after = 1 + (seed as usize * 5) % (plan.shards[victim].len - 1);
        let mut chaos = WorkerChaos::off();
        chaos.forced.push(ForcedFailure {
            shard: victim,
            attempt: 1,
            action: ChaosAction::Panic { after },
        });
        let cfg = FleetConfig {
            workers: 3,
            policy: LeasePolicy {
                max_retries: 6,
                // Generous: no hangs are injected, so expiry is never
                // needed and a loaded CI machine cannot starve a lease.
                lease_timeout: Duration::from_secs(60),
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                seed,
            },
            chaos,
            checkpoint_dir: Some(scratch.0.clone()),
            checkpoint_every: 1,
            poll: Duration::from_millis(1),
        };
        let report = run_fleet(&plan, &HashGrader, &cfg);
        assert_invariants(&report, &baseline, seed);
        assert!(report.is_complete(), "seed {seed}: one panic must not quarantine anything");
        let t = &report.telemetry;
        assert_eq!(t.injected_panics, 1, "seed {seed}: the forced panic fired");
        assert!(
            t.faults_restored >= after as u64,
            "seed {seed}: retry restored at least the {after} faults graded before the kill \
             (got {})",
            t.faults_restored
        );
        assert!(t.counters.resumes >= 1, "seed {seed}: resume counted");
        assert_eq!(t.counters.retries, 1, "seed {seed}: exactly one retry");
        match report.fates[victim] {
            ShardFate::Completed { attempts: 2, resumed_faults, .. } => {
                assert!(resumed_faults >= after as u32, "seed {seed}");
            }
            other => panic!("seed {seed}: victim shard fate {other:?}"),
        }
    }
}

/// [`HashGrader`] in logged batches that crashes the first time it is
/// handed `poison` of ECU 0: a grader dying in the middle of a shard,
/// not at a chaos position.
struct PoisonedBatchGrader {
    poison: FaultSite,
    tripped: AtomicBool,
    batches: Mutex<Vec<usize>>,
}

impl FleetGrader for PoisonedBatchGrader {
    fn grade(&self, ecu: usize, spec: &EcuSpec, site: FaultSite) -> Verdict {
        HashGrader.grade(ecu, spec, site)
    }

    fn grade_batch(&self, ecu: usize, spec: &EcuSpec, sites: &[FaultSite]) -> Vec<Verdict> {
        self.batches.lock().expect("batch log").push(sites.len());
        let poisoned = ecu == 0 && sites.contains(&self.poison);
        if poisoned && !self.tripped.swap(true, Ordering::SeqCst) {
            panic!("grader crashed mid-shard");
        }
        sites.iter().map(|&site| self.grade(ecu, spec, site)).collect()
    }
}

/// A shard attempt grades its faults in batches of `checkpoint_every`
/// and saves after each, so a crash inside the grader loses only the
/// batch it hit: the retry restores exactly the batch before it.
#[test]
fn a_grader_crash_mid_shard_keeps_the_batches_before_it() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    let scratch = Scratch::new("batches");
    let victim = &plan.shards[0];
    assert_eq!((victim.ecu, victim.len), (0, 7));
    let grader = PoisonedBatchGrader {
        // The sixth fault: in the second batch of four.
        poison: plan.sites(victim)[5],
        tripped: AtomicBool::new(false),
        batches: Mutex::new(Vec::new()),
    };
    let cfg = FleetConfig {
        checkpoint_dir: Some(scratch.0.clone()),
        checkpoint_every: 4,
        // Generous: only the poisoned batch may fail an attempt.
        policy: LeasePolicy { lease_timeout: Duration::from_secs(60), ..LeasePolicy::fast(3) },
        ..FleetConfig::new(2, 3)
    };
    let report = run_fleet(&plan, &grader, &cfg);
    assert_invariants(&report, &baseline, 3);
    assert!(report.is_complete());
    assert_eq!(report.telemetry.counters.retries, 1, "only the poisoned attempt failed");
    assert_eq!(report.telemetry.faults_restored, 4, "the retry restored the first batch");
    assert!(
        matches!(report.fates[0], ShardFate::Completed { attempts: 2, resumed_faults: 4, .. }),
        "victim shard fate {:?}",
        report.fates[0]
    );
    let batches = grader.batches.into_inner().expect("batch log");
    assert!(batches.iter().all(|&n| (1..=4).contains(&n)), "batch sizes {batches:?}");
}

/// A shard checkpoint is restored only when its fault slice, its ECU
/// configuration and its slot count all match the shard. Three forged
/// files with *lying* verdicts each break one of those bindings; each
/// is rejected on load (counted, discarded) and its shard re-graded
/// from scratch, so the verdicts still match the baseline.
#[test]
fn foreign_config_shard_checkpoints_are_rejected_not_merged() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    let scratch = Scratch::new("foreign");
    let ecu0 = plan.ecus[0].fingerprint();
    assert!(plan.shards[..3].iter().all(|s| s.ecu == 0 && s.len == 7), "{:?}", plan.shards);
    let forge = |faults: &FaultList, config: u64, shard: usize, slots: usize| {
        let verdicts = vec![Some(Verdict::SimError); slots];
        let forged = Checkpoint { fingerprint: fingerprint(faults), config, verdicts };
        forged.save(&shard_checkpoint_path(&scratch.0, shard)).expect("forge checkpoint");
    };
    let slice = |shard: usize| plan.shard_fault_list(&plan.shards[shard]);
    // Shard 0: the right fault slice under a wrong ECU config.
    forge(&slice(0), 0x1234_5678_9abc_def0, 0, 7);
    // Shard 1: shard 0's fault slice under the right ECU config.
    forge(&slice(0), ecu0, 1, 7);
    // Shard 2: the right slice and config, one slot short. Trusting it
    // would index past the slots on every attempt.
    forge(&slice(2), ecu0, 2, 6);

    let cfg = FleetConfig {
        checkpoint_dir: Some(scratch.0.clone()),
        checkpoint_every: 2,
        // A generous lease: under suite-wide load a short lease can
        // expire spuriously, and the stolen shard's retry would then
        // *legitimately* resume from its own checkpoint, breaking the
        // resumes == 0 assertion below.
        policy: LeasePolicy { lease_timeout: Duration::from_secs(60), ..LeasePolicy::fast(7) },
        ..FleetConfig::new(2, 7)
    };
    let report = run_fleet(&plan, &HashGrader, &cfg);
    assert_invariants(&report, &baseline, 7);
    assert!(report.is_complete());
    assert!(
        report.telemetry.checkpoints_rejected >= 3,
        "every forged checkpoint must be rejected, not trusted (rejected {})",
        report.telemetry.checkpoints_rejected
    );
    assert_eq!(report.telemetry.counters.resumes, 0, "nothing legitimate to resume");
}

/// A shard that fails every attempt exhausts its retry budget and is
/// quarantined with its cause; the rest of the fleet is unaffected.
#[test]
fn persistent_failure_quarantines_only_the_sick_shard() {
    let plan = plan();
    let baseline = run_fleet_serial(&plan, &HashGrader);
    let victim = 5;
    let mut chaos = WorkerChaos::off();
    for attempt in 1..=8 {
        chaos.forced.push(ForcedFailure {
            shard: victim,
            attempt,
            action: if attempt % 2 == 0 {
                ChaosAction::Corrupt
            } else {
                ChaosAction::Panic { after: 0 }
            },
        });
    }
    let cfg = FleetConfig {
        policy: LeasePolicy {
            max_retries: 3,
            // Generous: a spurious expiry would interleave a Timeout
            // into the forced panic/corrupt cadence and shift the
            // final quarantine cause asserted below.
            lease_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            seed: 11,
        },
        chaos,
        ..FleetConfig::new(3, 11)
    };
    let report = run_fleet(&plan, &HashGrader, &cfg);
    assert_invariants(&report, &baseline, 11);
    assert_eq!(
        report.quarantined().len(),
        1,
        "exactly the victim is quarantined: {:?}",
        report.fates
    );
    let (shard, cause) = report.quarantined()[0];
    assert_eq!(shard, victim);
    // 4 attempts (budget 3 retries): panic, corrupt, panic, corrupt →
    // the final cause is the corruption that broke the budget.
    assert_eq!(cause, FailureKind::Corrupt);
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind.name() == "shard-quarantine"),
        "quarantine surfaced as a trace event"
    );
    assert_eq!(report.telemetry.counters.quarantined, 1);
}

/// The process pool's failure paths, without a worker binary: a child
/// that cannot be spawned and one that exits 0 without writing a
/// result are each a lost worker, and a child that outlives its lease
/// is stolen *and killed*, not abandoned to finish in the background.
#[cfg(unix)]
#[test]
fn process_pool_charges_lost_children_and_kills_the_ones_it_steals() {
    use sbst_campaign::fleet::{run_fleet_process, Shard};
    use std::path::Path;
    use std::process::Command;
    use std::time::Instant;

    let seed = 0x5ca1;
    let ecus = EcuSpec::population(Unit::Hdcu);
    let plan = FleetPlan::build(ecus, vec![synthetic_list(3); 3], 3);
    assert_eq!(plan.shard_count(), 3);
    let scratch = Scratch::new("proc-paths");
    let cfg = FleetConfig {
        policy: LeasePolicy {
            max_retries: 1,
            lease_timeout: Duration::from_millis(200),
            ..LeasePolicy::fast(seed)
        },
        ..FleetConfig::new(3, seed)
    };
    let command = |shard: &Shard, attempt: u8, _out: &Path| match shard.index {
        0 => Command::new(scratch.0.join("no-such-worker")),
        1 => Command::new("true"),
        _ => {
            let marker = scratch.0.join(format!("alive-{attempt}"));
            let mut cmd = Command::new("sh");
            cmd.arg("-c").arg(format!("sleep 1 && touch '{}'", marker.display()));
            cmd
        }
    };
    let start = Instant::now();
    let report = run_fleet_process(&plan, &cfg, &command).expect("scratch directory");
    let elapsed = start.elapsed();
    assert_invariants(&report, &run_fleet_serial(&plan, &HashGrader), seed);
    let causes: Vec<FailureKind> = report.quarantined().into_iter().map(|(_, c)| c).collect();
    assert_eq!(causes, [FailureKind::WorkerLost, FailureKind::WorkerLost, FailureKind::Timeout]);
    assert_eq!(report.telemetry.counters.steals, 2, "both attempts of the sleeper were stolen");
    assert!(elapsed < Duration::from_secs(1), "the run waited on its children: {elapsed:?}");

    // A stolen child that was only abandoned would wake up and leave
    // its marker behind.
    std::thread::sleep(Duration::from_millis(1500));
    let alive: Vec<_> = std::fs::read_dir(&scratch.0)
        .expect("scratch listing")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("alive-"))
        .collect();
    assert!(alive.is_empty(), "a stolen child outlived its lease: {alive:?}");
    let results = std::env::temp_dir().join(format!("sbst-fleet-{}-{seed:x}", std::process::id()));
    assert!(!results.exists(), "{} left behind", results.display());
}

/// The fleet service against the real simulator: small heterogeneous
/// populations grading genuine ICU and HDCU faults through the
/// experiment grader, fleet run (batched through the bit-parallel tier)
/// equal to serial run (warm, fault by fault), everything completed.
#[test]
fn real_experiment_fleet_matches_its_serial_run() {
    use sbst_campaign::fleet::ExperimentFleetGrader;
    use sbst_cpu::unit_fault_list;

    // The ICU population and the HDCU one minus ecu-b, whose 4 KiB I$
    // cannot hold the exhaustive HDCU routine: each shard's batch rides
    // the bit-parallel tier, the serial reference grades fault by fault.
    let mut ecus = EcuSpec::population(Unit::Icu);
    ecus.extend(
        EcuSpec::population(Unit::Hdcu).into_iter().filter(|e| !e.name.starts_with("ecu-b")),
    );
    let faults: Vec<FaultList> = ecus
        .iter()
        .map(|e| unit_fault_list(e.config.kind, e.unit).sample(37))
        .collect();
    assert!(faults.iter().all(|f| f.len() >= 4), "sampled lists stay non-trivial");
    let plan = FleetPlan::build(ecus, faults, 3);
    let grader = ExperimentFleetGrader::new(&plan).expect("assemble fleet graders");
    let baseline = run_fleet_serial(&plan, &grader);
    // Real (debug-build) simulations take far longer than the test
    // policy's millisecond leases: size the lease like a deployment
    // would, well above the worst-case shard grading time.
    let cfg = FleetConfig {
        policy: LeasePolicy {
            max_retries: 2,
            lease_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            seed: 23,
        },
        ..FleetConfig::new(3, 23)
    };
    let report = run_fleet(&plan, &grader, &cfg);
    assert_invariants(&report, &baseline, 23);
    assert!(report.is_complete());
    assert_eq!(report.telemetry.faults_graded, plan.total_faults() as u64);
}
