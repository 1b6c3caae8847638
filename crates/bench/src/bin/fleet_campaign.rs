//! Fleet campaign service benchmark and chaos smoke: a heterogeneous
//! ECU population grading real ICU faults through the lease-based
//! fleet orchestrator, under injected worker failures, in both worker
//! topologies (thread pool and process-per-worker).
//!
//! Asserted in every mode:
//!
//! * the fleet run terminates with every shard explicitly accounted
//!   (completed or quarantined-with-cause) — zero silent losses;
//! * every completed shard's verdicts are bit-identical to an
//!   uninterrupted serial run;
//! * the chaos plane actually fired (forced panics + one forced hang).
//!
//! Artifacts: `out/fleet_dashboard.jsonl` (one `MetricsHub::to_jsonl`
//! line per lease event — keys `cycle`, `core`, `kind`, `args` — then
//! one telemetry line) and `out/fleet_report.json` with throughput and
//! recovery statistics.
//!
//! Modes (the only CLI argument): `smoke` (CI), `quick`, `standard`
//! (the default; asserts fleet-over-serial speedup), `proc-hang` (tiny
//! process-pool run whose hung child must be killed and stolen —
//! exercised by the `fleet_process` integration test). Any other
//! argument prints the usage and exits with status 2.
//!
//! `--worker <mode> <shard> <attempt> <action> <out>` is the child
//! entry point of the process pool: it rebuilds the same deterministic
//! plan, grades one shard (applying the injected chaos action), and
//! writes the sealed result file.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use sbst_campaign::fleet::{
    assemble_ecu, execute_shard_standalone, run_fleet, run_fleet_process, run_fleet_serial,
    ChaosAction, EcuSpec, FleetConfig, FleetGrader, FleetPlan, FleetReport, ForcedFailure,
    LeasePolicy, Shard, ShardFate, WorkerChaos,
};
use sbst_cpu::unit_fault_list;
use sbst_fault::{FaultList, FaultSite, Unit, Verdict};
use sbst_obs::{FleetTelemetry, Json, MetricsHub, VerdictMix};

/// The deterministic work inventory for a mode — parent and `--worker`
/// children rebuild the identical plan from this one function, so no
/// fault list ever crosses a process boundary.
fn build_plan(mode: &str) -> FleetPlan {
    let (stride, shard_faults) = match mode {
        "smoke" | "proc-hang" => (19, 3),
        "quick" => (7, 5),
        "standard" => (3, 8),
        other => panic!("unknown mode {other:?} (smoke|quick|standard|proc-hang)"),
    };
    let ecus = EcuSpec::population(Unit::Icu);
    let faults: Vec<FaultList> = ecus
        .iter()
        .map(|e| unit_fault_list(e.config.kind, Unit::Icu).sample(stride))
        .collect();
    FleetPlan::build(ecus, faults, shard_faults)
}

/// A grader holding only one ECU variant's simulation stack — what a
/// child process builds for the single shard it grades.
struct OneEcuGrader {
    ecu: usize,
    cell: (
        sbst_campaign::Experiment,
        sbst_campaign::Observation,
        sbst_campaign::Snapshot,
    ),
}

impl FleetGrader for OneEcuGrader {
    fn grade(&self, ecu: usize, _spec: &EcuSpec, site: FaultSite) -> Verdict {
        assert_eq!(ecu, self.ecu, "child graded a foreign ECU");
        let (experiment, golden, snapshot) = &self.cell;
        experiment.test_fault_warm(golden, snapshot, site)
    }
}

fn render_action(action: ChaosAction) -> String {
    match action {
        ChaosAction::None => "none".into(),
        ChaosAction::Panic { after } => format!("panic:{after}"),
        ChaosAction::Hang { after } => format!("hang:{after}"),
        ChaosAction::Slow => "slow".into(),
        ChaosAction::Corrupt => "corrupt".into(),
    }
}

fn parse_action(text: &str) -> ChaosAction {
    match text.split_once(':') {
        Some(("panic", n)) => ChaosAction::Panic { after: n.parse().expect("panic index") },
        Some(("hang", n)) => ChaosAction::Hang { after: n.parse().expect("hang index") },
        None if text == "none" => ChaosAction::None,
        None if text == "slow" => ChaosAction::Slow,
        None if text == "corrupt" => ChaosAction::Corrupt,
        _ => panic!("unknown chaos action {text:?}"),
    }
}

/// Child entry point: grade one shard, write the sealed result.
fn run_worker(args: &[String]) {
    let [mode, shard, attempt, action, out] = args else {
        panic!("--worker needs <mode> <shard> <attempt> <action> <out>");
    };
    let plan = build_plan(mode);
    let shard_idx: usize = shard.parse().expect("shard index");
    let attempt: u8 = attempt.parse().expect("attempt");
    let shard = plan.shards[shard_idx];
    let mut chaos = WorkerChaos::off();
    chaos.slow_millis = 10;
    let action = parse_action(action);
    if action != ChaosAction::None {
        chaos.forced.push(ForcedFailure { shard: shard_idx, attempt, action });
    }
    let cfg = FleetConfig { chaos, ..FleetConfig::new(1, 0) };
    let grader = OneEcuGrader {
        ecu: shard.ecu,
        cell: assemble_ecu(&plan.ecus[shard.ecu]).expect("assemble ECU"),
    };
    let result = execute_shard_standalone(&plan, &shard, attempt, &cfg, &grader);
    std::fs::write(out, result.to_json().render()).expect("write shard result");
}

/// Zero-silent-losses, bit-identity and verdict-mix checks shared by
/// every phase.
fn assert_report(report: &FleetReport, baseline: &[Vec<Verdict>], label: &str) {
    let c = report.telemetry.counters;
    assert_eq!(c.completed + c.quarantined, c.shards, "{label}: every shard terminal");
    for (i, fate) in report.fates.iter().enumerate() {
        match fate {
            ShardFate::Completed { .. } => assert_eq!(
                report.verdicts[i].as_deref(),
                Some(baseline[i].as_slice()),
                "{label}: shard {i} diverged from the serial baseline"
            ),
            ShardFate::Quarantined { cause, attempts } => {
                assert!(report.verdicts[i].is_none(), "{label}: quarantined shard {i} leaked");
                println!("{label}: shard {i} quarantined after {attempts} attempts ({})", cause.as_str());
            }
        }
    }
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
    assert_eq!(report.telemetry.mix, mix, "{label}: verdict mix of the merged shards");
}

/// Writes `out/fleet_dashboard.jsonl`: the `to_jsonl` lines of `hub`
/// (`cycle` holds milliseconds since the run started, `core` the worker
/// id), then one telemetry line.
fn write_dashboard(hub: &MetricsHub, telemetry: &FleetTelemetry) {
    let path = "out/fleet_dashboard.jsonl";
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write(path, hub.to_jsonl() + &telemetry.to_json().render() + "\n")
        .expect("write fleet dashboard");
    println!("wrote {path} ({} events)", hub.events.len());
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        run_worker(&args[1..]);
        return;
    }
    let mode = match args.as_slice() {
        [] => "standard",
        [mode] if ["smoke", "quick", "standard", "proc-hang"].contains(&mode.as_str()) => mode,
        _ => {
            eprintln!("usage: fleet_campaign [smoke|quick|standard|proc-hang]");
            std::process::exit(2);
        }
    };

    let plan = build_plan(mode);
    println!(
        "fleet_campaign [{mode}]: {} ECU variants, {} faults, {} shards",
        plan.ecus.len(),
        plan.total_faults(),
        plan.shard_count()
    );
    let grader = sbst_campaign::fleet::ExperimentFleetGrader::new(&plan)
        .expect("assemble fleet graders");
    let serial_t = Instant::now();
    let baseline = run_fleet_serial(&plan, &grader);
    let serial_secs = serial_t.elapsed().as_secs_f64().max(1e-9);

    if mode == "proc-hang" {
        proc_hang(&plan, &baseline);
        return;
    }

    // ── Phase 1: thread pool under a chaos storm with forced panics
    // and one forced hang (the CI contract).
    let mut chaos = WorkerChaos::storm(42);
    chaos.forced.extend([
        ForcedFailure { shard: 0, attempt: 1, action: ChaosAction::Panic { after: 1 } },
        ForcedFailure { shard: 2, attempt: 1, action: ChaosAction::Panic { after: 0 } },
        ForcedFailure { shard: 1, attempt: 1, action: ChaosAction::Hang { after: 1 } },
    ]);
    let cfg = FleetConfig {
        workers: 4,
        policy: LeasePolicy {
            max_retries: 6,
            // Must exceed the worst honest shard grading time by a
            // wide margin; the one forced hang costs exactly one
            // lease timeout of wall clock.
            lease_timeout: Duration::from_millis(2000),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(16),
            seed: 42,
        },
        chaos,
        checkpoint_dir: None,
        checkpoint_every: 4,
        poll: Duration::from_millis(2),
    };
    let report = run_fleet(&plan, &grader, &cfg);
    assert_report(&report, &baseline, "threads+chaos");
    let t = &report.telemetry;
    assert!(t.injected_panics >= 2, "forced panics must fire (got {})", t.injected_panics);
    assert!(t.injected_hangs >= 1, "the forced hang must fire (got {})", t.injected_hangs);
    assert!(t.counters.retries >= 2, "panicked shards must be retried");
    assert!(t.counters.steals >= 1, "the hung lease must be stolen");
    println!("threads+chaos: {t}");

    let hub = MetricsHub { events: report.events.clone(), ..MetricsHub::default() };
    write_dashboard(&hub, t);

    // ── Phase 2: a calm timed fleet run for the throughput figure.
    let calm_cfg = FleetConfig {
        policy: LeasePolicy {
            lease_timeout: Duration::from_millis(10_000),
            ..LeasePolicy::fast(7)
        },
        workers: 4,
        ..FleetConfig::new(4, 7)
    };
    let calm_t = Instant::now();
    let calm = run_fleet(&plan, &grader, &calm_cfg);
    let calm_secs = calm_t.elapsed().as_secs_f64().max(1e-9);
    assert_report(&calm, &baseline, "threads+calm");
    assert!(calm.is_complete(), "calm fleet must complete everything");
    let speedup = serial_secs / calm_secs;
    println!(
        "serial {serial_secs:.2}s vs fleet {calm_secs:.2}s ({:.1} faults/s) — speedup {speedup:.2}x",
        calm.telemetry.faults_per_sec
    );
    if mode == "standard" {
        let cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores >= 4 {
            assert!(
                speedup >= 1.2,
                "a 4-worker fleet on {cores} cores must beat the serial run, \
                 got {speedup:.2}x"
            );
        } else {
            // On a starved machine parallel speedup is unobtainable;
            // still bound the orchestration overhead.
            assert!(
                calm_secs <= serial_secs * 3.0 + 0.5,
                "fleet orchestration overhead out of bounds: \
                 serial {serial_secs:.2}s vs fleet {calm_secs:.2}s on {cores} cores"
            );
        }
    }

    // ── Phase 3: process-per-worker pool with a forced child panic and
    // a forced corrupted result (crash isolation across a real process
    // boundary; the forced hang-and-kill path runs in `proc-hang`).
    let mut proc_chaos = WorkerChaos::off();
    proc_chaos.forced.extend([
        ForcedFailure { shard: 0, attempt: 1, action: ChaosAction::Panic { after: 1 } },
        ForcedFailure { shard: 3, attempt: 1, action: ChaosAction::Corrupt },
    ]);
    let proc_cfg = FleetConfig {
        workers: 3,
        policy: LeasePolicy {
            max_retries: 4,
            lease_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(16),
            seed: 9,
        },
        chaos: proc_chaos,
        checkpoint_dir: None,
        checkpoint_every: 4,
        poll: Duration::from_millis(5),
    };
    let proc_report = run_process_fleet(&plan, &proc_cfg, mode);
    assert_report(&proc_report, &baseline, "processes");
    let pt = &proc_report.telemetry;
    assert!(pt.injected_panics >= 1, "forced child panic scheduled");
    assert!(pt.injected_corruptions >= 1, "forced child corruption scheduled");
    assert!(pt.counters.retries >= 2, "dead/corrupt children must be retried");
    println!("processes: {pt}");

    let fleet = Json::Obj(vec![
        ("mode".into(), Json::Str(mode.into())),
        ("ecus".into(), Json::int(plan.ecus.len() as u64)),
        ("faults".into(), Json::int(plan.total_faults() as u64)),
        ("shards".into(), Json::int(plan.shard_count() as u64)),
        ("serial_secs".into(), Json::Num(round2(serial_secs))),
        ("fleet_secs".into(), Json::Num(round2(calm_secs))),
        ("speedup".into(), Json::Num(round2(speedup))),
        ("faults_per_sec".into(), Json::Num(round2(calm.telemetry.faults_per_sec))),
        ("chaos".into(), t.to_json()),
        ("process_pool".into(), pt.to_json()),
    ]);
    // `write_dashboard` created `out/`.
    std::fs::write("out/fleet_report.json", fleet.render_pretty(2))
        .expect("write out/fleet_report.json");
    println!("wrote out/fleet_report.json");
    println!("fleet_campaign [{mode}]: OK");
}

/// Runs the process pool with this binary as the worker.
fn run_process_fleet(plan: &FleetPlan, cfg: &FleetConfig, mode: &str) -> FleetReport {
    let exe = std::env::current_exe().expect("own path");
    let chaos = cfg.chaos.clone();
    let command = move |shard: &Shard, attempt: u8, out: &Path| {
        let action = render_action(chaos.roll(shard.index, attempt, shard.len));
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .arg(mode)
            .arg(shard.index.to_string())
            .arg(attempt.to_string())
            .arg(action)
            .arg(out);
        cmd
    };
    run_fleet_process(plan, cfg, &command).expect("process fleet scratch dir")
}

/// The hung-child scenario: one worker process is forced to hang
/// mid-shard; the parent must kill it at lease expiry, steal the
/// lease, and still converge to the serial baseline.
fn proc_hang(plan: &FleetPlan, baseline: &[Vec<Verdict>]) {
    let mut chaos = WorkerChaos::off();
    chaos.forced.push(ForcedFailure {
        shard: 1,
        attempt: 1,
        action: ChaosAction::Hang { after: 1 },
    });
    let cfg = FleetConfig {
        workers: 2,
        policy: LeasePolicy {
            max_retries: 4,
            lease_timeout: Duration::from_millis(2500),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(16),
            seed: 13,
        },
        chaos,
        checkpoint_dir: None,
        checkpoint_every: 4,
        poll: Duration::from_millis(5),
    };
    let report = run_process_fleet(plan, &cfg, "proc-hang");
    assert_report(&report, baseline, "proc-hang");
    let t = &report.telemetry;
    assert!(t.counters.steals >= 1, "the hung child's lease must be stolen");
    assert!(t.injected_hangs >= 1, "the forced hang was scheduled");
    println!("proc-hang: {t}");
    println!("fleet_campaign [proc-hang]: OK");
}
