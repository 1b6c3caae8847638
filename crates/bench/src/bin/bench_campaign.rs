//! Campaign-throughput benchmark: cold-start grading (every fault
//! re-simulates the SoC from reset) versus the warm-start fast path
//! (clone the golden-prefix snapshot, simulate only the tail, exit at
//! the first decided verdict) versus the bit-parallel PPSFP tier (one
//! tapped golden tail grades a whole word of packed faults). Emits
//! machine-readable `BENCH_campaign.json` so the repo carries a perf
//! trajectory.
//!
//! Modes (first CLI argument):
//!
//! * `standard` (default) — the standard effort tier; asserts the warm
//!   path's ≥ 1.5× throughput over cold, PPSFP's ≥ 5× throughput over
//!   the recorded warm baseline (on machines with ≥ [`MIN_CORES`]
//!   cores), and three-way verdict equivalence.
//! * `quick` — a smaller timed run for local iteration (equivalence
//!   asserted, no throughput floors).
//! * `smoke` — CI mode: a tiny fault list, asserts verdict equivalence
//!   only (no timing assertions — CI machines are noisy).
//! * `ppsfp [--smoke|--quick|--standard]` — PPSFP-focused CI step: warm
//!   vs PPSFP only, asserting verdict parity always and a PPSFP-beats-
//!   warm speedup when the machine has ≥ [`MIN_CORES`] cores.

use std::time::Instant;

use sbst_campaign::tables::Effort;
use sbst_campaign::{
    routines_for, run_campaign_detailed, run_campaign_ppsfp_detailed,
    run_campaign_warm_detailed, ExecStyle, Experiment, PpsfpStats,
};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{collapse, Unit};
use sbst_obs::{parse_json, Json};
use sbst_soc::Scenario;

/// The warm-path standard-tier throughput recorded in
/// BENCH_campaign.json before the PPSFP tier landed — the fixed
/// baseline the ≥ 5× acceptance floor is asserted against.
const WARM_BASELINE_FPS: f64 = 192.84;

/// Speedup assertions only fire on machines with at least this many
/// cores: PPSFP grades words concurrently, and a starved runner would
/// turn a perf floor into flakiness.
const MIN_CORES: usize = 4;

struct Timed {
    seconds: f64,
    faults_per_sec: f64,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "standard".into());
    if mode == "ppsfp" {
        let tier = std::env::args().nth(2).unwrap_or_else(|| "--smoke".into());
        return ppsfp_mode(&tier);
    }
    let effort = match mode.as_str() {
        "smoke" => Effort { max_faults: 40, ..Effort::quick() },
        "quick" => Effort::quick(),
        "standard" => Effort::standard(),
        "full" => Effort::full(),
        other => panic!("unknown mode {other:?} (smoke|quick|standard|full|ppsfp)"),
    };

    let unit = Unit::Forwarding; // the largest fault population
    let factory = routines_for(unit);
    let exp = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles");
    let golden = exp.golden();
    let collapsed = collapse(&unit_fault_list(CoreKind::A, unit));
    let faults = effort.sample(collapsed.representatives());
    let snapshot = exp.snapshot(&golden);
    println!(
        "bench_campaign [{mode}]: {} collapsed forwarding faults, golden {} cycles, \
         snapshot at cycle {}",
        faults.len(),
        golden.cycles,
        snapshot.cycle()
    );

    // Alternate cold/warm passes and keep each engine's best time:
    // background load only ever inflates a wall-clock measurement, so
    // the minimum is the cleanest estimate of the engine's real cost
    // (one pass in the untimed smoke/quick modes).
    let passes = if mode == "standard" || mode == "full" { 3 } else { 1 };
    let mut cold_t = Timed { seconds: f64::INFINITY, faults_per_sec: 0.0 };
    let mut warm_t = Timed { seconds: f64::INFINITY, faults_per_sec: 0.0 };
    let mut cold_result = Default::default();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..passes {
        let t = Instant::now();
        (cold_result, cold) = run_campaign_detailed(&exp, &golden, &faults, effort.threads);
        cold_t = best(cold_t, timed(t, faults.len()));
        let t = Instant::now();
        (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, effort.threads);
        warm_t = best(warm_t, timed(t, faults.len()));
    }

    // The bit-parallel tier, timed the same way (best of the passes).
    let mut ppsfp_t = Timed { seconds: f64::INFINITY, faults_per_sec: 0.0 };
    let mut ppsfp = Vec::new();
    let mut stats = PpsfpStats::default();
    for _ in 0..passes {
        let t = Instant::now();
        (_, ppsfp, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &faults, effort.threads);
        ppsfp_t = best(ppsfp_t, timed(t, faults.len()));
    }

    // Equivalence is part of the benchmark's contract in every mode: a
    // fast path that changes verdicts measures nothing.
    assert_eq!(cold, warm, "warm-start verdicts diverged from cold-start");
    assert_eq!(cold, ppsfp, "PPSFP verdicts diverged from cold-start");
    println!("verdicts equivalent over {} faults: {cold_result}", faults.len());

    let speedup = warm_t.faults_per_sec / cold_t.faults_per_sec;
    let ppsfp_speedup = ppsfp_t.faults_per_sec / warm_t.faults_per_sec;
    println!(
        "cold: {:.2}s ({:.1} faults/sec) | warm: {:.2}s ({:.1} faults/sec) | speedup {speedup:.2}x",
        cold_t.seconds, cold_t.faults_per_sec, warm_t.seconds, warm_t.faults_per_sec
    );
    println!(
        "ppsfp: {:.2}s ({:.1} faults/sec) | {:.2}x over warm | {stats:?}",
        ppsfp_t.seconds, ppsfp_t.faults_per_sec, ppsfp_speedup
    );
    // Every fault but a hang leaves the warm tail on its early verdict.
    let warm_hit_rate = if cold_result.total == 0 {
        0.0
    } else {
        1.0 - cold_result.hang as f64 / cold_result.total as f64
    };

    let pass = |t: &Timed| {
        Json::Obj(vec![
            ("seconds".into(), Json::Num(round3(t.seconds))),
            ("faults_per_sec".into(), Json::Num(round2(t.faults_per_sec))),
        ])
    };
    let mut doc = Json::Obj(vec![
        ("bench".into(), Json::Str("campaign_throughput".into())),
        ("mode".into(), Json::Str(mode.clone())),
        ("unit".into(), Json::Str("forwarding".into())),
        ("faults".into(), Json::int(faults.len() as u64)),
        ("golden_cycles".into(), Json::int(golden.cycles)),
        ("snapshot_cycle".into(), Json::int(snapshot.cycle())),
        ("coverage_percent".into(), Json::Num(round2(cold_result.coverage()))),
        ("cold".into(), pass(&cold_t)),
        ("warm".into(), pass(&warm_t)),
        ("speedup".into(), Json::Num(round3(speedup))),
        (
            "ppsfp".into(),
            Json::Obj(vec![
                ("seconds".into(), Json::Num(round3(ppsfp_t.seconds))),
                ("faults_per_sec".into(), Json::Num(round2(ppsfp_t.faults_per_sec))),
                ("speedup_vs_warm".into(), Json::Num(round3(ppsfp_speedup))),
                ("words".into(), Json::int(stats.words as u64)),
                ("ridden_words".into(), Json::int(stats.ridden_words as u64)),
                ("pack_density".into(), Json::Num(round3(stats.pack_density))),
                ("fallback_rate".into(), Json::Num(round3(stats.fallback_rate))),
                ("loop_short_circuits".into(), Json::int(stats.loop_short_circuits as u64)),
            ]),
        ),
        ("verdicts_equivalent".into(), Json::Bool(true)),
        ("verdicts".into(), cold_result.mix().to_json()),
        ("warm_hit_rate".into(), Json::Num(round3(warm_hit_rate))),
    ]);
    // chaos_sweep, fleet_campaign and certify own the `chaos`, `fleet`
    // and `certify` sections of the same file: carry exactly those
    // over, so a key this bench stops writing does not linger.
    let old = std::fs::read_to_string("BENCH_campaign.json").ok();
    if let Some(old) = old.and_then(|t| parse_json(&t).ok()) {
        for key in ["chaos", "fleet", "certify"] {
            if let Some(section) = old.get(key) {
                doc.set(key, section.clone());
            }
        }
    }
    std::fs::write("BENCH_campaign.json", doc.render_pretty(2))
        .expect("write BENCH_campaign.json");
    println!("wrote BENCH_campaign.json");

    if mode == "standard" || mode == "full" {
        assert!(
            speedup >= 1.5,
            "warm-start fast path must deliver >= 1.5x campaign throughput, got {speedup:.2}x"
        );
        if cores() >= MIN_CORES {
            let floor = 5.0 * WARM_BASELINE_FPS;
            assert!(
                ppsfp_t.faults_per_sec >= floor,
                "PPSFP must deliver >= 5x the recorded warm baseline \
                 ({WARM_BASELINE_FPS} f/s), got {:.1} f/s",
                ppsfp_t.faults_per_sec
            );
        } else {
            println!("({} cores < {MIN_CORES}: PPSFP speedup floor skipped)", cores());
        }
    }
}

/// The `ppsfp` CLI mode — the CI bench step. Warm vs PPSFP on the
/// chosen tier: verdict parity is asserted unconditionally; the
/// speedup floor only on machines with at least [`MIN_CORES`] cores.
fn ppsfp_mode(tier: &str) {
    let effort = match tier {
        "--smoke" => Effort { max_faults: 120, ..Effort::quick() },
        "--quick" => Effort::quick(),
        "--standard" => Effort::standard(),
        other => panic!("unknown ppsfp tier {other:?} (--smoke|--quick|--standard)"),
    };
    let unit = Unit::Forwarding;
    let factory = routines_for(unit);
    let exp = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles");
    let golden = exp.golden();
    let collapsed = collapse(&unit_fault_list(CoreKind::A, unit));
    let faults = effort.sample(collapsed.representatives());
    println!("bench_campaign [ppsfp {tier}]: {} collapsed forwarding faults", faults.len());

    let t = Instant::now();
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, effort.threads);
    let warm_t = timed(t, faults.len());
    let t = Instant::now();
    let (result, ppsfp, stats) =
        run_campaign_ppsfp_detailed(&exp, &golden, &faults, effort.threads);
    let ppsfp_t = timed(t, faults.len());

    assert_eq!(warm, ppsfp, "PPSFP verdicts diverged from the serial warm path");
    assert_eq!(result.sim_errors, 0, "PPSFP graders crashed");
    let speedup = ppsfp_t.faults_per_sec / warm_t.faults_per_sec;
    println!(
        "warm: {:.2}s ({:.1} faults/sec) | ppsfp: {:.2}s ({:.1} faults/sec) | {speedup:.2}x",
        warm_t.seconds, warm_t.faults_per_sec, ppsfp_t.seconds, ppsfp_t.faults_per_sec
    );
    println!("{stats:?}; {}", result.mix());
    if cores() >= MIN_CORES {
        assert!(
            speedup >= 2.0,
            "PPSFP must beat the warm path >= 2x on a {MIN_CORES}+-core machine, \
             got {speedup:.2}x"
        );
    } else {
        println!("({} cores < {MIN_CORES}: speedup assertion skipped)", cores());
    }
    println!("ppsfp verdict parity over {} faults: ok", faults.len());
}

fn timed(since: Instant, faults: usize) -> Timed {
    let seconds = since.elapsed().as_secs_f64().max(1e-9);
    Timed { seconds, faults_per_sec: faults as f64 / seconds }
}

fn best(a: Timed, b: Timed) -> Timed {
    if b.seconds < a.seconds {
        b
    } else {
        a
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}
