//! The traced run: per-layer metrics.
//!
//! Every call the benchmark makes into a layer's public functions is
//! wrapped in a span. Besides the workload's own passes (half of them
//! traced, to measure the tracing overhead), the traced run makes calls
//! the untraced run never makes, because the engines do not expose
//! per-fault or per-shard times:
//!
//! * it re-grades every sampled fault through `Experiment::run_warm`;
//! * it times `Snapshot::soc().clone()` and `Soc::unshare`;
//! * it replays each golden run to read cache and bus counters;
//! * it grades each sample once more through the serial warm engine, and
//!   through the fast engine with one and with two workers;
//! * for the fleet, it times lease, seal and checkpoint calls alone.

use std::path::Path;
use std::time::Instant;

use sbst_campaign::fleet::{run_fleet, FleetPlan, LeasePolicy, LeaseTable, ShardResult};
use sbst_campaign::{
    routines_for, run_campaign_ppsfp_detailed, run_campaign_warm_detailed, Checkpoint, Experiment,
    Observation, Snapshot,
};
use sbst_fault::{FaultPlane, Verdict};
use sbst_obs::Json;
use sbst_soc::Soc;

use crate::inputs::Workload;
use crate::measure::{pass, Passes};
use crate::oracle::{Oracle, Tally};
use crate::stats::{mean, quantile, ratio};
use crate::trace::{layer, Tracer};
use crate::workload::{
    fleet_config, scratch_dir, setup, Setup, LEASE_TIMEOUT, SHARD_FAULTS, WORKERS,
};
use crate::{Metric, Outcome};

/// Snapshot clones timed per cell.
const CLONES: usize = 32;

/// Unshares timed per cell.
const UNSHARES: usize = 4;

/// Fewest passes of each kind (traced, untraced) the overhead estimate
/// uses.
const MIN_OVERHEAD_PASSES: usize = 3;

/// Per-fault outcome of the warm re-grade.
struct Tail {
    ms: f64,
    cycles: u64,
    verdict: Verdict,
}

/// Counters of the golden runs, summed over cells.
#[derive(Default)]
struct GoldenCounters {
    cycles: u64,
    if_stalls: u64,
    mem_stalls: u64,
    icache_hits: u64,
    icache_accesses: u64,
    dcache_hits: u64,
    dcache_accesses: u64,
    bus_wait: u64,
}

impl GoldenCounters {
    /// Adds one golden run: its observation, and the SoC state at its
    /// end (a replay from the snapshot), whose caches and bus hold the
    /// run's cumulative counters.
    fn add(&mut self, golden: &Observation, end: &Soc) {
        self.cycles += golden.cycles;
        self.if_stalls += golden.if_stalls;
        self.mem_stalls += golden.mem_stalls;
        for i in 0..end.core_count() {
            let core = end.core(i);
            if let Some(c) = core.fetch_unit().icache() {
                let s = c.stats();
                self.icache_hits += s.read_hits + s.write_hits;
                self.icache_accesses += s.accesses();
            }
            if let Some(c) = core.lsu_unit().dcache() {
                let s = c.stats();
                self.dcache_hits += s.read_hits + s.write_hits;
                self.dcache_accesses += s.accesses();
            }
        }
        self.bus_wait += end.bus().stats().wait_cycles.iter().sum::<u64>();
    }
}

/// Engine times and statistics of the comparison gradings.
#[derive(Default)]
struct Engines {
    ppsfp_s: f64,
    warm_s: f64,
    one_worker_s: f64,
    two_workers_s: f64,
    words: usize,
    ridden_words: usize,
    packed_lanes: f64,
    fallback_faults: usize,
    loop_short_circuits: usize,
    faults: usize,
}

/// Fleet-only measurements.
#[derive(Default)]
struct FleetCosts {
    lease_us: f64,
    seal_us: f64,
    checkpoint_ms: f64,
    overhead_share: f64,
    steals: u64,
    retries: u64,
}

/// Runs `workload` traced and reports every per-layer metric. Writes
/// the spans to `out` as `<workload>-s<seed>.trace.json` (Chrome trace)
/// and the per-layer self times with the metrics to
/// `<workload>-s<seed>.layers.json`.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: f64,
    oracle: &Oracle,
    out: &Path,
) -> std::io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(true);

    // Alternate untraced and traced passes for the tracing overhead.
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    let start = Instant::now();
    while traced.grade.len() < MIN_OVERHEAD_PASSES || start.elapsed().as_secs_f64() < seconds / 2.0
    {
        for (on, passes) in [(false, &mut plain), (true, &mut traced)] {
            tracer.set_on(on);
            let id = tracer.enter("pass", layer::BENCH);
            let (s, g, items) = pass(workload, seed, oracle, &mut tally, &mut tracer);
            tracer.exit(id);
            passes.push(s, g, items);
        }
    }
    tracer.set_on(true);

    let probe = tracer.enter("probe", layer::BENCH);
    let prepared = setup(workload, seed, oracle, &mut tracer);
    let mut goldens = GoldenCounters::default();
    let mut golden_spans = Vec::new();
    let mut tails = Vec::new();
    let mut engines = Engines::default();
    for (index, cell) in prepared.cells.iter().enumerate() {
        tracer.set_exp(index);
        let assembled;
        let exp = match &cell.exp {
            Some((exp, _)) => exp,
            None => {
                let factory = routines_for(cell.cell.spec.unit);
                assembled = tracer.span("Experiment::assemble_config", layer::STL, || {
                    Experiment::assemble_config(&*factory, &cell.cell.spec.config)
                        .expect("fleet variants assemble")
                });
                &assembled
            }
        };
        let (golden_ms, golden) = timed(&mut tracer, "Experiment::golden", layer::SOC, || {
            exp.golden()
        });
        golden_spans.push((golden.cycles, golden_ms));
        let entry = oracle.get(cell.cell.key());
        match entry {
            Some(entry) => tally.golden(cell.cell.key(), entry, &golden),
            None => tally.fail(format!("{}: no oracle entry", cell.cell.key())),
        }
        let snapshot = tracer.span("Experiment::snapshot", layer::CAMPAIGN, || {
            exp.snapshot(&golden)
        });
        let mut end = snapshot.soc().clone();
        end.run(snapshot.budget());
        goldens.add(&golden, &end);
        cow_costs(&snapshot, &mut tracer);

        let mut regraded = Vec::new();
        for &site in cell.faults.sites() {
            let (ms, faulty) = timed(&mut tracer, "Experiment::run_warm", layer::CAMPAIGN, || {
                exp.run_warm(&snapshot, FaultPlane::armed(site))
            });
            let verdict = Experiment::classify(&golden, &faulty);
            regraded.push(verdict);
            tails.push(Tail {
                ms,
                cycles: faulty.cycles - snapshot.cycle(),
                verdict,
            });
        }
        if let Some(entry) = entry {
            tally.verdicts(cell.cell.key(), entry, &cell.picks, &regraded);
        }

        // The same sample through the serial warm engine, and through
        // the fast engine with one and with two workers.
        let (warm_ms, (_, warm)) = timed(
            &mut tracer,
            "run_campaign_warm_detailed",
            layer::CAMPAIGN,
            || run_campaign_warm_detailed(exp, &golden, &cell.faults, WORKERS),
        );
        let mut fast = Vec::new();
        for w in [1, 2] {
            let (ms, (_, records, stats)) = timed(
                &mut tracer,
                "run_campaign_ppsfp_detailed",
                layer::CAMPAIGN,
                || run_campaign_ppsfp_detailed(exp, &golden, &cell.faults, w),
            );
            if w == WORKERS {
                engines.ppsfp_s += ms / 1e3;
                engines.words += stats.words;
                engines.ridden_words += stats.ridden_words;
                engines.packed_lanes += stats.pack_density * stats.words as f64;
                engines.fallback_faults += stats.fallback_faults;
                engines.loop_short_circuits += stats.loop_short_circuits;
                engines.faults += records.len();
            }
            if w == 1 {
                engines.one_worker_s += ms / 1e3;
            } else {
                engines.two_workers_s += ms / 1e3;
            }
            fast.push(records);
        }
        engines.warm_s += warm_ms / 1e3;
        if let Some(entry) = entry {
            for records in fast.iter().chain([&warm]) {
                let got: Vec<Verdict> = records.iter().map(|&(_, v)| v).collect();
                tally.verdicts(cell.cell.key(), entry, &cell.picks, &got);
            }
        }
    }
    let fleet = match &prepared.fleet {
        Some((plan, _)) => fleet_costs(
            &prepared,
            plan,
            seed,
            &tails,
            oracle,
            &mut tally,
            &mut tracer,
            &mut engines,
        ),
        None => FleetCosts::default(),
    };
    tracer.exit(probe);

    let metrics = metrics(
        &tracer,
        &plain,
        &traced,
        &goldens,
        &golden_spans,
        &tails,
        &engines,
        &fleet,
    );
    export(workload, seed, out, &tracer, &metrics)?;
    Ok(Outcome { tally, metrics })
}

/// Runs `f` in a span and returns its time in ms.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let start = Instant::now();
    let out = tracer.span(name, layer, f);
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Times snapshot clones and unshares of clones (spans only).
fn cow_costs(snapshot: &Snapshot, tracer: &mut Tracer) {
    for _ in 0..CLONES {
        let soc = tracer.span("Snapshot::soc().clone()", layer::MEM, || {
            snapshot.soc().clone()
        });
        drop(soc);
    }
    for _ in 0..UNSHARES {
        let mut soc = snapshot.soc().clone();
        tracer.span("Soc::unshare", layer::MEM, || soc.unshare());
    }
}

/// Times the fleet's lease, seal and checkpoint calls per shard, and its
/// two-worker scaling.
#[allow(clippy::too_many_arguments)]
fn fleet_costs(
    prepared: &Setup,
    plan: &FleetPlan,
    seed: u64,
    tails: &[Tail],
    oracle: &Oracle,
    tally: &mut Tally,
    tracer: &mut Tracer,
    engines: &mut Engines,
) -> FleetCosts {
    let (_, grader) = prepared.fleet.as_ref().expect("ctl-fleet has a fleet");
    let dir = scratch_dir(prepared.workload).join("probe-checkpoints");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    tracer.set_exp(0);

    let table = LeaseTable::new(
        plan.shard_count(),
        LeasePolicy {
            lease_timeout: LEASE_TIMEOUT,
            ..LeasePolicy::fast(seed)
        },
    );
    let mut lease_us = Vec::new();
    let mut seal_us = Vec::new();
    let mut save_ms = Vec::new();
    let mut saves = 0usize;
    for shard in &plan.shards {
        let (claim, lease) = timed(tracer, "LeaseTable::claim", layer::FLEET, || table.claim());
        let lease = lease.expect("an idle shard is claimable");
        let (done, _) = timed(tracer, "LeaseTable::complete", layer::FLEET, || {
            table.complete(lease.shard, lease.epoch, 0)
        });
        lease_us.push((claim + done) * 1e3);

        let spec = &plan.ecus[shard.ecu];
        let ecu_fp = spec.fingerprint();
        let faults = plan.shard_fault_list(shard);
        let cell = &prepared.cells[shard.ecu];
        let verdicts: Vec<Verdict> = oracle
            .get(cell.cell.key())
            .map(|e| {
                cell.picks[shard.start..shard.start + shard.len]
                    .iter()
                    .map(|&i| e.verdicts.get(i).copied().unwrap_or(Verdict::SimError))
                    .collect()
            })
            .unwrap_or_default();
        let fault_fp = plan.shard_fingerprint(shard);
        let (seal, _) = timed(tracer, "ShardResult::seal", layer::FLEET, || {
            ShardResult::seal(shard.index, fault_fp, ecu_fp, verdicts.clone(), 0)
        });
        seal_us.push(seal * 1e3);

        let mut checkpoint = Checkpoint::with_config(&faults, ecu_fp);
        for (slot, &v) in checkpoint.verdicts.iter_mut().zip(&verdicts) {
            *slot = Some(v);
        }
        let path = dir.join(format!("shard-{:04}.ckpt.json", shard.index));
        let (ms, saved) = timed(tracer, "Checkpoint::save", layer::FLEET, || {
            checkpoint.save(&path)
        });
        saved.expect("write a shard checkpoint");
        save_ms.push(ms);
        // run_fleet saves every SHARD_FAULTS graded faults and once more
        // when the shard completes.
        saves += shard.len / SHARD_FAULTS + 1;
    }

    // Per-shard overhead over the shards' grading time, the latter from
    // the warm re-grade of the same faults.
    let shards = plan.shard_count() as f64;
    let overhead_ms =
        (mean(&lease_us) + mean(&seal_us)) / 1e3 * shards + mean(&save_ms) * saves as f64;
    let grading_ms: f64 = tails.iter().map(|t| t.ms).sum();

    // Two-worker scaling: one fleet run with each worker count.
    let mut runs = Vec::new();
    for workers in [1, 2] {
        let cfg = fleet_config(workers, seed, &dir.join(format!("w{workers}")));
        let _ = std::fs::remove_dir_all(cfg.checkpoint_dir.as_ref().expect("checkpoints on"));
        std::fs::create_dir_all(cfg.checkpoint_dir.as_ref().expect("checkpoints on"))
            .expect("create the checkpoint directory");
        let (ms, report) = timed(tracer, "run_fleet", layer::FLEET, || {
            run_fleet(plan, grader, &cfg)
        });
        runs.push((ms, report));
    }
    engines.one_worker_s = runs[0].0 / 1e3;
    engines.two_workers_s = runs[1].0 / 1e3;
    let mut steals = 0;
    let mut retries = 0;
    for (_, report) in &runs {
        let c = &report.telemetry.counters;
        steals += c.steals;
        retries += c.retries;
        if c.steals + c.retries + c.quarantined > 0 {
            tally.fail(format!(
                "fleet scaling run: {} steals, {} retries",
                c.steals, c.retries
            ));
        }
    }
    FleetCosts {
        lease_us: mean(&lease_us),
        seal_us: mean(&seal_us),
        checkpoint_ms: mean(&save_ms),
        overhead_share: ratio(overhead_ms, grading_ms),
        steals,
        retries,
    }
}

#[allow(clippy::too_many_arguments)]
fn metrics(
    tracer: &Tracer,
    plain: &Passes,
    traced: &Passes,
    goldens: &GoldenCounters,
    golden_spans: &[(u64, f64)],
    tails: &[Tail],
    engines: &Engines,
    fleet: &FleetCosts,
) -> Vec<Metric> {
    let span_mean = |name: &str| mean(&tracer.durations_ms(name));
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.ms).collect();
    let class_ms = |pred: &dyn Fn(Verdict) -> bool| {
        mean(
            &tails
                .iter()
                .filter(|t| pred(t.verdict))
                .map(|t| t.ms)
                .collect::<Vec<_>>(),
        )
    };
    let class_cycles = |pred: &dyn Fn(Verdict) -> bool| -> u64 {
        tails
            .iter()
            .filter(|t| pred(t.verdict))
            .map(|t| t.cycles)
            .sum()
    };
    let detected = |v: Verdict| matches!(v, Verdict::WrongSignature | Verdict::TestFail);
    let all_cycles: u64 = tails.iter().map(|t| t.cycles).sum();
    let hang_cycles = class_cycles(&|v| v == Verdict::Hang);
    // Collapse time per set-up: the traced passes and the probe each
    // made one set-up.
    let setups = traced.grade.len() as f64 + 1.0;
    let golden_cycles: u64 = golden_spans.iter().map(|&(c, _)| c).sum();
    let golden_s: f64 = golden_spans.iter().map(|&(_, ms)| ms / 1e3).sum();

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m(
            "fault.collapse_ms",
            tracer
                .durations_ms("unit_fault_list+collapse")
                .iter()
                .sum::<f64>()
                / setups,
            "ms",
        ),
        m(
            "fault.pack_density",
            ratio(engines.packed_lanes, engines.words as f64),
            "fraction",
        ),
        m("ppsfp.words", engines.words as f64, "count"),
        m(
            "stl.assemble_ms",
            span_mean("Experiment::assemble_config"),
            "ms",
        ),
        m("soc.golden_ms", span_mean("Experiment::golden"), "ms"),
        m(
            "soc.cycles_per_s",
            ratio(golden_cycles as f64, golden_s),
            "1/s",
        ),
        m("soc.golden_cycles", goldens.cycles as f64, "cycles"),
        m("cpu.if_stall_cycles", goldens.if_stalls as f64, "cycles"),
        m("cpu.mem_stall_cycles", goldens.mem_stalls as f64, "cycles"),
        m(
            "mem.icache_hit_rate",
            ratio(goldens.icache_hits as f64, goldens.icache_accesses as f64),
            "fraction",
        ),
        m(
            "mem.dcache_hit_rate",
            ratio(goldens.dcache_hits as f64, goldens.dcache_accesses as f64),
            "fraction",
        ),
        m("mem.bus_wait_cycles", goldens.bus_wait as f64, "cycles"),
        m(
            "mem.snapshot_clone_us",
            span_mean("Snapshot::soc().clone()") * 1e3,
            "us",
        ),
        m("mem.unshare_us", span_mean("Soc::unshare") * 1e3, "us"),
        m(
            "campaign.snapshot_ms",
            span_mean("Experiment::snapshot"),
            "ms",
        ),
        m("campaign.tail_ms.p50", quantile(&tail_ms, 0.5), "ms"),
        m("campaign.tail_ms.p99", quantile(&tail_ms, 0.99), "ms"),
        m("campaign.tail_ms.samples", tail_ms.len() as f64, "count"),
        m("campaign.tail_ms.detected", class_ms(&detected), "ms"),
        m(
            "campaign.tail_ms.undetected",
            class_ms(&|v| v == Verdict::Undetected),
            "ms",
        ),
        m(
            "campaign.tail_ms.hang",
            class_ms(&|v| v == Verdict::Hang),
            "ms",
        ),
        m(
            "campaign.tail_ms.trap",
            class_ms(&|v| v == Verdict::UnexpectedTrap),
            "ms",
        ),
        m(
            "campaign.tail_cycles.detected",
            class_cycles(&detected) as f64,
            "cycles",
        ),
        m(
            "campaign.tail_cycles.undetected",
            class_cycles(&|v| v == Verdict::Undetected) as f64,
            "cycles",
        ),
        m("campaign.tail_cycles.hang", hang_cycles as f64, "cycles"),
        m(
            "campaign.sim_cycles_per_fault",
            ratio(all_cycles as f64, tails.len() as f64),
            "cycles",
        ),
        m(
            "campaign.hang_cycle_share",
            ratio(hang_cycles as f64, all_cycles as f64),
            "fraction",
        ),
        m("ppsfp.ridden_words", engines.ridden_words as f64, "count"),
        m(
            "ppsfp.fallback_rate",
            ratio(engines.fallback_faults as f64, engines.faults as f64),
            "fraction",
        ),
        m(
            "ppsfp.loop_short_circuits",
            engines.loop_short_circuits as f64,
            "count",
        ),
        m(
            "ppsfp.speedup_vs_warm",
            ratio(engines.warm_s, engines.ppsfp_s),
            "ratio",
        ),
        m(
            "campaign.scaling_2w",
            ratio(engines.one_worker_s, engines.two_workers_s),
            "ratio",
        ),
        m("fleet.lease_us", fleet.lease_us, "us"),
        m("fleet.seal_us", fleet.seal_us, "us"),
        m("fleet.checkpoint_ms", fleet.checkpoint_ms, "ms"),
        m("fleet.overhead_share", fleet.overhead_share, "fraction"),
        m("fleet.steals", fleet.steals as f64, "count"),
        m("fleet.retries", fleet.retries as f64, "count"),
        m(
            "trace.overhead",
            ratio(plain.items_per_s(), traced.items_per_s()),
            "ratio",
        ),
    ]
}

/// Writes the Chrome trace and the flat per-layer JSON.
fn export(
    workload: Workload,
    seed: u64,
    out: &Path,
    tracer: &Tracer,
    metrics: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let stem = format!("{}-s{seed}", workload.name());
    std::fs::write(
        out.join(format!("{stem}.trace.json")),
        tracer.chrome_trace().render(),
    )?;
    let layers = tracer
        .layer_times()
        .into_iter()
        .map(|(name, t)| {
            Json::Obj(vec![
                ("layer".into(), Json::Str(name.into())),
                ("self_ms".into(), Json::Num(t.self_ms)),
                ("total_ms".into(), Json::Num(t.total_ms)),
                ("calls".into(), Json::int(t.calls)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("cores".into(), Json::int(cores() as u64)),
        ("commit".into(), Json::Str(commit())),
        (
            "mode".into(),
            Json::Str(format!("{}/traced", workload.name())),
        ),
        ("seed".into(), Json::int(seed)),
        ("layers".into(), Json::Arr(layers)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        out.join(format!("{stem}.layers.json")),
        doc.render_pretty(2),
    )
}

/// Host cores available to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured: `BENCH_COMMIT` if set, else the checkout's
/// git `HEAD` when it is a git checkout, else `"unknown"`.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("BENCH_COMMIT") {
        return c;
    }
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        h => h.into(),
    }
}
