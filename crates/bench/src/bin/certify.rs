//! certify — the interference-bound certification sweep.
//!
//! Sweeps arbiter × cache configuration × chaos intensity over a set of
//! routine × core scenarios and, per scenario, checks the machine
//! against the analytical certificate:
//!
//! * every bus port's **observed** worst grant wait must respect the
//!   per-access worst-case latency derived by `sbst_mem::BoundParams`
//!   for the scenario's arbiter (round-robin: one full rotation of
//!   worst-case transactions; TDMA: the slot-table distance) — the
//!   saturate adversary is included precisely because it realises the
//!   densest interference round-robin admits;
//! * the wrapped routine's signature must equal its solo golden
//!   (the paper's determinism claim, now judged *under* the certified
//!   bound instead of merely observed);
//! * fixed-priority configurations must be **refused**: their
//!   low-priority ports are starvation-unbounded, so no certificate
//!   exists and running an STL there is rejected up front.
//!
//! Any observed > bound, any signature drift, or any unbounded port
//! that fails to be flagged hard-fails the binary (non-zero exit) — CI
//! runs `certify --smoke`.
//!
//! Usage: `certify [--smoke] [seed]` (`smoke` also selects the smoke
//! sweep; decimal seed, default 52807). Any other argument prints the
//! usage and exits with status 2.
//!
//! Output: a per-scenario table on stdout, a `MetricsHub` summary
//! (with the per-port bound column) for the saturated scenarios, and a
//! JSON report at `out/certify_report.json`.

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_mem::{ArbiterKind, InjectorProgram};
use sbst_obs::{Json, PortBound};
use sbst_soc::{ChaosConfig, ObsConfig, SocBuilder};
use sbst_stl::routines::{ForwardingTest, IcuTest, RegFileTest};
use sbst_stl::{
    cycle_budget_for, learn_golden_cached, wrap_cached, RoutineEnv, SelfTestRoutine, WrapConfig,
    RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_PASS,
};

/// Flash base the scenario program is assembled at.
const BASE: u32 = 0x1000;

/// Cache configuration axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheCfg {
    /// The paper's 2-way write-through caches.
    TwoWay,
    /// The certification variant: direct-mapped, same capacities.
    Direct,
}

impl CacheCfg {
    fn name(self) -> &'static str {
        match self {
            CacheCfg::TwoWay => "2-way",
            CacheCfg::Direct => "direct",
        }
    }

    fn core(self, kind: CoreKind, id: usize, reset_pc: u32) -> CoreConfig {
        match self {
            CacheCfg::TwoWay => CoreConfig::cached(kind, id, reset_pc),
            CacheCfg::Direct => CoreConfig::cached_direct(kind, id, reset_pc),
        }
    }
}

/// One certified (or refused) scenario's outcome.
struct ScenarioResult {
    routine: &'static str,
    core: CoreKind,
    arbiter: ArbiterKind,
    cache: CacheCfg,
    intensity: u32,
    /// Worst observed single-request wait across all ports.
    observed: u64,
    /// Tightest finite per-port bound (the core ports' bound).
    bound: u64,
    /// Observed ≤ bound on every port.
    within_bound: bool,
    /// Signature identical to the solo golden and self-check passed.
    signature_ok: bool,
}

type RoutineFactory = Box<dyn Fn(CoreKind) -> Box<dyn SelfTestRoutine>>;

fn routines() -> Vec<(&'static str, RoutineFactory)> {
    vec![
        ("forwarding+pcs", Box::new(|k| Box::new(ForwardingTest::with_pcs(k)))),
        ("icu", Box::new(|_| Box::new(IcuTest::new()))),
        ("regfile", Box::new(|_| Box::new(RegFileTest::new()))),
    ]
}

/// Whether to run the smoke sweep, and the seed, from arguments in
/// either order; `None` when they are malformed.
fn parse(args: &[String]) -> Option<(bool, u64)> {
    let mut smoke = false;
    let mut seed = None;
    for arg in args {
        match arg.as_str() {
            "--smoke" | "smoke" if !smoke => smoke = true,
            _ if seed.is_none() => seed = Some(arg.parse().ok()?),
            _ => return None,
        }
    }
    Some((smoke, seed.unwrap_or(0xce47)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((smoke, seed)) = parse(&args) else {
        eprintln!("usage: certify [--smoke] [seed]");
        std::process::exit(2);
    };

    let arbiters = [ArbiterKind::RoundRobin, ArbiterKind::tdma()];
    let caches = [CacheCfg::TwoWay, CacheCfg::Direct];
    let intensities: &[u32] = if smoke { &[0, 100] } else { &[0, 40, 100] };
    let routine_set = routines();
    let (routine_set, cores): (_, &[CoreKind]) = if smoke {
        (&routine_set[..1], &[CoreKind::A])
    } else {
        (&routine_set[..], &CoreKind::ALL[..])
    };

    println!(
        "CERTIFY — {} arbiters x {} caches x {} intensities x {} routines x {} cores, seed {seed:#x}\n",
        arbiters.len(),
        caches.len(),
        intensities.len(),
        routine_set.len(),
        cores.len(),
    );

    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut sample_tables: Vec<String> = Vec::new();
    for (name, make) in routine_set {
        for &kind in cores {
            let routine = make(kind);
            let env = RoutineEnv::for_core(kind);
            let wrap = WrapConfig::default();
            let golden = learn_golden_cached(routine.as_ref(), &env, &wrap, kind, BASE)
                .expect("golden learns");
            let checked = WrapConfig { expected_sig: Some(golden), ..wrap };
            let asm = wrap_cached(routine.as_ref(), &env, &checked, "cert").expect("wraps");
            let program = asm.assemble(BASE).expect("assembles");
            // The solo budget plus headroom for every access eating its
            // worst-case grant latency (3 ports, the conservative x4).
            let budget = cycle_budget_for(&env, &asm) * 12;
            for &arbiter in &arbiters {
                for &cache in &caches {
                    for (i, &intensity) in intensities.iter().enumerate() {
                        let chaos = ChaosConfig::interference(InjectorProgram::with_intensity(
                            intensity,
                            seed ^ (i as u64) << 8,
                        ));
                        let mut soc = SocBuilder::new()
                            .load(&program)
                            .core(cache.core(kind, 0, BASE), 0)
                            .arbiter(arbiter)
                            .chaos(chaos)
                            .observe(ObsConfig::default())
                            .build();
                        let outcome = soc.run(budget);
                        let stats = soc.bus().stats();
                        let bounds = soc.bus().bound_params();
                        let mut within = true;
                        let mut tightest = u64::MAX;
                        let mut worst = 0;
                        for (p, &observed) in stats.max_grant_wait.iter().enumerate() {
                            let b = bounds.per_access_wcl(p);
                            within &= b.admits(observed);
                            worst = worst.max(observed);
                            if let Some(c) = b.cycles() {
                                tightest = tightest.min(c);
                            }
                        }
                        let status = soc.peek(env.result_addr + RESULT_STATUS_OFF as u32);
                        let sig = soc.peek(env.result_addr + RESULT_SIG_OFF as u32);
                        let signature_ok =
                            outcome.is_clean() && status == STATUS_PASS && sig == golden;
                        if intensity == 100 && kind == CoreKind::A && name == &"forwarding+pcs" {
                            let hub = soc.metrics().expect("observed");
                            sample_tables.push(format!(
                                "--- {} / {} / saturate ---\n{}",
                                arbiter.name(),
                                cache.name(),
                                hub.summary_table()
                            ));
                        }
                        results.push(ScenarioResult {
                            routine: name,
                            core: kind,
                            arbiter,
                            cache,
                            intensity,
                            observed: worst,
                            bound: tightest,
                            within_bound: within,
                            signature_ok,
                        });
                    }
                }
            }
        }
    }

    // Fixed-priority is evaluated statically: with more than one port,
    // some port is always below the top of the chain, so the
    // certificate must come back starvation-unbounded and the platform
    // is refused without running anything on it.
    let mut fp_flagged = true;
    let mut refused = 0usize;
    for ascending in [true, false] {
        let params = sbst_mem::BoundParams {
            ports: 3,
            arbiter: ArbiterKind::FixedPriority { ascending },
            flash: sbst_mem::FlashTiming::default(),
            sram_latency: 4,
        };
        let all = params.all();
        let unbounded = all.iter().filter(|b| **b == PortBound::Unbounded).count();
        let ok = unbounded == 2
            && all.iter().filter(|b| matches!(b, PortBound::Bounded(_))).count() == 1;
        fp_flagged &= ok;
        refused += 1;
        println!(
            "fixed-priority (ascending={ascending}): {unbounded}/3 ports starvation-unbounded \
             -> REFUSED{}",
            if ok { "" } else { " [FLAGGING BROKEN]" },
        );
    }
    println!();

    println!(
        "{:<16} {:>6} {:>13} {:>7} {:>9} {:>9} {:>7} {:>10}",
        "routine", "core", "arbiter", "cache", "intensity", "observed", "bound", "verdict"
    );
    let mut violations = 0usize;
    let mut mismatches = 0usize;
    for r in &results {
        if !r.within_bound {
            violations += 1;
        }
        if !r.signature_ok {
            mismatches += 1;
        }
        let verdict = match (r.within_bound, r.signature_ok) {
            (true, true) => "CERTIFIED",
            (false, _) => "VIOLATED",
            (_, false) => "SIG-DRIFT",
        };
        println!(
            "{:<16} {:>6} {:>13} {:>7} {:>9} {:>9} {:>7} {:>10}",
            r.routine,
            format!("{:?}", r.core),
            r.arbiter.name(),
            r.cache.name(),
            r.intensity,
            r.observed,
            r.bound,
            verdict,
        );
    }
    println!();
    for t in &sample_tables {
        println!("{t}");
    }

    // JSON report.
    let scenarios: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("routine".into(), Json::Str(r.routine.into())),
                ("core".into(), Json::Str(format!("{:?}", r.core))),
                ("arbiter".into(), Json::Str(r.arbiter.name().into())),
                ("cache".into(), Json::Str(r.cache.name().into())),
                ("intensity".into(), Json::int(u64::from(r.intensity))),
                ("observed_max_wait".into(), Json::int(r.observed)),
                ("certified_bound".into(), Json::int(r.bound)),
                ("within_bound".into(), Json::Bool(r.within_bound)),
                ("signature_ok".into(), Json::Bool(r.signature_ok)),
            ])
        })
        .collect();
    let report = Json::Obj(vec![
        ("mode".into(), Json::Str(if smoke { "smoke".into() } else { "full".into() })),
        ("seed".into(), Json::int(seed)),
        ("scenarios".into(), Json::Arr(scenarios)),
        ("violations".into(), Json::int(violations as u64)),
        ("signature_mismatches".into(), Json::int(mismatches as u64)),
        ("fixed_priority_refused".into(), Json::int(refused as u64)),
        ("fixed_priority_flagged".into(), Json::Bool(fp_flagged)),
    ]);
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/certify_report.json", report.render_pretty(2))
        .expect("write out/certify_report.json");
    println!("wrote out/certify_report.json ({} scenarios)", results.len());

    assert!(fp_flagged, "fixed-priority low-priority ports must be flagged unbounded");
    assert_eq!(violations, 0, "observed grant wait exceeded a certified bound");
    assert_eq!(mismatches, 0, "signature drifted under certified interference");
    println!(
        "\nOK: {} scenarios certified (observed <= bound, signatures bit-identical), \
         {refused} fixed-priority platforms refused",
        results.len()
    );
}
