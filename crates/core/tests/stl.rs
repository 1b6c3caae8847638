//! Integration tests for the paper's central claims:
//!
//! * the cache-based wrapper yields a **stable signature** under
//!   multi-core bus contention (and equal to the single-core golden);
//! * without caches, routines that fold performance counters (HDCU) or
//!   imprecise-interrupt state (ICU) have **unstable signatures**;
//! * the forwarding routine without counters keeps a stable signature
//!   even uncached ("exact signature but lower fault coverage");
//! * TCM-based execution trades memory overhead for a little speed.

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_fault::FaultPlane;
use sbst_isa::Asm;
use sbst_mem::{WritePolicy, SRAM_BASE};
use sbst_soc::{Scenario, SocBuilder};
use sbst_stl::routines::{ForwardingTest, GenericAluTest, HdcuTest, IcuTest};
use sbst_stl::{
    learn_golden_cached, plan_cached, run_standalone, wrap_cached, wrap_tcm, RoutineEnv,
    SelfTestRoutine, WrapConfig, WrapError, RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_DONE,
    STATUS_FAIL, STATUS_PASS,
};

const MAX: u64 = 30_000_000;

fn env() -> RoutineEnv {
    RoutineEnv {
        result_addr: SRAM_BASE + 0x40,
        data_base: SRAM_BASE + 0x100,
        ..RoutineEnv::for_core(CoreKind::A)
    }
}

/// Runs the routine (wrapped per `cfg`) on core 0 of a multi-core SoC
/// with `active` cores, the other cores running uncached STL traffic,
/// and returns (signature, status).
fn run_contended(
    asm: &Asm,
    env: &RoutineEnv,
    kind: CoreKind,
    cached: bool,
    active: usize,
    skew_seed: u64,
) -> (u32, u32) {
    let scenario = Scenario { active_cores: active, skew_seed, ..Scenario::single_core() };
    let delays = scenario.start_delays();
    let base = scenario.code_base(0);
    let program = asm.assemble(base).expect("assembles");
    let mut builder = SocBuilder::new().load(&program);
    // Traffic cores: plain (unwrapped, uncached) generic STL activity.
    // The workload length varies with the scenario seed — the paper's
    // "initial SoC configuration" that makes contention unpredictable.
    let traffic = GenericAluTest::new(8 + 3 * skew_seed as u32);
    for core in 1..active {
        let tbase = scenario.code_base(core);
        let tenv = RoutineEnv {
            result_addr: SRAM_BASE + 0x800 + 0x40 * core as u32,
            data_base: SRAM_BASE + 0x1000 + 0x100 * core as u32,
            ..*env
        };
        let mut tasm = Asm::new();
        let tcfg = WrapConfig {
            iterations: 1,
            invalidate: false,
            icache_capacity: u32::MAX, // traffic cores run uncached
            ..WrapConfig::default()
        };
        // Build an unwrapped-ish body (single iteration, no invalidate).
        let wrapped = {
            let mut w = tasm;
            sbst_stl_emit(&mut w, &traffic, &tenv, &tcfg, &format!("t{core}"));
            w
        };
        tasm = wrapped;
        builder = builder.load(&tasm.assemble(tbase).expect("traffic assembles"));
    }
    let cfg0 = if cached {
        CoreConfig::cached(kind, 0, base)
    } else {
        CoreConfig::uncached(kind, 0, base)
    };
    builder = builder.core(cfg0, delays[0]);
    for (core, &delay) in delays.iter().enumerate().take(active).skip(1) {
        let kind = CoreKind::ALL[core];
        builder = builder.core(
            CoreConfig::uncached(kind, core, scenario.code_base(core)),
            delay,
        );
    }
    let mut soc = builder.build();
    let outcome = soc.run(MAX);
    assert!(outcome.is_clean(), "contended run did not finish: {outcome:?}");
    (
        soc.peek(env.result_addr + RESULT_SIG_OFF as u32),
        soc.peek(env.result_addr + RESULT_STATUS_OFF as u32),
    )
}

/// Helper: emit a wrapped routine into an Asm (test-local shim over the
/// public wrapper API).
fn sbst_stl_emit(
    asm: &mut Asm,
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    cfg: &WrapConfig,
    tag: &str,
) {
    let wrapped = wrap_cached(routine, env, cfg, tag).expect("wraps");
    *asm = wrapped;
}

#[test]
fn cache_wrapped_signature_is_stable_and_matches_golden() {
    for kind in [CoreKind::A, CoreKind::C] {
        let routine = ForwardingTest::without_pcs(kind);
        let env = env();
        let cfg = WrapConfig::default();
        let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x400).unwrap();
        let asm = wrap_cached(&routine, &env, &cfg, "fw").unwrap();
        for skew in 0..4 {
            let (sig, _) = run_contended(&asm, &env, kind, true, 3, skew);
            assert_eq!(
                sig, golden,
                "cache-wrapped signature must equal the single-core golden \
                 under full contention (kind {kind}, skew {skew})"
            );
        }
    }
}

#[test]
fn hdcu_signature_with_pcs_is_unstable_without_caches() {
    let kind = CoreKind::A;
    let routine = HdcuTest::new(kind);
    let env = env();
    // Legacy execution: single pass, no invalidation, uncached core.
    let cfg = WrapConfig { iterations: 1, invalidate: false, ..WrapConfig::default() };
    let asm = wrap_cached(&routine, &env, &cfg, "hdcu").unwrap();
    let sigs: Vec<u32> = (0..5)
        .map(|skew| run_contended(&asm, &env, kind, false, 3, skew).0)
        .collect();
    assert!(
        sigs.windows(2).any(|w| w[0] != w[1]),
        "PC-folding signature must fluctuate with contention phase: {sigs:x?}"
    );
}

#[test]
fn hdcu_signature_with_pcs_is_stable_with_the_wrapper() {
    let kind = CoreKind::A;
    let routine = HdcuTest::new(kind);
    let env = env();
    let cfg = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x400).unwrap();
    let asm = wrap_cached(&routine, &env, &cfg, "hdcu").unwrap();
    for skew in 0..4 {
        let (sig, _) = run_contended(&asm, &env, kind, true, 3, skew);
        assert_eq!(sig, golden, "skew {skew}");
    }
}

#[test]
fn icu_signature_is_unstable_without_caches_stable_with() {
    let kind = CoreKind::A;
    let routine = IcuTest::new();
    let env = env();
    let legacy = WrapConfig { iterations: 1, invalidate: false, ..WrapConfig::default() };
    let asm = wrap_cached(&routine, &env, &legacy, "icu").unwrap();
    let sigs: Vec<u32> = (0..6)
        .map(|skew| run_contended(&asm, &env, kind, false, 3, skew).0)
        .collect();
    assert!(
        sigs.windows(2).any(|w| w[0] != w[1]),
        "imprecision depth must fluctuate with contention: {sigs:x?}"
    );
    let cfg = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x400).unwrap();
    let wrapped = wrap_cached(&routine, &env, &cfg, "icu2").unwrap();
    for skew in 0..4 {
        let (sig, _) = run_contended(&wrapped, &env, kind, true, 3, skew);
        assert_eq!(sig, golden, "skew {skew}");
    }
}

#[test]
fn forwarding_without_pcs_keeps_exact_signature_even_uncached() {
    // Paper §II: "Exact signature but lower fault coverage" — without
    // performance counters the uncached multi-core signature still
    // matches, because delayed instructions produce the same values
    // through different paths.
    let kind = CoreKind::A;
    let routine = ForwardingTest::without_pcs(kind);
    let env = env();
    let legacy = WrapConfig { iterations: 1, invalidate: false, ..WrapConfig::default() };
    let asm = wrap_cached(&routine, &env, &legacy, "fwnp").unwrap();
    let single = run_standalone(
        &asm, &env, kind, false, 0x400, FaultPlane::fault_free(), MAX,
    );
    for skew in 0..3 {
        let (sig, _) = run_contended(&asm, &env, kind, false, 3, skew);
        assert_eq!(sig, single.signature, "value-only signature is contention-immune");
    }
}

#[test]
fn embedded_self_check_passes_and_detects_wrong_expectation() {
    let kind = CoreKind::A;
    let routine = IcuTest::new();
    let env = env();
    let mut cfg = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x400).unwrap();
    cfg.expected_sig = Some(golden);
    let asm = wrap_cached(&routine, &env, &cfg, "chk").unwrap();
    let report =
        run_standalone(&asm, &env, kind, true, 0x400, FaultPlane::fault_free(), MAX);
    assert_eq!(report.status, STATUS_PASS);
    // A wrong expectation must take the FAIL path.
    cfg.expected_sig = Some(golden ^ 1);
    let asm = wrap_cached(&routine, &env, &cfg, "chk2").unwrap();
    let report =
        run_standalone(&asm, &env, kind, true, 0x400, FaultPlane::fault_free(), MAX);
    assert_eq!(report.status, STATUS_FAIL);
}

#[test]
fn wrapper_without_expectation_reports_done() {
    let routine = GenericAluTest::new(2);
    let env = env();
    let asm = wrap_cached(&routine, &env, &WrapConfig::default(), "gen").unwrap();
    let report = run_standalone(
        &asm, &env, CoreKind::B, true, 0x400, FaultPlane::fault_free(), MAX,
    );
    assert_eq!(report.status, STATUS_DONE);
    assert_ne!(report.signature, 0);
}

#[test]
fn oversized_routine_is_split_until_it_fits() {
    let kind = CoreKind::C; // 64-bit sections make the body large
    let routine = ForwardingTest::without_pcs(kind);
    let env = env();
    // Force a tiny cache so the whole routine cannot fit.
    let cfg = WrapConfig { icache_capacity: 2048, ..WrapConfig::default() };
    assert!(matches!(
        wrap_cached(&routine, &env, &cfg, "big"),
        Err(WrapError::TooLarge { .. })
    ));
    let parts = plan_cached(&routine, &env, &cfg, "big").expect("splits");
    assert!(parts.len() >= 2, "was split into {} parts", parts.len());
    // Every part runs and publishes into its own mailbox.
    for (i, part) in parts.iter().enumerate() {
        let part_env = RoutineEnv { result_addr: env.result_addr + 16 * i as u32, ..env };
        let report = run_standalone(
            part, &part_env, kind, true, 0x400, FaultPlane::fault_free(), MAX,
        );
        assert!(report.outcome.is_clean());
        assert_eq!(report.status, STATUS_DONE, "part {i}");
    }
}

#[test]
fn no_write_allocate_dummy_loads_keep_the_execution_loop_deterministic() {
    let kind = CoreKind::A;
    let env_nwa = RoutineEnv { policy: WritePolicy::NoWriteAllocate, ..env() };
    let routine = GenericAluTest::new(3);
    let cfg = WrapConfig::default();
    // Golden on a single cached core with an NWA D$.
    let asm = wrap_cached(&routine, &env_nwa, &cfg, "nwa").unwrap();
    let base = 0x400;
    let program = asm.assemble(base).unwrap();
    let nwa_dcache = sbst_mem::CacheConfig {
        policy: WritePolicy::NoWriteAllocate,
        ..sbst_mem::CacheConfig::dcache_4k()
    };
    let mk_cfg = |id: usize, pc: u32| CoreConfig {
        dcache: Some(nwa_dcache),
        ..CoreConfig::cached(kind, id, pc)
    };
    let run = |skew: u32| {
        let mut soc = SocBuilder::new()
            .load(&program)
            .core(mk_cfg(0, base), skew)
            .build();
        assert!(soc.run(MAX).is_clean());
        soc.peek(env_nwa.result_addr)
    };
    let sig0 = run(0);
    assert_eq!(sig0, run(5), "NWA + dummy loads stays deterministic");
    assert_ne!(sig0, 0);
}

#[test]
fn tcm_wrapper_matches_behaviour_and_costs_memory() {
    let kind = CoreKind::A;
    let routine = IcuTest::new();
    let env = env();
    let cfg = WrapConfig::default();
    let flash_base = 0x400;
    let tcm = wrap_tcm(&routine, &env, &cfg, "tcm", flash_base).unwrap();
    assert!(tcm.tcm_overhead_bytes > 0, "TCM bytes are permanently reserved");
    let mut soc = SocBuilder::new()
        .load(&tcm.program)
        .core(CoreConfig::cached(kind, 0, flash_base), 0)
        .build();
    let outcome = soc.run(MAX);
    assert!(outcome.is_clean(), "{outcome:?}");
    assert_eq!(soc.peek(env.result_addr + 4), STATUS_DONE);
    let tcm_cycles = soc.cycle();

    // Cache-based equivalent: zero memory overhead, slightly slower
    // (the loading loop re-executes the body; Table IV).
    let asm = wrap_cached(&routine, &env, &cfg, "cache").unwrap();
    let report =
        run_standalone(&asm, &env, kind, true, flash_base, FaultPlane::fault_free(), MAX);
    assert!(report.outcome.is_clean());
    assert!(
        report.cycles > tcm_cycles,
        "cache-based ({}) should cost a few more cycles than TCM-based ({})",
        report.cycles,
        tcm_cycles
    );
    // ... but within a small factor (paper: ~10%).
    assert!(
        (report.cycles as f64) < 2.5 * tcm_cycles as f64,
        "overhead must stay moderate: {} vs {}",
        report.cycles,
        tcm_cycles
    );
}

#[test]
fn scheduler_runs_parallel_stl_on_three_cores() {
    use sbst_stl::sched::{build_stl_program, CoreStl, DONE_BASE};
    let wrap = WrapConfig::default();
    let mut builder = SocBuilder::new();
    let mut result_addrs = Vec::new();
    for core in 0..3usize {
        let kind = CoreKind::ALL[core];
        let env = RoutineEnv {
            result_addr: SRAM_BASE + 0x2000 + 0x100 * core as u32,
            data_base: SRAM_BASE + 0x4000 + 0x400 * core as u32,
            ..RoutineEnv::for_core(kind)
        };
        result_addrs.push(env.result_addr);
        let stl = CoreStl::new(
            vec![Box::new(GenericAluTest::new(2)), Box::new(ForwardingTest::without_pcs(kind))],
            env,
        );
        let asm = build_stl_program(core, 3, &stl, &[], None, &wrap);
        let base = 0x1000 + 0x2_0000 * core as u32;
        builder = builder.load(&asm.assemble(base).unwrap());
        builder = builder.core(CoreConfig::cached(kind, core, base), core as u32 * 7);
    }
    let mut soc = builder.build();
    let outcome = soc.run(MAX);
    assert!(outcome.is_clean(), "{outcome:?}");
    for (core, &result_addr) in result_addrs.iter().enumerate() {
        assert_eq!(soc.peek(DONE_BASE + 4 * core as u32), 1, "core {core} done");
        for routine in 0..2u32 {
            let status = soc.peek(result_addr + 16 * routine + 4);
            assert_eq!(status, STATUS_DONE, "core {core} routine {routine}");
        }
    }
}

#[test]
fn armed_watchdog_catches_a_hung_stl_and_quiet_when_kicked() {
    use sbst_stl::sched::{build_stl_program, CoreStl};
    // (1) A healthy STL with the watchdog armed and kicked between
    // routines completes cleanly.
    let wrap = WrapConfig::default();
    let build = |watchdog| {
        let stl = CoreStl::new(
            vec![Box::new(GenericAluTest::new(2)), Box::new(GenericAluTest::new(3))],
            RoutineEnv::for_core(CoreKind::A),
        );
        build_stl_program(0, 1, &stl, &[], watchdog, &wrap)
    };
    let healthy = build(Some(200_000)).assemble(0x1000).unwrap();
    let mut soc = SocBuilder::new()
        .load(&healthy)
        .core(CoreConfig::cached(CoreKind::A, 0, 0x1000), 0)
        .build();
    assert!(soc.run(10_000_000).is_clean(), "kicked watchdog stays quiet");
    assert!(!soc.bus().watchdog().bitten());

    // (2) The same STL with a fault that hangs the core *immediately*
    // (even the software arm sequence never executes): the boot ROM has
    // already armed the watchdog, so the peripheral still catches it —
    // modeled by arming it from the harness before the run.
    let mut soc = SocBuilder::new()
        .load(&build(Some(50_000)).assemble(0x1000).unwrap())
        .core(CoreConfig::cached(CoreKind::A, 0, 0x1000), 0)
        .build();
    soc.bus_mut().watchdog_mut().write(sbst_mem::WDG_LOAD, 50_000);
    use sbst_fault::{Element, FaultPlane, FaultSite, Polarity, Unit};
    soc.core_mut(0).set_plane(FaultPlane::armed(FaultSite {
        unit: Unit::Hdcu,
        instance: sbst_cpu::HDCU_CTRL,
        element: Element::StallLine { line: 4 },
        polarity: Polarity::StuckAt1,
    }));
    let outcome = soc.run(10_000_000);
    assert!(
        matches!(outcome, sbst_soc::RunOutcome::Watchdog { cycles } if cycles == soc.cycle()),
        "expected a watchdog bite, got {outcome:?}"
    );
    assert!(soc.bus().watchdog().bitten(), "the peripheral raised the alarm");
    assert!(soc.cycle() < 200_000, "bite came from the peripheral, not the budget");
}

#[test]
fn cached_signature_is_invariant_to_flash_timing() {
    // The whole point of the execution loop: once cache-resident, the
    // signature cannot depend on ANY memory-subsystem timing parameter.
    use sbst_mem::FlashTiming;
    let kind = CoreKind::A;
    let routine = HdcuTest::new(kind);
    let env = env();
    let asm = wrap_cached(&routine, &env, &WrapConfig::default(), "ft").unwrap();
    let program = asm.assemble(0x400).unwrap();
    let sig_with = |timing: FlashTiming| {
        let mut soc = SocBuilder::new()
            .flash_timing(timing)
            .load(&program)
            .core(CoreConfig::cached(kind, 0, 0x400), 0)
            .build();
        assert!(soc.run(MAX).is_clean());
        soc.peek(env.result_addr)
    };
    let reference = sig_with(FlashTiming::default());
    for timing in [
        FlashTiming { access_cycles: 16, ..FlashTiming::default() },
        FlashTiming { row_hit_cycles: 5, ..FlashTiming::default() },
        FlashTiming { row_buffers: 1, ..FlashTiming::default() },
        FlashTiming { access_cycles: 20, row_hit_cycles: 7, row_buffers: 2, row_bytes: 32 },
    ] {
        assert_eq!(
            sig_with(timing),
            reference,
            "flash timing {timing:?} leaked into the execution loop"
        );
    }
}

#[test]
fn tcm_and_cache_wrappers_produce_the_same_signature() {
    // Paper Table IV: "the fault coverage ... is the same for both" —
    // which requires both strategies to compute the identical signature
    // from the identical body.
    let kind = CoreKind::A;
    let env = env();
    let cfg = WrapConfig::default();
    let routines: Vec<(&str, Box<dyn SelfTestRoutine>)> = vec![
        ("icu", Box::new(IcuTest::with_rounds(2))),
        ("fw", Box::new(ForwardingTest::without_pcs(kind))),
    ];
    for (name, routine) in routines {
        let cached = wrap_cached(routine.as_ref(), &env, &cfg, name).unwrap();
        let cached_report = run_standalone(
            &cached, &env, kind, true, 0x400, FaultPlane::fault_free(), MAX,
        );
        let tcm = wrap_tcm(routine.as_ref(), &env, &cfg, name, 0x400).unwrap();
        let mut soc = SocBuilder::new()
            .load(&tcm.program)
            .core(CoreConfig::cached(kind, 0, 0x400), 0)
            .build();
        assert!(soc.run(MAX).is_clean());
        let tcm_sig = soc.peek(env.result_addr);
        assert_eq!(
            cached_report.signature, tcm_sig,
            "{name}: the two strategies must observe identical behaviour"
        );
    }
}
