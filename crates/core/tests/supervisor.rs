//! End-to-end tests of the fault-tolerant STL supervisor: a healthy SoC
//! boots clean, a hung core is retried and quarantined while the other
//! cores still produce verdicts, and a deterministic signature
//! mismatch exhausts its retries into quarantine.

use sbst_cpu::{unit_fault_list, CoreKind, HDCU_CTRL};
use sbst_fault::{Element, FaultPlane, FaultSite, Polarity, Unit};
use sbst_mem::{ArbiterKind, InjectorProgram, SRAM_BASE};
use sbst_soc::ChaosConfig;
use sbst_stl::routines::{GenericAluTest, RegFileTest};
use sbst_stl::sched::CoreStl;
use sbst_stl::{
    derive_cycle_budget, learn_golden_cached, run_standalone, wrap_cached, BoundWatchdog,
    CoreVerdict, QuarantineCause, RoutineEnv, Supervisor, SupervisorConfig, WrapConfig,
    STATUS_FAIL,
};

fn env_for(core: usize) -> RoutineEnv {
    RoutineEnv {
        result_addr: SRAM_BASE + 0x2000 + 0x100 * core as u32,
        data_base: SRAM_BASE + 0x5000 + 0x400 * core as u32,
        ..RoutineEnv::for_core(CoreKind::ALL[core])
    }
}

fn stl_for(core: usize) -> CoreStl {
    CoreStl::new(
        vec![Box::new(RegFileTest::new()), Box::new(GenericAluTest::new(3))],
        env_for(core),
    )
}

fn passed(v: Option<CoreVerdict>) -> bool {
    matches!(
        v,
        Some(CoreVerdict::Passed | CoreVerdict::PassedAfterRetry { .. })
    )
}

#[test]
fn healthy_triple_core_boot_passes_first_time() {
    let mut sup = Supervisor::new(SupervisorConfig::default());
    for core in 0..3 {
        sup.add_core(core, stl_for(core));
    }
    let report = sup.run().expect("boot");
    assert!(report.fully_healthy(), "{report}");
    assert!(!report.degraded());
    assert_eq!(report.rounds, 1, "healthy boot needs one parallel round");
    for core in 0..3 {
        assert_eq!(report.verdict(core), Some(CoreVerdict::Passed));
    }
}

/// The headline robustness scenario: core 1 hangs under an armed stuck
/// stall line, the watchdog bites, the supervisor retries it standalone
/// (escalating budgets, cold caches) and finally quarantines it — and
/// cores 0 and 2 still complete their boot test cleanly behind a
/// shrunken barrier.
#[test]
fn hung_core_is_retried_then_quarantined_and_others_finish() {
    // Explicit budgets keep the hung-core retries cheap: the watchdog
    // bites 150k cycles after the last kick, long before the 2M host
    // backstop.
    let mut sup = Supervisor::new(SupervisorConfig {
        max_retries: 2,
        watchdog_timeout: 150_000,
        base_budget: 2_000_000,
        ..Default::default()
    });
    for core in 0..3 {
        sup.add_core(core, stl_for(core));
    }
    sup.set_plane(
        1,
        FaultPlane::armed(FaultSite {
            unit: Unit::Hdcu,
            instance: HDCU_CTRL,
            element: Element::StallLine { line: 4 },
            polarity: Polarity::StuckAt1,
        }),
    );
    let report = sup.run().expect("boot");
    assert_eq!(
        report.verdict(1),
        Some(CoreVerdict::Quarantined { cause: QuarantineCause::WatchdogBite }),
        "{report}"
    );
    assert!(passed(report.verdict(0)), "{report}");
    assert!(passed(report.verdict(2)), "{report}");
    assert!(report.degraded());
    assert_eq!(report.quarantined(), vec![1]);
    assert!(report.rounds >= 2, "quarantine forces a re-run: {report}");
}

/// A fault that deterministically corrupts a routine's signature (found
/// by probing the HDCU fault list standalone first) must exhaust its
/// retries — the fault is permanent, retrying cannot help — and land in
/// quarantine with the SignatureMismatch cause, without disturbing the
/// healthy core.
#[test]
fn signature_mismatch_exhausts_retries_into_quarantine() {
    let kind = CoreKind::A;
    let env = env_for(0);
    let routine = RegFileTest::new();
    let cfg = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x1000).expect("golden");
    let checked = wrap_cached(
        &routine,
        &env,
        &WrapConfig { expected_sig: Some(golden), ..cfg },
        "probe",
    )
    .expect("wraps");
    let budget = derive_cycle_budget(&checked);
    let site = unit_fault_list(kind, Unit::Hdcu)
        .sample(5)
        .into_iter()
        .find(|&site| {
            let report = run_standalone(
                &checked,
                &env,
                kind,
                true,
                0x1000,
                FaultPlane::armed(site),
                budget,
            );
            report.outcome.is_clean() && report.status == STATUS_FAIL
        })
        .expect("some HDCU fault fails the self-check without hanging");

    let mut sup = Supervisor::new(SupervisorConfig { max_retries: 1, ..Default::default() });
    sup.add_core(0, CoreStl::new(vec![Box::new(RegFileTest::new())], env_for(0)));
    sup.add_core(1, stl_for(1));
    sup.set_plane(0, FaultPlane::armed(site));
    let report = sup.run().expect("boot");
    assert_eq!(
        report.verdict(0),
        Some(CoreVerdict::Quarantined { cause: QuarantineCause::SignatureMismatch }),
        "{report}"
    );
    assert!(passed(report.verdict(1)), "{report}");
}

/// The bound-watchdog escalation path: the platform was certified for
/// round-robin arbitration, but the deployed bus runs fixed-priority
/// with the saturating traffic injector on the top-priority (last)
/// port. The core's ports starve past the round-robin bound, the bound
/// watchdog fires before any routine status is even consulted, and the
/// core is quarantined with the BoundViolation cause — the platform
/// voided the determinism argument, so no signature from it can be
/// trusted.
#[test]
fn violated_bound_escalates_to_quarantine() {
    let mut sup = Supervisor::new(SupervisorConfig {
        // Retrying cannot help — the platform itself is wrong — so keep
        // the test cheap with a single attempt and a tight budget.
        max_retries: 0,
        base_budget: 300_000,
        watchdog_timeout: 250_000,
        arbiter: ArbiterKind::FixedPriority { ascending: false },
        chaos: Some(ChaosConfig::interference(InjectorProgram::saturate(7))),
        bound_watchdog: Some(BoundWatchdog::new(ArbiterKind::RoundRobin)),
    });
    sup.add_core(0, CoreStl::new(vec![Box::new(RegFileTest::new())], env_for(0)));
    let report = sup.run().expect("boot");
    assert_eq!(
        report.verdict(0),
        Some(CoreVerdict::Quarantined { cause: QuarantineCause::BoundViolation }),
        "{report}"
    );
    assert!(
        sup.events()
            .iter()
            .any(|e| matches!(e.kind, sbst_obs::TraceKind::Quarantine { cause: "bound violation" })),
        "quarantine trace event carries the bound-violation cause"
    );
}

/// Same platform, but certified honestly: a fixed-priority certificate
/// flags the core's ports unbounded, so the runtime watchdog has
/// nothing to enforce and the failure surfaces as an ordinary watchdog
/// bite (the core hung because it was starved) — certification must
/// catch unbounded ports *before* deployment, not at runtime.
#[test]
fn honest_fixed_priority_certificate_reports_a_hang_not_a_violation() {
    let mut sup = Supervisor::new(SupervisorConfig {
        max_retries: 0,
        base_budget: 300_000,
        watchdog_timeout: 250_000,
        arbiter: ArbiterKind::FixedPriority { ascending: false },
        chaos: Some(ChaosConfig::interference(InjectorProgram::saturate(7))),
        bound_watchdog: Some(BoundWatchdog::new(ArbiterKind::FixedPriority {
            ascending: false,
        })),
    });
    sup.add_core(0, CoreStl::new(vec![Box::new(RegFileTest::new())], env_for(0)));
    let report = sup.run().expect("boot");
    assert_eq!(
        report.verdict(0),
        Some(CoreVerdict::Quarantined { cause: QuarantineCause::WatchdogBite }),
        "{report}"
    );
}
