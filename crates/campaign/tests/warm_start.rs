//! The campaign fast path's correctness gate: warm-start grading
//! (golden-prefix snapshot + early-verdict exit + golden-calibrated
//! hang budget) must produce per-fault verdicts identical to the
//! cold-start path — over *full collapsed fault lists*, not samples,
//! including the ICU whose tick is the one faultable activity before
//! the snapshot point.

use sbst_campaign::{
    routines_for, run_campaign_detailed, run_campaign_ppsfp_detailed,
    run_campaign_warm_detailed, ExecStyle, Experiment,
};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{collapse, Element, FaultList, FaultPlane, FaultSite, Polarity, Unit, Verdict};
use sbst_soc::{RunOutcome, Scenario};

fn multicore_exp(kind: CoreKind, unit: Unit) -> Experiment {
    let factory = routines_for(unit);
    Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles")
}

type Records = Vec<(FaultSite, Verdict)>;

/// Cold and warm records over the full collapsed list of `unit`.
fn cold_and_warm(unit: Unit) -> (Records, Records) {
    let exp = multicore_exp(CoreKind::A, unit);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, unit);
    let collapsed = collapse(&faults);
    let reps = collapsed.representatives();
    assert!(!reps.sites().is_empty());
    let (_, cold) = run_campaign_detailed(&exp, &golden, reps, 0);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, reps, 0);
    (cold, warm)
}

/// The headline equivalence: every representative of the collapsed
/// forwarding-unit universe (the largest fault population) gets the
/// same verdict from the fast path as from a full from-reset run.
#[test]
fn warm_verdicts_match_cold_over_the_full_collapsed_forwarding_list() {
    let (cold, warm) = cold_and_warm(Unit::Forwarding);
    assert_eq!(cold, warm);
}

/// Same over the HDCU, whose stall-line faults are the hang-heavy
/// population — the one the tightened budget could misclassify.
#[test]
fn warm_verdicts_match_cold_over_the_full_collapsed_hdcu_list() {
    let (cold, warm) = cold_and_warm(Unit::Hdcu);
    assert_eq!(cold, warm);
}

/// Same over the ICU: its tick runs every cycle, so ICU faults are
/// live *before* the snapshot point in a cold run but only after it in
/// a warm run — the one place the two paths genuinely diverge in
/// mechanism, gated here to verdict equivalence.
#[test]
fn warm_verdicts_match_cold_over_the_full_collapsed_icu_list() {
    let (cold, warm) = cold_and_warm(Unit::Icu);
    assert_eq!(cold, warm);
}

/// The snapshot is a real prefix with a budget strictly tighter than
/// the cold watchdog, and a fault-free warm run reproduces the golden
/// observables while exiting no later than the full-SoC halt.
#[test]
fn snapshot_prefix_and_early_exit_shape() {
    let exp = multicore_exp(CoreKind::A, Unit::Forwarding);
    let golden = exp.golden();
    let snapshot = exp.snapshot(&golden);
    assert!(snapshot.cycle() > 0, "first issue cannot happen at cycle 0");
    assert!(snapshot.cycle() < golden.cycles);
    assert!(
        snapshot.budget() >= golden.cycles,
        "warm budget ({}) must cover at least the golden tail",
        snapshot.budget()
    );
    let warm = exp.run_warm(&snapshot, FaultPlane::fault_free());
    assert_eq!(Experiment::classify(&golden, &warm), Verdict::Undetected);
    assert_eq!(warm.signature, golden.signature);
    assert_eq!(warm.status, golden.status);
    assert!(
        warm.cycles < golden.cycles,
        "early exit at the core under test's halt ({}) must beat the \
         golden all-halt ({}) — the other cores run longer sequences",
        warm.cycles,
        golden.cycles
    );
}

/// A known permanent-stall fault grades as a hang through the warm
/// path, with the budget expiring at the exact absolute cycle the cold
/// watchdog would — the hang decision is the same deadline either way.
/// The global-stall freeze repeats one state, so the loop decider
/// decides it early and reports that deadline; an aperiodic ICU trap
/// storm still simulates to exactly it.
#[test]
fn warm_hang_verdict_expires_at_the_cold_cutoff() {
    let exp = multicore_exp(CoreKind::A, Unit::Hdcu);
    let golden = exp.golden();
    let snapshot = exp.snapshot(&golden);
    let site = FaultSite {
        unit: Unit::Hdcu,
        instance: sbst_cpu::HDCU_CTRL,
        element: Element::StallLine { line: 4 },
        polarity: Polarity::StuckAt1,
    };
    assert_eq!(exp.test_fault(&golden, site), Verdict::Hang);
    let warm = exp.run_warm(&snapshot, FaultPlane::armed(site));
    assert_eq!(Experiment::classify(&golden, &warm), Verdict::Hang);
    assert_eq!(
        warm.outcome,
        RunOutcome::Watchdog { cycles: golden.cycles * 4 + 20_000 },
        "a warm hang must expire at the cold path's golden-calibrated cutoff"
    );

    // EPC bit 20 stuck at 1: every trap returns outside the program, so
    // the core sweeps through unprogrammed words and never repeats.
    let exp = multicore_exp(CoreKind::A, Unit::Icu);
    let golden = exp.golden();
    let snapshot = exp.snapshot(&golden);
    let storm = unit_fault_list(CoreKind::A, Unit::Icu)
        .sites()
        .iter()
        .copied()
        .find(|s| s.element == Element::EpcBit { bit: 20 } && s.polarity == Polarity::StuckAt1)
        .expect("the ICU list has EPC bit sites");
    assert_eq!(exp.test_fault(&golden, storm), Verdict::Hang);
    let warm = exp.run_warm(&snapshot, FaultPlane::armed(storm));
    let cutoff = golden.cycles * 4 + 20_000;
    assert_eq!(warm.outcome, RunOutcome::Watchdog { cycles: cutoff });
    assert_eq!(warm.cycles, cutoff, "an aperiodic hang must simulate to the cutoff");
}

/// The full-list walls above are cache-wrapped, but the legacy-uncached
/// hangs are where the loop decider earns its keep: the wrapper's
/// one-iteration loop spinning on a drifting counter. Cold, warm and
/// PPSFP verdicts must agree on a deterministic sublist holding several
/// such hangs, and the decider must have decided every one of them —
/// otherwise the equality says nothing about it.
#[test]
fn legacy_uncached_hangs_are_decided_with_cold_verdicts() {
    let factory = routines_for(Unit::Forwarding);
    let exp = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::LegacyUncached,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles");
    let golden = exp.golden();
    let reps = collapse(&unit_fault_list(CoreKind::A, Unit::Forwarding));
    let list =
        FaultList::from_sites(reps.representatives().sites().iter().copied().skip(25).step_by(50).collect());
    let (cold_result, cold) = run_campaign_detailed(&exp, &golden, &list, 0);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &list, 0);
    let (_, ppsfp, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &list, 0);
    assert_eq!(cold, warm);
    assert_eq!(cold, ppsfp);
    assert!(cold_result.hang >= 8, "only {} hangs in the sublist", cold_result.hang);
    assert_eq!(
        stats.loop_short_circuits, cold_result.hang,
        "the loop decider must decide every hang of the sublist"
    );
}
