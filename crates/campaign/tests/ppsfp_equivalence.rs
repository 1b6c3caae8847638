//! The bit-parallel tier's correctness gate: PPSFP grading (packed
//! fault words riding one tapped golden tail, with serial fallback for
//! architecturally divergent lanes and the livelock short-circuit in
//! that fallback) must produce per-fault verdicts identical to the
//! serial warm path — over *full collapsed fault lists*, including the
//! HDCU/ICU populations that fall back wholesale, and over randomly
//! sampled mixed-unit lists.

use std::sync::OnceLock;

use proptest::prelude::*;
use sbst_campaign::{
    routines_for, run_campaign_ppsfp_detailed, run_campaign_warm_detailed, ExecStyle,
    Experiment, PpsfpStats,
};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{collapse, FaultList, FaultSite, Unit, Verdict};
use sbst_soc::Scenario;

type Records = Vec<(FaultSite, Verdict)>;

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

/// Serial-warm and PPSFP records over one list, plus the PPSFP split
/// statistics. The serial warm path is the reference the ISSUE pins
/// PPSFP against (itself pinned to cold-start runs by `warm_start.rs`).
fn warm_and_ppsfp(
    kind: CoreKind,
    unit: Unit,
    faults: &FaultList,
) -> (Records, Records, PpsfpStats) {
    let exp = multicore_exp(kind, unit);
    let golden = exp.golden();
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, faults, 0);
    let (result, ppsfp, stats) = run_campaign_ppsfp_detailed(&exp, &golden, faults, 0);
    assert_eq!(result.total, faults.len(), "every fault graded exactly once");
    assert_eq!(
        result.sim_errors, 0,
        "PPSFP grading must not crash on any fault of this list"
    );
    (warm, ppsfp, stats)
}

struct Fixture {
    reps: FaultList,
    warm: Records,
    ppsfp: Records,
    stats: PpsfpStats,
}

/// The headline fixture: the full collapsed forwarding-unit universe on
/// core kind A (the largest population and the only unit the ride
/// accelerates), shared between the equality and statistics tests.
fn forwarding_a() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let faults = unit_fault_list(CoreKind::A, Unit::Forwarding);
        let collapsed = collapse(&faults);
        let reps = collapsed.representatives().clone();
        let (warm, ppsfp, stats) = warm_and_ppsfp(CoreKind::A, Unit::Forwarding, &reps);
        Fixture { reps, warm, ppsfp, stats }
    })
}

/// Every representative of the collapsed forwarding list gets the same
/// verdict from the bit-parallel ride (or its per-lane fallback) as
/// from the serial warm path — site by site, in list order.
#[test]
fn ppsfp_verdicts_match_warm_over_the_full_collapsed_forwarding_list() {
    let fx = forwarding_a();
    assert_eq!(fx.warm.len(), fx.ppsfp.len());
    for (w, p) in fx.warm.iter().zip(&fx.ppsfp) {
        assert_eq!(w, p, "verdict divergence at {:?}", w.0);
    }
}

/// The ride must actually carry most of the forwarding population —
/// otherwise the tier silently degenerated into the serial path and the
/// equivalence above proves nothing about the lane engine. Every hang
/// of this cache-wrapped list is the wrapper loop spinning with a
/// drifting counter, so the loop decider must decide each one: the
/// warm reference shares the tail driver, so verdict equality alone
/// would not notice a decider that decided nothing.
#[test]
fn forwarding_rides_the_golden_tail_for_most_lanes() {
    let fx = forwarding_a();
    let s = &fx.stats;
    assert!(s.ridden_words > 0, "no word rode the golden tail");
    assert_eq!(s.packed_faults, fx.reps.len(), "all-forwarding list packs entirely");
    assert!(
        s.fallback_rate < 0.5,
        "fallback rate {:.2} — the ride fell off on most lanes",
        s.fallback_rate
    );
    assert_eq!(
        s.fallback_faults,
        (s.fallback_rate * fx.reps.len() as f64).round() as usize,
        "fallback rate and count must agree"
    );
    assert!(s.pack_density > 0.0 && s.pack_density <= 1.0);
    let hangs = fx.warm.iter().filter(|(_, v)| *v == Verdict::Hang).count();
    assert_eq!(s.loop_short_circuits, hangs, "the loop decider must decide every hang");
}

/// Same gate on core kind C: 64-bit datapath, wider mux words, ALU64
/// traffic through the forwarding network — the lane engine's width
/// handling and 64-bit pairing rules are exercised for real. Its hangs
/// are wrapper loops too, so the decider must decide every one.
#[test]
fn ppsfp_matches_warm_on_the_64_bit_core() {
    let faults = unit_fault_list(CoreKind::C, Unit::Forwarding);
    let reps = collapse(&faults).representatives().clone();
    let (warm, ppsfp, stats) = warm_and_ppsfp(CoreKind::C, Unit::Forwarding, &reps);
    assert_eq!(warm, ppsfp);
    assert!(stats.ridden_words > 0);
    let hangs = warm.iter().filter(|(_, v)| *v == Verdict::Hang).count();
    assert_eq!(stats.loop_short_circuits, hangs, "the loop decider must decide every hang");
}

/// And on core kind B (a different 32-bit netlist), over a sampled
/// sublist — the cross-kind smoke of the same invariant.
#[test]
fn ppsfp_matches_warm_on_core_kind_b() {
    let faults = unit_fault_list(CoreKind::B, Unit::Forwarding).sample(3);
    let (warm, ppsfp, _) = warm_and_ppsfp(CoreKind::B, Unit::Forwarding, &faults);
    assert_eq!(warm, ppsfp);
}

/// HDCU faults perturb stall timing — the ride cannot carry them, so
/// the whole population is graded by the serial fallback (with the
/// livelock short-circuit active: this is the hang-heavy list) and the
/// verdicts must still be bit-identical.
#[test]
fn hdcu_words_fall_back_wholesale_with_identical_verdicts() {
    let faults = unit_fault_list(CoreKind::A, Unit::Hdcu);
    let reps = collapse(&faults).representatives().clone();
    let (warm, ppsfp, stats) = warm_and_ppsfp(CoreKind::A, Unit::Hdcu, &reps);
    assert_eq!(warm, ppsfp);
    assert_eq!(stats.ridden_words, 0, "HDCU words must not ride");
    assert_eq!(stats.packed_faults, 0);
    assert_eq!(stats.fallback_faults, reps.len(), "every fault graded serially");
    assert_eq!(stats.fallback_rate, 1.0);
}

/// Same forced-fallback gate over the ICU list (trap recognition is
/// architectural by definition).
#[test]
fn icu_words_fall_back_wholesale_with_identical_verdicts() {
    let faults = unit_fault_list(CoreKind::A, Unit::Icu);
    let reps = collapse(&faults).representatives().clone();
    let (warm, ppsfp, stats) = warm_and_ppsfp(CoreKind::A, Unit::Icu, &reps);
    assert_eq!(warm, ppsfp);
    assert_eq!(stats.ridden_words, 0);
    assert_eq!(stats.fallback_rate, 1.0);
}

/// When every fault in a campaign falls back, the coverage arithmetic
/// must still count each fault exactly once: total, the verdict mix and
/// the fallback tally all agree with the list size, and the records
/// come back in list order with no duplicates.
#[test]
fn all_fallback_campaign_counts_every_fault_exactly_once() {
    let exp = multicore_exp(CoreKind::A, Unit::Hdcu);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Hdcu).sample(5);
    let (result, records, stats) =
        run_campaign_ppsfp_detailed(&exp, &golden, &faults, 0);
    assert_eq!(result.total, faults.len());
    assert_eq!(records.len(), faults.len());
    assert_eq!(stats.fallback_faults, faults.len());
    assert_eq!(
        result.wrong_signature
            + result.test_fail
            + result.unexpected_trap
            + result.hang
            + result.undetected
            + result.sim_errors,
        result.total,
        "verdict mix partitions the total"
    );
    for (rec, &site) in records.iter().zip(faults.sites()) {
        assert_eq!(rec.0, site, "records keep fault-list order");
    }
}

/// Packing edge cases at the campaign level: the empty list and the
/// single-fault list are graded without panicking and with exact
/// arithmetic (no phantom word, a one-lane word).
#[test]
fn empty_and_single_fault_lists_have_exact_arithmetic() {
    let exp = multicore_exp(CoreKind::A, Unit::Forwarding);
    let golden = exp.golden();

    let empty = FaultList::new();
    let (result, records, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &empty, 0);
    assert_eq!(result.total, 0);
    assert!(records.is_empty());
    assert_eq!(stats, PpsfpStats::default());

    let universe = unit_fault_list(CoreKind::A, Unit::Forwarding);
    let one = FaultList::from_sites(vec![universe.sites()[0]]);
    assert_eq!(one.len(), 1);
    let (result, records, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &one, 0);
    assert_eq!(result.total, 1);
    assert_eq!(records.len(), 1);
    assert_eq!(stats.words, 1, "a single fault packs into one single-lane word");
    // Packed lanes that later fall off are re-graded serially, so the
    // two tallies overlap; the exact-once guarantee is on the records.
    assert!(stats.fallback_faults <= 1);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &one, 0);
    assert_eq!(warm, records);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random sampled sublists of the collapsed forwarding universe
    /// (word packings the full-list test never forms: odd sizes,
    /// sparse instance mixes) grade identically to the serial path.
    #[test]
    fn sampled_sublists_grade_identically(seed in any::<u64>()) {
        let fx = forwarding_a();
        let exp = multicore_exp(CoreKind::A, Unit::Forwarding);
        let golden = exp.golden();
        // Deterministic pseudo-random subset from the proptest seed.
        let mut x = seed | 1;
        let sites: Vec<FaultSite> = fx
            .reps
            .sites()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_add(*i as u64)).is_multiple_of(11)
            })
            .map(|(_, &s)| s)
            .collect();
        let list = FaultList::from_sites(sites);
        let (_, ppsfp, _) = run_campaign_ppsfp_detailed(&exp, &golden, &list, 0);
        // The full-list fixture already holds the serial verdict of
        // every representative: compare against it site by site.
        for (site, verdict) in &ppsfp {
            let warm = fx
                .warm
                .iter()
                .find(|(s, _)| s == site)
                .expect("sampled site is a representative")
                .1;
            prop_assert_eq!(verdict, &warm, "divergence at {:?}", site);
        }
    }
}
