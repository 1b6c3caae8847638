//! Workspace-level PPSFP equivalence wall: the bit-parallel tier must
//! return verdicts bit-identical to the serial warm path through the
//! `det-sbst` facade. The exhaustive full-list walls live in
//! `crates/campaign/tests/ppsfp_equivalence.rs`; this sampled gate keeps
//! the invariant in the default `cargo test` run at debug-build speed.

use det_sbst::campaign::{
    routines_for, run_campaign_ppsfp_detailed, run_campaign_warm_detailed, ExecStyle,
    Experiment,
};
use det_sbst::cpu::{unit_fault_list, CoreKind};
use det_sbst::fault::Unit;
use det_sbst::soc::Scenario;

fn exp_for(unit: Unit) -> Experiment {
    let factory = routines_for(unit);
    Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment assembles")
}

#[test]
fn ppsfp_verdicts_match_warm_on_a_sampled_forwarding_list() {
    let exp = exp_for(Unit::Forwarding);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Forwarding).sample(40);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, 0);
    let (result, ppsfp, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &faults, 0);
    assert_eq!(result.total, faults.len(), "every fault graded exactly once");
    assert_eq!(result.sim_errors, 0);
    assert!(stats.ridden_words > 0, "forwarding faults must ride the golden tail");
    for (w, p) in warm.iter().zip(&ppsfp) {
        assert_eq!(w, p, "PPSFP verdict diverged from serial at {:?}", w.0);
    }
}

#[test]
fn ppsfp_hdcu_lanes_ride_and_match_warm_on_a_sampled_list() {
    // HDCU lanes carry their own faulted HDCU: a select difference rides
    // as data, a stall or split difference falls back to the serial path
    // (with the livelock short-circuit active) — and the verdicts must
    // still be identical.
    let exp = exp_for(Unit::Hdcu);
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Hdcu).sample(60);
    let (_, warm) = run_campaign_warm_detailed(&exp, &golden, &faults, 0);
    let (result, ppsfp, stats) = run_campaign_ppsfp_detailed(&exp, &golden, &faults, 0);
    assert_eq!(result.sim_errors, 0);
    assert_eq!(stats.ridden_words, stats.words, "HDCU words must ride");
    assert!(stats.fallback_faults < faults.len(), "some HDCU lane must reach the halt");
    assert_eq!(warm, ppsfp);
}
