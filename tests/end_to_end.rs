//! Workspace-level end-to-end tests through the `det-sbst` facade: the
//! full flow a downstream user follows, plus cross-crate properties that
//! no single crate can check alone.

use det_sbst::campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
use det_sbst::cpu::{delay_fault_list, unit_fault_list, CoreConfig, CoreKind};
use det_sbst::fault::{FaultPlane, Unit, Verdict};
use det_sbst::isa::{Asm, Reg};
use det_sbst::soc::{PipelineTrace, Scenario, SocBuilder};
use det_sbst::stl::routines::{ForwardingTest, GenericAluTest, IcuTest};
use det_sbst::stl::{
    learn_golden_cached, run_standalone, wrap_cached, RoutineEnv, WrapConfig, STATUS_PASS,
};

#[test]
fn full_user_flow_learn_embed_check() {
    let kind = CoreKind::B;
    let routine = ForwardingTest::without_pcs(kind);
    let env = RoutineEnv::for_core(kind);
    let mut cfg = WrapConfig::default();
    let golden = learn_golden_cached(&routine, &env, &cfg, kind, 0x400).expect("golden");
    cfg.expected_sig = Some(golden);
    let asm = wrap_cached(&routine, &env, &cfg, "flow").expect("wraps");
    let report = run_standalone(
        &asm,
        &env,
        kind,
        true,
        0x400,
        FaultPlane::fault_free(),
        10_000_000,
    );
    assert!(report.outcome.is_clean());
    assert_eq!(report.status, STATUS_PASS);
    assert_eq!(report.signature, golden);
}

#[test]
fn forwarding_excitation_visible_in_the_pipeline_trace() {
    // Cross-checks the trace module against the pipeline: the dependent
    // add executes exactly one cycle after its producer when cached.
    let mut a = Asm::new();
    a.li(Reg::R1, 7);
    a.align(16);
    a.add(Reg::R5, Reg::R1, Reg::R1); // producer @ base+8 (after 1 li)
    a.nop();
    a.add(Reg::R6, Reg::R5, Reg::R1); // consumer
    a.nop();
    a.halt();
    let base = 0x400;
    let program = a.assemble(base).unwrap();
    let producer_pc = base + 16;
    let consumer_pc = base + 24;
    let mut soc = SocBuilder::new()
        .load(&program)
        .core(CoreConfig::cached(CoreKind::A, 0, base), 0)
        .build();
    let trace = PipelineTrace::capture(&mut soc, 0, 10_000);
    let p = trace.ex_cycle_of(producer_pc).expect("producer traced");
    let c = trace.ex_cycle_of(consumer_pc).expect("consumer traced");
    assert_eq!(c - p, 1, "back-to-back packets -> EX/MEM path");
    assert_eq!(soc.core(0).reg(Reg::R6), 21);
}

#[test]
fn delay_fault_extension_is_detected_only_with_back_to_back_execution() {
    // The paper's §V outlook: delay defects need test patterns applied in
    // a timed sequence — which only the cache-wrapped execution provides.
    let kind = CoreKind::A;
    let factory = routines_for(Unit::Forwarding);
    let faults = delay_fault_list(kind).sample(24);
    let cached = Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("cached experiment");
    let golden = cached.golden();
    let fc_cached = run_campaign_detailed(&cached, &golden, &faults, 0).0.coverage();
    let uncached = Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::LegacyUncached,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("uncached experiment");
    let golden = uncached.golden();
    let fc_uncached = run_campaign_detailed(&uncached, &golden, &faults, 0).0.coverage();
    assert!(
        fc_cached > fc_uncached,
        "delay-fault coverage needs timed back-to-back excitation: \
         cached {fc_cached:.1}% vs uncached {fc_uncached:.1}%"
    );
}

#[test]
fn mixed_stl_with_icu_routine_runs_under_the_scheduler() {
    use det_sbst::stl::sched::{build_stl_program, CoreStl, DONE_BASE};
    let wrap = WrapConfig::default();
    let mut builder = SocBuilder::new();
    for core in 0..3usize {
        let kind = CoreKind::ALL[core];
        let env = RoutineEnv {
            result_addr: det_sbst::mem::SRAM_BASE + 0x2000 + 0x100 * core as u32,
            data_base: det_sbst::mem::SRAM_BASE + 0x5000 + 0x400 * core as u32,
            ..RoutineEnv::for_core(kind)
        };
        let stl = CoreStl::new(
            vec![
                Box::new(IcuTest::with_rounds(2)),
                Box::new(GenericAluTest::new(2)),
                Box::new(ForwardingTest::without_pcs(kind)),
            ],
            env,
        );
        let asm = build_stl_program(core, 3, &stl, &[], None, &wrap);
        let base = 0x2000 + 0x40000 * core as u32;
        builder = builder
            .load(&asm.assemble(base).expect("assembles"))
            .core(CoreConfig::cached(kind, core, base), core as u32 * 11);
    }
    let mut soc = builder.build();
    let outcome = soc.run(60_000_000);
    assert!(outcome.is_clean(), "{outcome:?}");
    for core in 0..3usize {
        assert_eq!(soc.peek(DONE_BASE + 4 * core as u32), 1, "core {core}");
    }
}

#[test]
fn known_undetectable_fault_stays_undetected() {
    // The routine's mask-toggle phase only exercises the *overflow* mask
    // bit; the mul-overflow mask stays enabled throughout, so a
    // stuck-at-1 on that already-1 bit is untestable by this routine —
    // the campaign must NOT count it. (The overflow mask bit, by
    // contrast, IS covered since the routine toggles it.)
    let factory = routines_for(Unit::Icu);
    let exp = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario::single_core(),
    )
    .expect("experiment");
    let golden = exp.golden();
    let list = unit_fault_list(CoreKind::A, Unit::Icu);
    let site_of = |cause: u8, polarity| {
        list.iter()
            .find(|s| {
                matches!(s.element,
                    det_sbst::fault::Element::MaskBit { cause: c } if c == cause)
                    && s.polarity == polarity
            })
            .copied()
            .expect("site exists")
    };
    let sa1 = det_sbst::fault::Polarity::StuckAt1;
    assert_eq!(
        exp.test_fault(&golden, site_of(1, sa1)),
        Verdict::Undetected,
        "never-toggled mask bit"
    );
    assert!(
        exp.test_fault(&golden, site_of(0, sa1)).is_detected(),
        "the toggled overflow mask bit is covered by the mask phase"
    );
}
