//! The observability layer's headline contract: **attaching it never
//! changes behaviour**. Signatures, verdicts, registers, memory and
//! cycle counts are bit-identical with observation on or off — over
//! random programs, random contention and random transient upsets.
//!
//! This is the property that makes the metrics trustworthy: a probe
//! that perturbs the system measures only itself.

use proptest::prelude::*;

use det_sbst::cpu::{CoreConfig, CoreKind};
use det_sbst::isa::{AluOp, Asm, Reg};
use det_sbst::mem::{InjectorProgram, SeuConfig, SRAM_BASE};
use det_sbst::soc::{ChaosConfig, SocBuilder};
use det_sbst::stl::routines::{GenericAluTest, IcuTest, LsuTest};
use det_sbst::stl::StlCatalog;

const BASE: u32 = 0x400;

/// A small random program: seeded ALU soup over a bounded countdown
/// loop plus store/load traffic — terminates by construction.
fn program(seed: u64, len: usize, scratch: u32) -> Asm {
    let ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::Or, AluOp::Mul, AluOp::Sll];
    let mut a = Asm::new();
    let mut x = seed | 1;
    let mut draw = |n: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize % n
    };
    for i in 1..12 {
        a.li(Reg::from_index(i), (i as u32).wrapping_mul(0x9e37_79b9));
    }
    a.li(Reg::R15, scratch);
    a.li(Reg::R14, 3); // loop counter
    a.label("top");
    for _ in 0..len {
        a.alu(
            ops[draw(ops.len())],
            Reg::from_index(1 + draw(11)),
            Reg::from_index(1 + draw(11)),
            Reg::from_index(1 + draw(11)),
        );
        if draw(4) == 0 {
            let off = (draw(16) as i16) * 4;
            a.sw(Reg::from_index(1 + draw(11)), Reg::R15, off);
            a.lw(Reg::from_index(1 + draw(11)), Reg::R15, off);
        }
    }
    a.subi(Reg::R14, Reg::R14, 1);
    a.bne(Reg::R14, Reg::R0, "top");
    a.halt();
    a
}

/// Builds the three-core contended SoC for one case; `observe` toggles
/// the layer under test, everything else is identical.
fn build(programs: &[det_sbst::isa::Program], chaos: ChaosConfig, observe: bool) -> det_sbst::soc::Soc {
    let mut b = SocBuilder::new();
    for p in programs {
        b = b.load(p);
    }
    for (i, kind) in CoreKind::ALL.iter().enumerate() {
        let reset = BASE + (i as u32) * 0x10000;
        let cfg = if i == 1 {
            CoreConfig::uncached(*kind, i, reset)
        } else {
            CoreConfig::cached(*kind, i, reset)
        };
        b = b.core(cfg, (i as u32) * 3);
    }
    b = b.chaos(chaos);
    if observe {
        b = b.observe();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: a three-core SoC under adversarial bus
    /// traffic *and* transient upsets produces bit-identical
    /// architectural state, cycle counts and SEU logs whether or not
    /// the observability layer is attached — and the observed run's
    /// metrics agree with the SoC's own counters.
    #[test]
    fn observation_is_behaviour_neutral(
        seed in any::<u64>(),
        len in 4usize..40,
        inj_seed in any::<u64>(),
        seu_rate in 0u32..300,
    ) {
        let programs: Vec<det_sbst::isa::Program> = (0..3)
            .map(|i| {
                program(
                    seed ^ (i as u64).wrapping_mul(0xabcd_ef01),
                    len,
                    SRAM_BASE + 0x200 + 0x100 * i as u32,
                )
                .assemble(BASE + (i as u32) * 0x10000)
                .expect("assembles")
            })
            .collect();
        let chaos = ChaosConfig {
            injector: InjectorProgram::from_seed(inj_seed),
            seu: if seu_rate == 0 {
                SeuConfig::off()
            } else {
                SeuConfig::at_rate(inj_seed ^ seed, seu_rate)
            },
        };

        let mut plain = build(&programs, chaos, false);
        let mut observed = build(&programs, chaos, true);
        prop_assert!(plain.metrics().is_none(), "no metrics without the layer");

        // Generous for these short programs, yet cheap enough that an
        // SEU-induced hang (watchdog outcome — still compared equal)
        // doesn't dominate the suite's runtime.
        let budget = 2_000_000;
        let outcome_plain = plain.run(budget);
        let outcome_observed = observed.run(budget);
        prop_assert_eq!(outcome_plain, outcome_observed, "outcome must not move");
        prop_assert_eq!(plain.cycle(), observed.cycle(), "cycle count must not move");
        for core in 0..3 {
            prop_assert_eq!(
                plain.core(core).regs(), observed.core(core).regs(),
                "core {} registers must not move", core
            );
        }
        for off in (0..0x400u32).step_by(4) {
            let addr = SRAM_BASE + 0x200 + off;
            prop_assert_eq!(plain.peek(addr), observed.peek(addr), "memory must not move");
        }
        prop_assert_eq!(plain.seu_events(), observed.seu_events(), "SEU log must not move");

        // The metrics the observed run collected must agree with the
        // simulator's own statistics — observation reports, it never
        // invents.
        let stats = observed.bus().stats().clone();
        let metrics = observed.metrics().expect("metrics attached");
        prop_assert_eq!(metrics.cycles, observed.cycle());
        prop_assert_eq!(metrics.bus.transactions, stats.transactions);
        prop_assert_eq!(metrics.bus.busy_cycles, stats.busy_cycles);
        for (p, port) in metrics.bus.ports.iter().enumerate() {
            prop_assert_eq!(port.grants, stats.grants[p]);
            prop_assert_eq!(port.wait_cycles, stats.wait_cycles[p]);
            prop_assert_eq!(port.max_grant_wait, stats.max_grant_wait[p]);
        }
        for (i, core) in metrics.cores.iter().enumerate() {
            let counters = observed.core(i).counters();
            prop_assert_eq!(core.counters.cycles, counters.cycles);
            prop_assert_eq!(core.counters.retired, counters.retired);
        }
        prop_assert_eq!(metrics.seu_strikes, observed.seu_events().len() as u64);
        prop_assert_eq!(metrics.seu_landed, observed.seu_landed() as u64);
    }
}

/// The boot-time STL catalog gives the same verdicts observed and
/// unobserved — the user-facing form of the neutrality property.
#[test]
fn catalog_verdicts_unmoved_by_observation() {
    let mut catalog = StlCatalog::new();
    catalog.add("A/alu", 0, Box::new(GenericAluTest::new(2)));
    catalog.add("B/lsu", 1, Box::new(LsuTest::new()));
    catalog.add("C/icu", 2, Box::new(IcuTest::new()));
    let image = catalog.build().expect("catalog builds");

    let plain = image.run(120_000_000);
    let (observed, metrics) = image.run_observed(120_000_000);

    assert_eq!(plain.outcome, observed.outcome);
    let collect = |r: &det_sbst::stl::BootReport| {
        let mut v: Vec<(String, String)> =
            r.iter().map(|(n, verdict)| (n.to_string(), format!("{verdict:?}"))).collect();
        v.sort();
        v
    };
    assert_eq!(collect(&plain), collect(&observed), "verdicts must not move");
    assert!(plain.all_passed() && observed.all_passed());

    // The observed run actually recorded something useful.
    assert!(metrics.cycles > 0);
    assert_eq!(metrics.cores.len(), 3);
    assert!(!metrics.events.is_empty());
    assert!(metrics.cores.iter().any(|c| c.counters.retired > 0));
}
