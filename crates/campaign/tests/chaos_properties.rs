//! The chaos layer's headline properties.
//!
//! 1. **Interference invariance** — for *any* injector program (and no
//!    SEU), the cache-wrapped execution-loop signature is bit-identical
//!    to the solo-run signature: the paper's determinism claim holds
//!    under adversarial bus traffic, not just under the paper's own
//!    scenarios.
//! 2. **Divergence control** — the same routine executed the legacy
//!    (unwrapped, uncached) way *does* move its signature under that
//!    traffic: the invariance above is earned by the wrapper, not an
//!    artifact of an insensitive routine.
//! 3. **Never silent** — with transient upsets enabled, the
//!    self-healing wrapper either produces the golden signature
//!    (clean or recovered) or escalates to quarantine. It never hands
//!    back a corrupted signature as trusted.

use std::sync::OnceLock;

use proptest::prelude::*;
use sbst_cpu::{CoreConfig, CoreKind};
use sbst_fault::FaultPlane;
use sbst_isa::Asm;
use sbst_mem::{ArbiterKind, InjectorProgram, SeuConfig};
use sbst_soc::{ChaosConfig, SocBuilder};
use sbst_stl::routines::ForwardingTest;
use sbst_stl::{
    derive_cycle_budget, run_chaotic, run_self_healing, run_standalone, wrap_cached, CheckMode,
    HealAction, HealConfig, RoutineEnv, WrapConfig, RESULT_SIG_OFF,
};

const KIND: CoreKind = CoreKind::A;
const BASE: u32 = 0x1000;

struct Fixture {
    env: RoutineEnv,
    wrapped: Asm,
    unwrapped: Asm,
    budget_wrapped: u64,
    budget_unwrapped: u64,
    solo_wrapped: u32,
    solo_unwrapped: u32,
}

/// The counter-sensitive forwarding routine (signature folds stall
/// counters), wrapped and legacy, plus both solo baselines.
fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let routine = ForwardingTest::with_pcs(KIND);
        let env = RoutineEnv::for_core(KIND);
        let wrapped =
            wrap_cached(&routine, &env, &WrapConfig::default(), "chaosp").expect("wraps");
        let legacy_cfg = WrapConfig {
            iterations: 1,
            invalidate: false,
            icache_capacity: u32::MAX,
            ..WrapConfig::default()
        };
        let unwrapped = wrap_cached(&routine, &env, &legacy_cfg, "legacy").expect("wraps");
        let budget_wrapped = derive_cycle_budget(&wrapped);
        let budget_unwrapped = derive_cycle_budget(&unwrapped);
        let solo_wrapped = run_standalone(
            &wrapped, &env, KIND, true, BASE, FaultPlane::fault_free(), budget_wrapped,
        );
        assert!(solo_wrapped.outcome.is_clean());
        let solo_unwrapped = run_standalone(
            &unwrapped, &env, KIND, false, BASE, FaultPlane::fault_free(), budget_unwrapped,
        );
        assert!(solo_unwrapped.outcome.is_clean());
        Fixture {
            env,
            wrapped,
            unwrapped,
            budget_wrapped,
            budget_unwrapped,
            solo_wrapped: solo_wrapped.signature,
            solo_unwrapped: solo_unwrapped.signature,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Property 1: any injector program, zero SEU — the wrapped
    /// signature equals the solo signature, bit for bit.
    #[test]
    fn wrapped_signature_is_invariant_under_any_injector_program(seed in any::<u64>()) {
        let fx = fixture();
        let chaos = ChaosConfig::interference(InjectorProgram::from_seed(seed));
        let r = run_chaotic(
            &fx.wrapped, &fx.env, KIND, true, BASE, chaos, fx.budget_wrapped,
        );
        prop_assert!(r.outcome.is_clean(), "program {seed:#x} broke the run: {:?}", r.outcome);
        prop_assert_eq!(
            r.signature, fx.solo_wrapped,
            "program {:#x} leaked into the wrapped signature", seed
        );
    }

    /// Property 4 (certification): for *any* injector program and every
    /// arbiter, the wrapped signature stays bit-identical to the solo
    /// golden — and on the certifiable arbiters (round-robin, TDMA) the
    /// observed per-port grant wait never exceeds the analytical
    /// certificate from `BoundParams`. Fixed-priority runs with the
    /// core on the top of the chain (ascending), since a starved core
    /// would simply hang; its ports carry no finite certificate, so
    /// only the signature invariant applies there.
    #[test]
    fn signature_and_bound_hold_on_every_arbiter(seed in any::<u64>()) {
        let fx = fixture();
        let program = fx.wrapped.assemble(BASE).expect("assembles");
        let arbiters = [
            ArbiterKind::RoundRobin,
            ArbiterKind::tdma(),
            ArbiterKind::FixedPriority { ascending: true },
        ];
        for arbiter in arbiters {
            let chaos = ChaosConfig::interference(InjectorProgram::from_seed(seed));
            let mut soc = SocBuilder::new()
                .load(&program)
                .core(CoreConfig::cached(KIND, 0, BASE), 0)
                .arbiter(arbiter)
                .chaos(chaos)
                .build();
            // TDMA slices the bus three ways, so give the solo budget
            // generous contention headroom.
            let outcome = soc.run(fx.budget_wrapped * 12);
            prop_assert!(
                outcome.is_clean(),
                "program {seed:#x} broke the run on {}: {outcome:?}",
                arbiter.name()
            );
            let sig = soc.peek(fx.env.result_addr + RESULT_SIG_OFF as u32);
            prop_assert_eq!(
                sig, fx.solo_wrapped,
                "program {:#x} leaked into the signature on {}", seed, arbiter.name()
            );
            if !matches!(arbiter, ArbiterKind::FixedPriority { .. }) {
                let stats = soc.bus().stats();
                let params = soc.bus().bound_params();
                for (port, &observed) in stats.max_grant_wait.iter().enumerate() {
                    let bound = params.per_access_wcl(port);
                    prop_assert!(
                        bound.admits(observed),
                        "program {:#x}, {}: port {} waited {} > certified {}",
                        seed, arbiter.name(), port, observed, bound
                    );
                }
            }
        }
    }
}

/// Property 2: the unwrapped signature is *not* invariant — adversarial
/// traffic moves it for a large share of the very same programs.
#[test]
fn unwrapped_signature_diverges_under_interference() {
    let fx = fixture();
    let mut diverged = 0usize;
    const PROGRAMS: u64 = 100;
    for seed in 0..PROGRAMS {
        let chaos = ChaosConfig::interference(InjectorProgram::from_seed(seed));
        let r = run_chaotic(
            &fx.unwrapped, &fx.env, KIND, false, BASE, chaos, fx.budget_unwrapped,
        );
        assert!(r.outcome.is_clean(), "program {seed} broke the legacy run: {:?}", r.outcome);
        if r.signature != fx.solo_unwrapped {
            diverged += 1;
        }
    }
    assert!(
        diverged > 0,
        "no injector program moved the unwrapped signature — the control is broken"
    );
    // The saturating pattern specifically must perturb the counters.
    let r = run_chaotic(
        &fx.unwrapped,
        &fx.env,
        KIND,
        false,
        BASE,
        ChaosConfig::interference(InjectorProgram::saturate(1)),
        fx.budget_unwrapped,
    );
    assert_ne!(
        r.signature, fx.solo_unwrapped,
        "bus saturation must move the legacy signature"
    );
    println!("unwrapped divergence: {diverged}/{PROGRAMS} programs");
}

/// Property 3: with SEU enabled the healer recovers or escalates —
/// a trusted signature is always the golden one, and a quarantine never
/// carries a signature.
#[test]
fn seu_runs_are_never_silently_corrupt() {
    let fx = fixture();
    let mut disturbed = 0usize;
    let mut recovered = 0usize;
    let mut quarantined = 0usize;
    for seed in 0..30u64 {
        // Two regimes: a moderate rate (a couple of strikes per run)
        // where retries usually heal, and a saturating rate where every
        // attempt is struck and escalation is the only honest outcome.
        let rate = if seed < 15 { 1_000 } else { 8_000 };
        let chaos = ChaosConfig {
            injector: InjectorProgram::from_seed(seed),
            seu: SeuConfig::at_rate(seed ^ 0x5e0_dead, rate),
        };
        let heal = HealConfig {
            max_retries: 2,
            check: if seed % 2 == 0 {
                CheckMode::Golden(fx.solo_wrapped)
            } else {
                CheckMode::Vote
            },
        };
        let report = run_self_healing(&heal, |attempt| {
            run_chaotic(
                &fx.wrapped, &fx.env, KIND, true, BASE,
                chaos.for_attempt(attempt), fx.budget_wrapped,
            )
        });
        match report.action {
            HealAction::Clean => {}
            HealAction::Recovered { .. } => {
                disturbed += 1;
                recovered += 1;
            }
            HealAction::Quarantine { .. } => {
                disturbed += 1;
                quarantined += 1;
            }
        }
        // The invariant: a trusted signature is the golden signature.
        match report.signature {
            Some(sig) => assert_eq!(
                sig, fx.solo_wrapped,
                "seed {seed}: healer trusted a corrupted signature"
            ),
            None => assert!(
                report.quarantined(),
                "seed {seed}: no signature but no quarantine either"
            ),
        }
    }
    // A sweep where nothing was disturbed, nothing healed or nothing
    // escalated tests nothing — all three legs must have engaged.
    assert!(disturbed > 0, "no trial was disturbed — SEU plane inert");
    assert!(recovered > 0, "no trial recovered — the healing path never engaged");
    assert!(quarantined > 0, "no trial escalated — the quarantine path never engaged");
    println!("seu sweep: {disturbed}/30 disturbed, {recovered} recovered, {quarantined} quarantined");
}
