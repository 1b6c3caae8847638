//! Chaos-layer demo: adversarial bus interference and transient upsets
//! against the cache-wrapped runtime.
//!
//! Three acts:
//!
//! 1. a programmable traffic injector hammers the shared bus — the
//!    legacy (unwrapped) signature moves, the cache-wrapped one does
//!    not;
//! 2. seeded single-event upsets corrupt cached lines / in-flight bus
//!    words — the self-healing wrapper cross-checks the signature and
//!    retries on a fresh SoC, escalating to quarantine only when every
//!    attempt is struck;
//! 3. a small chaos campaign sweeps injector intensity × SEU rate and
//!    reports detection / recovery / false-quarantine statistics.
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use det_sbst::campaign::{run_chaos_campaign, ChaosSweepConfig};
use det_sbst::cpu::CoreKind;
use det_sbst::fault::FaultPlane;
use det_sbst::mem::{InjectorProgram, SeuConfig};
use det_sbst::soc::ChaosConfig;
use det_sbst::stl::routines::ForwardingTest;
use det_sbst::stl::{
    derive_cycle_budget, heal_standalone, run_chaotic, run_standalone, wrap_cached, HealConfig,
    RoutineEnv, WrapConfig,
};

const KIND: CoreKind = CoreKind::A;
const BASE: u32 = 0x1000;

fn main() {
    let routine = ForwardingTest::with_pcs(KIND);
    let env = RoutineEnv::for_core(KIND);
    let wrapped = wrap_cached(&routine, &env, &WrapConfig::default(), "chaos").expect("wraps");
    let legacy_cfg = WrapConfig {
        iterations: 1,
        invalidate: false,
        icache_capacity: u32::MAX,
        ..WrapConfig::default()
    };
    let unwrapped = wrap_cached(&routine, &env, &legacy_cfg, "legacy").expect("wraps");
    let budget_w = derive_cycle_budget(&wrapped);
    let budget_u = derive_cycle_budget(&unwrapped);

    // Act 1 — interference invariance.
    let solo_w =
        run_standalone(&wrapped, &env, KIND, true, BASE, FaultPlane::fault_free(), budget_w);
    let solo_u =
        run_standalone(&unwrapped, &env, KIND, false, BASE, FaultPlane::fault_free(), budget_u);
    println!("forwarding routine (stall counters folded into the signature)");
    println!("  solo baselines: wrapped {:#010x}, legacy {:#010x}\n", solo_w.signature,
             solo_u.signature);
    println!("adversarial traffic injector on the shared bus:");
    println!("  program              | legacy signature | wrapped signature");
    let mut diverged = 0;
    for seed in 0..5u64 {
        let prog = InjectorProgram::from_seed(seed);
        let chaos = ChaosConfig::interference(prog);
        let u = run_chaotic(&unwrapped, &env, KIND, false, BASE, chaos, budget_u);
        let w = run_chaotic(&wrapped, &env, KIND, true, BASE, chaos, budget_w);
        let moved = if u.signature != solo_u.signature { diverged += 1; "MOVED" } else { "same " };
        println!("  {:20} | {:#010x} {moved} | {:#010x}", format!("{:?}", prog.pattern),
                 u.signature, w.signature);
        assert_eq!(w.signature, solo_w.signature, "wrapped signature must be invariant");
    }
    println!("=> the wrapper kept its signature bit-identical under all {diverged} diverging programs\n");

    // Act 2 — self-healing under transient upsets.
    println!("transient upsets (SEU) at 1000 ppm, golden-checked healer:");
    for seed in 0..8u64 {
        let chaos = ChaosConfig {
            injector: InjectorProgram::from_seed(seed),
            seu: SeuConfig::at_rate(seed ^ 0xbeef, 1_000),
        };
        let report = heal_standalone(
            &routine, &env, &WrapConfig::default(), KIND, BASE, chaos,
            &HealConfig::golden(solo_w.signature),
        )
        .expect("wraps");
        println!("  seed {seed:2}: {report}");
        if let Some(sig) = report.signature {
            assert_eq!(sig, solo_w.signature, "healer must never trust a corrupted signature");
        }
    }
    println!("=> every trusted signature equals the golden; disturbed runs retry or escalate\n");

    // Act 3 — the chaos campaign.
    println!("chaos campaign (smoke sweep):");
    let report = run_chaos_campaign(&ChaosSweepConfig::smoke(0xc4a0)).expect("campaign");
    println!("{report}");
    assert_eq!(report.silent_total(), 0, "silent corruption must be impossible");
    assert_eq!(report.false_quarantines(), 0, "no quarantine without transients");
    println!("=> zero silent corruptions, zero false quarantines");
}
