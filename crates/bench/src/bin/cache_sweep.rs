//! Cache-capacity study (beyond the paper): how does the method behave
//! as the instruction cache shrinks below / grows beyond the routine?
//! With a too-small I$ the routine must split (paper §III.2.2); the
//! method stays deterministic at every size, and coverage is preserved.
//!
//! Usage: `cache_sweep [quick|standard]`

use sbst_campaign::tables::{cli_mode, Effort};
use sbst_campaign::{
    routines_for, run_campaign_detailed, ExecStyle, Experiment, ExperimentConfig,
};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::Unit;
use sbst_mem::{CacheConfig, WritePolicy};
use sbst_soc::Scenario;

fn main() {
    let effort = match cli_mode(&["quick", "standard"]) {
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    let kind = CoreKind::A;
    let factory = routines_for(Unit::Forwarding);
    let faults = effort.sample(&unit_fault_list(kind, Unit::Forwarding));
    println!("CACHE-CAPACITY STUDY — forwarding routine, core {kind}, 3 active cores");
    println!("I$ size | Deterministic | FC [%] | Cycles (golden)");
    for size_kb in [2u32, 4, 8, 16] {
        let icache = CacheConfig {
            size_bytes: size_kb * 1024,
            ways: 2,
            line_bytes: 32,
            policy: WritePolicy::WriteAllocate,
        };
        let mut sigs = Vec::new();
        let mut fc = 0.0;
        let mut cycles = 0;
        for seed in 0..effort.seeds.max(2) {
            let config = ExperimentConfig {
                icache,
                ..ExperimentConfig::new(
                    kind,
                    ExecStyle::CacheWrapped,
                    Scenario { active_cores: 3, skew_seed: seed, ..Scenario::single_core() },
                )
            };
            let exp = Experiment::assemble_config(&*factory, &config)
                .expect("experiment (splits when the routine exceeds the I$)");
            let golden = exp.golden();
            sigs.push(golden.signature);
            if seed == 0 {
                cycles = golden.cycles;
                fc = run_campaign_detailed(&exp, &golden, &faults, effort.threads).0.coverage();
            }
        }
        sigs.dedup();
        println!(
            "{size_kb:>5}K | {:>13} | {fc:>6.2} | {cycles:>7}",
            if sigs.len() == 1 { "YES" } else { "no" }
        );
    }
}
