//! Diagnostic: where are a routine's coverage holes? Buckets the graded
//! faults by gate category for each unit under the cache-based wrapper.
//!
//! Usage: `coverage_holes [quick|standard]`

use sbst_campaign::tables::{cli_mode, Effort};
use sbst_campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment,
                    summarize_by_category};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::Unit;
use sbst_soc::Scenario;

fn main() {
    let effort = match cli_mode(&["quick", "standard"]) {
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    for unit in [Unit::Forwarding, Unit::Hdcu, Unit::Icu] {
        let kind = CoreKind::A;
        let factory = routines_for(unit);
        let exp = Experiment::assemble(
            &*factory,
            kind,
            ExecStyle::CacheWrapped,
            &Scenario { active_cores: 3, ..Scenario::single_core() },
        )
        .expect("experiment");
        let golden = exp.golden();
        let faults = effort.sample(&unit_fault_list(kind, unit));
        let (agg, records) = run_campaign_detailed(&exp, &golden, &faults, 0);
        println!("== {unit} (core {kind}, cache-wrapped): {agg}");
        for (category, detected, total) in summarize_by_category(&records) {
            println!(
                "   {category:<22} {detected:>4}/{total:<4} ({:>5.1}%)",
                100.0 * detected as f64 / total.max(1) as f64
            );
        }
        println!();
    }
}
