//! Extension experiment (paper §V): transition/small-delay defects on
//! the forwarding datapath "require test patterns applied in a timed
//! sequence" — so their coverage separates the cache-based execution
//! (back-to-back, timed) from the legacy uncached execution even more
//! sharply than stuck-at faults do.
//!
//! Usage: `delay_faults [quick|standard]`

use sbst_campaign::tables::Effort;
use sbst_campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
use sbst_cpu::{delay_fault_list, CoreKind};
use sbst_fault::Unit;
use sbst_soc::Scenario;

fn main() {
    let effort = match std::env::args().nth(1).as_deref() {
        Some("standard") => Effort::standard(),
        _ => Effort::quick(),
    };
    println!("DELAY-FAULT EXTENSION — FORWARDING DATAPATH (paper §V outlook)");
    println!("Core | Delay faults | FC legacy uncached [%] | FC cache-wrapped [%]");
    let factory = routines_for(Unit::Forwarding);
    for kind in CoreKind::ALL {
        let list = delay_fault_list(kind);
        let sample = effort.sample(&list);
        let scenario = Scenario { active_cores: 3, ..Scenario::single_core() };
        let uncached =
            Experiment::assemble(&*factory, kind, ExecStyle::LegacyUncached, &scenario)
                .expect("uncached experiment");
        let golden = uncached.golden();
        let fc_uncached =
            run_campaign_detailed(&uncached, &golden, &sample, effort.threads).0.coverage();
        let cached = Experiment::assemble(&*factory, kind, ExecStyle::CacheWrapped, &scenario)
            .expect("cached experiment");
        let golden = cached.golden();
        let fc_cached =
            run_campaign_detailed(&cached, &golden, &sample, effort.threads).0.coverage();
        println!(
            "{:>4} | {:>12} | {:>22.2} | {:>20.2}",
            kind,
            list.len(),
            fc_uncached,
            fc_cached
        );
    }
    println!("\n(stuck-at grading of the same unit: see `table2`)");
}
