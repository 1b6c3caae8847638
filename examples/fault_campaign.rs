//! A small forwarding-logic fault campaign: grades a sample of stuck-at
//! faults across a few uncached multi-core scenarios (coverage
//! oscillates) and under the cache-based wrapper (stable, higher).
//!
//! ```sh
//! cargo run --release --example fault_campaign
//! ```

use det_sbst::campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
use det_sbst::cpu::{unit_fault_list, CoreKind};
use det_sbst::fault::Unit;
use det_sbst::soc::Scenario;

fn main() {
    let kind = CoreKind::A;
    let faults = unit_fault_list(kind, Unit::Forwarding).sample(40);
    let factory = routines_for(Unit::Forwarding);
    println!(
        "grading {} of {} forwarding faults on core {kind}\n",
        faults.len(),
        unit_fault_list(kind, Unit::Forwarding).len()
    );

    println!("legacy execution (no caches), 3 cores, varying SoC configuration:");
    let (mut min, mut max) = (f64::MAX, f64::MIN);
    for seed in 0..4u64 {
        let scenario = Scenario { active_cores: 3, skew_seed: seed, ..Scenario::single_core() };
        let exp = Experiment::assemble(&*factory, kind, ExecStyle::LegacyUncached, &scenario)
            .expect("experiment");
        let golden = exp.golden();
        let res = run_campaign_detailed(&exp, &golden, &faults, 0).0;
        println!("  config #{seed}: {res}");
        min = min.min(res.coverage());
        max = max.max(res.coverage());
    }
    println!("  -> coverage oscillates between {min:.2}% and {max:.2}%\n");

    println!("cache-based wrapper, same contention:");
    let scenario = Scenario { active_cores: 3, ..Scenario::single_core() };
    let exp = Experiment::assemble(&*factory, kind, ExecStyle::CacheWrapped, &scenario)
        .expect("experiment");
    let golden = exp.golden();
    let res = run_campaign_detailed(&exp, &golden, &faults, 0).0;
    println!("  {res}");
    println!(
        "\n=> deterministic {:.2}% — higher than the best uncached scenario ({max:.2}%)",
        res.coverage()
    );
}
