//! Criterion bench for the Table III unit of work: ICU and HDCU
//! campaigns in both configurations (the full table is regenerated by
//! the `table3` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sbst_campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::Unit;
use sbst_soc::Scenario;

fn bench_table3(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3");
    g.sample_size(10);
    for unit in [Unit::Icu, Unit::Hdcu] {
        let kind = CoreKind::A;
        let faults = unit_fault_list(kind, unit).sample(4);
        let factory = routines_for(unit);
        for (name, style, scenario) in [
            ("single_uncached", ExecStyle::LegacyUncached, Scenario::single_core()),
            (
                "multi_cached",
                ExecStyle::CacheWrapped,
                Scenario { active_cores: 3, ..Scenario::single_core() },
            ),
        ] {
            let exp =
                Experiment::assemble(&*factory, kind, style, &scenario).expect("experiment");
            let golden = exp.golden();
            g.bench_with_input(
                BenchmarkId::new(format!("{unit}"), name),
                &(),
                |b, ()| b.iter(|| run_campaign_detailed(&exp, &golden, &faults, 0).0),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_table3);
criterion_main!(benches);
