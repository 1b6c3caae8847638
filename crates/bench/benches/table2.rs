//! Criterion bench for the Table II unit of work: one uncached-sweep
//! scenario campaign plus one cache-wrapped campaign over a fault
//! sample (the full table is regenerated by the `table2` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use sbst_campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::Unit;
use sbst_soc::Scenario;

fn bench_table2(c: &mut Criterion) {
    let kind = CoreKind::A;
    let faults = unit_fault_list(kind, Unit::Forwarding).sample(200);
    let factory = routines_for(Unit::Forwarding);
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);

    let uncached = Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::LegacyUncached,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment");
    let golden = uncached.golden();
    g.bench_function("uncached_scenario_campaign", |b| {
        b.iter(|| run_campaign_detailed(&uncached, &golden, &faults, 0).0)
    });

    let cached = Experiment::assemble(
        &*factory,
        kind,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("experiment");
    let golden = cached.golden();
    g.bench_function("cached_campaign", |b| {
        b.iter(|| run_campaign_detailed(&cached, &golden, &faults, 0).0)
    });
    g.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
