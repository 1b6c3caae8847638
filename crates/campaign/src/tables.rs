//! Regeneration of the paper's Tables I–IV.

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_fault::Unit;
use sbst_soc::{Scenario, SocBuilder};
use sbst_stl::routines::{BranchTest, GenericAluTest, IcuTest, LsuTest, RegFileTest};
use sbst_stl::sched::{build_stl_program, CoreStl, SchedLayout};
use sbst_stl::{wrap_tcm, RoutineEnv, WrapConfig};

use crate::experiment::{Experiment, ExecStyle};
use crate::faultsim::run_campaign_collapsed;
use crate::routines_for;

/// How much work to spend on a sweep (tests use tiny presets, the
/// table binaries `quick()` by default and `standard()` on request;
/// `full()` grades every fault).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Grade at most this many faults per fault list (evenly sampled).
    pub max_faults: usize,
    /// Number of sweep scenarios (subsampled from the full cross
    /// product) for the min–max columns.
    pub sweep_scenarios: usize,
    /// Phase-skew seeds per configuration (Table I averaging, sweep).
    pub seeds: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Effort {
    /// Quick preset (CI tests).
    pub fn quick() -> Effort {
        Effort { max_faults: 150, sweep_scenarios: 4, seeds: 2, threads: 0 }
    }

    /// Standard preset: the table binaries' `standard` mode (minutes).
    pub fn standard() -> Effort {
        Effort { max_faults: 800, sweep_scenarios: 9, seeds: 3, threads: 0 }
    }

    /// Grade everything (the paper's setting; slow).
    pub fn full() -> Effort {
        Effort { max_faults: usize::MAX, sweep_scenarios: 18, seeds: 5, threads: 0 }
    }

    /// Even sampling of `list` respecting the budget.
    ///
    /// The stride is forced odd: fault lists enumerate the two
    /// polarities of each pin adjacently, so an even stride would grade
    /// only stuck-at-0 faults.
    pub fn sample(&self, list: &sbst_fault::FaultList) -> sbst_fault::FaultList {
        let stride = list.len().div_ceil(self.max_faults.max(1)).max(1);
        let stride = if stride > 1 && stride.is_multiple_of(2) { stride + 1 } else { stride };
        list.sample(stride)
    }
}

/// A table binary's mode from its arguments: none is `quick`, else
/// exactly one of `modes`. An unknown mode or a second argument is
/// `None`.
fn parse_mode<'m>(args: &[String], modes: &[&'m str]) -> Option<&'m str> {
    match args {
        [] => modes.iter().copied().find(|&m| m == "quick"),
        [arg] => modes.iter().copied().find(|m| m == arg),
        _ => None,
    }
}

/// Reads a table binary's one optional argument, its mode, from this
/// process's command line: none is `quick`, else exactly one of
/// `modes`. On an unknown mode or a second argument it prints the usage
/// and exits with status 2, before any sweep runs.
pub fn cli_mode(modes: &[&'static str]) -> &'static str {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_mode(&args, modes).unwrap_or_else(|| {
        let name = std::path::Path::new(&bin).file_name().map_or(bin.clone(), |n| {
            n.to_string_lossy().into_owned()
        });
        eprintln!("usage: {name} [{}]", modes.join("|"));
        std::process::exit(2)
    })
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One row of Table I: stall cycles vs number of active cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Active cores.
    pub active_cores: usize,
    /// Fetch-stall cycles (sum over active cores, averaged over seeds).
    pub if_stalls: u64,
    /// Memory-stage stall cycles.
    pub mem_stalls: u64,
}

/// Reproduces Table I: the full STL (ICU/HDCU programs excluded, as in
/// the paper) executed in parallel on 1/2/3 cores through the
/// decentralized scheduler, stalls measured per core and summed.
pub fn table1(effort: &Effort) -> Vec<Table1Row> {
    let layout = SchedLayout::default();
    let wrap = WrapConfig {
        iterations: 1,
        invalidate: false,
        icache_capacity: u32::MAX,
        ..WrapConfig::default()
    };
    let mut rows = Vec::new();
    for active in 1..=3usize {
        let (mut if_sum, mut mem_sum) = (0u64, 0u64);
        for seed in 0..effort.seeds.max(1) {
            let scenario = Scenario {
                active_cores: active,
                skew_seed: seed,
                ..Scenario::single_core()
            };
            let delays = scenario.start_delays();
            let mut builder = SocBuilder::new();
            #[allow(clippy::needless_range_loop)] // `core` indexes three arrays
            for core in 0..active {
                let kind = CoreKind::ALL[core];
                let env = RoutineEnv {
                    result_addr: sbst_mem::SRAM_BASE + 0x100 + 0x100 * core as u32,
                    data_base: sbst_mem::SRAM_BASE + 0x4000 + 0x800 * core as u32,
                    ..RoutineEnv::for_core(kind)
                };
                // The STL: generic boot-time routines of varying length
                // (the seed perturbs the mix — "initial SoC config").
                let stl = CoreStl {
                    routines: vec![
                        Box::new(RegFileTest::new()),
                        Box::new(GenericAluTest::new(6 + core as u32)),
                        Box::new(BranchTest::new()),
                        Box::new(LsuTest { rounds: 2 + seed as u32 % 2 }),
                        Box::new(GenericAluTest::new(5)),
                    ],
                    env,
                    watchdog: None,
                };
                let asm = build_stl_program(core, active as u32, &stl, &wrap, &layout);
                let base = scenario.code_base(core);
                builder = builder
                    .load(&asm.assemble(base).expect("stl assembles"))
                    .core(CoreConfig::uncached(kind, core, base), delays[core]);
            }
            let mut soc = builder.build();
            let outcome = soc.run(100_000_000);
            assert!(outcome.is_clean(), "table1 run: {outcome:?}");
            for core in 0..active {
                if_sum += soc.core(core).counters().if_stalls;
                mem_sum += soc.core(core).counters().mem_stalls;
            }
        }
        rows.push(Table1Row {
            active_cores: active,
            if_stalls: if_sum / effort.seeds.max(1),
            mem_stalls: mem_sum / effort.seeds.max(1),
        });
    }
    rows
}

/// Renders Table I in the paper's layout.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "TABLE I — MULTI-CORE STL EXECUTION: STALLS DUE TO THE MEMORY SUBSYSTEM\n\
         # Active Cores | IF stalls [cycles] | MEM stalls [cycles]\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>14} | {:>18} | {:>19}\n",
            r.active_cores, r.if_stalls, r.mem_stalls
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// One row of Table II: forwarding-logic fault simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Core (0 = A, 1 = B, 2 = C).
    pub core: usize,
    /// Size of the full fault list.
    pub fault_count: usize,
    /// Faults actually graded (sampling).
    pub simulated: usize,
    /// Minimum coverage across the uncached sweep \[%\].
    pub fc_min: f64,
    /// Maximum coverage across the uncached sweep \[%\].
    pub fc_max: f64,
    /// Coverage with the cache-based wrapper \[%\].
    pub fc_cached: f64,
}

/// Reproduces Table II: the forwarding routine with performance counters
/// removed, fault-graded across the multi-core scenario sweep (no
/// caches: min–max oscillates) and under the cache-based wrapper
/// (stable, higher).
pub fn table2(effort: &Effort) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (core, kind) in CoreKind::ALL.into_iter().enumerate() {
        let list = sbst_cpu::unit_fault_list(kind, Unit::Forwarding);
        let sample = effort.sample(&list);
        let factory = routines_for(Unit::Forwarding);
        // Uncached sweep.
        let sweep = Scenario::table2_sweep(effort.seeds.max(1));
        let step = (sweep.len() / effort.sweep_scenarios.max(1)).max(1);
        let (mut fc_min, mut fc_max) = (f64::MAX, f64::MIN);
        for scenario in sweep.iter().step_by(step) {
            let exp =
                Experiment::assemble(&*factory, kind, ExecStyle::LegacyUncached, scenario)
                    .expect("uncached experiment");
            let golden = exp.golden();
            let res = run_campaign_collapsed(&exp, &golden, &sample, effort.threads);
            fc_min = fc_min.min(res.coverage());
            fc_max = fc_max.max(res.coverage());
        }
        // Cache-wrapped (one scenario; determinism is asserted by the
        // test suite, so one is representative).
        let cached_scenario = Scenario { active_cores: 3, ..Scenario::single_core() };
        let exp = Experiment::assemble(
            &*factory,
            kind,
            ExecStyle::CacheWrapped,
            &cached_scenario,
        )
        .expect("cached experiment");
        let golden = exp.golden();
        let cached = run_campaign_collapsed(&exp, &golden, &sample, effort.threads);
        rows.push(Table2Row {
            core,
            fault_count: list.len(),
            simulated: sample.len(),
            fc_min,
            fc_max,
            fc_cached: cached.coverage(),
        });
    }
    rows
}

/// Renders Table II in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "TABLE II — FORWARDING LOGIC FAULT SIMULATION RESULTS\n\
         Core | # of Faults | min - max FC [%] (no caches, no PCs) | FC [%] (with caches, no PCs)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4} | {:>11} | {:>14.2} - {:<14.2}      | {:>10.2}\n",
            ["A", "B", "C"][r.core],
            r.fault_count,
            r.fc_min,
            r.fc_max,
            r.fc_cached
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------

/// One row of Table III: ICU / HDCU fault simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Core (0 = A, 1 = B, 2 = C).
    pub core: usize,
    /// Graded unit.
    pub unit: Unit,
    /// Size of the full fault list.
    pub fault_count: usize,
    /// Faults actually graded.
    pub simulated: usize,
    /// Coverage, single core, no caches \[%\].
    pub fc_single_nocache: f64,
    /// Coverage, three cores, cache-based wrapper \[%\].
    pub fc_multi_cached: f64,
}

/// Reproduces Table III: the complete ICU and HDCU routines graded in
/// the legacy single-core configuration (no caches) and in the
/// multi-core cache-wrapped configuration.
pub fn table3(effort: &Effort) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for (core, kind) in CoreKind::ALL.into_iter().enumerate() {
        for unit in [Unit::Icu, Unit::Hdcu] {
            let list = sbst_cpu::unit_fault_list(kind, unit);
            let sample = effort.sample(&list);
            let factory = routines_for(unit);
            let single = Scenario::single_core();
            let exp =
                Experiment::assemble(&*factory, kind, ExecStyle::LegacyUncached, &single)
                    .expect("single-core experiment");
            let golden = exp.golden();
            let fc_single = run_campaign_collapsed(&exp, &golden, &sample, effort.threads).coverage();
            let multi = Scenario { active_cores: 3, ..Scenario::single_core() };
            let exp = Experiment::assemble(&*factory, kind, ExecStyle::CacheWrapped, &multi)
                .expect("cached experiment");
            let golden = exp.golden();
            let fc_multi = run_campaign_collapsed(&exp, &golden, &sample, effort.threads).coverage();
            rows.push(Table3Row {
                core,
                unit,
                fault_count: list.len(),
                simulated: sample.len(),
                fc_single_nocache: fc_single,
                fc_multi_cached: fc_multi,
            });
        }
    }
    rows
}

/// Renders Table III in the paper's layout.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "TABLE III — ICU AND HDCU FAULT SIMULATION RESULTS\n\
         Core | Module | # of Faults | FC Single-Core no caches [%] | FC Multi-Core with caches [%]\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4} | {:>6} | {:>11} | {:>28.2} | {:>29.2}\n",
            ["A", "B", "C"][r.core],
            match r.unit {
                Unit::Icu => "ICU",
                Unit::Hdcu => "HDCU",
                Unit::Forwarding => "FWD",
            },
            r.fault_count,
            r.fc_single_nocache,
            r.fc_multi_cached
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------

/// One row of Table IV: TCM-based vs cache-based execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// `"TCM-based"` or `"Cache-based"`.
    pub approach: &'static str,
    /// Memory permanently reserved \[bytes\].
    pub overhead_bytes: usize,
    /// Execution time \[clock cycles\].
    pub cycles: u64,
}

/// Reproduces Table IV on the imprecise-interrupt routine: overall
/// memory overhead and execution time of the two strategies.
pub fn table4() -> Vec<Table4Row> {
    let kind = CoreKind::A;
    let routine = IcuTest::new();
    let env = RoutineEnv::for_core(kind);
    let cfg = WrapConfig::default();
    let base = 0x400;
    // TCM-based.
    let tcm = wrap_tcm(&routine, &env, &cfg, "t4", base).expect("tcm wrap");
    let mut soc = SocBuilder::new()
        .load(&tcm.program)
        .core(CoreConfig::cached(kind, 0, base), 0)
        .build();
    let outcome = soc.run(50_000_000);
    assert!(outcome.is_clean(), "{outcome:?}");
    let tcm_cycles = soc.cycle();
    // Cache-based.
    let asm = sbst_stl::wrap_cached(&routine, &env, &cfg, "t4c").expect("cache wrap");
    let program = asm.assemble(base).expect("assembles");
    let mut soc = SocBuilder::new()
        .load(&program)
        .core(CoreConfig::cached(kind, 0, base), 0)
        .build();
    let outcome = soc.run(50_000_000);
    assert!(outcome.is_clean(), "{outcome:?}");
    vec![
        Table4Row {
            approach: "TCM-based",
            overhead_bytes: tcm.tcm_overhead_bytes,
            cycles: tcm_cycles,
        },
        Table4Row {
            approach: "Cache-based",
            overhead_bytes: 0,
            cycles: soc.cycle(),
        },
    ]
}

/// Renders Table IV in the paper's layout.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut out = String::from(
        "TABLE IV — TCM-BASED VERSUS CACHE-BASED APPROACHES FOR IMPRECISE INTERRUPTS\n\
         Approach    | Overall Memory Overhead [bytes] | Execution Time [clock cycles]\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} | {:>31} | {:>29}\n",
            r.approach, r.overhead_bytes, r.cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mode_is_one_of_the_binarys_modes_or_nothing() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let modes = ["quick", "standard", "full"];
        assert_eq!(parse_mode(&args(&[]), &modes), Some("quick"));
        assert_eq!(parse_mode(&args(&["full"]), &modes), Some("full"));
        assert_eq!(parse_mode(&args(&["full"]), &modes[..2]), None, "not this binary's mode");
        assert_eq!(parse_mode(&args(&["standrad"]), &modes), None);
        assert_eq!(parse_mode(&args(&["quick", "quick"]), &modes), None, "a surplus argument");
    }
}
