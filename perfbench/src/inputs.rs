//! Workload inputs: which experiments a workload grades and which faults
//! a seed draws from each experiment's fault universe.
//!
//! Every experiment is named by an [`EcuSpec`] whose `name` doubles as
//! its key in the committed reference oracle. A workload's *universe* is
//! every experiment any seed can pick, over its whole fault list; the
//! oracle holds a verdict for each of those faults, so the verdicts of
//! any seed's sample can be checked.

use std::collections::HashMap;

use sbst_campaign::fleet::EcuSpec;
use sbst_campaign::{ExecStyle, ExperimentConfig};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{collapse, CollapsedList, FaultList, Unit, Verdict};
use sbst_soc::Scenario;

use crate::oracle::letter;
use crate::trace::{layer, Tracer};

/// Phase-skew seeds a seed can pick for the ctl-fleet and sweep cells.
pub const SKEWS: u64 = 3;

/// Faults of a sweep cell's thinned universe graded per pass.
const SWEEP_FAULTS_PER_CELL: usize = 24;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table III's control units graded across an in-field fleet.
    CtlFleet,
    /// Table II's uncached min–max column: many small legacy-uncached
    /// scenarios.
    FwdUncachedSweep,
}

/// How many faults a seed draws from a cell's universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// One fault from every block of this many consecutive faults.
    OneIn(usize),
    /// Exactly this many faults, spread evenly over the universe.
    Exactly(usize),
}

/// One experiment of a workload: its configuration, the unit it grades,
/// and how its fault universe is thinned and sampled.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration and unit; `spec.name` is the oracle key.
    pub spec: EcuSpec,
    /// The universe is every `stride`-th fault of the collapsed list.
    pub stride: usize,
    /// The per-seed sample drawn from the universe.
    pub draw: Draw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::CtlFleet, Workload::FwdUncachedSweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CtlFleet => "ctl-fleet",
            Workload::FwdUncachedSweep => "fwd-uncached-sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every cell any seed can pick (what the oracle covers).
    pub fn universe(self) -> Vec<Cell> {
        match self {
            Workload::CtlFleet => fleet_variants()
                .into_iter()
                .flat_map(|spec| (0..SKEWS).map(move |skew| fleet_cell(&spec, skew)))
                .collect(),
            Workload::FwdUncachedSweep => Scenario::table2_sweep(1)
                .into_iter()
                .flat_map(|scenario| {
                    CoreKind::ALL.into_iter().flat_map(move |kind| {
                        (0..SKEWS).map(move |skew| sweep_cell(scenario, kind, skew))
                    })
                })
                .collect(),
        }
    }

    /// The cells `seed` grades, each one of [`Workload::universe`].
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut rng = Rng::new(seed, 0);
        match self {
            Workload::CtlFleet => fleet_variants()
                .iter()
                .map(|spec| fleet_cell(spec, rng.below(SKEWS)))
                .collect(),
            Workload::FwdUncachedSweep => {
                // Every (cores, position, alignment) combination grades
                // two of the three core kinds; which one sits out
                // rotates, so each kind appears equally often and a
                // seed changes which scenarios run, not the mix.
                let mut cells = Vec::new();
                for (j, scenario) in Scenario::table2_sweep(1).into_iter().enumerate() {
                    let skip = (j as u64 + seed) % 3;
                    for (k, &kind) in CoreKind::ALL.iter().enumerate() {
                        if k as u64 != skip {
                            cells.push(sweep_cell(scenario, kind, rng.below(SKEWS)));
                        }
                    }
                }
                cells
            }
        }
    }
}

/// The fleet population graded by ctl-fleet: HDCU and ICU variants of
/// [`EcuSpec::population`]. HDCU drops ecu-b: its 4 KiB I$ cannot hold
/// the exhaustive HDCU routine even split into parts, so it fails to
/// assemble.
fn fleet_variants() -> Vec<EcuSpec> {
    let mut out: Vec<EcuSpec> = EcuSpec::population(Unit::Hdcu)
        .into_iter()
        .filter(|spec| !spec.name.starts_with("ecu-b"))
        .collect();
    out.extend(EcuSpec::population(Unit::Icu));
    out
}

fn fleet_cell(spec: &EcuSpec, skew: u64) -> Cell {
    let mut config = spec.config;
    config.scenario.skew_seed = skew;
    Cell {
        spec: EcuSpec {
            name: format!("ctl-fleet/{:?}/{}/s{skew}", spec.unit, spec.name),
            config,
            unit: spec.unit,
        },
        stride: 1,
        draw: Draw::OneIn(3),
    }
}

fn sweep_cell(scenario: Scenario, kind: CoreKind, skew: u64) -> Cell {
    let scenario = Scenario {
        skew_seed: skew,
        ..scenario
    };
    Cell {
        spec: EcuSpec {
            name: format!(
                "sweep/{kind:?}/{}c-{:?}-{:?}/s{skew}",
                scenario.active_cores, scenario.position, scenario.alignment
            ),
            config: ExperimentConfig::new(kind, ExecStyle::LegacyUncached, scenario),
            unit: Unit::Forwarding,
        },
        stride: 16,
        draw: Draw::Exactly(SWEEP_FAULTS_PER_CELL),
    }
}

impl Cell {
    /// The oracle key.
    pub fn key(&self) -> &str {
        &self.spec.name
    }

    /// The cell's fault universe, thinned from `collapsed` (the collapsed
    /// list of its core kind and unit).
    pub fn universe(&self, collapsed: &FaultList) -> FaultList {
        collapsed.sample(self.stride)
    }

    /// Universe indices (ascending) of the faults `seed` draws for the
    /// cell at `index`, given the reference verdict of every universe
    /// fault. The universe is ordered by verdict class, cut into equal
    /// blocks, and the seed picks one fault inside each block: every
    /// class gets its proportional share and every sample spreads over
    /// the whole list, so the work of a pass barely depends on the seed.
    pub fn picks(&self, seed: u64, index: usize, reference: &[Verdict]) -> Vec<usize> {
        let len = reference.len();
        let count = match self.draw {
            Draw::OneIn(n) => len.div_ceil(n),
            Draw::Exactly(n) => n,
        }
        .min(len);
        let mut by_class: Vec<usize> = (0..len).collect();
        by_class.sort_by_key(|&i| letter(reference[i]));
        let mut rng = Rng::new(seed, index as u64 + 1);
        let mut picks: Vec<usize> = (0..count)
            .map(|b| {
                let lo = b * len / count;
                let hi = (b + 1) * len / count;
                by_class[lo + rng.below((hi - lo) as u64) as usize]
            })
            .collect();
        picks.sort_unstable();
        picks
    }
}

/// Collapsed fault lists, computed once per (core kind, unit) within one
/// set-up.
#[derive(Default)]
pub struct Lists {
    collapsed: HashMap<(CoreKind, Unit), CollapsedList>,
}

impl Lists {
    /// The collapsed list of `kind`'s `unit`.
    pub fn get(&mut self, kind: CoreKind, unit: Unit, tracer: &mut Tracer) -> &FaultList {
        self.collapsed
            .entry((kind, unit))
            .or_insert_with(|| {
                tracer.span("unit_fault_list+collapse", layer::FAULT, || {
                    collapse(&unit_fault_list(kind, unit))
                })
            })
            .representatives()
    }
}

/// The benchmark's own seeded generator (SplitMix64), so the inputs of a
/// seed do not change when the library's generators do.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
