//! Set-up and grading of one workload pass, through the entry points
//! users call: `run_campaign_ppsfp_detailed` for the forwarding
//! workloads and `run_fleet` for ctl-fleet.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sbst_campaign::fleet::{
    run_fleet, ExperimentFleetGrader, FleetConfig, FleetPlan, LeasePolicy, WorkerChaos,
};
use sbst_campaign::{routines_for, run_campaign_ppsfp_detailed, Experiment, Observation};
use sbst_fault::{FaultList, Verdict};
use sbst_obs::FleetTelemetry;

use crate::inputs::{Cell, Lists, Workload};
use crate::oracle::{Oracle, Tally};
use crate::trace::{layer, Tracer};

/// Engine worker threads every workload grades with. The traced run
/// also grades with two, to measure thread scaling.
pub const WORKERS: usize = 1;

/// Faults per fleet shard.
pub const SHARD_FAULTS: usize = 16;

/// A lease far above any shard's grading time (a shard grades in well
/// under a second), so no lease expires and nothing is stolen.
pub const LEASE_TIMEOUT: Duration = Duration::from_secs(600);

/// One cell after set-up: its sampled faults and, for the forwarding
/// workloads, its assembled experiment and golden run.
pub struct Prepared {
    /// The cell.
    pub cell: Cell,
    /// Universe indices of the sampled faults.
    pub picks: Vec<usize>,
    /// The sampled faults.
    pub faults: FaultList,
    /// Experiment and golden run (forwarding workloads only; the fleet
    /// grader assembles its own).
    pub exp: Option<(Experiment, Observation)>,
}

/// Everything one pass grades.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The prepared cells, in [`Workload::cells`] order.
    pub cells: Vec<Prepared>,
    /// The fleet plan and grader (ctl-fleet only).
    pub fleet: Option<(FleetPlan, ExperimentFleetGrader)>,
}

impl Setup {
    /// Faults one pass grades.
    pub fn items(&self) -> usize {
        self.cells.iter().map(|c| c.faults.len()).sum()
    }
}

/// Prepares every experiment `seed` grades: fault lists, collapse,
/// sampling (stratified by the oracle's verdicts), assembly and golden
/// runs (or the fleet grader).
pub fn setup(workload: Workload, seed: u64, oracle: &Oracle, tracer: &mut Tracer) -> Setup {
    let mut lists = Lists::default();
    let mut cells = Vec::new();
    for (index, cell) in workload.cells(seed).into_iter().enumerate() {
        tracer.set_exp(index);
        let collapsed = lists.get(cell.spec.config.kind, cell.spec.unit, tracer);
        let universe = cell.universe(collapsed);
        // An oracle that no longer matches the universe only loses the
        // stratification; the verdict check then reports the mismatch.
        let picks = match oracle.get(cell.key()) {
            Some(e) if e.verdicts.len() == universe.len() => cell.picks(seed, index, &e.verdicts),
            _ => cell.picks(seed, index, &vec![Verdict::Undetected; universe.len()]),
        };
        let faults: FaultList = picks.iter().map(|&i| universe.sites()[i]).collect();
        let exp = (workload != Workload::CtlFleet).then(|| {
            let factory = routines_for(cell.spec.unit);
            let exp = tracer.span("Experiment::assemble_config", layer::STL, || {
                Experiment::assemble_config(&*factory, &cell.spec.config)
                    .expect("benchmark experiments assemble")
            });
            let golden = tracer.span("Experiment::golden", layer::SOC, || exp.golden());
            (exp, golden)
        });
        cells.push(Prepared {
            cell,
            picks,
            faults,
            exp,
        });
    }
    let fleet = (workload == Workload::CtlFleet).then(|| {
        let plan = FleetPlan::build(
            cells.iter().map(|c| c.cell.spec.clone()).collect(),
            cells.iter().map(|c| c.faults.clone()).collect(),
            SHARD_FAULTS,
        );
        let grader = tracer.span("ExperimentFleetGrader::new", layer::FLEET, || {
            ExperimentFleetGrader::new(&plan).expect("fleet variants assemble")
        });
        (plan, grader)
    });
    Setup {
        workload,
        cells,
        fleet,
    }
}

/// The fleet configuration ctl-fleet grades under: `workers` workers,
/// chaos off, per-shard checkpoints in `dir`, and [`LEASE_TIMEOUT`].
pub fn fleet_config(workers: usize, seed: u64, dir: &Path) -> FleetConfig {
    FleetConfig {
        policy: LeasePolicy {
            lease_timeout: LEASE_TIMEOUT,
            ..LeasePolicy::fast(seed)
        },
        chaos: WorkerChaos::off(),
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: SHARD_FAULTS,
        ..FleetConfig::new(workers, seed)
    }
}

/// What grading one pass produced.
pub struct Graded {
    /// Grading time (set-up excluded).
    pub elapsed: Duration,
    /// Verdicts per cell, in sample order.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Fleet telemetry (ctl-fleet).
    pub fleet: Option<FleetTelemetry>,
}

/// Grades every prepared cell once with [`WORKERS`] engine workers. For
/// ctl-fleet, `scratch` receives the shard checkpoints; it is emptied
/// first (outside the timed region) so no pass resumes another's work.
pub fn grade(setup: &Setup, seed: u64, scratch: &Path, tracer: &mut Tracer) -> Graded {
    if let Some((plan, grader)) = &setup.fleet {
        let dir = scratch.join("checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
        let cfg = fleet_config(WORKERS, seed, &dir);
        tracer.set_exp(0);
        let start = Instant::now();
        let report = tracer.span("run_fleet", layer::FLEET, || run_fleet(plan, grader, &cfg));
        let elapsed = start.elapsed();
        let mut verdicts: Vec<Vec<Verdict>> = vec![Vec::new(); setup.cells.len()];
        for (shard, got) in plan.shards.iter().zip(&report.verdicts) {
            // A quarantined shard leaves its verdicts short, which the
            // oracle check counts.
            verdicts[shard.ecu].extend(got.iter().flatten().copied());
        }
        return Graded {
            elapsed,
            verdicts,
            fleet: Some(report.telemetry),
        };
    }
    let mut elapsed = Duration::ZERO;
    let mut verdicts = Vec::new();
    for (index, prepared) in setup.cells.iter().enumerate() {
        let (exp, golden) = prepared
            .exp
            .as_ref()
            .expect("forwarding cells are assembled");
        tracer.set_exp(index);
        let start = Instant::now();
        let (_, records, _) = tracer.span("run_campaign_ppsfp_detailed", layer::CAMPAIGN, || {
            run_campaign_ppsfp_detailed(exp, golden, &prepared.faults, WORKERS)
        });
        elapsed += start.elapsed();
        verdicts.push(records.into_iter().map(|(_, v)| v).collect());
    }
    Graded {
        elapsed,
        verdicts,
        fleet: None,
    }
}

/// Checks a pass against the oracle: golden runs, verdicts, and (for
/// the fleet) that no shard was stolen, retried, quarantined or resumed.
pub fn check(setup: &Setup, graded: &Graded, oracle: &Oracle, tally: &mut Tally) {
    for (prepared, got) in setup.cells.iter().zip(&graded.verdicts) {
        let key = prepared.cell.key();
        let Some(entry) = oracle.get(key) else {
            tally.fail(format!("{key}: no oracle entry"));
            continue;
        };
        if let Some((_, golden)) = &prepared.exp {
            tally.golden(key, entry, golden);
        }
        tally.verdicts(key, entry, &prepared.picks, got);
    }
    if let Some(t) = &graded.fleet {
        let c = &t.counters;
        let disturbed = c.steals
            + c.retries
            + c.quarantined
            + c.late_results
            + c.resumes
            + t.checkpoints_rejected;
        for _ in 0..disturbed {
            tally.fail(format!(
                "fleet: {} steals, {} retries, {} quarantined, {} late, {} resumed, {} \
                 checkpoints rejected",
                c.steals,
                c.retries,
                c.quarantined,
                c.late_results,
                c.resumes,
                t.checkpoints_rejected
            ));
        }
    }
}

/// Checks the golden runs of the fleet variants, which the fleet grader
/// keeps to itself, by assembling each variant once more.
pub fn check_fleet_goldens(setup: &Setup, oracle: &Oracle, tally: &mut Tally) {
    for prepared in &setup.cells {
        let key = prepared.cell.key();
        let factory = routines_for(prepared.cell.spec.unit);
        let golden = Experiment::assemble_config(&*factory, &prepared.cell.spec.config)
            .expect("fleet variants assemble")
            .golden();
        match oracle.get(key) {
            Some(entry) => tally.golden(key, entry, &golden),
            None => tally.fail(format!("{key}: no oracle entry")),
        }
    }
}

/// The benchmark's scratch directory for `workload` (checkpoints and
/// trace exports), inside the benchmark's own directory.
pub fn scratch_dir(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(workload.name())
}
