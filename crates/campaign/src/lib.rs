#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-campaign — fault-simulation campaigns and scenario sweeps
//!
//! The in-simulator counterpart of the paper's experimental flow
//! (post-layout netlist + commercial fault simulator):
//!
//! * [`Experiment`] — one (routine, core-under-test, execution style,
//!   scenario) configuration, including the parallel execution of the
//!   same routine on the other cores;
//! * [`run_campaign_detailed`] — grades a
//!   [`FaultList`](sbst_fault::FaultList) against an experiment, one
//!   full-SoC simulation per fault, fanned out over worker threads;
//!   [`run_campaign_warm_detailed`] and [`run_campaign_ppsfp_detailed`]
//!   return the same verdicts faster;
//! * [`tables`] — regenerates the paper's Tables I–IV with configurable
//!   [`Effort`](tables::Effort).
//!
//! ## Example: grade a few ICU faults
//!
//! ```
//! use sbst_campaign::{routines_for, run_campaign_detailed, ExecStyle, Experiment};
//! use sbst_cpu::{unit_fault_list, CoreKind};
//! use sbst_fault::Unit;
//! use sbst_soc::Scenario;
//!
//! let factory = routines_for(Unit::Icu);
//! let exp = Experiment::assemble(
//!     &*factory,
//!     CoreKind::A,
//!     ExecStyle::CacheWrapped,
//!     &Scenario::single_core(),
//! ).expect("experiment");
//! let golden = exp.golden();
//! let faults = unit_fault_list(CoreKind::A, Unit::Icu).sample(60);
//! let (result, records) = run_campaign_detailed(&exp, &golden, &faults, 0);
//! assert_eq!(result.total, faults.len());
//! assert_eq!(records.len(), faults.len());
//! ```

pub mod ablation;
pub mod chaos;
mod checkpoint;
mod experiment;
pub mod fleet;
pub mod split;
mod faultsim;
mod ppsfp;
mod proof;
pub mod tables;
mod tail;
mod tape;

pub use chaos::{run_chaos_campaign, ChaosCell, ChaosReport, ChaosSweepConfig};
pub use checkpoint::{
    fingerprint, Checkpoint, CheckpointError, CHECKPOINT_VERSION, CONFIG_UNBOUND,
};
pub use experiment::{
    ExecStyle, Experiment, ExperimentConfig, Observation, RoutineFactory, Snapshot,
};
pub use faultsim::{
    run_campaign_collapsed, run_campaign_detailed, run_campaign_graded,
    run_campaign_warm_detailed, summarize_by_category, CampaignError, CampaignResult,
    FaultGrader,
};
pub use ppsfp::{run_campaign_ppsfp_detailed, PpsfpStats};

use sbst_cpu::CoreKind;
use sbst_fault::Unit;
use sbst_stl::routines::{ForwardingTest, HdcuTest, IcuTest};
use sbst_stl::SelfTestRoutine;

/// The standard routine factory for a graded unit: the routine the paper
/// uses against that unit, specialised per core kind.
///
/// * [`Unit::Forwarding`] → the \[19\] algorithm with the performance
///   counters removed (Table II);
/// * [`Unit::Hdcu`] → the complete \[19\] algorithm with counters, in its
///   exhaustive form (the campaign splits it into cache-sized parts per
///   paper §III.2.2 when it exceeds the instruction cache);
/// * [`Unit::Icu`] → the \[21\]-based imprecise-interrupt routine.
pub fn routines_for(unit: Unit) -> Box<RoutineFactory<'static>> {
    match unit {
        Unit::Forwarding => {
            Box::new(|kind: CoreKind| {
                Box::new(ForwardingTest::without_pcs(kind)) as Box<dyn SelfTestRoutine>
            })
        }
        Unit::Hdcu => Box::new(|kind: CoreKind| {
            Box::new(HdcuTest::exhaustive(kind)) as Box<dyn SelfTestRoutine>
        }),
        Unit::Icu => {
            Box::new(|_: CoreKind| Box::new(IcuTest::new()) as Box<dyn SelfTestRoutine>)
        }
    }
}
