//! Bit-parallel (PPSFP) fault grading: one tapped fault-free tail run
//! grades up to 64 packed faults at once.
//!
//! Classic serial fault simulation re-runs the whole SoC tail once per
//! fault. PPSFP ("parallel-pattern single-fault propagation", here
//! adapted to parallel *faults*) observes that most forwarding-logic
//! faults perturb only *data* flowing through the pipeline — control
//! flow, memory addresses, stall timing and trap causes stay exactly as
//! in the fault-free run. For those faults the faulty run is the golden
//! run plus a small set of value differences, so one instrumented golden
//! ride can grade a whole word of faults:
//!
//! 1. the golden tail is recorded once from the warm-start snapshot on a
//!    [`Tape`]: every register commit, mux evaluation, executed
//!    instruction and bus transaction up to the core-under-test halt
//!    (the same early exit [`Experiment::run_warm`] uses);
//! 2. each *lane* (one fault of a packed [`FaultWord`]) replays the tape,
//!    overlaying its own differences (registers, pipeline latches,
//!    memory words) on the recorded fault-free values and re-evaluating
//!    the shared [`mux_eval`](sbst_cpu::mux_eval) gate decomposition for
//!    its own faulted mux instance — bit-exact with what an armed
//!    [`ForwardingNetwork`](sbst_cpu::ForwardingNetwork) would compute;
//! 3. the moment a lane's differences would change *architecture* —
//!    branch direction, a jump target, a memory address, a trap cause, a
//!    CSR write operand, a store outside private/tracked memory, or any
//!    bus access by another core (or the instruction-fetch port)
//!    touching a differing word — the lane *falls off* the ride and is
//!    re-graded by the serial warm path. Fall-off is conservative:
//!    surviving lanes are cycle-identical to the golden run by
//!    construction, so their verdict is decided purely by overlaying
//!    their memory differences on the golden mailbox words.
//!
//! HDCU and ICU faults perturb stall timing and trap recognition — the
//! very things the ride assumes frozen — so their words are graded
//! serially as whole-word fallbacks.
//!
//! The serial fallback is the warm tier itself, so its tails run through
//! the tail driver and its loop decider, which decides periodic hangs
//! at the period instead of at the budget.
//!
//! Verdict equivalence with the serial warm path — over full collapsed
//! lists, forced fallbacks included — is pinned by
//! `tests/ppsfp_equivalence.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sbst_fault::{pack_density, pack_fault_words, FaultList, FaultSite, FaultWord, Unit, Verdict};
use sbst_soc::RunOutcome;
use sbst_stl::{RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_DONE};

use crate::experiment::{Experiment, Observation, Snapshot};
use crate::faultsim::{finish, grade_pending, CampaignResult, WarmExperimentGrader};
use crate::tape::{lane_step, Lane, Tape};

/// PPSFP campaign statistics: how the fault list split between the
/// bit-parallel ride and the serial fallback.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpsfpStats {
    /// Packed fault words formed from the list (all units).
    pub words: usize,
    /// Words graded on the bit-parallel ride (forwarding-unit words).
    pub ridden_words: usize,
    /// Faults packed into ridden words (before any lane fell off).
    pub packed_faults: usize,
    /// Mean lane occupancy of the packing (fraction of 64).
    pub pack_density: f64,
    /// Faults graded by the serial fallback (fallen-off lanes plus
    /// whole-word fallbacks for HDCU/ICU words).
    pub fallback_faults: usize,
    /// `fallback_faults` over the list size (0 for an empty list).
    pub fallback_rate: f64,
    /// Serial fallback runs whose hang the tail driver's loop decider
    /// decided before the budget: exact loops, and periodic runs whose
    /// replayed period reached the budget or a difference-free boundary.
    pub loop_short_circuits: usize,
}

// ---------------------------------------------------------------------
// Ride trace: one tapped golden tail run, recorded once per campaign.
// ---------------------------------------------------------------------

/// The recorded golden tail: a [`Tape`] from the warm-start snapshot to
/// the core-under-test halt, plus the golden mailbox words at that
/// point.
struct RideTrace {
    tape: Tape,
    /// Per mailbox part: (base, golden signature word, golden status).
    mailboxes: Vec<(u32, u32, u32)>,
    cut_halt_cycle: u64,
}

/// Runs the golden tail once with the core and bus taps enabled.
/// Returns `None` if the golden tail fails to halt cleanly (defensive —
/// the experiment asserts a clean golden run at assembly).
fn record_ride(experiment: &Experiment, snapshot: &Snapshot) -> Option<RideTrace> {
    let mut soc = snapshot.soc().clone();
    let mut tape = Tape::start(&mut soc, (0, 0, 0));
    loop {
        if soc.cycle() >= snapshot.budget() {
            return None;
        }
        tape.record(&mut soc);
        if (0..soc.core_count()).any(|i| soc.core(i).fatal_trap()) {
            return None;
        }
        if soc.core(0).halted() {
            break;
        }
        if soc.bus().watchdog().bitten() {
            return None;
        }
    }
    let mailboxes = experiment
        .mailboxes()
        .iter()
        .map(|&mb| {
            (
                mb,
                soc.peek(mb + RESULT_SIG_OFF as u32),
                soc.peek(mb + RESULT_STATUS_OFF as u32),
            )
        })
        .collect();
    Some(RideTrace { tape, mailboxes, cut_halt_cycle: soc.cycle() })
}

// ---------------------------------------------------------------------
// Word grading
// ---------------------------------------------------------------------

/// Grades one forwarding fault word against the recorded trace:
/// verdicts for surviving lanes, fall-off indices for the rest.
fn grade_forwarding_word(
    word: &FaultWord,
    trace: &RideTrace,
    golden: &Observation,
) -> Vec<(usize, Verdict)> {
    let tape = &trace.tape;
    let mut lanes: Vec<Lane> = word
        .lanes()
        .iter()
        .map(|&(index, site)| Lane::new(index, Some(site), &tape.delay_seed))
        .collect();
    let mut alive: u64 = if lanes.len() == 64 { u64::MAX } else { (1u64 << lanes.len()) - 1 };
    let mut union: HashMap<u32, u64> = HashMap::new();
    for (events, ops) in tape.cycles() {
        if alive == 0 {
            break;
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            let bit = 1u64 << l;
            if alive & bit == 0 {
                continue;
            }
            if lane_step(lane, events, ops, tape, &mut union, bit).is_err() {
                alive &= !bit;
            }
        }
    }
    let mut verdicts = Vec::new();
    for (l, lane) in lanes.iter().enumerate() {
        if alive & (1 << l) == 0 {
            continue; // fell off: graded serially
        }
        // The lane reached the core-under-test halt cycle-identically
        // to the golden run; its observation is the golden mailbox
        // state overlaid with its memory differences.
        let mut signature = 0u32;
        let mut status = STATUS_DONE;
        for (i, &(mb, g_sig, g_status)) in trace.mailboxes.iter().enumerate() {
            let sig = lane.mem.get(&(mb + RESULT_SIG_OFF as u32)).copied().unwrap_or(g_sig);
            let s = lane
                .mem
                .get(&(mb + RESULT_STATUS_OFF as u32))
                .copied()
                .unwrap_or(g_status);
            signature ^= sig.rotate_left(i as u32);
            if s != STATUS_DONE {
                status = s;
            }
        }
        let obs = Observation {
            outcome: RunOutcome::AllHalted { cycles: trace.cut_halt_cycle },
            signature,
            status,
            cycles: trace.cut_halt_cycle,
            if_stalls: 0,
            mem_stalls: 0,
        };
        verdicts.push((lane.index, Experiment::classify(golden, &obs)));
    }
    verdicts
}

// ---------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------

/// The bit-parallel campaign: packs the list into [`FaultWord`]s, rides
/// forwarding words on one tapped golden tail, and grades everything
/// else (fallen-off lanes, HDCU/ICU words) through the serial warm path,
/// whose tail driver decides periodic hangs early. Verdicts are returned
/// in fault-list order and are bit-identical to
/// [`run_campaign_warm_detailed`] and to the cold reference (pinned by
/// the equivalence walls); each fault is graded exactly once.
///
/// [`run_campaign_warm_detailed`]: crate::run_campaign_warm_detailed
pub fn run_campaign_ppsfp_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, PpsfpStats) {
    let sites = faults.sites();
    let words = pack_fault_words(sites);
    let mut stats = PpsfpStats {
        words: words.len(),
        pack_density: pack_density(&words),
        ..PpsfpStats::default()
    };
    let slots = Mutex::new(vec![None::<Verdict>; sites.len()]);
    if sites.is_empty() {
        return (CampaignResult::default(), Vec::new(), stats);
    }
    let snapshot = experiment.snapshot(golden);

    let ridden: Vec<&FaultWord> =
        words.iter().filter(|w| w.unit() == Unit::Forwarding).collect();
    if !ridden.is_empty() {
        if let Some(trace) = record_ride(experiment, &snapshot) {
            stats.ridden_words = ridden.len();
            stats.packed_faults = ridden.iter().map(|w| w.len()).sum();
            let next = AtomicUsize::new(0);
            let workers = crate::faultsim::resolve_threads(threads).min(ridden.len());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        let Some(word) = ridden.get(t) else { break };
                        // A panicking word grader (harness defect) only
                        // demotes its lanes to the serial fallback.
                        let graded = catch_unwind(AssertUnwindSafe(|| {
                            grade_forwarding_word(word, &trace, golden)
                        }))
                        .unwrap_or_default();
                        let mut slots = slots.lock().expect("verdict slots");
                        for (index, verdict) in graded {
                            slots[index] = Some(verdict);
                        }
                    });
                }
            });
        }
    }

    let graded_on_ride =
        slots.lock().expect("verdict slots").iter().filter(|v| v.is_some()).count();
    stats.fallback_faults = sites.len() - graded_on_ride;
    stats.fallback_rate = stats.fallback_faults as f64 / sites.len() as f64;

    let grader = WarmExperimentGrader::new(experiment, golden, &snapshot);
    let errors = Mutex::new(Vec::new());
    grade_pending(&grader, sites, &slots, &errors, threads, &|_| {});
    stats.loop_short_circuits = grader.decided.load(Ordering::Relaxed);

    let (result, records) = finish(sites, slots);
    (result, records, stats)
}
