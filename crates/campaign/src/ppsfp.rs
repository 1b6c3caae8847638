//! Bit-parallel (PPSFP) fault grading: one tapped fault-free tail run
//! grades up to 64 packed faults at once.
//!
//! Classic serial fault simulation re-runs the whole SoC tail once per
//! fault. PPSFP ("parallel-pattern single-fault propagation", here
//! adapted to parallel *faults*) observes that most faults perturb only
//! *data* flowing through the pipeline — control flow, memory
//! addresses, stall timing and trap causes stay exactly as in the
//! fault-free run. For those faults the faulty run is the golden run
//! plus a small set of value differences, so one instrumented golden
//! ride can grade a whole word of faults:
//!
//! 1. the golden tail is recorded from the warm-start snapshot on a
//!    [`Tape`] of [`CHUNK_CYCLES`] cycles at a time: every register
//!    commit, mux evaluation, executed instruction, control-unit
//!    decision and bus transaction, up to the core-under-test halt (the
//!    same early exit [`Experiment::run_warm`] uses);
//! 2. after each chunk, every live *lane* (one fault of a packed
//!    [`FaultWord`]) of every word replays it (the words spread over
//!    the worker threads), overlaying its own differences (registers,
//!    pipeline latches, memory words) on the recorded fault-free
//!    values. A forwarding lane re-evaluates the shared
//!    [`mux_eval`](sbst_cpu::mux_eval) gate decomposition for its own
//!    faulted mux instance; an HDCU or ICU lane re-evaluates its own
//!    faulted copy of the unit on the recorded inputs — bit-exact with
//!    what an armed core would compute;
//! 3. the moment a lane's differences would change *architecture* or
//!    *timing* — branch direction, a jump target, a memory address, a
//!    trap cause, the operand of a CSR write other than to a scratch
//!    CSR, a stall or split decision, a recognition window, a
//!    recognition or a word-aligned `mret` target, a store
//!    outside private/tracked memory, or any bus access by another core
//!    (or the instruction-fetch port) touching a differing word — the
//!    lane *falls off* the ride and is re-graded by the serial warm
//!    path. Fall-off is conservative: surviving lanes are
//!    cycle-identical to the golden run by construction, so their
//!    verdict is decided purely by overlaying their memory differences
//!    on the golden mailbox words.
//!
//! The chunked tape bounds the ride's memory, whatever the tail's
//! length, and the recording stops early once no lane is left.
//!
//! The serial fallback is the warm tier itself, so its tails run through
//! the tail driver and its loop decider, which decides periodic hangs
//! at the period instead of at the budget.
//!
//! Verdict equivalence with the serial warm path — over full collapsed
//! lists of every unit, fallen-off lanes included — is pinned by
//! `tests/ppsfp_equivalence.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use sbst_fault::{pack_density, pack_fault_words, FaultList, FaultSite, FaultWord, Verdict};
use sbst_soc::{RunOutcome, Soc};
use sbst_stl::{RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_DONE};

use crate::experiment::{Experiment, Observation, Snapshot};
use crate::faultsim::{finish, grade_pending, CampaignError, CampaignResult, WarmExperimentGrader};
use crate::tape::{lane_step, Lane, Tape};

/// Golden cycles recorded per ride chunk: the tape's bound, about 17 KB
/// of events on the densest control-unit tails (4.7 events per cycle).
/// A chunk costs one pass over the live lanes, so a short one costs
/// next to nothing, while a long one adds to the peak resident set.
const CHUNK_CYCLES: usize = 64;

/// PPSFP campaign statistics: how the fault list split between the
/// bit-parallel ride and the serial fallback.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpsfpStats {
    /// Packed fault words formed from the list (all units).
    pub words: usize,
    /// Words that rode the golden tail (every word, unless the golden
    /// tail failed to halt cleanly).
    pub ridden_words: usize,
    /// Faults packed into ridden words (before any lane fell off).
    pub packed_faults: usize,
    /// Mean lane occupancy of the packing (fraction of 64).
    pub pack_density: f64,
    /// Faults graded by the serial fallback: lanes that fell off on an
    /// architectural or timing difference.
    pub fallback_faults: usize,
    /// `fallback_faults` over the list size (0 for an empty list).
    pub fallback_rate: f64,
    /// Serial fallback runs whose hang the tail driver's loop decider
    /// decided before the budget: periods its affine-drift proof
    /// carried (exact loops, and loops whose drifting registers and
    /// counter reads never reach control), and periodic runs whose
    /// replayed period reached the budget or a difference-free boundary.
    pub loop_short_circuits: usize,
}

// ---------------------------------------------------------------------
// The ride: the golden tail, recorded and replayed chunk by chunk.
// ---------------------------------------------------------------------

/// One word on the ride: its lanes, the live ones, and their shared
/// address union.
struct WordRide {
    lanes: Vec<Lane>,
    alive: u64,
    union: HashMap<u32, u64>,
}

impl WordRide {
    fn new(word: &FaultWord, tape: &Tape) -> WordRide {
        let lanes: Vec<Lane> =
            word.lanes().iter().map(|&(index, site)| Lane::new(index, Some(site), tape)).collect();
        let alive = if lanes.len() == 64 { u64::MAX } else { (1u64 << lanes.len()) - 1 };
        WordRide { lanes, alive, union: HashMap::new() }
    }

    /// Replays every recorded cycle of `tape` for every live lane, cycle
    /// by cycle. A panicking replay (harness defect) only demotes the
    /// word's lanes to the serial fallback.
    fn replay(&mut self, tape: &Tape) {
        let WordRide { lanes, alive, union } = self;
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            for cycle in tape.cycles() {
                if *alive == 0 {
                    break;
                }
                for (l, lane) in lanes.iter_mut().enumerate() {
                    let bit = 1u64 << l;
                    if *alive & bit != 0 && lane_step(lane, cycle, union, bit).is_err() {
                        *alive &= !bit;
                    }
                }
            }
        }));
        if replayed.is_err() {
            *alive = 0;
        }
    }
}

/// Rides `words` on the golden tail from `snapshot`, [`CHUNK_CYCLES`]
/// at a time, `workers` threads replaying each chunk. Returns the
/// verdicts of the lanes that reached the core-under-test halt, or
/// `None` when the golden tail failed to halt cleanly (defensive — the
/// experiment asserts a clean golden run at assembly).
fn ride(
    experiment: &Experiment,
    snapshot: &Snapshot,
    golden: &Observation,
    words: &[FaultWord],
    workers: usize,
) -> Option<Vec<(usize, Verdict)>> {
    let mut soc = snapshot.soc().clone();
    let mut tape = Tape::start(&mut soc, (CHUNK_CYCLES, 0, 0));
    let mut rides: Vec<WordRide> = words.iter().map(|w| WordRide::new(w, &tape)).collect();
    loop {
        tape.clear();
        let halted = loop {
            if soc.cycle() >= snapshot.budget() {
                return None;
            }
            tape.record(&mut soc);
            if (0..soc.core_count()).any(|i| soc.core(i).fatal_trap()) {
                return None;
            }
            if soc.core(0).halted() {
                break true;
            }
            if soc.bus().watchdog().bitten() {
                return None;
            }
            if tape.len() == CHUNK_CYCLES {
                break false;
            }
        };
        replay_chunk(&mut rides, &tape, workers);
        if halted {
            return Some(survivors(experiment, golden, &soc, &rides));
        }
        if rides.iter().all(|w| w.alive == 0) {
            return Some(Vec::new());
        }
    }
}

/// Replays one recorded chunk for every word with a live lane. The
/// words go to `workers` threads as they free up; worker 0 is the
/// calling thread, so one worker spawns none.
fn replay_chunk(rides: &mut [WordRide], tape: &Tape, workers: usize) {
    let live: Vec<&mut WordRide> = rides.iter_mut().filter(|w| w.alive != 0).collect();
    let spawned = workers.min(live.len()).saturating_sub(1);
    let queue = Mutex::new(live.into_iter());
    let work = || loop {
        let Some(word) = queue.lock().expect("ride queue").next() else { break };
        word.replay(tape);
    };
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(work);
        }
        work();
    });
}

/// The verdicts of the lanes still on the ride at the core-under-test
/// halt: cycle-identical to the golden run, so each observation is the
/// golden mailbox state overlaid with the lane's memory differences.
fn survivors(
    experiment: &Experiment,
    golden: &Observation,
    end: &Soc,
    rides: &[WordRide],
) -> Vec<(usize, Verdict)> {
    let mailboxes: Vec<(u32, u32, u32)> = experiment
        .mailboxes()
        .iter()
        .map(|&mb| {
            (mb, end.peek(mb + RESULT_SIG_OFF as u32), end.peek(mb + RESULT_STATUS_OFF as u32))
        })
        .collect();
    let mut verdicts = Vec::new();
    for word in rides {
        for (l, lane) in word.lanes.iter().enumerate() {
            if word.alive & (1 << l) == 0 {
                continue; // fell off: graded serially
            }
            let mut signature = 0u32;
            let mut status = STATUS_DONE;
            for (i, &(mb, g_sig, g_status)) in mailboxes.iter().enumerate() {
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
                outcome: RunOutcome::AllHalted { cycles: end.cycle() },
                signature,
                status,
                cycles: end.cycle(),
                if_stalls: 0,
                mem_stalls: 0,
            };
            verdicts.push((lane.index, Experiment::classify(golden, &obs)));
        }
    }
    verdicts
}

// ---------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------

/// The bit-parallel campaign: packs the list into [`FaultWord`]s, rides
/// every word on the tapped golden tail, and grades the lanes that fell
/// off through the serial warm path, whose tail driver decides periodic
/// hangs early. Verdicts are returned in fault-list order and are
/// bit-identical to [`run_campaign_warm_detailed`] and to the cold
/// reference (pinned by the equivalence walls); each fault is graded
/// exactly once.
///
/// [`run_campaign_warm_detailed`]: crate::run_campaign_warm_detailed
pub fn run_campaign_ppsfp_detailed(
    experiment: &Experiment,
    golden: &Observation,
    faults: &FaultList,
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, PpsfpStats) {
    let sites = faults.sites();
    if sites.is_empty() {
        return (CampaignResult::default(), Vec::new(), PpsfpStats::default());
    }
    let snapshot = experiment.snapshot(golden);
    let (result, records, stats, _) = grade_ppsfp(experiment, golden, &snapshot, sites, threads);
    (result, records, stats)
}

/// [`run_campaign_ppsfp_detailed`] from an already captured snapshot,
/// with the fallback's simulation crashes: the fleet grader's entry.
pub(crate) fn grade_ppsfp(
    experiment: &Experiment,
    golden: &Observation,
    snapshot: &Snapshot,
    sites: &[FaultSite],
    threads: usize,
) -> (CampaignResult, Vec<(FaultSite, Verdict)>, PpsfpStats, Vec<CampaignError>) {
    let words = pack_fault_words(sites);
    let mut stats = PpsfpStats {
        words: words.len(),
        pack_density: pack_density(&words),
        ..PpsfpStats::default()
    };
    let slots = Mutex::new(vec![None::<Verdict>; sites.len()]);
    let workers = crate::faultsim::resolve_threads(threads).min(words.len());
    if let Some(graded) = ride(experiment, snapshot, golden, &words, workers) {
        stats.ridden_words = words.len();
        stats.packed_faults = sites.len();
        let mut slots = slots.lock().expect("verdict slots");
        for (index, verdict) in graded {
            slots[index] = Some(verdict);
        }
    }

    let graded_on_ride =
        slots.lock().expect("verdict slots").iter().filter(|v| v.is_some()).count();
    stats.fallback_faults = sites.len() - graded_on_ride;
    stats.fallback_rate =
        if sites.is_empty() { 0.0 } else { stats.fallback_faults as f64 / sites.len() as f64 };

    let grader = WarmExperimentGrader::new(experiment, golden, snapshot);
    let errors = Mutex::new(Vec::new());
    grade_pending(&grader, sites, &slots, &errors, threads);
    stats.loop_short_circuits = grader.decided.load(Ordering::Relaxed);

    let (result, records) = finish(sites, slots);
    (result, records, stats, errors.into_inner().expect("error log"))
}
