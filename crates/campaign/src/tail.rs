//! The tail driver: the one loop that runs every warm faulty run.
//!
//! [`run_tail`] steps a SoC from a start state with one fault armed
//! until the first exit that decides the verdict:
//!
//! - any core's fatal trap;
//! - the core under test halting;
//! - the memory-mapped watchdog biting;
//! - the cycle budget running out;
//! - the *loop decider* proving that the run would reach the budget.
//!
//! The warm tier ([`Experiment::run_warm`]), the PPSFP fallback and both
//! fleet graders run their tails here; the cold path, `Soc::run` from
//! reset, stays the reference every one of them is checked against.
//!
//! # The loop decider
//!
//! Past the golden end a Brent anchor watches for a repeated control
//! trajectory: the core under test's fetch PC first, then
//! [`Soc::loop_state_diff`] *modulo that core's registers*. A match at
//! period P is a candidate, handled in the following periods of real
//! stepping:
//!
//! 1. **Proof.** The next period runs with every core's tap and the bus
//!    recorder on. A counter-CSR read by another core, or MMIO by any
//!    core, refuses the candidate at once. The core under test's events
//!    feed an affine-drift abstract interpretation ([`Proof`]): each
//!    register starts with its drift between the anchor and the match
//!    as its slope, and a counter read is a drift source of the
//!    counter's advance over that period. If no control use of the
//!    period read a drifting value and the period is inductive (every
//!    slope moved and ended as assumed, every counter advanced as
//!    assumed), the run is a hang. If only some slopes disagreed, they
//!    are dropped and the next period is proven, up to
//!    [`PROOF_ROUNDS`] periods. An exact loop is the case where every
//!    slope is 0.
//! 2. **Record.** A control use of a drifting value is an *escape*.
//!    After a counter read it refuses the candidate. Otherwise the
//!    proof is dropped, the period is stepped out, and if it ends in its
//!    start state modulo registers (the differing-register mask D), the
//!    period after it is recorded on a [`Tape`] and must end the same
//!    way.
//!
//! The recorded period is then replayed as one PPSFP [`Lane`] from the
//! recorded end, seeded with the D differences and rebased onto the
//! recorded start at every period boundary. The lane engine's fall-off
//! rules are exactly the conditions under which the real run would
//! leave the recorded trajectory (a branch, a jump target, an address,
//! a trap, a CSR write or a foreign read depending on a difference), so
//! while the lane stays on, the real run repeats the recorded period
//! with different data and none of its exits. Reaching the budget
//! therefore decides `Hang`, and so does a boundary where the lane has
//! no differences left: the run is back in the recorded start state.
//! A fall-off abandons the replay, and stepping continues concretely
//! from the recorded end, which the replay never changed.
//!
//! On the record path a candidate is also refused when its period reads
//! a counter CSR, when an in-flight EX-input entry sources a register in
//! D, or when P exceeds the golden tail (bounding the tape); the proof
//! reads every operand from the tap and records nothing, so neither of
//! the last two limits it. The decider is off under TDMA arbitration and
//! chaos planes, whose behaviour depends on the absolute cycle. A
//! refusal or an abandoned replay turns it off for the rest of the tail.
//!
//! [`Experiment::run_warm`]: crate::Experiment::run_warm

use std::collections::HashMap;

use sbst_cpu::TapEvent;
use sbst_fault::{FaultPlane, Unit};
use sbst_isa::Instr;
use sbst_mem::{ArbiterKind, BusOp, Region};
use sbst_soc::{RunOutcome, Soc};

use crate::proof::{counter_index, Proof};
use crate::tape::{lane_step, Lane, Tape};

/// Initial Brent window (cycles an anchor is held before re-anchoring).
const LOOP_WINDOW: u64 = 64;

/// Most periods one candidate is proven over: a period whose slopes
/// disagree with its hypothesis is proven again from the slopes that
/// held.
const PROOF_ROUNDS: usize = 4;

/// What the loop decider did during one tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopCheck {
    /// Never decided: the run ended (or stayed within the golden run)
    /// while the decider was still searching or checking a candidate.
    Searching,
    /// Decided a hang: a proven period, or a replay that reached the
    /// budget or a difference-free period boundary.
    Decided,
    /// Refused a candidate (a counter read by another core, MMIO, a
    /// proof escape after a counter read, or on the record path a
    /// counter read, an EX-input entry sourcing a drifting register or a
    /// period longer than the golden tail).
    Refused,
    /// A replay fell off before the budget; the run was stepped on.
    Abandoned,
    /// Off for the whole tail: TDMA arbitration or a chaos plane.
    Off,
}

/// How one tail ended.
pub(crate) struct Tail {
    /// The exit taken; a decided hang reports the budget, as the run
    /// would have.
    pub outcome: RunOutcome,
    /// The SoC where stepping stopped.
    pub soc: Soc,
    /// What the loop decider did.
    pub check: LoopCheck,
}

/// Runs a tail from `start` with `plane` armed on the core under test
/// (core 0) until a verdict is decided (see the module docs). The
/// decider starts after cycle `golden_cycles`; `budget` is the absolute
/// cycle at which the run counts as hung.
pub(crate) fn run_tail(start: &Soc, plane: FaultPlane, golden_cycles: u64, budget: u64) -> Tail {
    let mut soc = start.clone();
    soc.core_mut(0).set_plane(plane);
    let mut decider = Decider::new(&soc, plane, golden_cycles);
    let outcome = loop {
        if soc.cycle() >= budget {
            break RunOutcome::Watchdog { cycles: soc.cycle() };
        }
        match &mut decider.phase {
            Phase::Record { tape, .. } => tape.record(&mut soc),
            _ => soc.step(),
        }
        if let Some(core) = (0..soc.core_count()).find(|&i| soc.core(i).fatal_trap()) {
            break RunOutcome::FatalTrap { core, cycles: soc.cycle() };
        }
        if soc.core(0).halted() {
            break RunOutcome::AllHalted { cycles: soc.cycle() };
        }
        if soc.bus().watchdog().bitten() {
            break RunOutcome::Watchdog { cycles: soc.cycle() };
        }
        if decider.decide(&mut soc, budget) {
            break RunOutcome::Watchdog { cycles: budget };
        }
    };
    let check = match decider.phase {
        Phase::Done(check) => check,
        _ => LoopCheck::Searching,
    };
    Tail { outcome, soc, check }
}

/// A state of the run, and the core under test's fetch PC in it.
struct Anchor {
    soc: Soc,
    pc: u32,
}

impl Anchor {
    fn new(soc: &Soc) -> Anchor {
        Anchor { soc: soc.clone(), pc: soc.core(0).fetch_unit().pc() }
    }

    /// The core under test's register drift since the anchor, when
    /// everything else matches.
    fn diff(&self, soc: &Soc) -> Option<u32> {
        if soc.core(0).fetch_unit().pc() != self.pc {
            return None;
        }
        soc.loop_state_diff(&self.soc, 0)
    }

    fn age(&self, soc: &Soc) -> u64 {
        soc.cycle() - self.soc.cycle()
    }
}

enum Phase {
    /// Brent search (no anchor until the run is past the golden end).
    Search(Option<Anchor>),
    /// Stepping the candidate's next period with every tap on: the
    /// proof (`None` after an escape) runs over the core under test's
    /// events, which are counted with the grants (a recording's size).
    Prove {
        start: Anchor,
        period: u64,
        events: usize,
        ops: usize,
        proof: Option<Box<Proof>>,
        round: usize,
    },
    /// Recording the period after an escaped proof.
    Record { start: Anchor, period: u64, tape: Tape },
    Done(LoopCheck),
}

struct Decider {
    phase: Phase,
    window: u64,
    golden_cycles: u64,
    /// Longest period recorded: the golden tail.
    max_period: u64,
    plane: FaultPlane,
    /// One cycle's drained tap events and grants, checked for taint.
    events: Vec<TapEvent>,
    ops: Vec<BusOp>,
}

impl Decider {
    fn new(soc: &Soc, plane: FaultPlane, golden_cycles: u64) -> Decider {
        // TDMA slotting depends on the absolute cycle (excluded from the
        // state comparison) and chaos planes are driven by it: both turn
        // the decider off, never correctness.
        let off = matches!(soc.bus().arbiter_kind(), ArbiterKind::Tdma { .. }) || soc.has_chaos();
        Decider {
            phase: if off { Phase::Done(LoopCheck::Off) } else { Phase::Search(None) },
            window: LOOP_WINDOW,
            golden_cycles,
            max_period: golden_cycles.saturating_sub(soc.cycle()),
            plane,
            events: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Looks at the cycle just stepped; `true` decides a hang.
    fn decide(&mut self, soc: &mut Soc, budget: u64) -> bool {
        // The per-cycle fast paths; a phase change falls through.
        match &mut self.phase {
            Phase::Done(_) => return false,
            Phase::Search(None) => {
                if soc.cycle() > self.golden_cycles {
                    self.phase = Phase::Search(Some(Anchor::new(soc)));
                }
                return false;
            }
            Phase::Search(Some(anchor)) => {
                if anchor.diff(soc).is_none() {
                    if anchor.age(soc) >= self.window {
                        *anchor = Anchor::new(soc);
                        self.window *= 2;
                    }
                    return false;
                }
            }
            Phase::Prove { start, period, events, ops, proof, .. } => {
                let Some(drained) = drain(soc, None, &mut self.events, &mut self.ops) else {
                    return self.finish(soc, LoopCheck::Refused);
                };
                (*events, *ops) = (*events + drained.events, *ops + drained.ops);
                // A counter read is a drift source while the proof holds;
                // the record path cannot carry one.
                if let Some(p) = proof {
                    if p.step(&self.events[..drained.events]).is_err() {
                        if p.read_counter() || drained.counter {
                            return self.finish(soc, LoopCheck::Refused);
                        }
                        *proof = None;
                    }
                } else if drained.counter {
                    return self.finish(soc, LoopCheck::Refused);
                }
                if start.age(soc) < *period {
                    return false;
                }
            }
            Phase::Record { start, period, tape } => {
                match drain(soc, Some(tape), &mut self.events, &mut self.ops) {
                    Some(drained) if !drained.counter => {}
                    _ => return self.finish(soc, LoopCheck::Refused),
                }
                if start.age(soc) < *period {
                    return false;
                }
            }
        }
        match std::mem::replace(&mut self.phase, Phase::Done(LoopCheck::Searching)) {
            Phase::Search(Some(anchor)) => {
                set_taps(soc, true);
                let period = anchor.age(soc);
                let armed = self.plane.query_unit(Unit::Forwarding).map(|s| s.instance);
                let proof = Proof::new(anchor.soc.core(0), soc.core(0), armed);
                self.phase = Phase::Prove {
                    start: Anchor::new(soc),
                    period,
                    events: 0,
                    ops: 0,
                    proof: Some(proof),
                    round: 1,
                };
                false
            }
            Phase::Prove { start, period, events, ops, proof, round } => {
                let Some(d) = start.diff(soc) else { return self.reanchor(soc) };
                if let Some(mut proof) = proof {
                    let counted = proof.read_counter();
                    if proof.conclude(start.soc.core(0), soc.core(0)) {
                        return self.finish(soc, LoopCheck::Decided);
                    }
                    if round < PROOF_ROUNDS {
                        self.phase = Phase::Prove {
                            start: Anchor::new(soc),
                            period,
                            events: 0,
                            ops: 0,
                            proof: Some(proof),
                            round: round + 1,
                        };
                        return false;
                    }
                    if counted {
                        return self.finish(soc, LoopCheck::Refused);
                    }
                }
                if d == 0 {
                    self.finish(soc, LoopCheck::Decided)
                } else if period > self.max_period || soc.core(0).ex_in_sources() & d != 0 {
                    self.finish(soc, LoopCheck::Refused)
                } else {
                    let tape = Tape::start(soc, (period as usize, events, ops));
                    self.phase = Phase::Record { start: Anchor::new(soc), period, tape };
                    false
                }
            }
            Phase::Record { start, tape, .. } => match start.diff(soc) {
                None => self.reanchor(soc),
                Some(d) if soc.core(0).ex_in_sources() & d != 0 => {
                    self.finish(soc, LoopCheck::Refused)
                }
                Some(_) if replay(&tape, &start.soc, soc, self.plane, budget) => {
                    self.finish(soc, LoopCheck::Decided)
                }
                Some(_) => self.finish(soc, LoopCheck::Abandoned),
            },
            Phase::Search(None) | Phase::Done(_) => unreachable!("handled above"),
        }
    }

    /// The candidate's period changed: search on from here with a
    /// doubled window.
    fn reanchor(&mut self, soc: &mut Soc) -> bool {
        set_taps(soc, false);
        self.phase = Phase::Search(Some(Anchor::new(soc)));
        self.window *= 2;
        false
    }

    fn finish(&mut self, soc: &mut Soc, check: LoopCheck) -> bool {
        set_taps(soc, false);
        self.phase = Phase::Done(check);
        check == LoopCheck::Decided
    }
}

fn set_taps(soc: &mut Soc, on: bool) {
    for i in 0..soc.core_count() {
        soc.core_mut(i).set_tap(on);
    }
    soc.bus_mut().record_ops(on);
}

/// What one stepped cycle left on the taps.
struct Drained {
    /// The core under test's events, first in the drained buffer (none
    /// when a tape took them).
    events: usize,
    /// Grants drained (none when a tape took them).
    ops: usize,
    /// The core under test read a performance counter.
    counter: bool,
}

/// Drains the cycle just stepped from every tap not feeding `tape`.
/// `None` when another core read a performance counter or any core
/// touched MMIO.
fn drain(
    soc: &mut Soc,
    tape: Option<&Tape>,
    events: &mut Vec<TapEvent>,
    ops: &mut Vec<BusOp>,
) -> Option<Drained> {
    events.clear();
    ops.clear();
    let (taped, granted) = match tape {
        Some(tape) => tape.last(),
        None => {
            soc.core_mut(0).append_tap_events(events);
            soc.bus_mut().append_ops(ops);
            (&[][..], &[][..])
        }
    };
    let own = events.len();
    for i in 1..soc.core_count() {
        soc.core_mut(i).append_tap_events(events);
    }
    let counter = |ev: &TapEvent| {
        matches!(
            ev,
            TapEvent::ExExec { instr: Some(Instr::CsrRead { csr, .. }), .. }
                if counter_index(*csr).is_some()
        )
    };
    let mmio = |op: &BusOp| op.words().any(|a| Region::of(a) == Region::Mmio);
    let (cut, foreign) = events.split_at(own);
    if foreign.iter().any(counter) || ops.iter().chain(granted).any(mmio) {
        return None;
    }
    Some(Drained { events: own, ops: ops.len(), counter: cut.iter().chain(taped).any(counter) })
}

/// Replays `tape`, the period from `start` to `end` (equal modulo the
/// core under test's registers), as one lane from `end` on. `true`
/// when the lane stays on until `budget` or reaches a period boundary
/// with no difference left.
fn replay(tape: &Tape, start: &Soc, end: &Soc, plane: FaultPlane, budget: u64) -> bool {
    let (from, to) = (start.core(0).regs(), end.core(0).regs());
    // The tape is the faulty run: only a forwarding fault re-evaluates
    // its mux, and a control unit's decisions are already on it.
    let mut lane = Lane::new(0, plane.query_unit(Unit::Forwarding), tape);
    lane.rebase(from, to);
    let mut union = HashMap::new();
    let mut cycle = end.cycle();
    loop {
        if lane.is_clean(&tape.delay_seed) {
            return true;
        }
        for step in tape.cycles() {
            if cycle >= budget {
                return true;
            }
            if lane_step(&mut lane, step, &mut union, 1).is_err() {
                return false;
            }
            cycle += 1;
        }
        lane.rebase(from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_cpu::{CoreConfig, CoreKind};
    use sbst_isa::{Asm, Csr, Reg};
    use sbst_mem::{MMIO_BASE, SRAM_BASE, WDG_KICK};
    use sbst_soc::SocBuilder;

    /// The decider starts after this cycle.
    const GOLDEN: u64 = 200;
    /// The campaign budget for that golden run.
    const BUDGET: u64 = GOLDEN * 4 + 20_000;

    /// A one-core SoC running `asm` from reset.
    fn soc(asm: &Asm, arbiter: ArbiterKind) -> Soc {
        let program = asm.assemble(0x100).expect("assembles");
        SocBuilder::new()
            .arbiter(arbiter)
            .load(&program)
            .core(CoreConfig::cached(CoreKind::A, 0, 0x100), 0)
            .build()
    }

    /// A counted loop in the wrapper's shape: `r21` starts at `count`
    /// and moves by `step` per iteration until `bne r21, r0` falls
    /// through to a store of the accumulator `r1` and a halt. `body`
    /// is emitted inside the loop, followed by a run of constant
    /// instructions — the routine body of the real wrapper — long
    /// enough that some cycle of each iteration has no drifting value
    /// in flight or in a forwarding mux's history.
    fn counted(count: u32, step: i16, body: impl Fn(&mut Asm)) -> Asm {
        let mut a = Asm::new();
        a.li(Reg::R21, count);
        a.li(Reg::R5, SRAM_BASE + 0x100);
        a.li(Reg::R10, MMIO_BASE);
        a.label("top");
        a.addi(Reg::R21, Reg::R21, step);
        a.addi(Reg::R1, Reg::R1, 3);
        body(&mut a);
        for r in [Reg::R2, Reg::R3, Reg::R4, Reg::R6, Reg::R7, Reg::R8].repeat(4) {
            a.add(r, Reg::R0, Reg::R0);
        }
        a.bne(Reg::R21, Reg::R0, "top");
        a.sw(Reg::R1, Reg::R5, 0);
        a.halt();
        a
    }

    /// `r21` starts odd and steps by two, so it is never zero: the
    /// shape of a stuck-at-1 bit on the path that carries the counter.
    fn endless(body: impl Fn(&mut Asm)) -> Asm {
        counted(1, 2, body)
    }

    #[test]
    fn a_counter_that_never_reaches_zero_is_decided_at_the_period() {
        let start = soc(&endless(|_| {}), ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Decided);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        assert!(
            tail.soc.cycle() < BUDGET / 10,
            "decided at cycle {}, not near the period",
            tail.soc.cycle()
        );
        let mut reference = start.clone();
        assert_eq!(reference.run(BUDGET), RunOutcome::Watchdog { cycles: BUDGET });
    }

    #[test]
    fn a_countdown_that_exits_abandons_the_replay_and_steps_on_exactly() {
        // Periodic well past the golden end, but the counter reaches
        // zero long before the budget: the replay falls off at the
        // exit branch and the driver steps the rest concretely.
        let start = soc(&counted(600, -1, |_| {}), ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Abandoned);
        let mut reference = start.clone();
        let outcome = reference.run(BUDGET);
        assert!(outcome.is_clean(), "{outcome:?}");
        assert_eq!(tail.outcome, outcome);
        assert_eq!(tail.soc.cycle(), reference.cycle());
        assert!(tail.soc.loop_state_eq(&reference), "final states differ");
        assert_eq!(tail.soc.peek(SRAM_BASE + 0x100), 1800, "the accumulator's store");
    }

    /// `r21` stays 1, so the loop never exits and its branch reads the
    /// same value every period.
    fn spinning(body: impl Fn(&mut Asm)) -> Asm {
        counted(1, 0, body)
    }

    /// Runs `asm` through the tail driver and checks the hang against
    /// the reference run from the same start.
    fn hang_tail(asm: &Asm) -> Tail {
        let start = soc(asm, ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        let mut reference = start.clone();
        assert_eq!(reference.run(BUDGET), RunOutcome::Watchdog { cycles: BUDGET });
        tail
    }

    #[test]
    fn a_counter_read_that_never_reaches_control_is_proven_at_the_period() {
        // r9 reads the cycle counter, +P per period, and the accumulator
        // r1 sums it: r1's own slope grows each period, so the first
        // proof drops it and the second holds.
        let tail = hang_tail(&spinning(|a| {
            a.csrr(Reg::R9, Csr::Cycles);
            a.add(Reg::R1, Reg::R1, Reg::R9);
        }));
        assert_eq!(tail.check, LoopCheck::Decided);
        assert!(tail.soc.cycle() < BUDGET / 10, "decided at cycle {}", tail.soc.cycle());
    }

    #[test]
    fn a_branch_on_the_difference_of_two_counter_reads_is_proven() {
        // Both reads advance by the same Δ per period: their difference
        // is the same every period, and so is the branch.
        let tail = hang_tail(&spinning(|a| {
            a.csrr(Reg::R9, Csr::Cycles);
            a.nops(3);
            a.csrr(Reg::R11, Csr::Cycles);
            a.sub(Reg::R12, Reg::R11, Reg::R9);
            a.beq(Reg::R12, Reg::R0, "top");
        }));
        assert_eq!(tail.check, LoopCheck::Decided);
        assert!(tail.soc.cycle() < BUDGET / 10, "decided at cycle {}", tail.soc.cycle());
    }

    #[test]
    fn a_branch_on_a_counter_value_is_refused_and_runs_to_the_budget() {
        let tail = hang_tail(&spinning(|a| {
            a.csrr(Reg::R9, Csr::Cycles);
            a.beq(Reg::R9, Reg::R0, "top");
        }));
        assert_eq!(tail.check, LoopCheck::Refused);
        assert_eq!(tail.soc.cycle(), BUDGET);
    }

    #[test]
    fn a_period_that_reads_a_counter_csr_is_refused_and_runs_to_the_budget() {
        // The counter read is a drift source, but `r21`'s drift reaches
        // `bne`: an escape after a counter read.
        let start = soc(&endless(|a| a.csrr(Reg::R9, Csr::Cycles)), ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Refused);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        assert_eq!(tail.soc.cycle(), BUDGET);
    }

    #[test]
    fn a_period_that_writes_the_watchdog_is_refused_and_runs_to_the_budget() {
        let kick = WDG_KICK as i16;
        let start = soc(&endless(|a| a.sw(Reg::R0, Reg::R10, kick)), ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Refused);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        assert_eq!(tail.soc.cycle(), BUDGET);
    }

    #[test]
    fn a_period_longer_than_the_golden_tail_is_refused() {
        let long = endless(|a| {
            for _ in 0..600 {
                a.add(Reg::R9, Reg::R0, Reg::R0);
            }
        });
        let start = soc(&long, ArbiterKind::RoundRobin);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Refused);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        assert_eq!(tail.soc.cycle(), BUDGET);
        // The same loop behind a golden tail longer than its period.
        let tail = run_tail(&start, FaultPlane::fault_free(), 10 * GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Decided);
    }

    #[test]
    fn a_tdma_soc_never_decides_early() {
        let tdma = ArbiterKind::Tdma { slot_cycles: 0 };
        let start = soc(&endless(|_| {}), tdma);
        let tail = run_tail(&start, FaultPlane::fault_free(), GOLDEN, BUDGET);
        assert_eq!(tail.check, LoopCheck::Off);
        assert_eq!(tail.outcome, RunOutcome::Watchdog { cycles: BUDGET });
        assert_eq!(tail.soc.cycle(), BUDGET);
    }
}
