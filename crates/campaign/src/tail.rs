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
//! period P is a candidate, handled in two more periods of real
//! stepping:
//!
//! 1. **Probe.** The next period runs with every core's tap and the bus
//!    recorder on, and is refused the moment it reads a counter CSR or
//!    touches MMIO — state the comparison excludes or cannot see. The
//!    events are checked and dropped, so a refusal allocates nothing.
//!    If the period ends in the state it started in, the run is an
//!    exact loop: a hang.
//! 2. **Record.** Otherwise the period after it is recorded on a
//!    [`Tape`] and must again end equal to its start modulo registers,
//!    with the differing-register mask D.
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
//! A candidate is refused when its period reads a counter CSR or touches
//! MMIO, when an in-flight EX-input entry sources a register in D, or
//! when P exceeds the golden tail (bounding the tape). The decider is
//! off under TDMA arbitration and chaos planes, whose behaviour depends
//! on the absolute cycle. A refusal or an abandoned replay turns it off
//! for the rest of the tail.
//!
//! [`Experiment::run_warm`]: crate::Experiment::run_warm

use std::collections::HashMap;

use sbst_cpu::TapEvent;
use sbst_fault::{FaultPlane, Unit};
use sbst_isa::{Csr, Instr};
use sbst_mem::{ArbiterKind, BusOp, Region};
use sbst_soc::{RunOutcome, Soc};

use crate::tape::{lane_step, Lane, Tape};

/// Initial Brent window (cycles an anchor is held before re-anchoring).
const LOOP_WINDOW: u64 = 64;

/// What the loop decider did during one tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoopCheck {
    /// Never decided: the run ended (or stayed within the golden run)
    /// while the decider was still searching or checking a candidate.
    Searching,
    /// Decided a hang: an exact loop, or a replay that reached the
    /// budget or a difference-free period boundary.
    Decided,
    /// Refused a candidate (counter CSR or MMIO in the period, an
    /// EX-input entry sourcing a drifting register, or a period longer
    /// than the golden tail).
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
    /// Stepping the candidate's next period with every tap on, counting
    /// the core under test's events and the grants (the tape's size).
    Probe { start: Anchor, period: u64, events: usize, ops: usize },
    /// Recording the period after a clean probe.
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
            Phase::Probe { start, period, events, ops } => {
                let Some((e, o)) = drain(soc, None, &mut self.events, &mut self.ops) else {
                    return self.finish(soc, LoopCheck::Refused);
                };
                (*events, *ops) = (*events + e, *ops + o);
                if start.age(soc) < *period {
                    return false;
                }
            }
            Phase::Record { start, period, tape } => {
                if drain(soc, Some(tape), &mut self.events, &mut self.ops).is_none() {
                    return self.finish(soc, LoopCheck::Refused);
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
                self.phase = Phase::Probe { start: Anchor::new(soc), period, events: 0, ops: 0 };
                false
            }
            Phase::Probe { start, period, events, ops } => match start.diff(soc) {
                None => self.reanchor(soc),
                Some(0) => self.finish(soc, LoopCheck::Decided),
                Some(d) if period > self.max_period || soc.core(0).ex_in_sources() & d != 0 => {
                    self.finish(soc, LoopCheck::Refused)
                }
                Some(_) => {
                    let tape = Tape::start(soc, (period as usize, events, ops));
                    self.phase = Phase::Record { start: Anchor::new(soc), period, tape };
                    false
                }
            },
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

/// Drains the cycle just stepped from every tap not feeding `tape`.
/// `None` when the cycle, on any core, read a performance counter or
/// touched MMIO; otherwise the number of the core under test's events
/// and of grants drained.
fn drain(
    soc: &mut Soc,
    tape: Option<&Tape>,
    events: &mut Vec<TapEvent>,
    ops: &mut Vec<BusOp>,
) -> Option<(usize, usize)> {
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
    let counts = (events.len(), ops.len());
    for i in 1..soc.core_count() {
        soc.core_mut(i).append_tap_events(events);
    }
    let counter = |ev: &TapEvent| {
        matches!(
            ev,
            TapEvent::ExExec {
                instr: Some(Instr::CsrRead {
                    csr: Csr::Cycles | Csr::Retired | Csr::IfStalls | Csr::MemStalls | Csr::HazStalls,
                    ..
                }),
                ..
            }
        )
    };
    let mmio = |op: &BusOp| op.words().any(|a| Region::of(a) == Region::Mmio);
    let tainted = events.iter().chain(taped).any(counter) || ops.iter().chain(granted).any(mmio);
    (!tainted).then_some(counts)
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
    use sbst_isa::{Asm, Reg};
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

    #[test]
    fn a_period_that_reads_a_counter_csr_is_refused_and_runs_to_the_budget() {
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
