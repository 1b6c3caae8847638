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
//! 1. the golden tail is run once from the warm-start snapshot with the
//!    core tap ([`TapEvent`]) and the bus operation tap enabled,
//!    recording every register commit, mux evaluation, executed
//!    instruction and bus transaction up to the core-under-test halt
//!    (the same early exit [`Experiment::run_warm`] uses);
//! 2. each *lane* (one fault of a packed [`FaultWord`]) replays the
//!    event stream, overlaying its own differences (registers, pipeline
//!    latches, memory words) on the recorded fault-free values and
//!    re-evaluating the shared [`mux_eval`] gate decomposition for its
//!    own faulted mux instance — bit-exact with what an armed
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
//! The serial fallback itself gets a *livelock short-circuit*: once past
//! the golden cycle count, exact state repetition
//! ([`Soc::loop_state_eq`]) is detected with a Brent-style doubling
//! anchor and verified over one full period (no performance-counter CSR
//! reads, no MMIO traffic, state equal again), after which the run is
//! classified [`Verdict::Hang`] immediately instead of burning the
//! remaining tail budget.
//!
//! Verdict equivalence with the serial warm path — over full collapsed
//! lists, forced fallbacks included — is pinned by
//! `tests/ppsfp_equivalence.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sbst_cpu::{
    alu32, alu64, imm_operand, mux_eval, operand_mux_id, wb_mux_id, CoreKind, MemOp,
    MemOpKind, TapEvent, SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1, SRC_RF,
    WB_SRC_ALU, WB_SRC_CSR, WB_SRC_MEM,
};
use sbst_fault::{
    pack_density, pack_fault_words, Element, FaultList, FaultPlane, FaultSite, FaultWord,
    Polarity, Unit, Verdict,
};
use sbst_isa::{Csr, Instr};
use sbst_mem::{ArbiterKind, BusOp, Region, ReqKind};
use sbst_soc::{RunOutcome, Soc};
use sbst_stl::{RESULT_SIG_OFF, RESULT_STATUS_OFF, STATUS_DONE};

use crate::experiment::{Experiment, Observation, Snapshot};
use crate::faultsim::{finish, grade_pending, CampaignResult, FaultGrader};

/// Bus master port of the core under test's data side (its
/// instruction-fetch side is port 0; foreign cores are ports 2+).
const CUT_DATA_PORT: usize = 1;

/// Initial Brent window (cycles an anchor is held before re-anchoring).
const LOOP_WINDOW: u64 = 64;

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
    /// Serial fallback runs decided early by the verified-livelock
    /// short-circuit instead of exhausting the tail budget.
    pub loop_short_circuits: usize,
}

// ---------------------------------------------------------------------
// Ride trace: one tapped golden tail run, recorded once per campaign.
// ---------------------------------------------------------------------

/// Events of one SoC cycle of the golden ride.
struct RideStep {
    events: Vec<TapEvent>,
    ops: Vec<BusOp>,
}

/// The recorded golden tail: per-cycle tap events and bus operations
/// from the warm-start snapshot to the core-under-test halt, plus the
/// golden mailbox words at that point.
struct RideTrace {
    steps: Vec<RideStep>,
    /// Per mailbox part: (base, golden signature word, golden status).
    mailboxes: Vec<(u32, u32, u32)>,
    cut_halt_cycle: u64,
    width: u8,
    kind: CoreKind,
    /// Forwarding-mux delay history at the snapshot (seeds lane
    /// reconstruction of `MuxPathDelay` faults).
    delay_seed: [u64; 6],
}

/// Runs the golden tail once with the core and bus taps enabled.
/// Returns `None` if the golden tail fails to halt cleanly (defensive —
/// the experiment asserts a clean golden run at assembly).
fn record_ride(experiment: &Experiment, snapshot: &Snapshot) -> Option<RideTrace> {
    let mut soc = snapshot.soc().clone();
    soc.core_mut(0).set_tap(true);
    soc.bus_mut().record_ops(true);
    let mut steps = Vec::new();
    loop {
        if soc.cycle() >= snapshot.budget() {
            return None;
        }
        soc.step();
        let events = soc.core_mut(0).take_tap_events();
        let ops = soc.bus_mut().take_ops();
        steps.push(RideStep { events, ops });
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
    Some(RideTrace {
        steps,
        mailboxes,
        cut_halt_cycle: soc.cycle(),
        width: soc.core(0).forwarding_unit().width(),
        kind: soc.core(0).config().kind,
        delay_seed: *snapshot.soc().core(0).forwarding_unit().delay_state(),
    })
}

// ---------------------------------------------------------------------
// Lane state
// ---------------------------------------------------------------------

/// Architectural-register differences of one lane (value at the faulty
/// run minus presence bit; absent = equal to golden).
#[derive(Debug, Clone, Copy, Default)]
struct RegDiff {
    mask: u32,
    vals: [u32; 32],
}

impl RegDiff {
    fn get(&self, r: u8) -> Option<u32> {
        (self.mask >> r & 1 == 1).then(|| self.vals[r as usize])
    }

    /// Records the lane value committed to `r` (clears the diff when it
    /// matches golden — a golden-equal commit overwrites any stale
    /// difference).
    fn commit(&mut self, r: u8, lane: u32, golden: u32) {
        if lane == golden {
            self.mask &= !(1 << r);
        } else {
            self.mask |= 1 << r;
            self.vals[r as usize] = lane;
        }
    }
}

/// EX/MEM latch differences of one lane's in-flight entry.
#[derive(Debug, Clone, Copy, Default)]
struct LatchDiff {
    /// Lane ALU/link value, if it differs from golden.
    alu: Option<u64>,
    /// Lane store/swap payload, if it differs from golden.
    wdata: Option<u32>,
}

/// One fault lane riding the golden trace.
struct Lane {
    /// Index into the campaign fault list.
    index: usize,
    /// Faulted forwarding-mux instance.
    instance: u16,
    fault: (Element, Polarity),
    /// Delay history of the faulted mux instance (mirrors
    /// `ForwardingNetwork::delay_state` of a really-armed run).
    last_out: u64,
    regs: RegDiff,
    exmem: [Option<LatchDiff>; 2],
    /// Lane writeback value per pipe, if it differs from golden.
    memwb: [Option<u64>; 2],
    /// Forwarding-view snapshots taken at the start of each step
    /// (EX/MEM alu and MEM/WB value differences, per pipe).
    fwd_ex: [Option<u64>; 2],
    fwd_wb: [Option<u64>; 2],
    /// Lane operand values of the current issue packet, if differing.
    ops: [[Option<u64>; 2]; 2],
    /// Lane memory view: value at every word address where the lane's
    /// memory differs (or ever differed — entries are removed when a
    /// golden-equal store reconverges the word) from golden.
    mem: HashMap<u32, u32>,
    /// Old lane value at the in-flight bus swap's address, recorded at
    /// grant time (`Some(None)` = equal to golden).
    swap_overlay: Option<Option<u32>>,
    /// The in-flight swap's write difference was applied at grant time
    /// (bus swaps); private TCM swaps apply it at the WB mux instead.
    swap_applied: bool,
}

/// Signals that a lane's differences escaped the data-only regime and
/// the lane must fall back to the serial path.
struct FallOff;

impl Lane {
    fn new(index: usize, site: FaultSite, seed: &[u64; 6]) -> Lane {
        Lane {
            index,
            instance: site.instance,
            fault: (site.element, site.polarity),
            last_out: seed.get(site.instance as usize).copied().unwrap_or(0),
            regs: RegDiff::default(),
            exmem: [None; 2],
            memwb: [None; 2],
            fwd_ex: [None; 2],
            fwd_wb: [None; 2],
            ops: [[None; 2]; 2],
            mem: HashMap::new(),
            swap_overlay: None,
            swap_applied: false,
        }
    }

    /// Applies the memory effect of a store/swap: the lane wrote
    /// `wdata` (`None` = golden value) into `addr` where golden wrote
    /// `golden_w`. Tracked for SRAM and the private data TCM; a
    /// differing write anywhere else (MMIO side effects, instruction
    /// TCM self-modification, Flash) falls off.
    fn apply_write(
        &mut self,
        union: &mut HashMap<u32, u64>,
        bit: u64,
        addr: u32,
        golden_w: u32,
        wdata: Option<u32>,
    ) -> Result<(), FallOff> {
        let lane_w = wdata.unwrap_or(golden_w);
        match Region::of(addr) {
            Region::Sram | Region::Dtcm => {
                if lane_w == golden_w {
                    self.mem.remove(&addr);
                } else {
                    self.mem.insert(addr, lane_w);
                    // Sticky: the union entry survives reconvergence, so
                    // foreign accesses during any store-buffer drain
                    // window still fall the lane off conservatively.
                    *union.entry(addr).or_insert(0) |= bit;
                }
                Ok(())
            }
            _ if lane_w != golden_w => Err(FallOff),
            _ => Ok(()),
        }
    }

    /// Lane view of a 64-bit register-file read (mirrors
    /// `Core::read_src` pairing rules over the golden value).
    fn read_src(&self, golden: u64, base: u8, is64: bool) -> u64 {
        let lo = self.regs.get(base).unwrap_or(golden as u32);
        if is64 && base.is_multiple_of(2) && base < 31 {
            let hi = self.regs.get(base + 1).unwrap_or((golden >> 32) as u32);
            lo as u64 | (hi as u64) << 32
        } else {
            lo as u64
        }
    }
}

// ---------------------------------------------------------------------
// Lane event processing
// ---------------------------------------------------------------------

/// Replays one recorded cycle for one lane. `Err(FallOff)` means the
/// lane diverged architecturally and must be re-graded serially.
fn lane_step(
    lane: &mut Lane,
    step: &RideStep,
    trace: &RideTrace,
    union: &mut HashMap<u32, u64>,
    bit: u64,
) -> Result<(), FallOff> {
    // The core snapshots its pipeline registers for the forwarding
    // network before anything else in the cycle; mirror that.
    lane.fwd_ex = [lane.exmem[0].and_then(|l| l.alu), lane.exmem[1].and_then(|l| l.alu)];
    lane.fwd_wb = lane.memwb;

    for ev in &step.events {
        match *ev {
            TapEvent::WbCommit { pipe, dest, value } => {
                let lane_v = lane.memwb[pipe].take();
                if let Some((base, is64)) = dest {
                    let lv = lane_v.unwrap_or(value);
                    if base != 0 {
                        lane.regs.commit(base, lv as u32, value as u32);
                    }
                    if is64 && base < 31 {
                        lane.regs.commit(base + 1, (lv >> 32) as u32, (value >> 32) as u32);
                    }
                }
            }
            TapEvent::WbMux { pipe, inputs, sel, out, mem } => {
                lane_wb_mux(lane, union, bit, trace, pipe, &inputs, sel, out, mem)?;
            }
            TapEvent::ExOperand { slot, operand, rf_src, inputs, sel, out } => {
                let mut li = inputs;
                if let Some((base, is64)) = rf_src {
                    li[SRC_RF] = lane.read_src(inputs[SRC_RF], base, is64);
                }
                for (i, d) in [
                    (SRC_EXMEM_P0, lane.fwd_ex[0]),
                    (SRC_EXMEM_P1, lane.fwd_ex[1]),
                    (SRC_MEMWB_P0, lane.fwd_wb[0]),
                    (SRC_MEMWB_P1, lane.fwd_wb[1]),
                ] {
                    if let Some(v) = d {
                        li[i] = v;
                    }
                }
                let id = operand_mux_id(slot, operand);
                let lane_out = if id == lane.instance {
                    mux_eval(&li, sel, trace.width, Some(lane.fault), &mut lane.last_out)
                } else if li != inputs {
                    let mut dummy = 0;
                    mux_eval(&li, sel, trace.width, None, &mut dummy)
                } else {
                    out
                };
                lane.ops[slot][operand] = (lane_out != out).then_some(lane_out);
            }
            TapEvent::ExExec { slot, instr, ops, alu: _, mem, raise: _, .. } => {
                let lane_ops = [
                    lane.ops[slot][0].take().unwrap_or(ops[0]),
                    lane.ops[slot][1].take().unwrap_or(ops[1]),
                ];
                lane.exmem[slot] = if lane_ops == ops {
                    None
                } else {
                    let latch = lane_exec(trace.kind, instr, ops, lane_ops, mem)?;
                    (latch.alu.is_some() || latch.wdata.is_some()).then_some(latch)
                };
            }
        }
    }

    for op in &step.ops {
        match op.port {
            CUT_DATA_PORT => {
                if let ReqKind::Swap(golden_w) = op.kind {
                    // The swap's data phase commits at grant: record the
                    // pre-swap lane value for the WB-stage read and apply
                    // the write difference now, before any foreign access
                    // can observe the new word. Memory ops only ever
                    // occupy pipe 0, so the in-flight latch is exmem[0].
                    lane.swap_overlay = Some(lane.mem.get(&op.addr).copied());
                    let wd = lane.exmem[0].and_then(|l| l.wdata);
                    lane.apply_write(union, bit, op.addr, golden_w, wd)?;
                    lane.swap_applied = true;
                }
                // Reads are the lane's own loads/fills (overlaid at the
                // WB mux); posted writes were applied at their WB mux.
            }
            _ => {
                // Foreign master — or the core under test's own
                // instruction fetches: any touched word the lane ever
                // diverged on invalidates the shared-trajectory
                // assumption (stale caches, divergent fetched code).
                if !union.is_empty()
                    && op.words().any(|a| union.get(&a).is_some_and(|m| m & bit != 0))
                {
                    return Err(FallOff);
                }
            }
        }
    }
    Ok(())
}

/// The WB-select mux of `pipe` for one lane: overlay latch and memory
/// differences on the recorded inputs, re-evaluate if needed, apply
/// store effects, and latch the lane's writeback value.
#[allow(clippy::too_many_arguments)]
fn lane_wb_mux(
    lane: &mut Lane,
    union: &mut HashMap<u32, u64>,
    bit: u64,
    trace: &RideTrace,
    pipe: usize,
    inputs: &[u64; 3],
    sel: usize,
    out: u64,
    mem: Option<MemOp>,
) -> Result<(), FallOff> {
    let latch = lane.exmem[pipe].take().unwrap_or_default();
    let mut li = [
        latch.alu.unwrap_or(inputs[WB_SRC_ALU]),
        inputs[WB_SRC_MEM],
        inputs[WB_SRC_CSR],
    ];
    if let Some(op) = mem {
        match op.kind {
            MemOpKind::Load => {
                if let Some(&v) = lane.mem.get(&op.addr) {
                    li[WB_SRC_MEM] = v as u64;
                }
            }
            MemOpKind::Swap => {
                match lane.swap_overlay.take() {
                    // Bus swap: read and write were resolved at grant.
                    Some(overlay) => {
                        if let Some(v) = overlay {
                            li[WB_SRC_MEM] = v as u64;
                        }
                    }
                    // Private TCM swap: same-cycle read-then-write, no
                    // bus visibility — resolve both here.
                    None => {
                        if let Some(&v) = lane.mem.get(&op.addr) {
                            li[WB_SRC_MEM] = v as u64;
                        }
                    }
                }
                if !lane.swap_applied {
                    lane.apply_write(union, bit, op.addr, op.wdata, latch.wdata)?;
                }
                lane.swap_applied = false;
            }
            MemOpKind::Store => {
                lane.apply_write(union, bit, op.addr, op.wdata, latch.wdata)?;
            }
        }
    }
    let id = wb_mux_id(pipe);
    let lane_out = if id == lane.instance {
        mux_eval(&li, Some(sel), trace.width, Some(lane.fault), &mut lane.last_out)
    } else if li[..] != inputs[..] {
        let mut dummy = 0;
        mux_eval(&li, Some(sel), trace.width, None, &mut dummy)
    } else {
        out
    };
    lane.memwb[pipe] = (lane_out != out).then_some(lane_out);
    Ok(())
}

/// Re-executes one instruction's data semantics with the lane's operand
/// values, checking every architectural decision against the golden
/// outcome. Returns the lane's EX/MEM latch differences.
fn lane_exec(
    kind: CoreKind,
    instr: Option<Instr>,
    g_ops: [u64; 2],
    l_ops: [u64; 2],
    event_mem: Option<MemOp>,
) -> Result<LatchDiff, FallOff> {
    let mut latch = LatchDiff::default();
    let (ga, gb) = (g_ops[0] as u32, g_ops[1] as u32);
    let (la, lb) = (l_ops[0] as u32, l_ops[1] as u32);
    let Some(instr) = instr else { return Ok(latch) }; // Illegal in both runs
    match instr {
        Instr::Nop | Instr::Halt | Instr::Lui { .. } | Instr::Jal { .. }
        | Instr::Cache(_) | Instr::Mret | Instr::CsrRead { .. } => {}
        Instr::Alu { op, .. } => {
            let (gv, gc) = alu32(op, ga, gb);
            let (lv, lc) = alu32(op, la, lb);
            if lc != gc {
                return Err(FallOff);
            }
            latch.alu = (lv != gv).then_some(lv as u64);
        }
        Instr::AluImm { op, imm, .. } => {
            let b = imm_operand(op, imm);
            let (gv, gc) = alu32(op, ga, b);
            let (lv, lc) = alu32(op, la, b);
            if lc != gc {
                return Err(FallOff);
            }
            latch.alu = (lv != gv).then_some(lv as u64);
        }
        Instr::Alu64 { op, rd, rs1, rs2 } => {
            let legal = kind.has_alu64()
                && rd.is_even()
                && rs1.is_even()
                && rs2.is_even()
                && rd.index() < 31;
            if legal {
                let (gv, gc) = alu64(op, g_ops[0], g_ops[1]);
                let (lv, lc) = alu64(op, l_ops[0], l_ops[1]);
                if lc != gc {
                    return Err(FallOff);
                }
                latch.alu = (lv != gv).then_some(lv);
            } // else: Illegal in both runs
        }
        Instr::Load { off, .. } => {
            if la.wrapping_add(off as i32 as u32) != ga.wrapping_add(off as i32 as u32) {
                return Err(FallOff); // address divergence
            }
        }
        Instr::Store { off, .. } => {
            if la.wrapping_add(off as i32 as u32) != ga.wrapping_add(off as i32 as u32) {
                return Err(FallOff);
            }
            if event_mem.is_some() {
                latch.wdata = (lb != gb).then_some(lb);
            } // unaligned in both runs otherwise
        }
        Instr::Amoswap { .. } => {
            if la != ga {
                return Err(FallOff);
            }
            if event_mem.is_some() {
                latch.wdata = (lb != gb).then_some(lb);
            }
        }
        Instr::Branch { cond, .. } => {
            if cond.eval(la, lb) != cond.eval(ga, gb) {
                return Err(FallOff); // taken-direction divergence
            }
        }
        Instr::Jalr { off, .. } => {
            if la.wrapping_add(off as i32 as u32) & !3 != ga.wrapping_add(off as i32 as u32) & !3 {
                return Err(FallOff); // target divergence
            }
        }
        Instr::CsrWrite { .. } => {
            if la != ga {
                return Err(FallOff); // diffed operand into CSR/ICU state
            }
        }
    }
    Ok(latch)
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
    let mut lanes: Vec<Lane> = word
        .lanes()
        .iter()
        .map(|&(index, site)| Lane::new(index, site, &trace.delay_seed))
        .collect();
    let mut alive: u64 = if lanes.len() == 64 { u64::MAX } else { (1u64 << lanes.len()) - 1 };
    let mut union: HashMap<u32, u64> = HashMap::new();
    for step in &trace.steps {
        if alive == 0 {
            break;
        }
        for (l, lane) in lanes.iter_mut().enumerate() {
            let bit = 1u64 << l;
            if alive & bit == 0 {
                continue;
            }
            if lane_step(lane, step, trace, &mut union, bit).is_err() {
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
// Serial fallback with livelock short-circuit
// ---------------------------------------------------------------------

enum LoopProbe {
    /// State repeats over one verified period: the run can never halt.
    Confirmed,
    /// The loop body reads excluded free-running state (counter CSRs or
    /// MMIO) — periodicity of the visible state proves nothing.
    Tainted,
    /// The anchor match was a coincidence; keep simulating.
    NotPeriodic,
}

fn counter_csr(csr: Csr) -> bool {
    matches!(csr, Csr::Cycles | Csr::Retired | Csr::IfStalls | Csr::MemStalls | Csr::HazStalls)
}

/// Verifies a candidate period by re-simulating one period on a tapped
/// clone: the loop must not read a performance-counter CSR on any core,
/// must not touch MMIO, and must land on the same state again.
fn verify_loop(soc: &Soc, period: u64) -> LoopProbe {
    let mut probe = soc.clone();
    for i in 0..probe.core_count() {
        probe.core_mut(i).set_tap(true);
    }
    probe.bus_mut().record_ops(true);
    for _ in 0..period {
        probe.step();
        for i in 0..probe.core_count() {
            for ev in probe.core_mut(i).take_tap_events() {
                if let TapEvent::ExExec { instr: Some(Instr::CsrRead { csr, .. }), .. } = ev {
                    if counter_csr(csr) {
                        return LoopProbe::Tainted;
                    }
                }
            }
        }
        for op in probe.bus_mut().take_ops() {
            if op.words().any(|a| Region::of(a) == Region::Mmio) {
                return LoopProbe::Tainted;
            }
        }
    }
    if probe.loop_state_eq(soc) {
        LoopProbe::Confirmed
    } else {
        LoopProbe::NotPeriodic
    }
}

/// [`Experiment::run_warm`] plus the livelock short-circuit: once past
/// the golden cycle count, a Brent-style doubling anchor watches for
/// exact state repetition; a verified loop is classified as the
/// watchdog outcome immediately (verdict-identical — a looping run can
/// only ever end by budget exhaustion or watchdog bite, both `Hang`).
pub(crate) fn run_warm_loopcheck(
    experiment: &Experiment,
    snapshot: &Snapshot,
    golden_cycles: u64,
    plane: FaultPlane,
    loop_hits: &AtomicUsize,
) -> Observation {
    let mut soc = snapshot.soc().clone();
    soc.core_mut(0).set_plane(plane);
    // TDMA slotting depends on the absolute cycle (excluded from the
    // state comparison) and chaos planes are nondeterministic state
    // outside it: both disable detection, never correctness.
    let mut detect = !matches!(soc.bus().arbiter_kind(), ArbiterKind::Tdma { .. })
        && !soc.has_chaos();
    let mut anchor: Option<Soc> = None;
    let mut anchor_cycle = 0u64;
    let mut window = LOOP_WINDOW;
    let outcome = loop {
        if soc.cycle() >= snapshot.budget() {
            break RunOutcome::Watchdog { cycles: soc.cycle() };
        }
        soc.step();
        if let Some(core) = (0..soc.core_count()).find(|&i| soc.core(i).fatal_trap()) {
            break RunOutcome::FatalTrap { core, cycles: soc.cycle() };
        }
        if soc.core(0).halted() {
            break RunOutcome::AllHalted { cycles: soc.cycle() };
        }
        if soc.bus().watchdog().bitten() {
            break RunOutcome::Watchdog { cycles: soc.cycle() };
        }
        if detect && soc.cycle() > golden_cycles {
            match &anchor {
                None => {
                    anchor = Some(soc.clone());
                    anchor_cycle = soc.cycle();
                }
                Some(a) if soc.loop_state_eq(a) => {
                    match verify_loop(&soc, soc.cycle() - anchor_cycle) {
                        LoopProbe::Confirmed => {
                            loop_hits.fetch_add(1, Ordering::Relaxed);
                            break RunOutcome::Watchdog { cycles: snapshot.budget() };
                        }
                        LoopProbe::Tainted => {
                            detect = false;
                            anchor = None;
                        }
                        LoopProbe::NotPeriodic => {
                            anchor = Some(soc.clone());
                            anchor_cycle = soc.cycle();
                            window *= 2;
                        }
                    }
                }
                Some(_) if soc.cycle() - anchor_cycle >= window => {
                    anchor = Some(soc.clone());
                    anchor_cycle = soc.cycle();
                    window *= 2;
                }
                Some(_) => {}
            }
        }
    };
    experiment.observe(&soc, outcome)
}

/// The fallback grader: the serial warm path with the livelock
/// short-circuit. Used for fallen-off lanes and HDCU/ICU words.
pub(crate) struct PpsfpFallbackGrader<'a> {
    pub experiment: &'a Experiment,
    pub golden: &'a Observation,
    pub snapshot: &'a Snapshot,
    pub loop_hits: &'a AtomicUsize,
}

impl FaultGrader for PpsfpFallbackGrader<'_> {
    fn grade(&self, site: FaultSite) -> Verdict {
        let faulty = run_warm_loopcheck(
            self.experiment,
            self.snapshot,
            self.golden.cycles,
            FaultPlane::armed(site),
            self.loop_hits,
        );
        Experiment::classify(self.golden, &faulty)
    }
}

// ---------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------

/// The bit-parallel campaign: packs the list into [`FaultWord`]s, rides
/// forwarding words on one tapped golden tail, and grades everything
/// else (fallen-off lanes, HDCU/ICU words) through the serial warm path
/// with the livelock short-circuit. Verdicts are returned in fault-list
/// order and are bit-identical to [`run_campaign_warm_detailed`]
/// (pinned by the equivalence wall); each fault is graded exactly once.
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

    let loop_hits = AtomicUsize::new(0);
    let grader = PpsfpFallbackGrader {
        experiment,
        golden,
        snapshot: &snapshot,
        loop_hits: &loop_hits,
    };
    let errors = Mutex::new(Vec::new());
    grade_pending(&grader, sites, &slots, &errors, threads, &|_| {});
    stats.loop_short_circuits = loop_hits.load(Ordering::Relaxed);

    let (result, records) = finish(sites, slots);
    (result, records, stats)
}
