//! Flat recordings of SoC cycles, and the diff lanes that replay them.
//!
//! A [`Tape`] records consecutive cycles of one SoC: the core under
//! test's [`TapEvent`]s and the bus grant stream, stored as one event
//! vector, one grant vector and per-cycle end offsets. Two tiers record
//! one: the PPSFP ride records the fault-free golden tail once per
//! campaign, and the tail driver's loop decider records one period of a
//! faulty run.
//!
//! A [`Lane`] replays a tape carrying only its *differences* from the
//! recorded run — registers, pipeline latches, memory words and the
//! faulted mux's delay history. At every event it overlays those
//! differences on the recorded values, re-evaluates the shared
//! [`mux_eval`] decomposition where its inputs differ (always, with the
//! fault applied, for the faulted forwarding mux), and
//! [falls off](FallOff) the moment a difference could change control
//! flow, an address, a trap, a CSR write, timing, or a word another bus
//! master reads. A lane that stays on is cycle-identical to the tape.

use std::collections::HashMap;

use sbst_cpu::{
    alu32, alu64, imm_operand, mux_eval, operand_mux_id, wb_mux_id, CoreKind, MemOp,
    MemOpKind, TapEvent, SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0, SRC_MEMWB_P1, SRC_RF,
    WB_SRC_ALU, WB_SRC_CSR, WB_SRC_MEM,
};
use sbst_fault::{Element, FaultSite, Polarity};
use sbst_isa::Instr;
use sbst_mem::{BusOp, Region, ReqKind};
use sbst_soc::Soc;

/// Bus master port of the core under test's data side (its
/// instruction-fetch side is port 0; foreign cores are ports 2+).
const CUT_DATA_PORT: usize = 1;

/// Mux instance id of a lane with no faulted forwarding mux.
const NO_MUX: u16 = u16::MAX;

// ---------------------------------------------------------------------
// Tape
// ---------------------------------------------------------------------

/// Recorded cycles of one SoC: the core under test's tap events and the
/// bus grants, flat.
pub(crate) struct Tape {
    events: Vec<TapEvent>,
    ops: Vec<BusOp>,
    /// Per recorded cycle: end offsets into `events` and `ops`.
    ends: Vec<(u32, u32)>,
    width: u8,
    kind: CoreKind,
    /// Forwarding-mux delay history of the core under test when the
    /// recording started (seeds a lane's `MuxPathDelay` history).
    pub delay_seed: [u64; 6],
}

impl Tape {
    /// Starts a recording at `soc`'s current state: turns on the core
    /// under test's tap and the bus grant recorder. `capacity` reserves
    /// room for (cycles, events, grants) when the size is known.
    pub fn start(soc: &mut Soc, capacity: (usize, usize, usize)) -> Tape {
        soc.core_mut(0).set_tap(true);
        soc.bus_mut().record_ops(true);
        let core = soc.core(0);
        Tape {
            events: Vec::with_capacity(capacity.1),
            ops: Vec::with_capacity(capacity.2),
            ends: Vec::with_capacity(capacity.0),
            width: core.forwarding_unit().width(),
            kind: core.config().kind,
            delay_seed: *core.forwarding_unit().delay_state(),
        }
    }

    /// Steps `soc` one cycle and appends what the core under test and
    /// the bus did in it.
    pub fn record(&mut self, soc: &mut Soc) {
        soc.step();
        soc.core_mut(0).append_tap_events(&mut self.events);
        soc.bus_mut().append_ops(&mut self.ops);
        self.ends.push((self.events.len() as u32, self.ops.len() as u32));
    }

    /// The events and grants of the last recorded cycle.
    pub fn last(&self) -> (&[TapEvent], &[BusOp]) {
        let n = self.ends.len();
        let (e0, o0) = if n > 1 { self.ends[n - 2] } else { (0, 0) };
        let (e1, o1) = self.ends.last().copied().unwrap_or((0, 0));
        (&self.events[e0 as usize..e1 as usize], &self.ops[o0 as usize..o1 as usize])
    }

    /// The events and grants of every recorded cycle, in order.
    pub fn cycles(&self) -> impl Iterator<Item = (&[TapEvent], &[BusOp])> + '_ {
        let mut prev = (0usize, 0usize);
        self.ends.iter().map(move |&(e, o)| {
            let (e, o) = (e as usize, o as usize);
            let cycle = (&self.events[prev.0..e], &self.ops[prev.1..o]);
            prev = (e, o);
            cycle
        })
    }
}

// ---------------------------------------------------------------------
// Lane state
// ---------------------------------------------------------------------

/// Architectural-register differences of one lane (the lane's value
/// where the presence bit is set; absent = equal to the tape).
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
    /// matches the tape — a tape-equal commit overwrites any stale
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LatchDiff {
    /// Lane ALU/link value, if it differs from the tape.
    alu: Option<u64>,
    /// Lane store/swap payload, if it differs from the tape.
    wdata: Option<u32>,
}

/// One fault lane replaying a tape.
pub(crate) struct Lane {
    /// Index into the campaign fault list.
    pub index: usize,
    /// Faulted forwarding-mux instance ([`NO_MUX`] when none).
    instance: u16,
    fault: Option<(Element, Polarity)>,
    /// Delay history of the faulted mux instance (mirrors
    /// `ForwardingNetwork::delay_state` of a really-armed run).
    last_out: u64,
    regs: RegDiff,
    exmem: [Option<LatchDiff>; 2],
    /// Lane writeback value per pipe, if it differs from the tape.
    memwb: [Option<u64>; 2],
    /// Forwarding-view snapshots taken at the start of each step
    /// (EX/MEM alu and MEM/WB value differences, per pipe).
    fwd_ex: [Option<u64>; 2],
    fwd_wb: [Option<u64>; 2],
    /// Lane operand values of the current issue packet, if differing.
    ops: [[Option<u64>; 2]; 2],
    /// Lane memory view: value at every word address where the lane's
    /// memory differs (or ever differed — entries are removed when a
    /// tape-equal store reconverges the word) from the tape.
    pub mem: HashMap<u32, u32>,
    /// Old lane value at the in-flight bus swap's address, recorded at
    /// grant time (`Some(None)` = equal to the tape).
    swap_overlay: Option<Option<u32>>,
    /// The in-flight swap's write difference was applied at grant time
    /// (bus swaps); private TCM swaps apply it at the WB mux instead.
    swap_applied: bool,
}

/// Signals that a lane's differences escaped the data-only regime and
/// the lane must leave the tape.
pub(crate) struct FallOff;

impl Lane {
    /// A lane with no differences yet. `mux` is the armed fault when it
    /// lives in the forwarding network — the one mux the lane
    /// re-evaluates with the fault applied; `seed` is the forwarding
    /// delay history at the tape's start.
    pub fn new(index: usize, mux: Option<FaultSite>, seed: &[u64; 6]) -> Lane {
        let instance = mux.map_or(NO_MUX, |s| s.instance);
        Lane {
            index,
            instance,
            fault: mux.map(|s| (s.element, s.polarity)),
            last_out: seed.get(instance as usize).copied().unwrap_or(0),
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

    /// Re-expresses the register differences, which are relative to the
    /// registers `end` the tape finished with, against the registers
    /// `start` it began with — so the lane can replay the tape again
    /// from its first cycle.
    pub fn rebase(&mut self, start: &[u32; 32], end: &[u32; 32]) {
        for r in 1..32u8 {
            let lane = self.regs.get(r).unwrap_or(end[r as usize]);
            self.regs.commit(r, lane, start[r as usize]);
        }
    }

    /// Whether the lane holds no difference at all from the tape's
    /// start state (`seed` is the delay history there). Only meaningful
    /// at a cycle boundary.
    pub fn is_clean(&self, seed: &[u64; 6]) -> bool {
        self.regs.mask == 0
            && self.exmem == [None; 2]
            && self.memwb == [None; 2]
            && self.ops == [[None; 2]; 2]
            && self.mem.is_empty()
            && self.swap_overlay.flatten().is_none()
            && self.last_out == seed.get(self.instance as usize).copied().unwrap_or(0)
    }

    /// Applies the memory effect of a store/swap: the lane wrote
    /// `wdata` (`None` = the tape's value) into `addr` where the tape
    /// wrote `golden_w`. Tracked for SRAM and the private data TCM; a
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
    /// `Core::read_src` pairing rules over the tape's value).
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

/// Replays one recorded cycle (`events` and `ops` of `tape`) for one
/// lane. `union` is the sticky address union of every lane sharing the
/// tape and `bit` this lane's bit in it. `Err(FallOff)` means the lane
/// diverged architecturally and must leave the tape.
pub(crate) fn lane_step(
    lane: &mut Lane,
    events: &[TapEvent],
    ops: &[BusOp],
    tape: &Tape,
    union: &mut HashMap<u32, u64>,
    bit: u64,
) -> Result<(), FallOff> {
    // The core snapshots its pipeline registers for the forwarding
    // network before anything else in the cycle; mirror that.
    lane.fwd_ex = [lane.exmem[0].and_then(|l| l.alu), lane.exmem[1].and_then(|l| l.alu)];
    lane.fwd_wb = lane.memwb;

    for ev in events {
        match *ev {
            TapEvent::WbCommit { pipe, dest, value } => {
                let lane_v = lane.memwb[pipe as usize].take();
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
                let (pipe, sel) = (pipe as usize, sel as usize);
                lane_wb_mux(lane, union, bit, tape.width, pipe, &inputs, sel, out, mem)?;
            }
            TapEvent::ExOperand { slot, operand, rf_src, inputs, sel, out } => {
                let (slot, operand) = (slot as usize, operand as usize);
                let sel = sel.map(usize::from);
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
                    mux_eval(&li, sel, tape.width, lane.fault, &mut lane.last_out)
                } else if li != inputs {
                    let mut dummy = 0;
                    mux_eval(&li, sel, tape.width, None, &mut dummy)
                } else {
                    out
                };
                lane.ops[slot][operand] = (lane_out != out).then_some(lane_out);
            }
            TapEvent::ExExec { slot, instr, ops, alu: _, mem, raise: _, .. } => {
                let slot = slot as usize;
                let lane_ops = [
                    lane.ops[slot][0].take().unwrap_or(ops[0]),
                    lane.ops[slot][1].take().unwrap_or(ops[1]),
                ];
                lane.exmem[slot] = if lane_ops == ops {
                    None
                } else {
                    let latch = lane_exec(tape.kind, instr, ops, lane_ops, mem)?;
                    (latch.alu.is_some() || latch.wdata.is_some()).then_some(latch)
                };
            }
        }
    }

    for op in ops {
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
    width: u8,
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
        mux_eval(&li, Some(sel), width, lane.fault, &mut lane.last_out)
    } else if li[..] != inputs[..] {
        let mut dummy = 0;
        mux_eval(&li, Some(sel), width, None, &mut dummy)
    } else {
        out
    };
    lane.memwb[pipe] = (lane_out != out).then_some(lane_out);
    Ok(())
}

/// Re-executes one instruction's data semantics with the lane's operand
/// values, checking every architectural decision against the recorded
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
