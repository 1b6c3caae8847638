//! Flat recordings of SoC cycles, and the diff lanes that replay them.
//!
//! A [`Tape`] records consecutive cycles of one SoC: the core under
//! test's [`TapEvent`]s and the bus grant stream, stored as one event
//! vector, one grant vector and one end record per cycle (its offsets
//! and whether the ICU's recognition timer ran). Two tiers record one:
//! the PPSFP ride records the fault-free golden tail in fixed-size
//! chunks, and the tail driver's loop decider records one period of a
//! faulty run.
//!
//! A [`Lane`] replays a tape carrying only its *differences* from the
//! recorded run — registers, pipeline latches, memory words and the
//! faulted mux's delay history — plus its own copy of a faulted control
//! unit. At every event it overlays those differences on the recorded
//! values, re-evaluates the shared [`mux_eval`] decomposition where its
//! inputs differ (always, with the fault applied, for the faulted
//! forwarding mux), and [falls off](FallOff) the moment a difference
//! could change control flow, an address, a trap, a CSR write, timing,
//! or a word another bus master reads:
//!
//! - an HDCU lane re-evaluates its faulted consumer's route, the global
//!   stall and the split decision on the recorded inputs. A stall or
//!   split decision unlike the tape's falls off; a different select code
//!   only changes the operand that consumer's mux resolves, a data
//!   difference like any other;
//! - an ICU lane replays raises, timer ticks, recognitions, ICU CSR
//!   writes and `mret` on its own ICU. A different window start,
//!   recognition or word-aligned `mret` target falls off; a different
//!   ICU CSR read is a difference on the WB mux's CSR input.
//!
//! The scratch CSRs hold data only: a lane keeps their values as
//! differences, set or cleared at `csrw` and read back at `csrr`.
//!
//! A lane that stays on is cycle-identical to the tape. A *quiet* lane,
//! one with no data difference, only looks at the events its faulted
//! instance can change; every other event would leave it unchanged.

use std::collections::HashMap;

use sbst_cpu::{
    alu32, alu64, imm_operand, mux_eval, operand_mux_id, wb_mux_id, CoreKind, Hdcu, Icu, MemOp,
    MemOpKind, ProducerView, Reach, TapEvent, SRC_EXMEM_P0, SRC_EXMEM_P1, SRC_MEMWB_P0,
    SRC_MEMWB_P1, SRC_RF, WB_SRC_ALU, WB_SRC_CSR, WB_SRC_MEM,
};
use sbst_fault::{Element, FaultPlane, FaultSite, Polarity, Unit};
use sbst_isa::{Csr, Instr};
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

/// The end record of one recorded cycle.
#[derive(Debug, Clone, Copy)]
struct CycleEnd {
    /// End offsets into the event and grant vectors.
    events: u32,
    ops: u32,
    /// The core under test's ICU timer ran in this cycle.
    icu_ticked: bool,
}

/// One recorded cycle of a [`Tape`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycle<'t> {
    pub events: &'t [TapEvent],
    pub ops: &'t [BusOp],
    pub icu_ticked: bool,
}

/// Recorded cycles of one SoC: the core under test's tap events and the
/// bus grants, flat.
pub(crate) struct Tape {
    events: Vec<TapEvent>,
    ops: Vec<BusOp>,
    ends: Vec<CycleEnd>,
    width: u8,
    kind: CoreKind,
    /// Forwarding-mux delay history of the core under test when the
    /// recording started (seeds a lane's `MuxPathDelay` history).
    pub delay_seed: [u64; 6],
    /// The core under test's ICU when the recording started (an ICU
    /// lane's own copy starts from it).
    icu: Icu,
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
            icu: core.icu().clone(),
        }
    }

    /// Steps `soc` one cycle and appends what the core under test and
    /// the bus did in it.
    pub fn record(&mut self, soc: &mut Soc) {
        soc.step();
        let core = soc.core_mut(0);
        core.append_tap_events(&mut self.events);
        let icu_ticked = core.tap_icu_ticked();
        soc.bus_mut().append_ops(&mut self.ops);
        self.ends.push(CycleEnd {
            events: self.events.len() as u32,
            ops: self.ops.len() as u32,
            icu_ticked,
        });
    }

    /// Drops the recorded cycles but keeps the buffers and the start
    /// state, so the next cycles recorded continue the lanes created
    /// from this tape.
    pub fn clear(&mut self) {
        self.events.clear();
        self.ops.clear();
        self.ends.clear();
    }

    /// Recorded cycles.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The events and grants of the last recorded cycle.
    pub fn last(&self) -> (&[TapEvent], &[BusOp]) {
        let n = self.ends.len();
        let (e0, o0) = if n > 1 { (self.ends[n - 2].events, self.ends[n - 2].ops) } else { (0, 0) };
        let (e1, o1) = self.ends.last().map_or((0, 0), |end| (end.events, end.ops));
        (&self.events[e0 as usize..e1 as usize], &self.ops[o0 as usize..o1 as usize])
    }

    /// Every recorded cycle, in order.
    pub fn cycles(&self) -> impl Iterator<Item = Cycle<'_>> + '_ {
        let mut prev = (0usize, 0usize);
        self.ends.iter().map(move |end| {
            let (e, o) = (end.events as usize, end.ops as usize);
            let cycle = Cycle {
                events: &self.events[prev.0..e],
                ops: &self.ops[prev.1..o],
                icu_ticked: end.icu_ticked,
            };
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
    /// Lane CSR read value (ICU lanes reading an ICU register).
    csr: Option<u64>,
}

/// The faulted control unit a lane carries its own copy of.
enum Ctl {
    /// None: a forwarding fault, or the tail driver's period replay,
    /// whose tape is the faulty run itself.
    None,
    Hdcu(HdcuLane),
    Icu(IcuLane),
}

/// An HDCU lane's unit: the faulted HDCU and the decision it reaches.
struct HdcuLane {
    hdcu: Hdcu,
    plane: FaultPlane,
    reach: Reach,
    /// The lane's select code for its consumer in the packet being
    /// routed (set at a non-stalled `Hazard`, taken at the consumer's
    /// `ExOperand`).
    sel: Option<Option<usize>>,
}

impl HdcuLane {
    /// Re-routes a recorded packet: falls off where the lane's global
    /// stall differs from the tape's, else notes its consumer's select.
    fn hazard(
        &mut self,
        producers: &[ProducerView; 4],
        srcs: &[[Option<(u8, bool)>; 2]; 2],
        requests: u8,
        stalled: bool,
    ) -> Result<(), FallOff> {
        let mut lane_requests = [0, 1, 2, 3].map(|c| requests >> c & 1 == 1);
        self.sel = None;
        if let Reach::Consumer(c) = self.reach {
            let (slot, operand) = (c / 2, c % 2);
            if let Some((src, src64)) = srcs[slot][operand] {
                let route = self.hdcu.route(slot, operand, src, src64, producers, &self.plane);
                lane_requests[c] = route.stall_request;
                self.sel = (!stalled).then_some(route.select);
            }
        }
        if self.hdcu.aggregate_stall(&lane_requests, &self.plane) != stalled {
            return Err(FallOff);
        }
        Ok(())
    }
}

/// An ICU lane's unit: its own ICU, cloned at the ride's start.
struct IcuLane {
    icu: Icu,
    plane: FaultPlane,
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
    ctl: Ctl,
    width: u8,
    kind: CoreKind,
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
    /// Lane values of the scratch CSRs, if differing.
    scratch: [Option<u32>; 2],
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
    /// The lane has a bit in the tape's shared address union: foreign
    /// accesses must be checked against it.
    sticky: bool,
}

/// Signals that a lane's differences escaped the data-only regime and
/// the lane must leave the tape.
pub(crate) struct FallOff;

impl Lane {
    /// A lane with no differences yet, replaying `tape` from its start
    /// with `site` armed: a forwarding fault is the one mux the lane
    /// re-evaluates with the fault applied, an HDCU or ICU fault the
    /// unit it carries its own copy of. `None` replays the tape as is.
    pub fn new(index: usize, site: Option<FaultSite>, tape: &Tape) -> Lane {
        let mux = site.filter(|s| s.unit == Unit::Forwarding);
        let instance = mux.map_or(NO_MUX, |s| s.instance);
        let ctl = match site {
            Some(s) if s.unit == Unit::Hdcu => Ctl::Hdcu(HdcuLane {
                hdcu: Hdcu::new(tape.kind),
                plane: FaultPlane::armed(s),
                reach: Hdcu::reach(s.instance, s.element),
                sel: None,
            }),
            Some(s) if s.unit == Unit::Icu => {
                Ctl::Icu(IcuLane { icu: tape.icu.clone(), plane: FaultPlane::armed(s) })
            }
            _ => Ctl::None,
        };
        Lane {
            index,
            instance,
            fault: mux.map(|s| (s.element, s.polarity)),
            last_out: tape.delay_seed.get(instance as usize).copied().unwrap_or(0),
            ctl,
            width: tape.width,
            kind: tape.kind,
            regs: RegDiff::default(),
            exmem: [None; 2],
            memwb: [None; 2],
            fwd_ex: [None; 2],
            fwd_wb: [None; 2],
            ops: [[None; 2]; 2],
            scratch: [None; 2],
            mem: HashMap::new(),
            swap_overlay: None,
            swap_applied: false,
            sticky: false,
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
            && self.scratch == [None; 2]
            && self.mem.is_empty()
            && self.swap_overlay.flatten().is_none()
            && self.last_out == seed.get(self.instance as usize).copied().unwrap_or(0)
    }

    /// Whether the lane holds no data difference and no swap in flight
    /// at a cycle boundary: every event its faulted instance cannot
    /// change would leave it as it is (see [`Lane::reaches`]).
    fn is_quiet(&self) -> bool {
        self.regs.mask == 0
            && self.exmem.iter().all(Option::is_none)
            && self.memwb.iter().all(Option::is_none)
            && self.ops.iter().flatten().all(Option::is_none)
            && self.scratch == [None; 2]
            && self.mem.is_empty()
            && self.swap_overlay.is_none()
            && !self.swap_applied
    }

    /// Whether a quiet lane must process `ev`: its faulted mux's
    /// evaluations (which also advance the delay history), its HDCU
    /// decision and its consumer's operand, or its ICU's inputs.
    fn reaches(&self, ev: &TapEvent) -> bool {
        match (*ev, &self.ctl) {
            (TapEvent::ExOperand { slot, operand, .. }, ctl) => {
                let (slot, operand) = (slot as usize, operand as usize);
                operand_mux_id(slot, operand) == self.instance
                    || matches!(ctl, Ctl::Hdcu(h) if h.reach == Reach::Consumer(slot * 2 + operand))
            }
            (TapEvent::WbMux { pipe, .. }, _) => wb_mux_id(pipe as usize) == self.instance,
            (TapEvent::Hazard { .. }, Ctl::Hdcu(h)) => h.reach != Reach::Split,
            (TapEvent::Split { .. }, Ctl::Hdcu(h)) => h.reach == Reach::Split,
            (TapEvent::ExExec { instr, raise, .. }, Ctl::Icu(_)) => {
                raise.is_some()
                    || matches!(instr, Some(Instr::CsrRead { .. } | Instr::CsrWrite { .. }))
            }
            (TapEvent::Recognize { .. } | TapEvent::Mret { .. }, Ctl::Icu(_)) => true,
            _ => false,
        }
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
                    self.sticky = true;
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

/// Replays one recorded cycle for one lane. `union` is the sticky
/// address union of every lane sharing the tape and `bit` this lane's
/// bit in it. `Err(FallOff)` means the lane diverged architecturally or
/// in timing and must leave the tape.
pub(crate) fn lane_step(
    lane: &mut Lane,
    cycle: Cycle<'_>,
    union: &mut HashMap<u32, u64>,
    bit: u64,
) -> Result<(), FallOff> {
    let mut quiet = lane.is_quiet();
    // The core snapshots its pipeline registers for the forwarding
    // network before anything else in the cycle; mirror that.
    lane.fwd_ex = [lane.exmem[0].and_then(|l| l.alu), lane.exmem[1].and_then(|l| l.alu)];
    lane.fwd_wb = lane.memwb;

    let mut recognized = false;
    for ev in cycle.events {
        if quiet && !lane.reaches(ev) {
            continue;
        }
        lane_event(lane, ev, union, bit, &mut recognized)?;
        quiet = quiet && lane.is_quiet();
    }
    // The timer ran after EX; a recognition was replayed at its event.
    if let Ctl::Icu(u) = &mut lane.ctl {
        if cycle.icu_ticked && !recognized && u.icu.tick(&u.plane) {
            return Err(FallOff);
        }
    }

    for op in cycle.ops {
        match op.port {
            CUT_DATA_PORT => {
                // A quiet lane skips its own grants: with no data
                // difference the swap's WB mux reads and writes the
                // tape's values either way.
                if let (ReqKind::Swap(golden_w), false) = (op.kind, quiet) {
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
                if lane.sticky && op.words().any(|a| union.get(&a).is_some_and(|m| m & bit != 0)) {
                    return Err(FallOff);
                }
            }
        }
    }
    Ok(())
}

/// Replays one event for one lane (see [`lane_step`]); `recognized`
/// notes that the cycle's ICU recognition was replayed.
fn lane_event(
    lane: &mut Lane,
    ev: &TapEvent,
    union: &mut HashMap<u32, u64>,
    bit: u64,
    recognized: &mut bool,
) -> Result<(), FallOff> {
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
            lane_wb_mux(lane, union, bit, pipe as usize, &inputs, sel as usize, out, mem)?;
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
            // An HDCU lane's consumer resolves through its own select.
            let lane_sel = match &mut lane.ctl {
                Ctl::Hdcu(h) if h.reach == Reach::Consumer(slot * 2 + operand) => {
                    h.sel.take().unwrap_or(sel)
                }
                _ => sel,
            };
            let id = operand_mux_id(slot, operand);
            let lane_out = if id == lane.instance {
                mux_eval(&li, lane_sel, lane.width, lane.fault, &mut lane.last_out)
            } else if li != inputs || lane_sel != sel {
                let mut dummy = 0;
                mux_eval(&li, lane_sel, lane.width, None, &mut dummy)
            } else {
                out
            };
            lane.ops[slot][operand] = (lane_out != out).then_some(lane_out);
        }
        TapEvent::ExExec { slot, instr, ops, alu: _, mem, raise, .. } => {
            let slot = slot as usize;
            let lane_ops = [
                lane.ops[slot][0].take().unwrap_or(ops[0]),
                lane.ops[slot][1].take().unwrap_or(ops[1]),
            ];
            let mut latch = if lane_ops == ops {
                LatchDiff::default()
            } else {
                lane_exec(lane.kind, instr, ops, lane_ops, mem)?
            };
            match instr {
                Some(Instr::CsrWrite { csr, .. }) => {
                    if let Some(i) = scratch_index(csr) {
                        let (lv, gv) = (lane_ops[0] as u32, ops[0] as u32);
                        lane.scratch[i] = (lv != gv).then_some(lv);
                    }
                }
                Some(Instr::CsrRead { csr, .. }) => {
                    if let Some(i) = scratch_index(csr) {
                        latch.csr = lane.scratch[i].map(u64::from);
                    }
                }
                _ => {}
            }
            if let Ctl::Icu(u) = &mut lane.ctl {
                // Operands reaching the ICU equal the tape's: a CSR
                // write operand that differs fell off in `lane_exec`.
                match instr {
                    Some(Instr::CsrRead { csr, .. }) => {
                        if let Some(v) = u.icu.read(csr, &u.plane) {
                            latch.csr = Some(v.into());
                        }
                    }
                    Some(Instr::CsrWrite { csr, .. }) if csr.is_writable() => {
                        u.icu.write(csr, ops[0] as u32);
                    }
                    _ => {}
                }
                if let Some((cause, window)) = raise {
                    if u.icu.raise(cause, &u.plane) != window {
                        return Err(FallOff);
                    }
                }
            }
            lane.exmem[slot] = (latch != LatchDiff::default()).then_some(latch);
        }
        TapEvent::Hazard { producers, srcs, requests, stalled } => {
            if let Ctl::Hdcu(h) = &mut lane.ctl {
                h.hazard(&producers, &srcs, requests, stalled)?;
            }
        }
        TapEvent::Split { first, second, split } => {
            if let Ctl::Hdcu(h) = &lane.ctl {
                if h.hdcu.needs_split(&first, &second, &h.plane) != split {
                    return Err(FallOff);
                }
            }
        }
        TapEvent::Recognize { epc, depth } => {
            if let Ctl::Icu(u) = &mut lane.ctl {
                if !u.icu.tick(&u.plane) {
                    return Err(FallOff);
                }
                u.icu.recognize(epc, depth, &u.plane);
                *recognized = true;
            }
        }
        TapEvent::Mret { target } => {
            if let Ctl::Icu(u) = &mut lane.ctl {
                // Fetch drops the low two bits of a redirect target.
                if u.icu.epc() & !3 != target & !3 {
                    return Err(FallOff);
                }
                u.icu.mret(&u.plane);
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
        latch.csr.unwrap_or(inputs[WB_SRC_CSR]),
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
        mux_eval(&li, Some(sel), lane.width, lane.fault, &mut lane.last_out)
    } else if li[..] != inputs[..] {
        let mut dummy = 0;
        mux_eval(&li, Some(sel), lane.width, None, &mut dummy)
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
        Instr::CsrWrite { csr, .. } => {
            if la != ga && scratch_index(csr).is_none() {
                return Err(FallOff); // diffed operand into CSR/ICU state
            }
        }
    }
    Ok(latch)
}

/// The index of a scratch CSR, which holds data only.
fn scratch_index(csr: Csr) -> Option<usize> {
    match csr {
        Csr::Scratch0 => Some(0),
        Csr::Scratch1 => Some(1),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_cpu::{CoreConfig, HDCU_CTRL};
    use sbst_isa::{Asm, Csr, Reg};
    use sbst_mem::SRAM_BASE;
    use sbst_soc::SocBuilder;

    /// Where the programs store their results.
    const OUT: u32 = SRAM_BASE + 0x100;

    /// A one-core SoC running `asm` from reset.
    fn soc(asm: &Asm) -> Soc {
        let program = asm.assemble(0x100).expect("assembles");
        SocBuilder::new().load(&program).core(CoreConfig::cached(CoreKind::A, 0, 0x100), 0).build()
    }

    /// The core under test's timing after a step: fetch PC, retired
    /// instructions and the stall counters.
    type Timing = (u32, u64, u64, u64, u64);

    fn timing(soc: &Soc) -> Timing {
        let c = soc.core(0).counters();
        (soc.core(0).fetch_unit().pc(), c.retired, c.haz_stalls, c.if_stalls, c.mem_stalls)
    }

    /// How one lane's ride ended.
    enum Ride {
        /// Reached the halt; the golden run's end state.
        Halted(Box<(Lane, Soc)>),
        /// Fell off in this golden cycle.
        FellOff(u64),
    }

    /// Rides one lane with `site` armed over the golden run from `start`
    /// one recorded cycle at a time. Also returns the golden timing of
    /// every cycle replayed.
    fn ride(start: &Soc, site: FaultSite) -> (Ride, Vec<Timing>) {
        let mut soc = start.clone();
        let mut tape = Tape::start(&mut soc, (1, 0, 0));
        let mut lane = Lane::new(0, Some(site), &tape);
        let mut union = HashMap::new();
        let mut timings = Vec::new();
        while !soc.core(0).halted() {
            assert!(soc.cycle() < 5_000, "the golden run halts");
            tape.clear();
            tape.record(&mut soc);
            timings.push(timing(&soc));
            let cycle = tape.cycles().next().expect("one cycle recorded");
            if lane_step(&mut lane, cycle, &mut union, 1).is_err() {
                return (Ride::FellOff(soc.cycle()), timings);
            }
        }
        (Ride::Halted(Box::new((lane, soc))), timings)
    }

    /// The concrete run from `start` with `site` armed, and its timing
    /// per cycle, until the halt or a fatal trap (at most `cycles`).
    fn armed(start: &Soc, site: FaultSite, cycles: usize) -> (Soc, Vec<Timing>) {
        let mut soc = start.clone();
        soc.core_mut(0).set_plane(FaultPlane::armed(site));
        let mut timings = Vec::new();
        while !soc.core(0).halted() && timings.len() < cycles {
            soc.step();
            timings.push(timing(&soc));
        }
        (soc, timings)
    }

    /// A lane that rode to the halt: the armed run kept the golden
    /// timing in every cycle, and ended in the golden state overlaid
    /// with the lane's register and memory differences — of which there
    /// is at least one, a stored result.
    fn assert_rode_like_the_armed_run(start: &Soc, site: FaultSite) {
        let (ride, gold) = ride(start, site);
        let Ride::Halted(halted) = ride else { panic!("{site:?} fell off") };
        let (lane, end) = *halted;
        let (run, timings) = armed(start, site, gold.len() + 1);
        assert_eq!(timings, gold, "{site:?}: the armed run's timing");
        assert!(run.core(0).halted());
        for r in 0..32 {
            let lane_r = lane.regs.get(r).unwrap_or(end.core(0).regs()[r as usize]);
            assert_eq!(run.core(0).regs()[r as usize], lane_r, "{site:?}: register r{r}");
        }
        assert!(!lane.mem.is_empty(), "{site:?}: no stored result differs");
        for (&addr, &word) in &lane.mem {
            assert_ne!(word, end.peek(addr));
            assert_eq!(run.peek(addr), word, "{site:?}: the word at {addr:#x}");
        }
    }

    /// A lane that fell off: the armed run kept the golden timing up to
    /// that cycle and left it in that very cycle.
    fn assert_fell_off_where_the_armed_run_diverges(start: &Soc, site: FaultSite) -> u64 {
        let (ride, gold) = ride(start, site);
        let Ride::FellOff(cycle) = ride else { panic!("{site:?} rode to the halt") };
        let (_, timings) = armed(start, site, gold.len());
        let k = gold.len() - 1;
        assert_eq!(timings[..k], gold[..k], "{site:?}: timing before the fall-off");
        assert_ne!(timings[k], gold[k], "{site:?}: timing in the fall-off cycle {cycle}");
        cycle
    }

    fn hdcu(element: Element, polarity: Polarity) -> FaultSite {
        FaultSite { unit: Unit::Hdcu, instance: HDCU_CTRL, element, polarity }
    }

    fn icu(element: Element, polarity: Polarity) -> FaultSite {
        FaultSite { unit: Unit::Icu, instance: 0, element, polarity }
    }

    #[test]
    fn a_select_encoder_fault_rides_to_the_halt() {
        // `add r4, r3, r1` waits on `add r3` (a split) and forwards r3
        // from EX/MEM of pipe 0, select code 1 on operand mux 0. Bit 0
        // stuck at 0 turns it into code 0, the register file's stale r3:
        // a wrong sum, stored. The store's base comes from the register
        // file (code 0), which the fault leaves alone; so does the
        // `ori` that completes it, placed out of forwarding range.
        let mut a = Asm::new();
        a.lui(Reg::R10, (OUT >> 16) as u16);
        a.nops(8);
        a.ori(Reg::R10, Reg::R10, (OUT & 0xffff) as i16);
        a.li(Reg::R1, 5);
        a.li(Reg::R2, 7);
        a.nops(8);
        a.add(Reg::R3, Reg::R1, Reg::R2);
        a.add(Reg::R4, Reg::R3, Reg::R1);
        a.nops(4);
        a.sw(Reg::R4, Reg::R10, 0);
        a.halt();
        let site = hdcu(Element::SelEncLine { mux: 0, bit: 0 }, Polarity::StuckAt0);
        assert_rode_like_the_armed_run(&soc(&a), site);
    }

    #[test]
    fn a_wrong_sum_rides_through_a_scratch_csr() {
        // The select-encoder fault's wrong sum is written to `Scratch0`
        // and read back before the store: a data difference through a
        // CSR that holds data only.
        let mut a = Asm::new();
        a.lui(Reg::R10, (OUT >> 16) as u16);
        a.nops(8);
        a.ori(Reg::R10, Reg::R10, (OUT & 0xffff) as i16);
        a.li(Reg::R1, 5);
        a.li(Reg::R2, 7);
        a.nops(8);
        a.add(Reg::R3, Reg::R1, Reg::R2);
        a.add(Reg::R4, Reg::R3, Reg::R1);
        a.nops(4);
        a.csrw(Csr::Scratch0, Reg::R4);
        a.nops(4);
        a.csrr(Reg::R6, Csr::Scratch0);
        a.nops(4);
        a.sw(Reg::R6, Reg::R10, 0);
        a.halt();
        let site = hdcu(Element::SelEncLine { mux: 0, bit: 0 }, Polarity::StuckAt0);
        assert_rode_like_the_armed_run(&soc(&a), site);
    }

    #[test]
    fn a_stall_line_fault_on_a_load_use_falls_off() {
        // The load-use stall of `add r3, r2, r0` is requested by slot 0,
        // operand 0 alone; its request line stuck at 0 lets the add
        // execute a cycle early on the not-yet-loaded value.
        let mut a = Asm::new();
        a.li(Reg::R10, OUT);
        a.li(Reg::R1, 42);
        a.sw(Reg::R1, Reg::R10, 0);
        a.nops(8);
        a.lw(Reg::R2, Reg::R10, 0);
        a.add(Reg::R3, Reg::R2, Reg::R0);
        a.sw(Reg::R3, Reg::R10, 4);
        a.halt();
        let start = soc(&a);
        let site = hdcu(Element::StallLine { line: 0 }, Polarity::StuckAt0);
        assert_fell_off_where_the_armed_run_diverges(&start, site);
    }

    /// An overflow trap: the handler stores the cause register at `OUT`
    /// and the EPC at `OUT + 4`, clears the pending causes and returns.
    fn trap_program() -> Asm {
        let mut a = Asm::new();
        a.li(Reg::R10, OUT);
        a.jal(Reg::R20, "install"); // r20: the handler's address
        a.csrr(Reg::R2, Csr::IcuCause);
        a.sw(Reg::R2, Reg::R10, 0);
        a.csrr(Reg::R3, Csr::Epc);
        a.sw(Reg::R3, Reg::R10, 4);
        a.li(Reg::R4, 0xf);
        a.csrw(Csr::IcuPending, Reg::R4);
        a.mret();
        a.label("install");
        a.csrw(Csr::TrapVec, Reg::R20);
        a.li(Reg::R5, 0x7fff_ffff);
        a.li(Reg::R6, 1);
        a.addv(Reg::R7, Reg::R5, Reg::R6);
        a.nops(24);
        a.sw(Reg::R7, Reg::R10, 8);
        a.halt();
        a
    }

    #[test]
    fn an_icu_cause_register_bit_rides_with_a_different_csr_read() {
        // Overflow is bit 0 of core A's cause register; bit 1 stuck at 1
        // reads 0b11 where the golden run reads 0b01.
        let site = icu(Element::CauseRegBit { bit: 1 }, Polarity::StuckAt1);
        assert_rode_like_the_armed_run(&soc(&trap_program()), site);
    }

    #[test]
    fn an_epc_bit_below_the_word_rides_through_mret() {
        // Fetch drops the two low bits of the `mret` target, so bit 0
        // stuck at 1 changes only the EPC the handler reads and stores.
        let site = icu(Element::EpcBit { bit: 0 }, Polarity::StuckAt1);
        assert_rode_like_the_armed_run(&soc(&trap_program()), site);
    }

    #[test]
    fn an_epc_bit_falls_off_at_mret() {
        // The handler reads the corrupted EPC as data and stores it; the
        // lane leaves the tape only where `mret` returns through it.
        let start = soc(&trap_program());
        let site = icu(Element::EpcBit { bit: 12 }, Polarity::StuckAt1);
        let cycle = assert_fell_off_where_the_armed_run_diverges(&start, site);
        let mut soc = start.clone();
        let mut tape = Tape::start(&mut soc, (0, 0, 0));
        while soc.cycle() < cycle {
            tape.record(&mut soc);
        }
        assert!(
            tape.last().0.iter().any(|ev| matches!(ev, TapEvent::Mret { .. })),
            "the lane fell off in the cycle of the mret"
        );
    }
}
