//! The loop decider's proof period: an affine-drift abstract
//! interpretation over one period of the core under test's tap events.
//!
//! Every tracked value of the core under test is [`Drift::Known`]`(s)`
//! or [`Drift::Unknown`]. `Known(s)` states that in the j-th period
//! after the one proven, the value equals its value in the proven period
//! plus (j−1)·s, wrapping at 32 bits. The tracked values are the
//! registers, each pipe's EX/MEM ALU and CSR latch, each MEM/WB value,
//! the issue packet's operands and the armed forwarding mux's delay
//! history.
//!
//! A read of a performance counter is a drift source: it advances by the
//! same Δ every period, so it reads `Known(Δ)`. `add`/`sub` add or
//! subtract slopes, `sll` by a `Known(0)` amount shifts one, `mul` with a
//! `Known(0)` operand scales the other's by its value; any other result
//! is `Known(0)` when all its inputs are and `Unknown` otherwise. Every
//! *control use* — a branch operand, the `jalr` base, a load, store or
//! swap address, store or swap data, a CSR-write operand and the
//! operands of the overflow-raising `addv`/`mulv` — must read `Known(0)`:
//! anything else is an [`Escape`].
//!
//! If every decision of the period reads `Known(0)` values and the
//! period is inductive ([`Proof::conclude`]), every later period repeats
//! its control trajectory with only the drifting data changed, so the
//! run never leaves the loop.

use sbst_cpu::{imm_operand, operand_mux_id, wb_mux_id, Core, TapEvent};
use sbst_isa::{AluOp, Csr, Instr};

/// The per-period drift of one tracked value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drift {
    /// Moves by this slope every period, wrapping at 32 bits.
    Known(u32),
    /// No claim: the value must not reach control.
    Unknown,
}

use Drift::{Known, Unknown};

/// A value that is the same in every period.
const FIXED: Drift = Known(0);

impl Drift {
    /// `f` applied to the slope; `Unknown` stays `Unknown`.
    fn map(self, f: impl FnOnce(u32) -> u32) -> Drift {
        match self {
            Known(s) => Known(f(s)),
            Unknown => Unknown,
        }
    }

    /// Both slopes combined by `f`; `Unknown` if either is.
    fn zip(self, other: Drift, f: impl FnOnce(u32, u32) -> u32) -> Drift {
        match (self, other) {
            (Known(a), Known(b)) => Known(f(a, b)),
            _ => Unknown,
        }
    }
}

/// `FIXED` when every input is fixed, otherwise `Unknown`: the drift of
/// a result that is not affine in its inputs.
fn join(inputs: &[Drift]) -> Drift {
    if inputs.iter().all(|&d| d == FIXED) {
        FIXED
    } else {
        Unknown
    }
}

/// The performance counters a read turns into a drift source, in the
/// order of [`counters`].
pub(crate) fn counter_index(csr: Csr) -> Option<usize> {
    match csr {
        Csr::Cycles => Some(0),
        Csr::Retired => Some(1),
        Csr::IfStalls => Some(2),
        Csr::MemStalls => Some(3),
        Csr::HazStalls => Some(4),
        _ => None,
    }
}

/// The low 32 bits of `core`'s performance counters, as `csrr` reads
/// them.
fn counters(core: &Core) -> [u32; 5] {
    let c = core.counters();
    [c.cycles, c.retired, c.if_stalls, c.mem_stalls, c.haz_stalls].map(|v| v as u32)
}

/// How far each counter advanced from `from` to `to`.
fn advance(from: &Core, to: &Core) -> [u32; 5] {
    let (a, b) = (counters(from), counters(to));
    std::array::from_fn(|i| b[i].wrapping_sub(a[i]))
}

/// The abstract state of the core under test at a cycle boundary. (The
/// issue packet's operands are resolved and executed within one cycle,
/// so they are tracked within [`Proof::step`] only.)
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [Drift; 32],
    /// EX/MEM ALU and CSR latch, per pipe.
    exmem: [[Drift; 2]; 2],
    /// MEM/WB value, per pipe.
    memwb: [Drift; 2],
    /// The armed forwarding mux's delay history.
    hist: Drift,
}

impl State {
    /// The claims of `self`, a period's hypothesis, that the period
    /// upheld: a register keeps `Known(s)` if its abstract slope at the
    /// period's end (`now`) is still s and it moved by s from `from` to
    /// `to`; a latch keeps `FIXED` if it ends `FIXED` (latches are equal
    /// at the boundaries, so they moved by 0). Every other value is
    /// `Unknown`.
    fn upheld(&self, now: &State, from: &[u32; 32], to: &[u32; 32]) -> State {
        let keep = |claim: Drift, end: Drift, moved: u32| match claim {
            Known(s) if end == claim && moved == s => claim,
            _ => Unknown,
        };
        let latch = |claim: Drift, end: Drift| keep(claim, end, 0);
        State {
            regs: std::array::from_fn(|r| {
                keep(self.regs[r], now.regs[r], to[r].wrapping_sub(from[r]))
            }),
            exmem: std::array::from_fn(|p| {
                std::array::from_fn(|i| latch(self.exmem[p][i], now.exmem[p][i]))
            }),
            memwb: std::array::from_fn(|p| latch(self.memwb[p], now.memwb[p])),
            hist: latch(self.hist, now.hist),
        }
    }

    /// The register-file read of a source operand (mirrors
    /// `Core::read_src`): a 64-bit pair is fixed or `Unknown`.
    fn read_src(&self, base: u8, is64: bool) -> Drift {
        let lo = self.regs[base as usize];
        if is64 && base.is_multiple_of(2) && base < 31 {
            join(&[lo, self.regs[base as usize + 1]])
        } else {
            lo
        }
    }
}

/// A control use read a value that is not the same in every period.
pub(crate) struct Escape;

/// One proof period in progress.
pub(crate) struct Proof {
    /// The hypothesis the period starts from.
    start: State,
    /// The abstract state after the events stepped so far.
    now: State,
    /// Each counter's hypothesised advance per period.
    delta: [u32; 5],
    /// The armed forwarding mux instance, if any.
    armed: Option<u16>,
    /// A counter was read in this period.
    read_counter: bool,
}

impl Proof {
    /// A proof of the period starting at `start`, whose previous period
    /// started at `anchor`: a register's slope is its drift between the
    /// two (0 where equal), each counter's Δ its advance, every latch
    /// fixed. `armed` is the armed forwarding mux instance.
    pub fn new(anchor: &Core, start: &Core, armed: Option<u16>) -> Box<Proof> {
        let (from, to) = (anchor.regs(), start.regs());
        let state = State {
            regs: std::array::from_fn(|r| Known(to[r].wrapping_sub(from[r]))),
            exmem: [[FIXED; 2]; 2],
            memwb: [FIXED; 2],
            hist: FIXED,
        };
        Box::new(Proof::assume(state, advance(anchor, start), armed))
    }

    fn assume(start: State, delta: [u32; 5], armed: Option<u16>) -> Proof {
        Proof { now: start.clone(), start, delta, armed, read_counter: false }
    }

    /// Whether the period read a performance counter so far.
    pub fn read_counter(&self) -> bool {
        self.read_counter
    }

    /// Interprets one stepped cycle's events of the core under test.
    pub fn step(&mut self, events: &[TapEvent]) -> Result<(), Escape> {
        // The core snapshots its pipeline registers for the forwarding
        // network before anything else in the cycle.
        let fwd_ex = self.now.exmem.map(|l| l[0]);
        let fwd_wb = self.now.memwb;
        let mut ops = [[FIXED; 2]; 2];
        for ev in events {
            match *ev {
                TapEvent::WbCommit { pipe, dest, .. } => {
                    let v = std::mem::replace(&mut self.now.memwb[pipe as usize], FIXED);
                    if let Some((base, is64)) = dest {
                        let v = if is64 { join(&[v]) } else { v };
                        if base != 0 {
                            self.now.regs[base as usize] = v;
                        }
                        if is64 && base < 31 {
                            self.now.regs[base as usize + 1] = v;
                        }
                    }
                }
                TapEvent::WbMux { pipe, sel, .. } => {
                    let pipe = pipe as usize;
                    let [alu, csr] = std::mem::replace(&mut self.now.exmem[pipe], [FIXED; 2]);
                    let out = self.mux(wb_mux_id(pipe), &[alu, FIXED, csr], Some(sel));
                    self.now.memwb[pipe] = out;
                }
                TapEvent::ExOperand { slot, operand, rf_src, sel, .. } => {
                    let rf = rf_src.map_or(FIXED, |(base, is64)| self.now.read_src(base, is64));
                    let inputs = [rf, fwd_ex[0], fwd_ex[1], fwd_wb[0], fwd_wb[1]];
                    let (slot, operand) = (slot as usize, operand as usize);
                    ops[slot][operand] = self.mux(operand_mux_id(slot, operand), &inputs, sel);
                }
                TapEvent::ExExec { slot, instr, ops: values, .. } => {
                    let slot = slot as usize;
                    let drift = std::mem::replace(&mut ops[slot], [FIXED; 2]);
                    self.now.exmem[slot] = self.exec(instr, values, drift)?;
                }
                TapEvent::Hazard { .. }
                | TapEvent::Split { .. }
                | TapEvent::Recognize { .. }
                | TapEvent::Mret { .. } => {}
            }
        }
        Ok(())
    }

    /// One mux evaluation: an unfaulted mux passes on its selected input
    /// (a dead select yields 0); the armed one is fixed only while all
    /// its inputs and its history are.
    fn mux(&mut self, id: u16, inputs: &[Drift], sel: Option<u8>) -> Drift {
        if self.armed != Some(id) {
            return sel.map_or(FIXED, |s| inputs[s as usize]);
        }
        let fixed = join(inputs);
        let out = join(&[fixed, self.now.hist]);
        self.now.hist = fixed;
        out
    }

    /// The EX/MEM ALU and CSR latch drifts of one executed instruction
    /// with operand drifts `[a, b]` and recorded operand values `ops`.
    fn exec(
        &mut self,
        instr: Option<Instr>,
        ops: [u64; 2],
        [a, b]: [Drift; 2],
    ) -> Result<[Drift; 2], Escape> {
        let control = |uses: &[Drift]| join(uses) == FIXED;
        let alu = match instr {
            None => FIXED, // Illegal in every period
            Some(Instr::Alu { op, .. }) => alu(op, [a, b], [ops[0] as u32, ops[1] as u32]),
            Some(Instr::AluImm { op, imm, .. }) => {
                alu(op, [a, FIXED], [ops[0] as u32, imm_operand(op, imm)])
            }
            Some(Instr::Alu64 { .. }) => join(&[a, b]),
            Some(Instr::Load { .. } | Instr::Jalr { .. } | Instr::CsrWrite { .. }) => {
                if !control(&[a]) {
                    return Err(Escape);
                }
                FIXED
            }
            Some(Instr::Store { .. } | Instr::Amoswap { .. } | Instr::Branch { .. }) => {
                if !control(&[a, b]) {
                    return Err(Escape);
                }
                FIXED
            }
            Some(Instr::CsrRead { csr, .. }) => {
                let csr = counter_index(csr).map_or(FIXED, |i| {
                    self.read_counter = true;
                    Known(self.delta[i])
                });
                return Ok([FIXED, csr]);
            }
            Some(
                Instr::Nop
                | Instr::Halt
                | Instr::Lui { .. }
                | Instr::Jal { .. }
                | Instr::Cache(_)
                | Instr::Mret,
            ) => FIXED,
        };
        // The overflow-raising operations decide a trap on their operands.
        let raises = matches!(
            instr,
            Some(Instr::Alu { op: AluOp::AddV | AluOp::MulV, .. }
                | Instr::AluImm { op: AluOp::AddV | AluOp::MulV, .. }
                | Instr::Alu64 { op: AluOp::AddV | AluOp::MulV, .. })
        );
        if raises && !control(&[a, b]) {
            return Err(Escape);
        }
        Ok([alu, FIXED])
    }

    /// Ends the period that started in `start` and ended in `end`, two
    /// states equal modulo the core under test's registers. `true` when
    /// the period is inductive: every value it assumed known moved by its
    /// slope and ends with it, and each counter advanced by its Δ — the
    /// run then repeats the period forever. Otherwise the proof becomes
    /// that of the next period, keeping only the claims that held and
    /// each counter's advance in this one.
    pub fn conclude(&mut self, start: &Core, end: &Core) -> bool {
        let next = self.start.upheld(&self.now, start.regs(), end.regs());
        let delta = advance(start, end);
        if delta == self.delta && next == self.start {
            return true;
        }
        *self = Proof::assume(next, delta, self.armed);
        false
    }
}

/// The drift of a 32-bit ALU result from its operands' drifts and
/// recorded values.
fn alu(op: AluOp, [a, b]: [Drift; 2], [va, vb]: [u32; 2]) -> Drift {
    match op {
        AluOp::Add => a.zip(b, u32::wrapping_add),
        AluOp::Sub => a.zip(b, u32::wrapping_sub),
        AluOp::Sll if b == FIXED => a.map(|s| s.wrapping_shl(vb & 31)),
        AluOp::Mul if b == FIXED => a.map(|s| s.wrapping_mul(vb)),
        AluOp::Mul if a == FIXED => b.map(|s| s.wrapping_mul(va)),
        _ => join(&[a, b]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_cpu::alu32;

    #[test]
    fn a_known_result_slope_is_how_the_real_alu_result_moves() {
        // Random operand values and drifts: wherever the transfer
        // claims `Known(s)`, the ALU's result in the j-th period moves
        // by j·s.
        let mut x = 0x9e37_79b9u32;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for op in AluOp::ALL {
            for _ in 0..64 {
                let (va, vb) = (next(), next());
                let (sa, sb) = (Known(next()), Known(next()));
                for [a, b] in [[sa, FIXED], [FIXED, sb], [sa, sb], [FIXED, FIXED]] {
                    let Known(s) = alu(op, [a, b], [va, vb]) else { continue };
                    for j in 0..4u32 {
                        let at = |v: u32, d: Drift| match d {
                            Known(t) => v.wrapping_add(j.wrapping_mul(t)),
                            Unknown => unreachable!("operands are known"),
                        };
                        let moved = alu32(op, at(va, a), at(vb, b)).0;
                        let want = alu32(op, va, vb).0.wrapping_add(j.wrapping_mul(s));
                        assert_eq!(moved, want, "{op:?} in period {j}");
                    }
                }
            }
        }
    }
}
