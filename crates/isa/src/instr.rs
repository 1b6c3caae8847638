//! Instruction definitions and binary encoding.
//!
//! Every instruction is a fixed 32-bit word. Field layout (MSB first):
//!
//! ```text
//! R-type : op[31:26] rd[25:21] rs1[20:16] rs2[15:11] func[10:0]
//! I-type : op[31:26] rd[25:21] rs1[20:16] imm16[15:0]
//! B-type : op[31:26] rs1[25:21] rs2[20:16] imm16[15:0]   (byte offset, pc-relative)
//! J-type : op[31:26] rd[25:21] imm21[20:0]               (byte offset, pc-relative)
//! ```
//!
//! Branch and jump offsets are relative to the address of the branch
//! instruction itself.

use crate::{Csr, Reg};

/// Register-register / register-immediate ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left logical (amount masked to 5 bits; 6 for 64-bit ops).
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set if signed less-than.
    Slt,
    /// Wrapping multiply (low half).
    Mul,
    /// Add that raises the imprecise [`Overflow`](crate::Cause::Overflow)
    /// exception on signed overflow. The wrapped result is still written.
    AddV,
    /// Multiply that raises [`MulOverflow`](crate::Cause::MulOverflow) if
    /// the signed product does not fit the result width.
    MulV,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Mul,
        AluOp::AddV,
        AluOp::MulV,
    ];

    fn func(self) -> u32 {
        self as u32
    }

    fn from_func(f: u32) -> Option<AluOp> {
        AluOp::ALL.get(f as usize).copied()
    }

    /// Whether this op exists in register-immediate form.
    pub fn has_imm_form(self) -> bool {
        imm_op_code(self).is_some()
    }

    /// Mnemonic stem ("add", "xor", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Mul => "mul",
            AluOp::AddV => "addv",
            AluOp::MulV => "mulv",
        }
    }
}

impl std::fmt::Display for AluOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// All branch conditions.
    pub const ALL: [Cond; 4] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];

    /// Evaluate the condition on two operand values.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
        }
    }

    /// Mnemonic suffix ("eq", "ne", ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        }
    }
}

/// Cache-maintenance operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheOp {
    /// Invalidate the whole instruction cache.
    IcInv,
    /// Invalidate the whole data cache (write-through caches hold no
    /// dirty data, so invalidation never loses writes).
    DcInv,
}

impl CacheOp {
    fn code(self) -> u32 {
        match self {
            CacheOp::IcInv => 0,
            CacheOp::DcInv => 1,
        }
    }

    fn from_code(c: u32) -> Option<CacheOp> {
        match c {
            0 => Some(CacheOp::IcInv),
            1 => Some(CacheOp::DcInv),
            _ => None,
        }
    }
}

/// A decoded instruction.
///
/// Every instruction [`encode`](Instr::encode)s to one 32-bit word in
/// an R-, I-, B- or J-type format. Field meanings follow the
/// assembly notation in each variant's doc comment (`rd` destination,
/// `rs1`/`rs2`/`src` sources, `base` address register, `off`/`imm`
/// immediates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings documented on each variant
pub enum Instr {
    /// No operation (dedicated encoding, not an `addi` alias).
    Nop,
    /// `op rd, rs1, rs2` — 32-bit register-register ALU.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `op64 rd, rs1, rs2` — 64-bit register-pair ALU (core C only;
    /// raises [`Illegal`](crate::Cause::Illegal) elsewhere). All register
    /// operands must be even.
    Alu64 { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `opi rd, rs1, imm` — ALU with sign-extended 16-bit immediate.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i16 },
    /// `lui rd, imm` — `rd = imm << 16`.
    Lui { rd: Reg, imm: u16 },
    /// `lw rd, off(rs1)` — load word.
    Load { rd: Reg, base: Reg, off: i16 },
    /// `sw rs2, off(rs1)` — store word.
    Store { src: Reg, base: Reg, off: i16 },
    /// `amoswap rd, rs2, (rs1)` — atomically swap `rs2` with `[rs1]`,
    /// old memory value into `rd`. Used by the test scheduler's locks.
    Amoswap { rd: Reg, base: Reg, src: Reg },
    /// `b<cond> rs1, rs2, off` — conditional pc-relative branch.
    Branch { cond: Cond, rs1: Reg, rs2: Reg, off: i16 },
    /// `jal rd, off` — jump and link (return address = pc + 4).
    Jal { rd: Reg, off: i32 },
    /// `jalr rd, off(rs1)` — indirect jump and link.
    Jalr { rd: Reg, base: Reg, off: i16 },
    /// `csrr rd, csr` — read CSR.
    CsrRead { rd: Reg, csr: Csr },
    /// `csrw csr, rs` — write CSR (only for writable CSRs).
    CsrWrite { csr: Csr, src: Reg },
    /// `icinv` / `dcinv` — cache maintenance.
    Cache(CacheOp),
    /// `mret` — return from the interrupt handler to `EPC`.
    Mret,
    /// `halt` — stop this core (test program finished).
    Halt,
}

/// Error returned when a 32-bit word is not a valid instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending word.
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

// Opcodes.
const OP_RALU: u32 = 0x00;
const OP_RALU64: u32 = 0x01;
const OP_NOP: u32 = 0x02;
const OP_ALUI_BASE: u32 = 0x04; // 0x04 + AluOp index, Add..Slt and AddV
const OP_LUI: u32 = 0x0e;
const OP_LW: u32 = 0x10;
const OP_SW: u32 = 0x11;
const OP_AMOSWAP: u32 = 0x12;
const OP_BR_BASE: u32 = 0x18; // + Cond index
const OP_JAL: u32 = 0x20;
const OP_JALR: u32 = 0x21;
const OP_CSRR: u32 = 0x28;
const OP_CSRW: u32 = 0x29;
const OP_MRET: u32 = 0x2a;
const OP_CACHE: u32 = 0x30;
const OP_HALT: u32 = 0x3f;

/// Which ALU ops are legal in immediate form.
fn imm_op_code(op: AluOp) -> Option<u32> {
    match op {
        AluOp::Add => Some(0),
        AluOp::And => Some(1),
        AluOp::Or => Some(2),
        AluOp::Xor => Some(3),
        AluOp::Sll => Some(4),
        AluOp::Srl => Some(5),
        AluOp::Sra => Some(6),
        AluOp::Slt => Some(7),
        AluOp::AddV => Some(8),
        _ => None,
    }
}

fn imm_op_from_code(c: u32) -> Option<AluOp> {
    match c {
        0 => Some(AluOp::Add),
        1 => Some(AluOp::And),
        2 => Some(AluOp::Or),
        3 => Some(AluOp::Xor),
        4 => Some(AluOp::Sll),
        5 => Some(AluOp::Srl),
        6 => Some(AluOp::Sra),
        7 => Some(AluOp::Slt),
        8 => Some(AluOp::AddV),
        _ => None,
    }
}

fn field(word: u32, hi: u32, lo: u32) -> u32 {
    (word >> lo) & ((1 << (hi - lo + 1)) - 1)
}

fn reg_at(word: u32, hi: u32, lo: u32) -> Result<Reg, DecodeError> {
    Reg::try_from(field(word, hi, lo) as u8).map_err(|()| DecodeError { word })
}

impl Instr {
    /// Encode this instruction as a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if an `AluImm` carries an op with no immediate form, or if
    /// a `Jal` offset does not fit in 21 signed bits. Programs built via
    /// [`Asm`](crate::Asm) never violate these.
    pub fn encode(self) -> u32 {
        fn r(op: u32, rd: Reg, rs1: Reg, rs2: Reg, func: u32) -> u32 {
            (op << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | ((rs2.index() as u32) << 11)
                | (func & 0x7ff)
        }
        fn i(op: u32, rd: Reg, rs1: Reg, imm: u16) -> u32 {
            (op << 26) | ((rd.index() as u32) << 21) | ((rs1.index() as u32) << 16) | imm as u32
        }
        match self {
            Instr::Nop => OP_NOP << 26,
            Instr::Alu { op, rd, rs1, rs2 } => r(OP_RALU, rd, rs1, rs2, op.func()),
            Instr::Alu64 { op, rd, rs1, rs2 } => r(OP_RALU64, rd, rs1, rs2, op.func()),
            Instr::AluImm { op, rd, rs1, imm } => {
                let code = imm_op_code(op)
                    .unwrap_or_else(|| panic!("ALU op {op} has no immediate form"));
                i(OP_ALUI_BASE + code, rd, rs1, imm as u16)
            }
            Instr::Lui { rd, imm } => i(OP_LUI, rd, Reg::R0, imm),
            Instr::Load { rd, base, off } => i(OP_LW, rd, base, off as u16),
            Instr::Store { src, base, off } => i(OP_SW, src, base, off as u16),
            Instr::Amoswap { rd, base, src } => r(OP_AMOSWAP, rd, base, src, 0),
            Instr::Branch { cond, rs1, rs2, off } => {
                i(OP_BR_BASE + cond as u32, rs1, rs2, off as u16)
            }
            Instr::Jal { rd, off } => {
                assert!(
                    (-(1 << 20)..(1 << 20)).contains(&off),
                    "jal offset {off} out of 21-bit range"
                );
                (OP_JAL << 26) | ((rd.index() as u32) << 21) | ((off as u32) & 0x1f_ffff)
            }
            Instr::Jalr { rd, base, off } => i(OP_JALR, rd, base, off as u16),
            Instr::CsrRead { rd, csr } => i(OP_CSRR, rd, Reg::R0, csr.addr()),
            Instr::CsrWrite { csr, src } => i(OP_CSRW, src, Reg::R0, csr.addr()),
            Instr::Cache(op) => (OP_CACHE << 26) | op.code(),
            Instr::Mret => OP_MRET << 26,
            Instr::Halt => OP_HALT << 26,
        }
    }

    /// Decode a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the opcode or any sub-field is invalid.
    /// Note that *architecturally* illegal instructions (e.g. `add64` on a
    /// 32-bit core, odd register pairs) decode successfully and raise
    /// [`Illegal`](crate::Cause::Illegal) at execution instead.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let op = field(word, 31, 26);
        let err = DecodeError { word };
        match op {
            // Fieldless opcodes require all remaining bits to be zero so
            // that arbitrary data words do not alias onto them.
            OP_NOP | OP_MRET | OP_HALT if field(word, 25, 0) != 0 => Err(err),
            OP_CACHE if field(word, 25, 11) != 0 => Err(err),
            OP_NOP => Ok(Instr::Nop),
            OP_RALU | OP_RALU64 => {
                let alu = AluOp::from_func(field(word, 10, 0)).ok_or(err)?;
                let (rd, rs1, rs2) = (
                    reg_at(word, 25, 21)?,
                    reg_at(word, 20, 16)?,
                    reg_at(word, 15, 11)?,
                );
                if op == OP_RALU {
                    Ok(Instr::Alu { op: alu, rd, rs1, rs2 })
                } else {
                    Ok(Instr::Alu64 { op: alu, rd, rs1, rs2 })
                }
            }
            _ if (OP_ALUI_BASE..OP_ALUI_BASE + 9).contains(&op) => {
                let alu = imm_op_from_code(op - OP_ALUI_BASE).ok_or(err)?;
                Ok(Instr::AluImm {
                    op: alu,
                    rd: reg_at(word, 25, 21)?,
                    rs1: reg_at(word, 20, 16)?,
                    imm: field(word, 15, 0) as u16 as i16,
                })
            }
            OP_LUI => Ok(Instr::Lui {
                rd: reg_at(word, 25, 21)?,
                imm: field(word, 15, 0) as u16,
            }),
            OP_LW => Ok(Instr::Load {
                rd: reg_at(word, 25, 21)?,
                base: reg_at(word, 20, 16)?,
                off: field(word, 15, 0) as u16 as i16,
            }),
            OP_SW => Ok(Instr::Store {
                src: reg_at(word, 25, 21)?,
                base: reg_at(word, 20, 16)?,
                off: field(word, 15, 0) as u16 as i16,
            }),
            OP_AMOSWAP => Ok(Instr::Amoswap {
                rd: reg_at(word, 25, 21)?,
                base: reg_at(word, 20, 16)?,
                src: reg_at(word, 15, 11)?,
            }),
            _ if (OP_BR_BASE..OP_BR_BASE + 4).contains(&op) => Ok(Instr::Branch {
                cond: Cond::ALL[(op - OP_BR_BASE) as usize],
                rs1: reg_at(word, 25, 21)?,
                rs2: reg_at(word, 20, 16)?,
                off: field(word, 15, 0) as u16 as i16,
            }),
            OP_JAL => {
                let raw = field(word, 20, 0);
                // Sign-extend 21 bits.
                let off = ((raw << 11) as i32) >> 11;
                Ok(Instr::Jal { rd: reg_at(word, 25, 21)?, off })
            }
            OP_JALR => Ok(Instr::Jalr {
                rd: reg_at(word, 25, 21)?,
                base: reg_at(word, 20, 16)?,
                off: field(word, 15, 0) as u16 as i16,
            }),
            OP_CSRR => Ok(Instr::CsrRead {
                rd: reg_at(word, 25, 21)?,
                csr: Csr::from_addr(field(word, 15, 0) as u16).ok_or(err)?,
            }),
            OP_CSRW => Ok(Instr::CsrWrite {
                csr: Csr::from_addr(field(word, 15, 0) as u16).ok_or(err)?,
                src: reg_at(word, 25, 21)?,
            }),
            OP_CACHE => Ok(Instr::Cache(CacheOp::from_code(field(word, 10, 0)).ok_or(err)?)),
            OP_MRET => Ok(Instr::Mret),
            OP_HALT => Ok(Instr::Halt),
            _ => Err(err),
        }
    }

    /// Destination register written by this instruction, if any.
    ///
    /// `R0` destinations are reported as `None` (writes are discarded).
    /// For `Alu64` this is the even base of the destination pair.
    pub fn dest(self) -> Option<Reg> {
        let rd = match self {
            Instr::Alu { rd, .. }
            | Instr::Alu64 { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Lui { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Amoswap { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::CsrRead { rd, .. } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// Source registers read by this instruction (up to 2, `R0` included).
    pub fn sources(self) -> [Option<Reg>; 2] {
        match self {
            Instr::Alu { rs1, rs2, .. } | Instr::Alu64 { rs1, rs2, .. } => {
                [Some(rs1), Some(rs2)]
            }
            Instr::AluImm { rs1, .. } => [Some(rs1), None],
            Instr::Load { base, .. } => [Some(base), None],
            Instr::Store { src, base, .. } => [Some(base), Some(src)],
            Instr::Amoswap { base, src, .. } => [Some(base), Some(src)],
            Instr::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Instr::Jalr { base, .. } => [Some(base), None],
            Instr::CsrWrite { src, .. } => [Some(src), None],
            _ => [None, None],
        }
    }

    /// Whether this instruction accesses data memory.
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Amoswap { .. }
        )
    }

    /// Whether this instruction is a load (writes a register from memory).
    pub fn is_load(self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Amoswap { .. })
    }

    /// Whether this instruction may redirect the program counter.
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Mret
        )
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Instr::Nop => write!(f, "nop"),
            Instr::Alu { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            Instr::Alu64 { op, rd, rs1, rs2 } => write!(f, "{op}64 {rd}, {rs1}, {rs2}"),
            Instr::AluImm { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm}"),
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instr::Load { rd, base, off } => write!(f, "lw {rd}, {off}({base})"),
            Instr::Store { src, base, off } => write!(f, "sw {src}, {off}({base})"),
            Instr::Amoswap { rd, base, src } => write!(f, "amoswap {rd}, {src}, ({base})"),
            Instr::Branch { cond, rs1, rs2, off } => {
                write!(f, "b{} {rs1}, {rs2}, {off}", cond.mnemonic())
            }
            Instr::Jal { rd, off } => write!(f, "jal {rd}, {off}"),
            Instr::Jalr { rd, base, off } => write!(f, "jalr {rd}, {off}({base})"),
            Instr::CsrRead { rd, csr } => write!(f, "csrr {rd}, {csr}"),
            Instr::CsrWrite { csr, src } => write!(f, "csrw {csr}, {src}"),
            Instr::Cache(CacheOp::IcInv) => write!(f, "icinv"),
            Instr::Cache(CacheOp::DcInv) => write!(f, "dcinv"),
            Instr::Mret => write!(f, "mret"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0usize..32).prop_map(Reg::from_index)
    }

    fn arb_alu_op() -> impl Strategy<Value = AluOp> {
        prop::sample::select(AluOp::ALL.to_vec())
    }

    fn arb_imm_op() -> impl Strategy<Value = AluOp> {
        prop::sample::select(
            AluOp::ALL
                .iter()
                .copied()
                .filter(|&op| super::imm_op_code(op).is_some())
                .collect::<Vec<_>>(),
        )
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            Just(Instr::Nop),
            (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
                .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
            (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
                .prop_map(|(op, rd, rs1, rs2)| Instr::Alu64 { op, rd, rs1, rs2 }),
            (arb_imm_op(), arb_reg(), arb_reg(), any::<i16>())
                .prop_map(|(op, rd, rs1, imm)| Instr::AluImm { op, rd, rs1, imm }),
            (arb_reg(), any::<u16>()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
            (arb_reg(), arb_reg(), any::<i16>())
                .prop_map(|(rd, base, off)| Instr::Load { rd, base, off }),
            (arb_reg(), arb_reg(), any::<i16>())
                .prop_map(|(src, base, off)| Instr::Store { src, base, off }),
            (arb_reg(), arb_reg(), arb_reg())
                .prop_map(|(rd, base, src)| Instr::Amoswap { rd, base, src }),
            (
                prop::sample::select(Cond::ALL.to_vec()),
                arb_reg(),
                arb_reg(),
                any::<i16>()
            )
                .prop_map(|(cond, rs1, rs2, off)| Instr::Branch { cond, rs1, rs2, off }),
            (arb_reg(), -(1i32 << 20)..(1i32 << 20))
                .prop_map(|(rd, off)| Instr::Jal { rd, off }),
            (arb_reg(), arb_reg(), any::<i16>())
                .prop_map(|(rd, base, off)| Instr::Jalr { rd, base, off }),
            (arb_reg(), prop::sample::select(Csr::ALL.to_vec()))
                .prop_map(|(rd, csr)| Instr::CsrRead { rd, csr }),
            (arb_reg(), prop::sample::select(Csr::ALL.to_vec()))
                .prop_map(|(src, csr)| Instr::CsrWrite { csr, src }),
            Just(Instr::Cache(CacheOp::IcInv)),
            Just(Instr::Cache(CacheOp::DcInv)),
            Just(Instr::Mret),
            Just(Instr::Halt),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(instr in arb_instr()) {
            let word = instr.encode();
            let back = Instr::decode(word).expect("decode");
            prop_assert_eq!(instr, back);
        }

        #[test]
        fn decode_never_panics(word in any::<u32>()) {
            let _ = Instr::decode(word);
        }

        #[test]
        fn display_never_empty(instr in arb_instr()) {
            prop_assert!(!instr.to_string().is_empty());
        }

        #[test]
        fn display_parse_roundtrip(instr in arb_instr()) {
            let text = instr.to_string();
            let back: Instr = text.parse().unwrap_or_else(|e| panic!("{e}"));
            prop_assert_eq!(instr, back, "text was `{}`", text);
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        assert!(Instr::decode(0x3e << 26).is_err());
    }

    #[test]
    fn decode_rejects_bad_alu_func() {
        let word = AluOp::ALL.len() as u32; // RALU with out-of-range func
        assert!(Instr::decode(word).is_err());
    }

    #[test]
    fn jal_sign_extension() {
        let i = Instr::Jal { rd: Reg::R1, off: -8 };
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn dest_hides_r0() {
        let i = Instr::AluImm { op: AluOp::Add, rd: Reg::R0, rs1: Reg::R1, imm: 1 };
        assert_eq!(i.dest(), None);
        let i = Instr::AluImm { op: AluOp::Add, rd: Reg::R2, rs1: Reg::R1, imm: 1 };
        assert_eq!(i.dest(), Some(Reg::R2));
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Lt.eval(-1i32 as u32, 0));
        assert!(Cond::Ge.eval(0, -1i32 as u32));
    }

    #[test]
    fn sources_of_store_include_value() {
        let i = Instr::Store { src: Reg::R7, base: Reg::R8, off: 0 };
        assert_eq!(i.sources(), [Some(Reg::R8), Some(Reg::R7)]);
    }
}
