//! The self-test routine abstraction.

use sbst_cpu::CoreKind;
use sbst_fault::Unit;
use sbst_isa::{Asm, Reg};
use sbst_mem::WritePolicy;

/// Result-mailbox layout: signature word offset.
pub const RESULT_SIG_OFF: i16 = 0;
/// Result-mailbox layout: status word offset.
pub const RESULT_STATUS_OFF: i16 = 4;
/// Status word: routine finished and its self-check passed.
pub const STATUS_PASS: u32 = 0xc0de_600d;
/// Status word: routine finished and its self-check FAILED.
pub const STATUS_FAIL: u32 = 0xc0de_baad;
/// Status word: routine finished without an embedded expected signature.
pub const STATUS_DONE: u32 = 0xc0de_0000;

/// Environment a routine's body is emitted against.
#[derive(Debug, Clone, Copy)]
pub struct RoutineEnv {
    /// The core the routine will run on (selects 64-bit sections, ICU
    /// cause mapping, ...).
    pub core_kind: CoreKind,
    /// SRAM address of the 2-word result mailbox (signature + status).
    pub result_addr: u32,
    /// SRAM scratch area private to this routine (≥ 64 bytes).
    pub data_base: u32,
    /// Data-cache write policy: with
    /// [`NoWriteAllocate`](WritePolicy::NoWriteAllocate) every emitted
    /// store is followed by a dummy load (paper §III.1).
    pub policy: WritePolicy,
}

impl RoutineEnv {
    /// A default environment for `core_kind` with mailbox/scratch at
    /// conventional SRAM offsets.
    pub fn for_core(core_kind: CoreKind) -> RoutineEnv {
        RoutineEnv {
            core_kind,
            result_addr: sbst_mem::SRAM_BASE + 0x40,
            data_base: sbst_mem::SRAM_BASE + 0x100,
            policy: WritePolicy::WriteAllocate,
        }
    }

    /// Emits a store that honours the write policy: under no-write
    /// allocate a dummy `lw r0` immediately follows so the loading loop
    /// still allocates the line and the execution loop sees no write
    /// miss.
    pub fn emit_store(&self, asm: &mut Asm, src: Reg, base: Reg, off: i16) {
        asm.sw(src, base, off);
        if self.policy == WritePolicy::NoWriteAllocate {
            asm.lw(Reg::R0, base, off);
        }
    }
}

/// A boot-time software self-test routine (single-core version).
///
/// Implementations emit the *body* only: the code that excites the
/// target unit and accumulates observations into
/// [`SIG_REG`](crate::SIG_REG). The deterministic wrappers
/// ([`wrap_cached`](crate::wrap_cached), [`wrap_tcm`](crate::wrap_tcm))
/// add cache management, the loading/execution loop, signature storage
/// and the self-check.
///
/// Register convention: the body owns `r1..=r19` and `r24..=r28`, keeps
/// the signature in `r20` (via [`emit_accumulate`](crate::emit_accumulate),
/// which clobbers `r30`), and must not touch `r21..=r23` or `r31`
/// (wrapper state). Bodies must be loop-free in the sense of paper
/// §III.2.1: any conditional branch either always falls through by the
/// end of an iteration or is taken only under a fault.
pub trait SelfTestRoutine {
    /// Routine name (diagnostics, reports).
    fn name(&self) -> String;

    /// The CPU unit this routine grades (`None` for generic STL
    /// routines that target unmodeled structures like the ALU).
    fn target_unit(&self) -> Option<Unit>;

    /// Emits the test body.
    ///
    /// `tag` uniquely prefixes any labels the body defines (the body may
    /// be emitted more than once into one program).
    fn emit_body(&self, asm: &mut Asm, env: &RoutineEnv, tag: &str);

    /// Splits the routine into `parts` smaller routines covering the
    /// same faults (for bodies larger than the instruction cache, paper
    /// §III.2.2). Returns `None` when unsupported.
    fn split(&self, parts: usize) -> Option<Vec<Box<dyn SelfTestRoutine>>> {
        let _ = parts;
        None
    }
}

/// Emits `anchor = pc_of_next_instruction` — bodies use this to fold
/// *position-independent* address deltas (e.g. EPC offsets) into the
/// signature so that golden signatures do not depend on where in Flash
/// the scenario placed the code.
pub fn emit_pc_anchor(asm: &mut Asm, anchor: Reg, tag: &str) {
    let label = format!("{tag}_anchor");
    asm.jal(anchor, &label);
    asm.label(&label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_cpu::{CoreKind, RefCpu, RefStop};

    #[test]
    fn store_helper_adds_dummy_load_under_nwa() {
        let env_wa = RoutineEnv::for_core(CoreKind::A);
        let mut asm = Asm::new();
        env_wa.emit_store(&mut asm, Reg::R1, Reg::R2, 8);
        assert_eq!(asm.len(), 1);
        let env_nwa = RoutineEnv { policy: WritePolicy::NoWriteAllocate, ..env_wa };
        let mut asm = Asm::new();
        env_nwa.emit_store(&mut asm, Reg::R1, Reg::R2, 8);
        assert_eq!(asm.len(), 2, "store + dummy load");
    }

    #[test]
    fn pc_anchor_yields_next_instruction_address() {
        let mut asm = Asm::new();
        asm.nop();
        emit_pc_anchor(&mut asm, Reg::R25, "t");
        asm.halt();
        let mut cpu = RefCpu::new(CoreKind::A, asm.assemble(0x200).unwrap());
        assert_eq!(cpu.run(100), RefStop::Halted);
        assert_eq!(cpu.reg(Reg::R25), 0x208, "address after the jal");
    }
}
