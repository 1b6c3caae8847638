//! Decentralized boot-time STL scheduling (after Floridia et al. \[13\]).
//!
//! Each core runs its own sequence of wrapped routines; coordination is
//! decentralized through shared-SRAM primitives (an `amoswap` spinlock
//! and a start barrier) — no core plays master. This is the execution
//! context that produces the paper's Table I bus-contention numbers.
//!
//! This module is the one place a core's boot program is laid out:
//! [`build_stl_program`] emits it, [`CoreStl::env_of`] places each
//! routine's mailbox and scratch, [`CoreStl::learn`] learns its
//! goldens, and [`boot_soc`] puts each slot's program on its own cached
//! core. The deployable [`StlCatalog`](crate::StlCatalog) and the
//! fault-tolerant [`Supervisor`](crate::Supervisor) both build through
//! it.

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_isa::{Asm, Program, Reg};
use sbst_mem::{MMIO_BASE, SRAM_BASE, WDG_KICK, WDG_LOAD};
use sbst_soc::SocBuilder;

use crate::harness::learn_golden_cached;
use crate::routine::{RoutineEnv, SelfTestRoutine};
use crate::wrap::cache::{emit_into, WrapConfig, WrapError};
use crate::wrap::Terminator;

/// Shared-SRAM spinlock word of the start barrier.
pub const LOCK_ADDR: u32 = SRAM_BASE;
/// Shared-SRAM arrived-cores counter of the start barrier.
pub const COUNT_ADDR: u32 = SRAM_BASE + 4;
/// First per-core "done" flag word: core `c` publishes at
/// `DONE_BASE + 4·c`.
pub const DONE_BASE: u32 = SRAM_BASE + 8;

// Scheduler-reserved registers (distinct from wrapper + body sets is
// unnecessary: the barrier runs before/after routines).
const LOCK_PTR: Reg = Reg::R1;
const TMP: Reg = Reg::R2;
const OLD: Reg = Reg::R3;
const CNT_PTR: Reg = Reg::R4;

/// Emits a decentralized start barrier: take the lock, bump the arrival
/// counter, release, then spin until all `n` cores arrived.
pub fn emit_barrier(asm: &mut Asm, n: u32, tag: &str) {
    let acquire = format!("{tag}_bar_acq");
    let wait = format!("{tag}_bar_wait");
    asm.li(LOCK_PTR, LOCK_ADDR);
    asm.li(CNT_PTR, COUNT_ADDR);
    asm.label(&acquire);
    asm.li(TMP, 1);
    asm.amoswap(OLD, TMP, LOCK_PTR); // swaps bypass the D$
    asm.bne(OLD, Reg::R0, &acquire);
    // There is no cache-coherence protocol: shared words written by the
    // other cores must be re-read past the private D$, so boot code
    // invalidates before every coordination read.
    asm.dcinv();
    asm.lw(TMP, CNT_PTR, 0);
    asm.addi(TMP, TMP, 1);
    asm.sw(TMP, CNT_PTR, 0); // write-through: immediately visible
    asm.sw(Reg::R0, LOCK_PTR, 0); // release
    asm.li(OLD, n);
    asm.label(&wait);
    asm.dcinv();
    asm.lw(TMP, CNT_PTR, 0);
    asm.blt(TMP, OLD, &wait);
}

/// Arms the memory-mapped watchdog with `timeout` cycles.
pub fn emit_watchdog_arm(asm: &mut Asm, timeout: u32) {
    asm.li(Reg::R1, MMIO_BASE + WDG_LOAD);
    asm.li(Reg::R2, timeout);
    asm.sw(Reg::R2, Reg::R1, 0);
}

/// Kicks (reloads) the watchdog.
pub fn emit_watchdog_kick(asm: &mut Asm) {
    asm.li(Reg::R1, MMIO_BASE + WDG_KICK);
    asm.sw(Reg::R0, Reg::R1, 0);
}

/// One core's share of the Software Test Library.
pub struct CoreStl {
    /// Routines this core runs, in order.
    pub routines: Vec<Box<dyn SelfTestRoutine>>,
    /// Environment of routine 0; the others follow it (see
    /// [`env_of`](CoreStl::env_of)).
    pub env: RoutineEnv,
}

impl CoreStl {
    /// A core's STL share.
    pub fn new(routines: Vec<Box<dyn SelfTestRoutine>>, env: RoutineEnv) -> CoreStl {
        CoreStl { routines, env }
    }

    /// Routine `i`'s environment: its result mailbox sits `16·i` bytes
    /// and its scratch area `0x40·i` bytes past routine 0's.
    pub fn env_of(&self, i: usize) -> RoutineEnv {
        RoutineEnv {
            result_addr: self.env.result_addr + 16 * i as u32,
            data_base: self.env.data_base + 0x40 * i as u32,
            ..self.env
        }
    }

    /// Learns every routine's golden signature under the paper's
    /// wrapper (`WrapConfig::default()`): one fault-free standalone
    /// cached run per routine, in its own environment, from
    /// [`boot_base`]`(0)`.
    ///
    /// # Errors
    ///
    /// Propagates wrapper errors (oversized routine, assembly failure).
    pub fn learn(&self) -> Result<Vec<u32>, WrapError> {
        let wrap = WrapConfig::default();
        let learn = |i: usize| {
            let routine = self.routines[i].as_ref();
            learn_golden_cached(routine, &self.env_of(i), &wrap, self.env.core_kind, boot_base(0))
        };
        (0..self.routines.len()).map(learn).collect()
    }
}

/// Builds the boot-time STL program of one core: watchdog arm → start
/// barrier over `total_cores` → wrapped routines back-to-back, each
/// followed by a watchdog kick → done flag at `DONE_BASE + 4·core_id` →
/// halt.
///
/// Routine `i` self-checks against `goldens[i]`; an empty `goldens`
/// leaves every routine unchecked (status `STATUS_DONE`). The watchdog
/// is armed with, and kicked against, `watchdog` when it is given:
/// give it to one core per SoC. `wrap` is the deterministic wrapper
/// applied to *every* routine (set `iterations: 1, invalidate: false`
/// to model the legacy uncached STL).
///
/// # Panics
///
/// Panics if `goldens` is neither empty nor one per routine.
pub fn build_stl_program(
    core_id: usize,
    total_cores: u32,
    stl: &CoreStl,
    goldens: &[u32],
    watchdog: Option<u32>,
    wrap: &WrapConfig,
) -> Asm {
    assert!(
        goldens.is_empty() || goldens.len() == stl.routines.len(),
        "core {core_id}: {} goldens for {} routines",
        goldens.len(),
        stl.routines.len()
    );
    let mut asm = Asm::new();
    let tag = format!("c{core_id}");
    if let Some(timeout) = watchdog {
        emit_watchdog_arm(&mut asm, timeout);
    }
    emit_barrier(&mut asm, total_cores, &tag);
    for (i, routine) in stl.routines.iter().enumerate() {
        let cfg = WrapConfig {
            expected_sig: goldens.get(i).copied(),
            terminator: Terminator::Fallthrough,
            ..*wrap
        };
        emit_into(&mut asm, routine.as_ref(), &stl.env_of(i), &cfg, &format!("{tag}_r{i}"));
        if watchdog.is_some() {
            emit_watchdog_kick(&mut asm);
        }
    }
    // Publish completion.
    asm.li(Reg::R1, DONE_BASE + 4 * core_id as u32);
    asm.li(Reg::R2, 1);
    asm.sw(Reg::R2, Reg::R1, 0);
    asm.halt();
    asm
}

/// Flash address of boot slot `slot`'s program: `0x1000`, then one slot
/// every 256 KiB.
pub fn boot_base(slot: usize) -> u32 {
    0x1000 + 0x4_0000 * slot as u32
}

/// The boot SoC: one cached core per program, in slot order. Slot `i`
/// runs a core of its `kind` from its program's base (assemble it at
/// [`boot_base`]`(i)`) and starts `3·i` cycles late.
pub fn boot_soc<'a>(programs: impl IntoIterator<Item = (CoreKind, &'a Program)>) -> SocBuilder {
    let mut builder = SocBuilder::new();
    for (slot, (kind, program)) in programs.into_iter().enumerate() {
        let cfg = CoreConfig::cached(kind, slot, program.base());
        builder = builder.load(program).core(cfg, 3 * slot as u32);
    }
    builder
}
