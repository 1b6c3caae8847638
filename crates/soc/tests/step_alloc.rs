//! `Soc::step` allocates nothing once a run is warm.
//!
//! Every graded fault is a loop over `Soc::step`, so a heap allocation
//! per simulated cycle (a fetch packet, an arbitration mask) used to be
//! the largest single cost outside the pipeline model. This test counts
//! the allocations of the stepping thread over a contended steady state
//! (an uncached and two cached cores looping over ALU work, loads and
//! stores, on a fresh SoC and on a clone of it) and requires none.
//! Warm-up may allocate: copy-on-write pages materialise on their first
//! write and containers cloned empty grow once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_isa::{Asm, Reg};
use sbst_mem::SRAM_BASE;
use sbst_soc::{Soc, SocBuilder};

thread_local! {
    /// Allocations made by this thread while counting is on.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only updates a
// const-initialised thread-local counter and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Loops for a long time over ALU work, a store and a load to this
/// core's SRAM word.
fn worker(core: usize) -> Asm {
    let mut a = Asm::new();
    a.li(Reg::R1, 1_000_000);
    a.li(Reg::R4, SRAM_BASE + 0x1000 + 0x100 * core as u32);
    a.label("top");
    a.addi(Reg::R2, Reg::R2, 1);
    a.add(Reg::R3, Reg::R2, Reg::R3);
    a.sw(Reg::R3, Reg::R4, 0);
    a.lw(Reg::R5, Reg::R4, 0);
    a.addi(Reg::R1, Reg::R1, -1);
    a.bne(Reg::R1, Reg::R0, "top");
    a.halt();
    a
}

/// Allocations made while stepping `soc` for `cycles` cycles.
fn allocations(soc: &mut Soc, cycles: u64) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    for _ in 0..cycles {
        soc.step();
    }
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

#[test]
fn contended_steady_state_step_does_not_allocate() {
    let mut builder = SocBuilder::new();
    for core in 0..3 {
        let base = 0x400 + 0x1_0000 * core as u32;
        let program = worker(core).assemble(base).expect("assembles");
        let cfg = if core == 0 {
            CoreConfig::uncached(CoreKind::ALL[core], core, base)
        } else {
            CoreConfig::cached(CoreKind::ALL[core], core, base)
        };
        builder = builder.load(&program).core(cfg, 3 * core as u32);
    }
    let mut soc = builder.build();
    allocations(&mut soc, 5_000);
    assert_eq!(allocations(&mut soc, 20_000), 0, "fresh SoC allocated while stepping");

    let mut clone = soc.clone();
    allocations(&mut clone, 5_000);
    assert_eq!(allocations(&mut clone, 20_000), 0, "cloned SoC allocated while stepping");
    assert!(!clone.all_halted(), "the steady state must still be running");
}
