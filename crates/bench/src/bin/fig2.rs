//! Regenerates the paper's Figure 2: the structure of the single-core
//! self-test procedure (a) versus the cache-based multi-core version (b).

use sbst_cpu::CoreKind;
use sbst_stl::routines::IcuTest;
use sbst_stl::{wrap_cached, RoutineEnv, WrapConfig};

fn main() {
    let kind = CoreKind::A;
    let routine = IcuTest::with_rounds(1);
    let env = RoutineEnv::for_core(kind);

    println!("(a) single-core version: [init] -> [test program body] -> [signature]");
    println!("(b) cache-based multi-core version (Figure 2b):\n");
    let cfg = WrapConfig::default();
    let asm = wrap_cached(&routine, &env, &cfg, "fig2").unwrap();
    let program = asm.assemble(0x400).unwrap();
    println!(
        "  block a: setup (loop counter = {} iterations, result pointer)",
        cfg.iterations
    );
    println!("  block b: icinv + dcinv (invalidate both caches)");
    println!("  block c/d: the UNMODIFIED single-core body, executed twice:");
    println!("     iteration 1 = loading loop (warms I$/D$, signature discarded)");
    println!("     iteration 2 = execution loop (runs from cache, signature kept)");
    println!("  block e: loop decrement + backward branch (taken exactly once)");
    println!("  then: store signature, self-check, halt\n");
    println!(
        "  image: {} bytes ({} instructions), fits the 8 KiB I$: {}",
        program.len_bytes(),
        program.words().len(),
        program.len_bytes() <= 8 * 1024
    );
    println!("\nFirst 24 instructions of the emitted wrapper:\n");
    let head: String = program
        .disassemble()
        .lines()
        .take(24)
        .collect::<Vec<_>>()
        .join("\n");
    println!("{head}");
}
