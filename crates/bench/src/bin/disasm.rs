//! Developer tool: print the wrapped program of any built-in routine.
//!
//! Usage: `disasm <routine> [core] [--raw]`
//!   routine: forwarding | hdcu | icu | regfile | branch | lsu | alu
//!   core:    A | B | C (default A)
//!   --raw:   print the unwrapped body instead of the Figure-2b wrapper
//!
//! Any other core or a surplus argument prints the usage and exits 2.

use sbst_cpu::CoreKind;
use sbst_isa::Asm;
use sbst_stl::routines::{
    BranchTest, ForwardingTest, GenericAluTest, HdcuTest, IcuTest, LsuTest, RegFileTest,
};
use sbst_stl::{wrap_cached, RoutineEnv, SelfTestRoutine, WrapConfig};

/// `(routine, core, raw)` from the arguments after the program name, or
/// `None` when they do not match the usage.
fn parse(args: &[String]) -> Option<(&str, CoreKind, bool)> {
    let (which, rest) = args.split_first()?;
    let (raw, rest) = match rest {
        [rest @ .., last] if last == "--raw" => (true, rest),
        _ => (false, rest),
    };
    let kind = match rest {
        [] => CoreKind::A,
        [core] => *CoreKind::ALL.iter().find(|k| k.to_string() == *core)?,
        _ => return None,
    };
    Some((which, kind, raw))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((which, kind, raw)) = parse(&args) else {
        eprintln!("usage: disasm <forwarding|hdcu|icu|regfile|branch|lsu|alu> [A|B|C] [--raw]");
        std::process::exit(2);
    };
    let routine: Box<dyn SelfTestRoutine> = match which {
        "forwarding" => Box::new(ForwardingTest::without_pcs(kind)),
        "hdcu" => Box::new(HdcuTest::new(kind)),
        "icu" => Box::new(IcuTest::new()),
        "regfile" => Box::new(RegFileTest::new()),
        "branch" => Box::new(BranchTest::new()),
        "lsu" => Box::new(LsuTest::new()),
        "alu" => Box::new(GenericAluTest::new(2)),
        other => {
            eprintln!("unknown routine `{other}`");
            std::process::exit(2);
        }
    };
    let env = RoutineEnv::for_core(kind);
    let asm = if raw {
        let mut a = Asm::new();
        routine.emit_body(&mut a, &env, "body");
        a
    } else {
        let cfg = WrapConfig { icache_capacity: u32::MAX, ..WrapConfig::default() };
        wrap_cached(routine.as_ref(), &env, &cfg, "w").expect("wraps")
    };
    let program = asm.assemble(0x400).expect("assembles");
    println!(
        "; {} on core {kind} — {} bytes ({} instructions){}",
        routine.name(),
        program.len_bytes(),
        program.words().len(),
        if raw { " [unwrapped body]" } else { "" }
    );
    print!("{}", program.disassemble());
}
