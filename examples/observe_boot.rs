//! Observability tour: run the boot-time STL with the metrics layer
//! attached and render the run three ways — a human-readable summary
//! table, a Chrome-trace JSON (load `observe_boot_trace.json` in
//! `chrome://tracing` or https://ui.perfetto.dev), and a JSONL event
//! log for `jq`-style filtering.
//!
//! Observation is strictly read-only: the verdicts printed here are
//! bit-identical to an unobserved `BootImage::run` (asserted below, and
//! property-tested by `tests/observability.rs`).
//!
//! ```sh
//! cargo run --release --example observe_boot
//! ```

use det_sbst::cpu::CoreKind;
use det_sbst::obs::parse_json;
use det_sbst::stl::routines::{
    BranchTest, ForwardingTest, GenericAluTest, HdcuTest, IcuTest, LsuTest, RegFileTest,
};
use det_sbst::stl::StlCatalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = StlCatalog::new();
    catalog.add("A/regfile", 0, Box::new(RegFileTest::new()));
    catalog.add("A/forwarding", 0, Box::new(ForwardingTest::without_pcs(CoreKind::A)));
    catalog.add("B/branch", 1, Box::new(BranchTest::new()));
    catalog.add("B/lsu", 1, Box::new(LsuTest::new()));
    catalog.add("B/hdcu", 1, Box::new(HdcuTest::new(CoreKind::B)));
    catalog.add("C/icu", 2, Box::new(IcuTest::new()));
    catalog.add("C/alu", 2, Box::new(GenericAluTest::new(3)));

    println!("learning goldens and building the boot image...");
    let image = catalog.build()?;

    println!("running the parallel boot test with observability attached...\n");
    let (report, metrics) = image.run_observed(120_000_000);

    let mut lines: Vec<String> =
        report.iter().map(|(n, v)| format!("  {n:<14} {v}")).collect();
    lines.sort();
    for l in lines {
        println!("{l}");
    }
    println!("\noutcome: {:?} — all passed: {}", report.outcome, report.all_passed());
    assert!(report.all_passed());

    // Observation must not have changed a single verdict or cycle.
    let unobserved = image.run(120_000_000);
    assert_eq!(unobserved.outcome, report.outcome, "observability changed the run");

    println!("\n== metrics summary ==\n{}", metrics.summary_table());

    let trace = metrics.to_chrome_trace();
    parse_json(&trace).expect("chrome trace is valid JSON");
    std::fs::write("observe_boot_trace.json", &trace)?;
    println!(
        "wrote observe_boot_trace.json ({} events) — open in chrome://tracing",
        metrics.events.len()
    );

    let jsonl = metrics.to_jsonl();
    std::fs::write("observe_boot_events.jsonl", &jsonl)?;
    println!("wrote observe_boot_events.jsonl ({} lines)", jsonl.lines().count());
    Ok(())
}
