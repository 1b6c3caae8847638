#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbst-bench — reproduction binaries and benchmarks
//!
//! This crate hosts
//!
//! * the table/figure regeneration binaries (`table1`–`table4`, `fig1`,
//!   `fig2`, `ablations`, `delay_faults`, `cache_sweep`,
//!   `coverage_holes`, `disasm`, and the one-shot `reproduce` driver) —
//!   see `README.md` for the command lines;
//! * the campaign benchmarks and smoke checks (`bench_campaign`,
//!   `chaos_sweep`, `certify`, `fleet_campaign`), which record their
//!   results in `BENCH_campaign.json` through [`update_bench_campaign`],
//!   the crate's one library function;
//! * the Criterion benches under `benches/` measuring the simulator's
//!   cycle throughput, cache operations, wrapper emission and
//!   single-fault simulation latency.

use sbst_obs::{parse_json, Json};

/// Rewrites `BENCH_campaign.json` in the working directory: `update`
/// edits the current document in place, which is an empty object when
/// the file is missing or is not a JSON object. Each binary owns its
/// sections and leaves the others as they are.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn update_bench_campaign(update: impl FnOnce(&mut Json)) {
    let path = "BENCH_campaign.json";
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse_json(&text).ok())
        .filter(|doc| matches!(doc, Json::Obj(_)))
        .unwrap_or(Json::Obj(Vec::new()));
    update(&mut doc);
    std::fs::write(path, doc.render_pretty(2)).expect("write BENCH_campaign.json");
    println!("wrote {path}");
}
