//! Chaos campaign (beyond the paper): sweeps adversarial bus-injector
//! intensity × transient-upset (SEU) rate against the self-healing
//! cache-wrapped runtime and reports detection / recovery /
//! false-quarantine statistics per cell.
//!
//! Usage: `chaos_sweep [smoke|standard] [seed]`
//!
//! Besides the per-cell table on stdout, the sweep's telemetry totals
//! are merged into `BENCH_campaign.json` under the `"chaos"` key (the
//! rest of the file — `bench_campaign`'s output — is preserved).

use sbst_bench::update_bench_campaign;
use sbst_campaign::{run_chaos_campaign, ChaosSweepConfig};
use sbst_obs::Json;

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "standard".into());
    let seed = std::env::args()
        .nth(2)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xc4a0);
    let cfg = match mode.as_str() {
        "smoke" => ChaosSweepConfig::smoke(seed),
        _ => ChaosSweepConfig::default_sweep(seed),
    };
    println!(
        "CHAOS SWEEP — {} intensities x {} SEU rates, {} trials/cell, seed {seed:#x}\n",
        cfg.intensities.len(),
        cfg.seu_rates.len(),
        cfg.trials
    );
    let report = run_chaos_campaign(&cfg).expect("campaign");
    println!("{report}");
    assert_eq!(report.silent_total(), 0, "silent corruption detected");
    assert_eq!(report.false_quarantines(), 0, "quarantine without transients");
    println!(
        "\nOK: {} recovered, 0 silent corruptions, 0 false quarantines",
        report.recovered_total()
    );

    let mut chaos = report.telemetry().to_json();
    chaos.set("mode", Json::Str(mode.clone()));
    chaos.set("seed", Json::int(seed));
    update_bench_campaign(|doc| doc.set("chaos", chaos));
}
