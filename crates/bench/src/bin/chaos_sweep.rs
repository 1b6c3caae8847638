//! Chaos campaign (beyond the paper): sweeps adversarial bus-injector
//! intensity × transient-upset (SEU) rate against the self-healing
//! cache-wrapped runtime and reports detection / recovery /
//! false-quarantine statistics per cell.
//!
//! Usage: `chaos_sweep [smoke|standard] [seed]` (decimal seed, default
//! 50336). Any other argument prints the usage and exits with status 2.
//!
//! Besides the per-cell table on stdout, the sweep's totals
//! (`ChaosReport::to_json`), with the mode and seed, are written to
//! `out/chaos_report.json`.

use sbst_campaign::{run_chaos_campaign, ChaosSweepConfig};
use sbst_obs::Json;

/// The mode and the seed, or `None` when the arguments are malformed.
fn parse(args: &[String]) -> Option<(&str, u64)> {
    let mode = args.first().map_or("standard", String::as_str);
    let seed = match args.get(1) {
        Some(text) => text.parse().ok()?,
        None => 0xc4a0,
    };
    (args.len() <= 2 && ["smoke", "standard"].contains(&mode)).then_some((mode, seed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, seed)) = parse(&args) else {
        eprintln!("usage: chaos_sweep [smoke|standard] [seed]");
        std::process::exit(2);
    };
    let cfg = match mode {
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

    let mut chaos = report.to_json();
    chaos.set("mode", Json::Str(mode.into()));
    chaos.set("seed", Json::int(seed));
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write("out/chaos_report.json", chaos.render_pretty(2))
        .expect("write out/chaos_report.json");
    println!("wrote out/chaos_report.json");

    assert_eq!(report.silent_total(), 0, "silent corruption detected");
    assert_eq!(report.false_quarantines(), 0, "quarantine without transients");
    println!(
        "\nOK: {} recovered, 0 silent corruptions, 0 false quarantines",
        report.recovered_total()
    );
}
