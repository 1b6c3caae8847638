//! Command line of the det-sbst benchmark.
//!
//! ```text
//! det-sbst-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! det-sbst-perfbench --regen-oracle <name|all>
//! ```
//!
//! A run prints diagnostics to the error stream and, as the last line
//! of its standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, and the spans are written under
//! `out/` in this package's directory.

use std::process::ExitCode;

use det_sbst_perfbench::inputs::Workload;
use det_sbst_perfbench::layers::per_layer;
use det_sbst_perfbench::measure::end_to_end;
use det_sbst_perfbench::oracle::{regenerate, Oracle};
use det_sbst_perfbench::workload::scratch_dir;
use det_sbst_perfbench::Outcome;
use sbst_obs::Json;

/// Parsed run arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (ctl-fleet|fwd-uncached-sweep)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--regen-oracle") {
        return regen(args.get(1).map_or("all", String::as_str));
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let oracle = match Oracle::load(args.workload) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        match per_layer(
            args.workload,
            args.seed,
            args.seconds,
            &oracle,
            &scratch_dir(args.workload),
        ) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: writing the trace: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &oracle)
    };
    for note in &outcome.tally.notes {
        eprintln!("check failed: {note}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.tally.failed == 0)),
        ("attempted".into(), Json::int(outcome.tally.attempted)),
        ("failed".into(), Json::int(outcome.tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Regenerates the committed oracle files.
fn regen(which: &str) -> ExitCode {
    let workloads: Vec<Workload> = match which {
        "all" => Workload::ALL.to_vec(),
        name => match Workload::parse(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("error: unknown workload {name:?}");
                return ExitCode::from(2);
            }
        },
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for w in workloads {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("oracle/{}.txt", w.name()));
        let start = std::time::Instant::now();
        if let Err(e) = std::fs::write(&path, regenerate(w, threads)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "wrote {} in {:.1}s",
            path.display(),
            start.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
