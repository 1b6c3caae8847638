//! End-to-end integration tests of the `fleet_campaign` service binary:
//! the CI smoke contract (clean termination under forced panics + one
//! hang, zero silent losses, valid JSONL telemetry) and the
//! process-pool hang-kill-steal path across a real process boundary.

use std::path::{Path, PathBuf};
use std::process::Command;

use sbst_obs::{parse_json, Json};

const BIN: &str = env!("CARGO_BIN_EXE_fleet_campaign");

/// A fresh scratch cwd, so artifact files never collide between tests,
/// removed when the test ends — pass or fail.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sbst-fleet-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch cwd");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

fn run(mode: &str, cwd: &Path) -> String {
    let out = Command::new(BIN).arg(mode).current_dir(cwd).output().expect("spawn binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "fleet_campaign {mode} failed ({:?}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn smoke_mode_terminates_cleanly_with_valid_artifacts() {
    let dir = Scratch::new("smoke");
    let stdout = run("smoke", &dir);
    assert!(stdout.contains("fleet_campaign [smoke]: OK"), "missing OK marker:\n{stdout}");

    // Every dashboard line is a standalone JSON object (JSONL): the
    // event lines carry exactly the `MetricsHub::to_jsonl` keys, and the
    // last line is the telemetry summary with the recovery counters.
    let dashboard =
        std::fs::read_to_string(dir.join("out/fleet_dashboard.jsonl")).expect("dashboard written");
    let lines: Vec<&str> = dashboard.lines().collect();
    assert!(lines.len() > 5, "dashboard suspiciously short: {} lines", lines.len());
    for (i, line) in lines.iter().enumerate() {
        let event = parse_json(line)
            .unwrap_or_else(|e| panic!("dashboard line {i} invalid ({e:?}): {line}"));
        let Json::Obj(fields) = event else {
            panic!("dashboard line {i} is not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if i + 1 < lines.len() {
            assert_eq!(keys, ["cycle", "core", "kind", "args"], "event line {i}: {line}");
        }
    }
    let telemetry = parse_json(lines[lines.len() - 1]).expect("telemetry line");
    let shards = telemetry.get("shards").and_then(Json::as_f64).expect("shards field");
    let completed = telemetry.get("completed").and_then(Json::as_f64).expect("completed");
    let quarantined = telemetry.get("quarantined").and_then(Json::as_f64).expect("quarantined");
    assert!(shards > 0.0);
    // Zero silent losses: every shard is accounted completed or
    // quarantined-with-cause.
    assert_eq!(completed + quarantined, shards, "unaccounted shards in telemetry");
    assert!(
        telemetry.get("injected_panics").and_then(Json::as_f64).expect("panics") >= 2.0,
        "forced panics missing from telemetry"
    );
    assert!(
        telemetry.get("injected_hangs").and_then(Json::as_f64).expect("hangs") >= 1.0,
        "forced hang missing from telemetry"
    );

    // The fleet report carries the throughput + recovery stats.
    let report =
        std::fs::read_to_string(dir.join("out/fleet_report.json")).expect("fleet report written");
    let fleet = parse_json(&report).expect("fleet report parses");
    for key in ["speedup", "faults_per_sec", "chaos", "process_pool"] {
        assert!(fleet.get(key).is_some(), "fleet record missing {key:?}");
    }
    let chaos = fleet.get("chaos").expect("chaos record");
    for key in ["retries", "steals", "quarantined", "resumes"] {
        assert!(chaos.get(key).is_some(), "recovery stat {key:?} missing");
    }
}

#[test]
fn process_pool_kills_and_steals_a_hung_child() {
    let dir = Scratch::new("proc-hang");
    let stdout = run("proc-hang", &dir);
    assert!(stdout.contains("fleet_campaign [proc-hang]: OK"), "missing OK marker:\n{stdout}");
    // The binary itself asserts steals >= 1 and bit-identity to the
    // serial baseline; reaching OK means the hung child was killed at
    // lease expiry and its shard re-graded elsewhere.
}
