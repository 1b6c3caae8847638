//! Campaign-level telemetry: the verdict mix of a fault-injection
//! campaign and the end-of-run record of a fleet campaign.

use crate::json::Json;

/// How a campaign's verdicts were distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictMix {
    /// Faults detected by a wrong signature.
    pub wrong_signature: u64,
    /// Faults detected by an explicit test-fail status.
    pub test_fail: u64,
    /// Faults detected by an unexpected trap.
    pub unexpected_trap: u64,
    /// Faults detected by a hang (watchdog / cycle budget).
    pub hang: u64,
    /// Faults the STL did not detect.
    pub undetected: u64,
    /// Simulations that failed outright (grader error).
    pub sim_error: u64,
}

impl VerdictMix {
    /// Total verdicts counted.
    pub fn total(&self) -> u64 {
        self.wrong_signature
            + self.test_fail
            + self.unexpected_trap
            + self.hang
            + self.undetected
            + self.sim_error
    }

    /// Faults detected by any mechanism.
    pub fn detected(&self) -> u64 {
        self.wrong_signature + self.test_fail + self.unexpected_trap + self.hang
    }

    /// Renders the mix as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wrong_signature".into(), Json::int(self.wrong_signature)),
            ("test_fail".into(), Json::int(self.test_fail)),
            ("unexpected_trap".into(), Json::int(self.unexpected_trap)),
            ("hang".into(), Json::int(self.hang)),
            ("undetected".into(), Json::int(self.undetected)),
            ("sim_error".into(), Json::int(self.sim_error)),
        ])
    }
}

impl std::fmt::Display for VerdictMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sig={} fail={} trap={} hang={} undetected={} err={}",
            self.wrong_signature,
            self.test_fail,
            self.unexpected_trap,
            self.hang,
            self.undetected,
            self.sim_error,
        )
    }
}

/// End-of-run telemetry of a fleet campaign: the recovery counters of
/// the lease table, the chaos plane's injection tally, the work saved
/// by shard checkpoints and the aggregate verdict mix of every
/// completed shard.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetTelemetry {
    /// Lease/retry/steal/quarantine counters.
    pub counters: crate::metrics::FleetCounters,
    /// Injected worker panics (chaos plane).
    pub injected_panics: u64,
    /// Injected worker hangs.
    pub injected_hangs: u64,
    /// Injected worker slowdowns.
    pub injected_slowdowns: u64,
    /// Injected result corruptions.
    pub injected_corruptions: u64,
    /// Shard checkpoints rejected on load (fingerprint/config mismatch
    /// or torn file) and discarded.
    pub checkpoints_rejected: u64,
    /// Faults graded by the attempts whose results were merged: the
    /// merged verdicts minus the restored ones. Work of an attempt that
    /// failed or was stolen is not counted.
    pub faults_graded: u64,
    /// Faults restored from shard checkpoints instead of re-graded.
    pub faults_restored: u64,
    /// Wall-clock seconds of the fleet run.
    pub elapsed_secs: f64,
    /// Merged verdicts (graded + restored faults) per wall-clock
    /// second.
    pub faults_per_sec: f64,
    /// Verdict distribution over every completed shard.
    pub mix: VerdictMix,
}

impl FleetTelemetry {
    /// Renders the telemetry as a JSON object.
    pub fn to_json(&self) -> Json {
        let c = &self.counters;
        Json::Obj(vec![
            ("shards".into(), Json::int(c.shards)),
            ("completed".into(), Json::int(c.completed)),
            ("quarantined".into(), Json::int(c.quarantined)),
            ("leases".into(), Json::int(c.leases)),
            ("retries".into(), Json::int(c.retries)),
            ("steals".into(), Json::int(c.steals)),
            ("resumes".into(), Json::int(c.resumes)),
            ("late_results".into(), Json::int(c.late_results)),
            ("injected_panics".into(), Json::int(self.injected_panics)),
            ("injected_hangs".into(), Json::int(self.injected_hangs)),
            ("injected_slowdowns".into(), Json::int(self.injected_slowdowns)),
            ("injected_corruptions".into(), Json::int(self.injected_corruptions)),
            ("checkpoints_rejected".into(), Json::int(self.checkpoints_rejected)),
            ("faults_graded".into(), Json::int(self.faults_graded)),
            ("faults_restored".into(), Json::int(self.faults_restored)),
            ("elapsed_secs".into(), Json::Num(self.elapsed_secs)),
            ("faults_per_sec".into(), Json::Num(self.faults_per_sec)),
            ("verdicts".into(), self.mix.to_json()),
        ])
    }
}

impl std::fmt::Display for FleetTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        write!(
            f,
            "{}/{} shards ({} quarantined) in {:.2}s ({:.0} faults/sec); \
             {} leases, {} retries, {} steals, {} resumes; \
             chaos: {} panics, {} hangs, {} slowdowns, {} corruptions; {}",
            c.completed,
            c.shards,
            c.quarantined,
            self.elapsed_secs,
            self.faults_per_sec,
            c.leases,
            c.retries,
            c.steals,
            c.resumes,
            self.injected_panics,
            self.injected_hangs,
            self.injected_slowdowns,
            self.injected_corruptions,
            self.mix,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn fleet_telemetry_renders_as_valid_json() {
        let telemetry = FleetTelemetry {
            counters: crate::metrics::FleetCounters {
                shards: 12,
                completed: 11,
                quarantined: 1,
                leases: 18,
                retries: 5,
                steals: 2,
                resumes: 3,
                late_results: 1,
            },
            injected_panics: 3,
            injected_hangs: 1,
            injected_slowdowns: 2,
            injected_corruptions: 1,
            checkpoints_rejected: 0,
            faults_graded: 500,
            faults_restored: 40,
            elapsed_secs: 1.5,
            faults_per_sec: 360.0,
            mix: VerdictMix { wrong_signature: 300, undetected: 240, ..VerdictMix::default() },
        };
        let doc = parse_json(&telemetry.to_json().render()).expect("valid JSON");
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(12.0));
        assert_eq!(doc.get("steals").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("injected_hangs").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("verdicts").and_then(|v| v.get("wrong_signature")).and_then(Json::as_f64),
            Some(300.0)
        );
        assert!(telemetry.to_string().contains("11/12 shards"));
    }

    #[test]
    fn mix_totals_add_up() {
        let mix = VerdictMix {
            wrong_signature: 1,
            test_fail: 2,
            unexpected_trap: 3,
            hang: 4,
            undetected: 5,
            sim_error: 6,
        };
        assert_eq!(mix.total(), 21);
        assert_eq!(mix.detected(), 10);
    }
}
