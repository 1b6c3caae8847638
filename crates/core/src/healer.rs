//! Self-healing execution of a cache-wrapped routine under chaos.
//!
//! The deterministic wrapper makes a routine's signature immune to bus
//! *timing* (interference from other masters), but not to *data*
//! corruption: a transient upset in a cached line or an in-flight bus
//! word silently changes what the execution loop computes. The healer
//! closes that gap with a cross-check-and-retry loop:
//!
//! 1. run the wrapped routine and cross-check its signature — against a
//!    learned golden ([`CheckMode::Golden`]) or by majority over
//!    independent re-runs ([`CheckMode::Vote`]);
//! 2. on mismatch, throw the state away and retry: each attempt is a
//!    *fresh* SoC (cold caches — the wrapper invalidates and the
//!    loading loop re-warms) under a *re-seeded* transient schedule
//!    ([`ChaosConfig::for_attempt`]), because an SEU does not replay;
//! 3. after [`HealConfig::max_retries`] extra attempts, escalate to the
//!    supervisor's quarantine path with a [`QuarantineCause`].
//!
//! The invariant the chaos property tests pin down: the healer **never
//! silently reports a corrupted signature** — every returned signature
//! was either cross-checked clean or the report says quarantine.
//!
//! [`ChaosConfig::for_attempt`]: sbst_soc::ChaosConfig::for_attempt

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_soc::{ChaosConfig, RunOutcome, SocBuilder};

use crate::harness::{derive_cycle_budget, finish, RunReport};
use crate::routine::{RoutineEnv, SelfTestRoutine, STATUS_DONE, STATUS_PASS};
use crate::supervisor::QuarantineCause;
use crate::wrap::cache::{wrap_cached, WrapConfig};
use crate::wrap::WrapError;

/// How the healer decides whether a run's signature is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Compare against a golden signature learned fault-free (the
    /// paper's normal regime: goldens exist for every routine).
    Golden(u32),
    /// No golden available: trust a signature only when two out of
    /// three independent runs agree on it.
    Vote,
}

/// Healer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealConfig {
    /// Extra attempts after the first failing one before escalation.
    pub max_retries: usize,
    /// Signature cross-check policy.
    pub check: CheckMode,
}

impl HealConfig {
    /// Golden-compare with the default retry budget.
    pub fn golden(expected: u32) -> HealConfig {
        HealConfig { max_retries: 2, check: CheckMode::Golden(expected) }
    }

    /// 2-of-3 voting with the default retry budget.
    pub fn vote() -> HealConfig {
        HealConfig { max_retries: 2, check: CheckMode::Vote }
    }
}

/// What the healer ultimately did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealAction {
    /// First check passed — no disturbance reached the signature.
    Clean,
    /// A check failed but a retry produced a trusted signature.
    Recovered {
        /// Extra attempts consumed beyond the baseline.
        retries: usize,
    },
    /// Every attempt failed; the core must be quarantined.
    Quarantine {
        /// Failure mode of the last attempt.
        cause: QuarantineCause,
    },
}

/// Structured outcome of one healed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total runs executed (including votes and retries).
    pub attempts: usize,
    /// What happened.
    pub action: HealAction,
    /// The cross-checked signature — `None` exactly when quarantined.
    pub signature: Option<u32>,
}

impl RecoveryReport {
    /// Whether a trusted signature was produced.
    pub fn healthy(&self) -> bool {
        self.signature.is_some()
    }

    /// Whether the healer ended in escalation.
    pub fn quarantined(&self) -> bool {
        matches!(self.action, HealAction::Quarantine { .. })
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.action {
            HealAction::Clean => write!(f, "clean in {} run(s)", self.attempts),
            HealAction::Recovered { retries } => {
                write!(f, "recovered after {retries} retr{} ({} runs)",
                       if retries == 1 { "y" } else { "ies" }, self.attempts)
            }
            HealAction::Quarantine { cause } => {
                write!(f, "quarantine after {} runs ({cause})", self.attempts)
            }
        }
    }
}

/// Maps a failing run to the supervisor's quarantine vocabulary.
fn cause_of(report: &RunReport) -> QuarantineCause {
    match report.outcome {
        RunOutcome::FatalTrap { .. } => QuarantineCause::UnexpectedTrap,
        RunOutcome::Watchdog { .. } => QuarantineCause::WatchdogBite,
        // Halted cleanly but the signature/status check failed.
        RunOutcome::AllHalted { .. } => QuarantineCause::SignatureMismatch,
    }
}

/// Whether a run halted cleanly with a non-failing status. Programs
/// wrapped *with* an embedded golden report `STATUS_PASS`; wrapped
/// without one they report `STATUS_DONE` — the healer is then the sole
/// checker. Anything else (explicit FAIL, a zeroed mailbox) is a
/// failing run.
fn finished_ok(report: &RunReport) -> bool {
    report.outcome.is_clean()
        && (report.status == STATUS_PASS || report.status == STATUS_DONE)
}

/// Whether a run is acceptable under golden comparison.
fn golden_ok(report: &RunReport, expected: u32) -> bool {
    finished_ok(report) && report.signature == expected
}

/// Runs `run(attempt)` under the healer's cross-check-and-retry policy.
///
/// The closure owns execution: attempt `n` must be an *independent*
/// fresh run (new SoC, cold caches) — under chaos, pass
/// `chaos.for_attempt(n)` so transients do not replay. Vote mode
/// consumes attempt indices for its extra ballots, so the closure sees
/// strictly increasing `attempt` values across the whole healing.
pub fn run_self_healing(
    cfg: &HealConfig,
    mut run: impl FnMut(usize) -> RunReport,
) -> RecoveryReport {
    match cfg.check {
        CheckMode::Golden(expected) => {
            let mut last = run(0);
            if golden_ok(&last, expected) {
                return RecoveryReport {
                    attempts: 1,
                    action: HealAction::Clean,
                    signature: Some(last.signature),
                };
            }
            for retry in 1..=cfg.max_retries {
                last = run(retry);
                if golden_ok(&last, expected) {
                    return RecoveryReport {
                        attempts: retry + 1,
                        action: HealAction::Recovered { retries: retry },
                        signature: Some(last.signature),
                    };
                }
            }
            RecoveryReport {
                attempts: cfg.max_retries + 1,
                action: HealAction::Quarantine { cause: cause_of(&last) },
                signature: None,
            }
        }
        CheckMode::Vote => {
            // One ballot is three independent runs; a signature shared
            // by two clean PASS runs is trusted. Retries grant extra
            // ballots.
            let mut attempt = 0usize;
            let mut last = RunReport {
                outcome: RunOutcome::Watchdog { cycles: 0 },
                signature: 0,
                status: 0,
                cycles: 0,
            };
            for ballot in 0..=cfg.max_retries {
                let votes: Vec<RunReport> = (0..3)
                    .map(|_| {
                        let r = run(attempt);
                        attempt += 1;
                        r
                    })
                    .collect();
                last = votes[2];
                let clean: Vec<&RunReport> = votes.iter().filter(|r| finished_ok(r)).collect();
                let majority = clean.iter().find(|r| {
                    clean.iter().filter(|o| o.signature == r.signature).count() >= 2
                });
                if let Some(winner) = majority {
                    let unanimous = votes
                        .iter()
                        .all(|r| golden_ok(r, winner.signature));
                    let action = if unanimous && ballot == 0 {
                        HealAction::Clean
                    } else {
                        HealAction::Recovered { retries: ballot }
                    };
                    return RecoveryReport {
                        attempts: attempt,
                        action,
                        signature: Some(winner.signature),
                    };
                }
            }
            RecoveryReport {
                attempts: attempt,
                action: HealAction::Quarantine { cause: cause_of(&last) },
                signature: None,
            }
        }
    }
}

/// Convenience: heals one cache-wrapped routine standalone under a
/// chaos plane. Attempt `n` rebuilds the SoC from scratch (cold caches)
/// with the chaos re-seeded via [`ChaosConfig::for_attempt`].
///
/// # Errors
///
/// Propagates wrapper/assembly errors — build defects, never retried.
pub fn heal_standalone(
    routine: &dyn SelfTestRoutine,
    env: &RoutineEnv,
    wrap: &WrapConfig,
    kind: CoreKind,
    base: u32,
    chaos: ChaosConfig,
    cfg: &HealConfig,
) -> Result<RecoveryReport, WrapError> {
    let asm = wrap_cached(routine, env, wrap, "heal")?;
    let program = asm.assemble(base)?;
    let budget = derive_cycle_budget(&asm);
    let image = {
        let mut b = SocBuilder::new();
        b = b.load(&program);
        b.freeze_image()
    };
    Ok(run_self_healing(cfg, |attempt| {
        let builder = SocBuilder::new()
            .core(CoreConfig::cached(kind, 0, base), 0)
            .chaos(chaos.for_attempt(attempt));
        let soc = builder.build_shared(image.clone());
        finish(soc, env, budget)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(sig: u32) -> RunReport {
        RunReport {
            outcome: RunOutcome::AllHalted { cycles: 100 },
            signature: sig,
            status: STATUS_PASS,
            cycles: 100,
        }
    }

    fn hung() -> RunReport {
        RunReport {
            outcome: RunOutcome::Watchdog { cycles: 999 },
            signature: 0,
            status: 0,
            cycles: 999,
        }
    }

    #[test]
    fn golden_clean_first_time() {
        let r = run_self_healing(&HealConfig::golden(7), |_| ok(7));
        assert_eq!(r.attempts, 1);
        assert_eq!(r.action, HealAction::Clean);
        assert_eq!(r.signature, Some(7));
    }

    #[test]
    fn golden_recovers_on_retry() {
        let r = run_self_healing(&HealConfig::golden(7), |n| {
            if n == 0 { ok(99) } else { ok(7) }
        });
        assert_eq!(r.action, HealAction::Recovered { retries: 1 });
        assert_eq!(r.attempts, 2);
        assert_eq!(r.signature, Some(7));
    }

    #[test]
    fn golden_escalates_with_last_cause() {
        let r = run_self_healing(&HealConfig::golden(7), |n| {
            if n < 2 { ok(99) } else { hung() }
        });
        assert_eq!(
            r.action,
            HealAction::Quarantine { cause: QuarantineCause::WatchdogBite }
        );
        assert_eq!(r.attempts, 3);
        assert!(!r.healthy());

        let r = run_self_healing(&HealConfig::golden(7), |_| ok(99));
        assert_eq!(
            r.action,
            HealAction::Quarantine { cause: QuarantineCause::SignatureMismatch }
        );
    }

    #[test]
    fn vote_trusts_two_of_three() {
        let r = run_self_healing(&HealConfig::vote(), |n| {
            if n == 1 { ok(99) } else { ok(7) }
        });
        assert_eq!(r.signature, Some(7));
        assert_eq!(r.action, HealAction::Recovered { retries: 0 });
        assert_eq!(r.attempts, 3);
    }

    #[test]
    fn vote_unanimous_is_clean() {
        let r = run_self_healing(&HealConfig::vote(), |_| ok(7));
        assert_eq!(r.action, HealAction::Clean);
        assert_eq!(r.attempts, 3);
    }

    #[test]
    fn vote_with_no_majority_escalates() {
        let mut sigs = [1u32, 2, 3, 4, 5, 6, 7, 8, 9].into_iter();
        let r = run_self_healing(&HealConfig::vote(), |_| ok(sigs.next().unwrap()));
        assert!(r.quarantined());
        assert_eq!(r.attempts, 9);
        assert_eq!(r.signature, None);
    }
}
