//! Lease table: the fleet's single source of truth about who owns
//! which shard, with epochs, deadlines, backoff and quarantine.
//!
//! The protocol is deliberately small:
//!
//! 1. A worker [`claim`](LeaseTable::claim)s an idle shard whose
//!    backoff gate has passed; the claim stamps a fresh **epoch** and a
//!    **deadline**, and hands out a cancel token.
//! 2. The worker reports [`complete`](LeaseTable::complete) or
//!    [`fail`](LeaseTable::fail) *with its epoch*. A stale epoch means
//!    the lease was stolen in the meantime — the report is dropped and
//!    counted as a late result, never merged.
//! 3. The monitor calls [`expire_stale`](LeaseTable::expire_stale);
//!    leases past their deadline are cancelled (token set), bumped to a
//!    new epoch and put back on the market — that is the **steal**.
//! 4. Each failure charges the shard's retry budget and arms a
//!    jittered exponential backoff; budget exhausted → **quarantine**
//!    with the final cause, the fleet-level analog of the supervisor's
//!    `DegradedReport`.
//!
//! Everything is guarded by one mutex; lock hold times are O(shards)
//! scans with no I/O, so the table never becomes the bottleneck at the
//! fleet sizes this simulator runs.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sbst_mem::Prng;
use sbst_obs::FleetCounters;

/// Why a shard attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker panicked mid-shard.
    Panic,
    /// The lease expired (hang, overload, or a dead worker).
    Timeout,
    /// The result failed checksum validation.
    Corrupt,
    /// The worker process exited without producing a result.
    WorkerLost,
}

impl FailureKind {
    /// Stable text tag (telemetry, trace events).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Corrupt => "corrupt",
            FailureKind::WorkerLost => "worker-lost",
        }
    }
}

/// Terminal outcome of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFate {
    /// The shard's verdicts were validated and merged.
    Completed {
        /// Leases issued (1 = first try succeeded).
        attempts: u8,
        /// Leases stolen after expiry.
        steals: u32,
        /// Faults restored from a checkpoint rather than re-graded.
        resumed_faults: u32,
    },
    /// Retry budget exhausted; the shard is explicitly accounted as
    /// skipped with its final failure cause.
    Quarantined {
        /// The failure that exhausted the budget.
        cause: FailureKind,
        /// Leases issued before giving up.
        attempts: u8,
    },
}

/// A live lease: permission to grade one shard until `deadline`.
#[derive(Debug, Clone)]
pub struct Lease {
    /// Shard index.
    pub shard: usize,
    /// Epoch stamped at claim time; reports carry it back.
    pub epoch: u64,
    /// Attempt number (1-based).
    pub attempt: u8,
    /// Cancel token: set when the lease is stolen. Both pools poll it:
    /// a thread attempt stops at its next check, a process attempt
    /// kills and reaps its child.
    pub cancel: Arc<AtomicBool>,
}

/// What [`LeaseTable::fail`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOutcome {
    /// The shard goes back on the market after `backoff`.
    Retry {
        /// Jittered exponential backoff before the next lease.
        backoff: Duration,
        /// Failures charged so far.
        failures: u8,
    },
    /// Retry budget exhausted.
    Quarantined,
    /// The epoch was stale (lease already stolen); report dropped.
    Stale,
}

#[derive(Debug, Clone)]
enum SlotState {
    Idle,
    Leased { deadline: Instant, cancel: Arc<AtomicBool> },
    Done,
    Quarantined,
}

#[derive(Debug, Clone)]
struct Slot {
    state: SlotState,
    epoch: u64,
    attempts: u8,
    failures: u8,
    steals: u32,
    resumed_faults: u32,
    last_cause: Option<FailureKind>,
    not_before: Option<Instant>,
}

struct Inner {
    slots: Vec<Slot>,
    counters: FleetCounters,
}

/// Retry/backoff policy of a lease table.
#[derive(Debug, Clone, Copy)]
pub struct LeasePolicy {
    /// Failures tolerated per shard before quarantine.
    pub max_retries: u8,
    /// Lease duration; expiry triggers a steal.
    pub lease_timeout: Duration,
    /// Backoff after the first failure; doubles per failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Jitter seed (jitter is in `[0, backoff_base)`).
    pub seed: u64,
}

impl LeasePolicy {
    /// A policy tuned for tests: short leases, millisecond backoff.
    pub fn fast(seed: u64) -> LeasePolicy {
        LeasePolicy {
            max_retries: 6,
            lease_timeout: Duration::from_millis(40),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(16),
            seed,
        }
    }
}

/// The shared lease table (one per fleet run).
pub struct LeaseTable {
    inner: Mutex<Inner>,
    policy: LeasePolicy,
}

impl LeaseTable {
    /// A table with `shards` idle shards.
    pub fn new(shards: usize, policy: LeasePolicy) -> LeaseTable {
        let slot = Slot {
            state: SlotState::Idle,
            epoch: 0,
            attempts: 0,
            failures: 0,
            steals: 0,
            resumed_faults: 0,
            last_cause: None,
            not_before: None,
        };
        LeaseTable {
            inner: Mutex::new(Inner {
                slots: vec![slot; shards],
                counters: FleetCounters { shards: shards as u64, ..FleetCounters::default() },
            }),
            policy,
        }
    }

    /// The policy this table enforces.
    pub fn policy(&self) -> &LeasePolicy {
        &self.policy
    }

    /// Claims the lowest-indexed idle shard whose backoff gate has
    /// passed. `None` when nothing is claimable *right now* (all leased,
    /// settled, or backing off).
    pub fn claim(&self) -> Option<Lease> {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let idx = inner.slots.iter().position(|s| {
            matches!(s.state, SlotState::Idle) && s.not_before.is_none_or(|t| t <= now)
        })?;
        let slot = &mut inner.slots[idx];
        slot.epoch += 1;
        slot.attempts = slot.attempts.saturating_add(1);
        let cancel = Arc::new(AtomicBool::new(false));
        slot.state = SlotState::Leased {
            deadline: now + self.policy.lease_timeout,
            cancel: Arc::clone(&cancel),
        };
        let lease = Lease { shard: idx, epoch: slot.epoch, attempt: slot.attempts, cancel };
        inner.counters.leases += 1;
        Some(lease)
    }

    /// Reports a validated result. Returns `false` (and merges nothing)
    /// when the epoch is stale — the lease was stolen and the shard
    /// re-graded elsewhere.
    pub fn complete(&self, shard: usize, epoch: u64, resumed_faults: u32) -> bool {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let slot = &mut inner.slots[shard];
        let live = matches!(slot.state, SlotState::Leased { .. }) && slot.epoch == epoch;
        if !live {
            inner.counters.late_results += 1;
            return false;
        }
        slot.state = SlotState::Done;
        slot.resumed_faults = resumed_faults;
        inner.counters.completed += 1;
        true
    }

    /// Reports a failed attempt: charges the retry budget and either
    /// re-arms the shard behind a jittered exponential backoff or
    /// quarantines it.
    pub fn fail(&self, shard: usize, epoch: u64, kind: FailureKind) -> FailOutcome {
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let outcome = Self::fail_slot(&mut inner.slots[shard], epoch, kind, &self.policy);
        match outcome {
            FailOutcome::Retry { .. } => inner.counters.retries += 1,
            FailOutcome::Quarantined => inner.counters.quarantined += 1,
            FailOutcome::Stale => inner.counters.late_results += 1,
        }
        outcome
    }

    /// Expires leases past their deadline: cancels the token, bumps the
    /// epoch (so the hung attempt's eventual report is stale) and
    /// charges a [`FailureKind::Timeout`]. Returns `(shard, outcome)`
    /// for every stolen lease.
    pub fn expire_stale(&self) -> Vec<(usize, FailOutcome)> {
        let now = Instant::now();
        let mut inner = self.inner.lock().expect("lease table poisoned");
        let mut stolen = Vec::new();
        for idx in 0..inner.slots.len() {
            let expired = match &inner.slots[idx].state {
                SlotState::Leased { deadline, cancel } if *deadline <= now => {
                    cancel.store(true, std::sync::atomic::Ordering::Release);
                    true
                }
                _ => false,
            };
            if expired {
                let epoch = inner.slots[idx].epoch;
                inner.slots[idx].steals += 1;
                let outcome =
                    Self::fail_slot(&mut inner.slots[idx], epoch, FailureKind::Timeout, &self.policy);
                inner.counters.steals += 1;
                match outcome {
                    FailOutcome::Retry { .. } => inner.counters.retries += 1,
                    FailOutcome::Quarantined => inner.counters.quarantined += 1,
                    FailOutcome::Stale => {}
                }
                stolen.push((idx, outcome));
            }
        }
        stolen
    }

    fn fail_slot(slot: &mut Slot, epoch: u64, kind: FailureKind, policy: &LeasePolicy) -> FailOutcome {
        let live = matches!(slot.state, SlotState::Leased { .. }) && slot.epoch == epoch;
        if !live {
            return FailOutcome::Stale;
        }
        // Bump the epoch so the (possibly still running) attempt's
        // eventual report is recognisably stale.
        slot.epoch += 1;
        slot.failures = slot.failures.saturating_add(1);
        slot.last_cause = Some(kind);
        if slot.failures > policy.max_retries {
            slot.state = SlotState::Quarantined;
            return FailOutcome::Quarantined;
        }
        let exp = u32::from(slot.failures.saturating_sub(1)).min(16);
        let backoff = policy
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(policy.backoff_cap);
        let jitter_ns = Prng::new(policy.seed ^ 0xbacc_0ff5)
            .split(slot.epoch)
            .below(policy.backoff_base.as_nanos().max(1) as u64);
        let backoff = backoff + Duration::from_nanos(jitter_ns);
        slot.state = SlotState::Idle;
        slot.not_before = Some(Instant::now() + backoff);
        FailOutcome::Retry { backoff, failures: slot.failures }
    }

    /// Bookkeeping hook: counts a shard whose faults were (partially)
    /// restored from a checkpoint.
    pub fn note_resume(&self) {
        self.inner.lock().expect("lease table poisoned").counters.resumes += 1;
    }

    /// Whether every shard reached a terminal state.
    pub fn all_settled(&self) -> bool {
        self.inner
            .lock()
            .expect("lease table poisoned")
            .slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Done | SlotState::Quarantined))
    }

    /// Snapshot of the fleet counters.
    pub fn counters(&self) -> FleetCounters {
        self.inner.lock().expect("lease table poisoned").counters
    }

    /// Terminal fate of every shard. Call after
    /// [`all_settled`](LeaseTable::all_settled) turns true; non-terminal
    /// shards are reported as quarantined with their last cause.
    pub fn fates(&self) -> Vec<ShardFate> {
        let inner = self.inner.lock().expect("lease table poisoned");
        inner
            .slots
            .iter()
            .map(|s| match s.state {
                SlotState::Done => ShardFate::Completed {
                    attempts: s.attempts,
                    steals: s.steals,
                    resumed_faults: s.resumed_faults,
                },
                _ => ShardFate::Quarantined {
                    cause: s.last_cause.unwrap_or(FailureKind::WorkerLost),
                    attempts: s.attempts,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> LeasePolicy {
        LeasePolicy {
            max_retries: 2,
            lease_timeout: Duration::from_millis(30),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            seed: 5,
        }
    }

    #[test]
    fn claim_complete_settles_every_shard_once() {
        let table = LeaseTable::new(3, policy());
        let mut leased = Vec::new();
        while let Some(l) = table.claim() {
            leased.push(l);
        }
        assert_eq!(leased.len(), 3);
        assert!(table.claim().is_none(), "no double leases");
        for l in &leased {
            assert!(table.complete(l.shard, l.epoch, 0));
        }
        assert!(table.all_settled());
        let c = table.counters();
        assert_eq!((c.shards, c.leases, c.completed), (3, 3, 3));
        assert!(table
            .fates()
            .iter()
            .all(|f| matches!(f, ShardFate::Completed { attempts: 1, steals: 0, .. })));
    }

    #[test]
    fn stale_epoch_reports_are_dropped_as_late_results() {
        let table = LeaseTable::new(1, policy());
        let first = table.claim().expect("lease");
        match table.fail(first.shard, first.epoch, FailureKind::Panic) {
            FailOutcome::Retry { failures: 1, .. } => {}
            other => panic!("expected first retry, got {other:?}"),
        }
        // The original holder reports again with its stale epoch.
        assert!(!table.complete(first.shard, first.epoch, 0));
        assert_eq!(
            table.fail(first.shard, first.epoch, FailureKind::Panic),
            FailOutcome::Stale
        );
        assert_eq!(table.counters().late_results, 2);
        // The shard is still claimable (after backoff) and completable.
        std::thread::sleep(Duration::from_millis(10));
        let second = table.claim().expect("re-lease after backoff");
        assert_eq!(second.attempt, 2);
        assert!(table.complete(second.shard, second.epoch, 0));
        assert!(table.all_settled());
    }

    #[test]
    fn budget_exhaustion_quarantines_with_the_last_cause() {
        let table = LeaseTable::new(1, policy());
        let mut backoffs = Vec::new();
        for round in 0..3 {
            std::thread::sleep(Duration::from_millis(8));
            let l = table.claim().expect("lease");
            match table.fail(l.shard, l.epoch, FailureKind::Corrupt) {
                FailOutcome::Retry { backoff, .. } => backoffs.push(backoff),
                FailOutcome::Quarantined => {
                    assert_eq!(round, 2, "max_retries=2 tolerates two failures");
                }
                FailOutcome::Stale => panic!("live epoch cannot be stale"),
            }
        }
        assert!(table.all_settled());
        assert_eq!(table.claim().map(|l| l.shard), None);
        match table.fates()[0] {
            ShardFate::Quarantined { cause: FailureKind::Corrupt, attempts: 3 } => {}
            other => panic!("unexpected fate {other:?}"),
        }
        // Exponential: second backoff's floor doubles the first's.
        assert_eq!(backoffs.len(), 2);
        assert!(backoffs[1] >= Duration::from_millis(2), "backoff grows: {backoffs:?}");
        assert_eq!(table.counters().quarantined, 1);
    }

    #[test]
    fn expiry_steals_the_lease_and_cancels_the_holder() {
        let table = LeaseTable::new(1, policy());
        let l = table.claim().expect("lease");
        assert!(table.expire_stale().is_empty(), "lease still fresh");
        std::thread::sleep(Duration::from_millis(35));
        let stolen = table.expire_stale();
        assert_eq!(stolen.len(), 1);
        assert!(l.cancel.load(std::sync::atomic::Ordering::Acquire), "holder cancelled");
        assert!(matches!(stolen[0], (0, FailOutcome::Retry { .. })));
        // The hung holder's late completion is dropped.
        assert!(!table.complete(l.shard, l.epoch, 0));
        let c = table.counters();
        assert_eq!((c.steals, c.retries, c.late_results), (1, 1, 1));
    }
}
