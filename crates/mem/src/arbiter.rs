//! Pluggable bus arbiters.
//!
//! The seed bus hardcoded a round-robin grant loop; the interference
//! bounds of [`bounds`](crate::bounds) only make sense relative to a
//! concrete arbitration policy, so the policy is now a first-class,
//! swappable component. Three policies are provided:
//!
//! * [`RoundRobin`] — the seed behaviour, bit-identical to the old
//!   hardcoded loop: starvation-free, per-access interference bounded
//!   by one full rotation of maximal transactions;
//! * [`FixedPriority`] — a strict priority chain. Only the
//!   highest-priority port has a bounded worst-case grant latency;
//!   every lower port can be starved indefinitely by saturating
//!   traffic above it, which the bound computation flags instead of
//!   papering over;
//! * [`Tdma`] — a time-division slot table (one slot per port). A port
//!   is granted only inside its own slot and only when the slot has
//!   room for a worst-case transaction, so transactions never overrun
//!   into a foreign slot and each port's grant latency is bounded by
//!   the slot-table distance *regardless of what other masters do* —
//!   the composability property certification leans on.
//!
//! Arbiters are deterministic and carry all their state, so a cloned
//! [`Bus`](crate::Bus) (campaign snapshots) replays identically.

/// Which arbitration policy a bus uses — the configuration-level
/// description, also consumed by the analytical bound computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Fair rotation: after a grant, the scan restarts just past the
    /// granted port.
    RoundRobin,
    /// Strict priority chain.
    FixedPriority {
        /// `true`: port 0 has the highest priority (the seed's port
        /// numbering puts core 0's fetch port first). `false`: the
        /// *last* port wins — which hands the traffic injector, always
        /// attached after the cores, the top priority and turns it into
        /// a starvation adversary.
        ascending: bool,
    },
    /// Time-division multiple access: a repeating table of one
    /// `slot_cycles`-cycle slot per port.
    Tdma {
        /// Slot length in cycles. Must be at least the worst-case
        /// transaction latency (see
        /// [`BoundParams::t_max`](crate::bounds::BoundParams::t_max));
        /// `0` derives exactly that at bus construction.
        slot_cycles: u32,
    },
}

impl ArbiterKind {
    /// Short stable name (report keys, trace events).
    pub fn name(&self) -> &'static str {
        match self {
            ArbiterKind::RoundRobin => "round-robin",
            ArbiterKind::FixedPriority { .. } => "fixed-priority",
            ArbiterKind::Tdma { .. } => "tdma",
        }
    }

    /// The default fixed-priority chain (port 0 highest).
    pub fn fixed_priority() -> ArbiterKind {
        ArbiterKind::FixedPriority { ascending: true }
    }

    /// A TDMA table with the slot length derived from the bus's
    /// worst-case transaction latency at construction time.
    pub fn tdma() -> ArbiterKind {
        ArbiterKind::Tdma { slot_cycles: 0 }
    }

    /// Builds the runtime arbiter for a bus with `ports` master ports
    /// whose worst transaction lasts `t_max` cycles.
    ///
    /// # Panics
    ///
    /// Panics for a TDMA table whose explicit slot is shorter than
    /// `t_max` — such a table cannot guarantee that a transaction stays
    /// inside its slot, which voids the whole TDMA bound.
    pub(crate) fn build(self, ports: usize, t_max: u64) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobin { last: 0 }),
            ArbiterKind::FixedPriority { ascending } => {
                Box::new(FixedPriority { ascending })
            }
            ArbiterKind::Tdma { slot_cycles } => {
                let slot = if slot_cycles == 0 {
                    u32::try_from(t_max).expect("t_max fits u32")
                } else {
                    slot_cycles
                };
                assert!(
                    u64::from(slot) >= t_max,
                    "TDMA slot of {slot} cycles cannot contain a worst-case \
                     {t_max}-cycle transaction"
                );
                Box::new(Tdma { slot_cycles: slot, ports, t_max })
            }
        }
    }
}

/// A bus arbiter: chooses which pending request (if any) to grant on a
/// cycle where the bus is idle.
///
/// Implementations must be deterministic functions of their own state,
/// the pending mask and the cycle number — the analytical bounds of
/// [`BoundParams`](crate::BoundParams) are statements about these
/// policies, and the certification flow checks observed behaviour
/// against them.
pub trait Arbiter: std::fmt::Debug + Send + Sync {
    /// Picks the port to grant this cycle, or `None` to leave the bus
    /// idle. `pending[p]` is whether port `p` has a request waiting;
    /// `cycle` is the bus-local cycle counter. Called only when no
    /// transaction is in flight. A returned port must be pending.
    fn grant(&mut self, pending: &[bool], cycle: u64) -> Option<usize>;

    /// The configuration this arbiter was built from — the key the
    /// bound computation is looked up under.
    fn kind(&self) -> ArbiterKind;

    /// A signature of the arbiter's mutable state (0 for stateless
    /// policies). Two buses with equal kinds and equal signatures
    /// arbitrate identically from here on — the state-equality hook the
    /// campaign's livelock detection compares through.
    fn state_sig(&self) -> u64 {
        0
    }

    /// Clones the arbiter with its state (the bus is `Clone` for
    /// campaign snapshotting).
    fn clone_box(&self) -> Box<dyn Arbiter>;
}

impl Clone for Box<dyn Arbiter> {
    fn clone(&self) -> Box<dyn Arbiter> {
        self.clone_box()
    }
}

/// Fair rotating-priority arbitration (the seed policy).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    /// Most recently granted port; the scan restarts just past it.
    last: usize,
}

impl Arbiter for RoundRobin {
    fn grant(&mut self, pending: &[bool], _cycle: u64) -> Option<usize> {
        // Scan the ports after `last`, wrapping around to it.
        let start = self.last + 1;
        let port = (start..pending.len())
            .chain(0..start.min(pending.len()))
            .find(|&p| pending[p])?;
        self.last = port;
        Some(port)
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::RoundRobin
    }

    fn state_sig(&self) -> u64 {
        self.last as u64
    }

    fn clone_box(&self) -> Box<dyn Arbiter> {
        Box::new(self.clone())
    }
}

/// Strict fixed-priority arbitration.
#[derive(Debug, Clone)]
pub struct FixedPriority {
    ascending: bool,
}

impl Arbiter for FixedPriority {
    fn grant(&mut self, pending: &[bool], _cycle: u64) -> Option<usize> {
        if self.ascending {
            pending.iter().position(|&p| p)
        } else {
            pending.iter().rposition(|&p| p)
        }
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::FixedPriority { ascending: self.ascending }
    }

    fn clone_box(&self) -> Box<dyn Arbiter> {
        Box::new(self.clone())
    }
}

/// Time-division slot-table arbitration: port `p` owns every cycle `c`
/// with `(c / slot_cycles) % ports == p`, and is granted only when the
/// remainder of its slot still fits a worst-case transaction — so no
/// transaction ever runs into a foreign slot, and at every slot start
/// the bus is provably idle (or busy with the slot owner's own work).
#[derive(Debug, Clone)]
pub struct Tdma {
    slot_cycles: u32,
    ports: usize,
    t_max: u64,
}

impl Tdma {
    /// Slot length in cycles.
    pub fn slot_cycles(&self) -> u32 {
        self.slot_cycles
    }
}

impl Arbiter for Tdma {
    fn grant(&mut self, pending: &[bool], cycle: u64) -> Option<usize> {
        let slot = u64::from(self.slot_cycles);
        let owner = ((cycle / slot) % self.ports as u64) as usize;
        let remaining_in_slot = slot - cycle % slot;
        if pending[owner] && remaining_in_slot >= self.t_max {
            Some(owner)
        } else {
            None
        }
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::Tdma { slot_cycles: self.slot_cycles }
    }

    fn clone_box(&self) -> Box<dyn Arbiter> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_fairly() {
        let mut a = RoundRobin { last: 0 };
        let all = vec![true; 3];
        assert_eq!(a.grant(&all, 0), Some(1));
        assert_eq!(a.grant(&all, 1), Some(2));
        assert_eq!(a.grant(&all, 2), Some(0));
        assert_eq!(a.grant(&all, 3), Some(1));
        assert_eq!(a.grant(&[false, false, true], 4), Some(2));
        assert_eq!(a.grant(&[false, false, false], 5), None);
    }

    /// The wrap-around scan grants exactly what the modulo rotation
    /// `(last + 1 + i) % n` grants, for every port count up to the
    /// seven a three-core SoC with an injector uses, every rotation
    /// state and every pending mask.
    #[test]
    fn round_robin_scan_matches_modulo_rotation() {
        for n in 1..=7usize {
            for last in 0..n {
                for bits in 0..1u32 << n {
                    let mask: Vec<bool> = (0..n).map(|p| bits >> p & 1 == 1).collect();
                    let want = (0..n).map(|i| (last + 1 + i) % n).find(|&p| mask[p]);
                    let mut a = RoundRobin { last };
                    assert_eq!(a.grant(&mask, 0), want, "n={n} last={last} mask={bits:b}");
                    assert_eq!(a.last, want.unwrap_or(last), "rotation state");
                }
            }
        }
    }

    #[test]
    fn fixed_priority_always_prefers_top() {
        let mut asc = FixedPriority { ascending: true };
        assert_eq!(asc.grant(&[true, true, true], 0), Some(0));
        assert_eq!(asc.grant(&[false, true, true], 1), Some(1));
        let mut desc = FixedPriority { ascending: false };
        assert_eq!(desc.grant(&[true, true, true], 0), Some(2));
        assert_eq!(desc.grant(&[true, true, false], 1), Some(1));
    }

    #[test]
    fn tdma_grants_only_the_slot_owner_with_room() {
        let mut a = Tdma { slot_cycles: 10, ports: 2, t_max: 4 };
        let all = vec![true; 2];
        // Port 0 owns cycles 0..10; grantable while >= 4 cycles remain.
        assert_eq!(a.grant(&all, 0), Some(0));
        assert_eq!(a.grant(&all, 6), Some(0));
        assert_eq!(a.grant(&all, 7), None, "no room left in the slot");
        // Port 1 owns cycles 10..20.
        assert_eq!(a.grant(&all, 10), Some(1));
        assert_eq!(a.grant(&all, 16), Some(1));
        assert_eq!(a.grant(&all, 17), None);
        // An idle owner leaves the bus idle even if others are pending.
        assert_eq!(a.grant(&[true, false], 12), None);
    }

    #[test]
    #[should_panic(expected = "cannot contain")]
    fn tdma_slot_shorter_than_t_max_is_rejected() {
        let _ = ArbiterKind::Tdma { slot_cycles: 4 }.build(2, 15);
    }

    #[test]
    fn derived_tdma_slot_equals_t_max() {
        let a = ArbiterKind::tdma().build(3, 15);
        assert_eq!(a.kind(), ArbiterKind::Tdma { slot_cycles: 15 });
    }
}
