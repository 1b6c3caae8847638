//! Fleet sharding: a heterogeneous ECU population × a collapsed fault
//! list, cut into leased work units.
//!
//! A deployed fleet is not one SoC: cars ship with different cache
//! sizes, write policies and core mixes, and the in-field STL campaign
//! must grade every variant. [`EcuSpec`] names one variant (a full
//! [`ExperimentConfig`] plus the unit under test); [`FleetPlan`] pairs
//! every variant with its fault list and chunks the work into
//! [`Shard`]s small enough that losing a worker mid-shard loses little.

use sbst_cpu::CoreKind;
use sbst_fault::{FaultList, FaultSite, Unit};
use sbst_mem::{CacheConfig, WritePolicy};
use sbst_soc::Scenario;

use crate::checkpoint::{fingerprint, fnv, CONFIG_UNBOUND};
use crate::experiment::{ExecStyle, ExperimentConfig};

/// One ECU variant of the fleet population.
#[derive(Debug, Clone)]
pub struct EcuSpec {
    /// Human-readable variant name (lands in telemetry/dashboards).
    pub name: String,
    /// The full SoC configuration of this variant.
    pub config: ExperimentConfig,
    /// The unit whose fault list this variant grades.
    pub unit: Unit,
}

impl EcuSpec {
    /// Fingerprint binding shard checkpoints to this exact variant:
    /// FNV-1a over the `Debug` rendering of the SoC configuration (core
    /// kind, execution style, scenario, wrapper settings, cache geometry
    /// and write policy — every field that can change what a verdict
    /// means), folded with the unit under test.
    ///
    /// Never returns [`CONFIG_UNBOUND`], so a real variant is always
    /// told apart from a version 1 checkpoint file.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, format!("{:?}", self.config).as_bytes());
        h ^= 0x9e37_79b9_7f4a_7c15;
        fnv(&mut h, format!("{:?}", self.unit).as_bytes());
        if h == CONFIG_UNBOUND {
            h = 1;
        }
        h
    }

    /// A small heterogeneous population: three variants differing in
    /// core kind, core count, cache geometry and data-cache write
    /// policy — the axes the in-field papers vary across a fleet.
    pub fn population(unit: Unit) -> Vec<EcuSpec> {
        let base = |kind: CoreKind, cores: usize| ExperimentConfig {
            scenario: Scenario { active_cores: cores, ..Scenario::single_core() },
            ..ExperimentConfig::new(kind, ExecStyle::CacheWrapped, Scenario::single_core())
        };
        vec![
            EcuSpec {
                name: "ecu-a3-8k4k-wa".into(),
                config: base(CoreKind::A, 3),
                unit,
            },
            EcuSpec {
                name: "ecu-b1-4k2k-wa".into(),
                config: ExperimentConfig {
                    icache: CacheConfig { size_bytes: 4 * 1024, ..CacheConfig::icache_8k() },
                    dcache: CacheConfig { size_bytes: 2 * 1024, ..CacheConfig::dcache_4k() },
                    ..base(CoreKind::B, 1)
                },
                unit,
            },
            EcuSpec {
                name: "ecu-c2-8k4k-nwa".into(),
                config: ExperimentConfig {
                    dcache: CacheConfig {
                        policy: WritePolicy::NoWriteAllocate,
                        ..CacheConfig::dcache_4k()
                    },
                    ..base(CoreKind::C, 2)
                },
                unit,
            },
        ]
    }
}

/// One leased work unit: a contiguous slice of one ECU variant's fault
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Index of this shard within the plan (lease table key).
    pub index: usize,
    /// Index of the ECU variant in [`FleetPlan::ecus`].
    pub ecu: usize,
    /// First fault (index into the variant's fault list).
    pub start: usize,
    /// Number of faults in this shard.
    pub len: usize,
}

/// The fleet's complete work inventory: every ECU variant, its fault
/// list, and the shard cut.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// The ECU population.
    pub ecus: Vec<EcuSpec>,
    /// Per-variant fault lists (indexed like [`FleetPlan::ecus`]).
    faults: Vec<FaultList>,
    /// The shard cut, in plan order.
    pub shards: Vec<Shard>,
}

impl FleetPlan {
    /// Cuts `faults[i]` (the fault list of `ecus[i]`) into shards of at
    /// most `shard_faults` faults each.
    ///
    /// # Panics
    ///
    /// Panics if the population and fault-list counts differ or
    /// `shard_faults` is zero.
    pub fn build(ecus: Vec<EcuSpec>, faults: Vec<FaultList>, shard_faults: usize) -> FleetPlan {
        assert_eq!(ecus.len(), faults.len(), "one fault list per ECU variant");
        assert!(shard_faults > 0, "shards must hold at least one fault");
        let mut shards = Vec::new();
        for (ecu, list) in faults.iter().enumerate() {
            let mut start = 0;
            while start < list.len() {
                let len = shard_faults.min(list.len() - start);
                shards.push(Shard { index: shards.len(), ecu, start, len });
                start += len;
            }
        }
        FleetPlan { ecus, faults, shards }
    }

    /// The fault sites of one shard.
    pub fn sites(&self, shard: &Shard) -> &[FaultSite] {
        &self.faults[shard.ecu].sites()[shard.start..shard.start + shard.len]
    }

    /// The fault list of one ECU variant.
    pub fn ecu_faults(&self, ecu: usize) -> &FaultList {
        &self.faults[ecu]
    }

    /// The shard's fault slice as an owned list (what its checkpoint
    /// fingerprint is computed over).
    pub fn shard_fault_list(&self, shard: &Shard) -> FaultList {
        self.sites(shard).iter().copied().collect()
    }

    /// Fingerprint of the shard's fault slice.
    pub fn shard_fingerprint(&self, shard: &Shard) -> u64 {
        fingerprint(&self.shard_fault_list(shard))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total faults across every variant.
    pub fn total_faults(&self) -> usize {
        self.faults.iter().map(FaultList::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbst_fault::{Element, Polarity};

    fn list(n: u16) -> FaultList {
        (0..n)
            .map(|i| FaultSite {
                unit: Unit::Hdcu,
                instance: i,
                element: Element::CmpOut,
                polarity: Polarity::StuckAt0,
            })
            .collect()
    }

    #[test]
    fn build_cuts_every_variant_without_loss_or_overlap() {
        let ecus = EcuSpec::population(Unit::Hdcu);
        let plan = FleetPlan::build(ecus, vec![list(10), list(7), list(3)], 4);
        assert_eq!(plan.shard_count(), 3 + 2 + 1);
        assert_eq!(plan.total_faults(), 20);
        // Shards tile each variant's list exactly.
        for ecu in 0..3 {
            let mut covered = Vec::new();
            for s in plan.shards.iter().filter(|s| s.ecu == ecu) {
                covered.extend(s.start..s.start + s.len);
            }
            covered.sort_unstable();
            let expect: Vec<usize> = (0..plan.ecu_faults(ecu).len()).collect();
            assert_eq!(covered, expect, "ecu {ecu}");
        }
        // Shard indices are their plan positions.
        for (i, s) in plan.shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(plan.sites(s).len(), s.len);
        }
    }

    #[test]
    fn population_variants_have_distinct_fingerprints() {
        let ecus = EcuSpec::population(Unit::Forwarding);
        let fps: Vec<u64> = ecus.iter().map(EcuSpec::fingerprint).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{} vs {}", ecus[i].name, ecus[j].name);
            }
        }
        // The same variant graded against a different unit is a
        // different checkpoint binding.
        let other = EcuSpec { unit: Unit::Hdcu, ..ecus[0].clone() };
        assert_ne!(ecus[0].fingerprint(), other.fingerprint());
    }

    #[test]
    fn ecu_fingerprint_tracks_every_config_axis() {
        use crate::ExecStyle;
        use sbst_cpu::CoreKind;
        use sbst_mem::{CacheConfig, WritePolicy};
        use sbst_soc::Scenario;

        let config =
            ExperimentConfig::new(CoreKind::A, ExecStyle::CacheWrapped, Scenario::single_core());
        let base = EcuSpec { name: "base".into(), config, unit: Unit::Hdcu };
        let fp = base.fingerprint();
        assert_ne!(fp, CONFIG_UNBOUND, "real variants never collide with the unbound value");
        assert_eq!(fp, base.clone().fingerprint(), "deterministic");
        let renamed = EcuSpec { name: "renamed".into(), ..base.clone() };
        assert_eq!(fp, renamed.fingerprint(), "the name is a label, not a binding");

        let variants = [
            ExperimentConfig { kind: CoreKind::B, ..config },
            ExperimentConfig { style: ExecStyle::LegacyUncached, ..config },
            ExperimentConfig {
                scenario: Scenario { active_cores: 3, ..config.scenario },
                ..config
            },
            ExperimentConfig {
                dcache: CacheConfig {
                    policy: WritePolicy::NoWriteAllocate,
                    ..CacheConfig::dcache_4k()
                },
                ..config
            },
            ExperimentConfig {
                icache: CacheConfig { size_bytes: 4 * 1024, ..CacheConfig::icache_8k() },
                ..config
            },
        ];
        for (i, config) in variants.into_iter().enumerate() {
            let variant = EcuSpec { config, ..base.clone() };
            assert_ne!(fp, variant.fingerprint(), "variant #{i} must change the fingerprint");
        }
    }

    /// Stored shard checkpoints are bound to these values: a change to
    /// a `Debug` rendering they hash would orphan every stored file, so
    /// it must fail here first.
    #[test]
    fn fingerprints_are_pinned() {
        let population = EcuSpec::population(Unit::Hdcu);
        let fps: Vec<u64> = population.iter().map(EcuSpec::fingerprint).collect();
        assert_eq!(fps, [0x857c_4e05_e22f_47ee, 0xaa71_4884_7f63_7a6f, 0x3150_2b33_7dec_4b3c]);
        assert_eq!(fingerprint(&list(4)), 0xdb7f_845c_bfd4_78e9);
    }

    #[test]
    fn shard_fingerprints_differ_between_slices() {
        let ecus = EcuSpec::population(Unit::Hdcu);
        let plan = FleetPlan::build(ecus, vec![list(8), list(8), list(8)], 4);
        let a = plan.shard_fingerprint(&plan.shards[0]);
        let b = plan.shard_fingerprint(&plan.shards[1]);
        assert_ne!(a, b);
    }
}
