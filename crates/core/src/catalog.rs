//! The deployable Software Test Library: a catalog of routines, golden
//! learning, and boot-image generation.
//!
//! This is the top of the stack a product team would actually ship:
//! declare which routines run on which core, let the library learn the
//! fault-free golden signatures (paper §I: "obtained in a fault-free
//! scenario"), and emit one cache-wrapped, self-checking boot-test
//! program per core — scheduler barrier included. After a run, read the
//! per-routine verdicts back from the result mailboxes.

use std::collections::HashMap;

use sbst_cpu::{CoreConfig, CoreKind};
use sbst_isa::Program;
use sbst_mem::SRAM_BASE;
use sbst_soc::{Soc, SocBuilder};

use crate::routine::{RoutineEnv, SelfTestRoutine, STATUS_FAIL, STATUS_PASS};
use crate::sched::{emit_barrier, SchedLayout};
use crate::wrap::cache::{emit_into, WrapConfig, WrapError};
use crate::wrap::Terminator;

/// One catalog entry: a named routine assigned to one core.
pub struct CatalogEntry {
    /// Stable routine name (report key).
    pub name: String,
    /// Core the routine runs on (0 = A, 1 = B, 2 = C).
    pub core: usize,
    /// The routine itself.
    pub routine: Box<dyn SelfTestRoutine>,
}

/// Verdict of one routine after a boot-test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootVerdict {
    /// Signature matched the golden value.
    Pass,
    /// Signature mismatched (the in-field fault alarm).
    Fail,
    /// The routine never published a status (core hung or died earlier).
    NotRun,
}

impl std::fmt::Display for BootVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BootVerdict::Pass => "PASS",
            BootVerdict::Fail => "FAIL",
            BootVerdict::NotRun => "NOT-RUN",
        })
    }
}

/// Persisted golden signatures, learned once on a known-good device and
/// reusable across builds (paper §I: the expected signature is obtained
/// in a fault-free scenario — typically at end of manufacturing — and
/// then compared in field).
///
/// Serialized as a plain text format (`name = 0xXXXXXXXX` per line) so
/// it can live in version control next to the STL definition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoldenDb {
    entries: Vec<(String, u32)>,
}

impl GoldenDb {
    /// Golden signature of a routine by name.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.entries.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Number of recorded goldens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, sig) in &self.entries {
            out.push_str(&format!("{name} = {sig:#010x}
"));
        }
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (1-based).
    pub fn from_text(text: &str) -> Result<GoldenDb, usize> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once('=').ok_or(i + 1)?;
            let value = value.trim();
            let sig = value
                .strip_prefix("0x")
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .ok_or(i + 1)?;
            entries.push((name.trim().to_string(), sig));
        }
        Ok(GoldenDb { entries })
    }
}

/// A catalog of boot-time self-test routines for the triple-core SoC.
///
/// # Example
///
/// ```
/// use sbst_cpu::CoreKind;
/// use sbst_stl::routines::{GenericAluTest, RegFileTest};
/// use sbst_stl::{BootVerdict, StlCatalog};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = StlCatalog::new();
/// catalog.add("regfile-a", 0, Box::new(RegFileTest::new()));
/// catalog.add("alu-b", 1, Box::new(GenericAluTest::new(2)));
/// let image = catalog.build()?; // learns goldens, embeds self-checks
/// let report = image.run(20_000_000);
/// assert!(report.all_passed());
/// assert_eq!(report.verdict("regfile-a"), Some(BootVerdict::Pass));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct StlCatalog {
    entries: Vec<CatalogEntry>,
    wrap: WrapConfig,
}

impl StlCatalog {
    /// An empty catalog with the default (paper) wrapper configuration.
    pub fn new() -> StlCatalog {
        StlCatalog::default()
    }

    /// Adds a routine to one core's boot sequence.
    pub fn add(&mut self, name: &str, core: usize, routine: Box<dyn SelfTestRoutine>) {
        assert!(core < 3, "triple-core SoC: core must be 0..3");
        self.entries.push(CatalogEntry { name: name.to_string(), core, routine });
    }

    /// Number of routines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-entry environment: mailboxes advance globally by entry
    /// index so the report can read every routine unambiguously.
    fn env_of(&self, entry_idx: usize, core: usize) -> RoutineEnv {
        RoutineEnv {
            result_addr: SRAM_BASE + 0x100 + 16 * entry_idx as u32,
            data_base: SRAM_BASE + 0x4000 + 0x200 * entry_idx as u32,
            ..RoutineEnv::for_core(CoreKind::ALL[core])
        }
    }

    /// Learns every routine's golden signature on its own core
    /// (single-core cached runs) and returns the persistable database.
    ///
    /// # Errors
    ///
    /// Propagates wrapper errors (oversized routine, assembly failure).
    pub fn learn(&self) -> Result<GoldenDb, WrapError> {
        let mut entries = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            let env = self.env_of(i, entry.core);
            let golden = crate::harness::learn_golden_cached(
                entry.routine.as_ref(),
                &env,
                &self.wrap,
                CoreKind::ALL[entry.core],
                0x400,
            )?;
            entries.push((entry.name.clone(), golden));
        }
        Ok(GoldenDb { entries })
    }

    /// Builds the deployable boot image: learns every routine's golden
    /// signature, then emits per-core programs with the goldens embedded
    /// as self-checks and a start barrier so all cores boot-test in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Propagates wrapper errors (oversized routine, assembly failure).
    pub fn build(&self) -> Result<BootImage, WrapError> {
        let goldens = self.learn()?;
        self.build_with(&goldens)
    }

    /// Builds the boot image against previously learned (possibly
    /// persisted) goldens.
    ///
    /// # Panics
    ///
    /// Panics if a routine has no golden in `db`.
    ///
    /// # Errors
    ///
    /// Propagates wrapper/assembly errors.
    pub fn build_with(&self, db: &GoldenDb) -> Result<BootImage, WrapError> {
        assert!(!self.is_empty(), "empty catalog");
        let active: Vec<usize> = {
            let mut cores: Vec<usize> = self.entries.iter().map(|e| e.core).collect();
            cores.sort_unstable();
            cores.dedup();
            cores
        };
        let goldens: Vec<u32> = self
            .entries
            .iter()
            .map(|e| db.get(&e.name).unwrap_or_else(|| panic!("no golden for {}", e.name)))
            .collect();
        // Pass 2: per-core boot programs with embedded checks + barrier.
        let layout = SchedLayout::default();
        let mut programs = Vec::new();
        for (slot, &core) in active.iter().enumerate() {
            let mut asm = sbst_isa::Asm::new();
            emit_barrier(&mut asm, &layout, active.len() as u32, &format!("boot{core}"));
            for (i, entry) in self.entries.iter().enumerate() {
                if entry.core != core {
                    continue;
                }
                let env = self.env_of(i, core);
                let cfg = WrapConfig {
                    expected_sig: Some(goldens[i]),
                    terminator: Terminator::Fallthrough,
                    ..self.wrap
                };
                emit_into(&mut asm, entry.routine.as_ref(), &env, &cfg, &format!("e{i}"));
            }
            asm.halt();
            let base = 0x1000 + 0x4_0000 * slot as u32;
            let program = asm.assemble(base)?;
            programs.push((core, base, program));
        }
        let names = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), (i, e.core)))
            .collect();
        Ok(BootImage {
            programs,
            names,
            mailbox0: SRAM_BASE + 0x100,
        })
    }
}

/// The built boot-test image: one program per active core plus the
/// routine→mailbox directory.
pub struct BootImage {
    programs: Vec<(usize, u32, Program)>,
    names: HashMap<String, (usize, usize)>,
    mailbox0: u32,
}

impl BootImage {
    /// The per-core programs: `(core index, base address, program)`.
    pub fn programs(&self) -> &[(usize, u32, Program)] {
        &self.programs
    }

    fn builder(&self) -> SocBuilder {
        let mut builder = SocBuilder::new();
        for (_, _, program) in &self.programs {
            builder = builder.load(program);
        }
        for (i, &(core, base, _)) in self.programs.iter().enumerate() {
            let kind = CoreKind::ALL[core];
            builder = builder.core(CoreConfig::cached(kind, i, base), i as u32 * 3);
        }
        builder
    }

    /// Builds the SoC, runs the parallel boot test, and reads back the
    /// per-routine verdicts.
    pub fn run(&self, watchdog: u64) -> BootReport {
        let mut soc = self.builder().build();
        let outcome = soc.run(watchdog);
        self.report(&soc, outcome)
    }

    /// [`run`](BootImage::run) with the observability layer attached:
    /// returns the verdicts plus the run's
    /// [`MetricsHub`](sbst_obs::MetricsHub). Verdicts and cycle counts
    /// are bit-identical to an unobserved run.
    pub fn run_observed(
        &self,
        watchdog: u64,
        cfg: sbst_soc::ObsConfig,
    ) -> (BootReport, sbst_obs::MetricsHub) {
        let mut soc = self.builder().observe(cfg).build();
        let outcome = soc.run(watchdog);
        let metrics = soc.metrics().expect("observability attached");
        (self.report(&soc, outcome), metrics)
    }

    /// Reads the verdicts out of a finished SoC.
    pub fn report(&self, soc: &Soc, outcome: sbst_soc::RunOutcome) -> BootReport {
        let mut verdicts = HashMap::new();
        for (name, &(idx, _)) in &self.names {
            let status = soc.peek(self.mailbox0 + 16 * idx as u32 + 4);
            let verdict = match status {
                STATUS_PASS => BootVerdict::Pass,
                STATUS_FAIL => BootVerdict::Fail,
                _ => BootVerdict::NotRun,
            };
            verdicts.insert(name.clone(), verdict);
        }
        BootReport { outcome, verdicts }
    }
}

/// Per-routine boot-test verdicts.
#[derive(Debug, Clone)]
pub struct BootReport {
    /// SoC-level outcome.
    pub outcome: sbst_soc::RunOutcome,
    verdicts: HashMap<String, BootVerdict>,
}

impl BootReport {
    /// Verdict of one routine by name.
    pub fn verdict(&self, name: &str) -> Option<BootVerdict> {
        self.verdicts.get(name).copied()
    }

    /// Whether every routine passed and the SoC halted cleanly.
    pub fn all_passed(&self) -> bool {
        self.outcome.is_clean()
            && self.verdicts.values().all(|&v| v == BootVerdict::Pass)
    }

    /// Iterates `(name, verdict)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, BootVerdict)> {
        self.verdicts.iter().map(|(n, &v)| (n.as_str(), v))
    }
}
