//! The deployable Software Test Library: a catalog of routines, golden
//! learning, and boot-image generation.
//!
//! This is the top of the stack a product team would actually ship:
//! declare which routines run on which core, let the library learn the
//! fault-free golden signatures (paper §I: "obtained in a fault-free
//! scenario"), and emit one cache-wrapped, self-checking boot-test
//! program per core — scheduler barrier included. Each core's routines
//! form one [`CoreStl`], laid out, learned and booted by the scheduler
//! ([`crate::sched`]). After a run, read the per-routine verdicts back
//! from the result mailboxes.

use std::collections::{BTreeMap, HashMap};

use sbst_cpu::CoreKind;
use sbst_isa::Program;
use sbst_mem::SRAM_BASE;
use sbst_soc::{Soc, SocBuilder};

use crate::routine::{RoutineEnv, SelfTestRoutine, RESULT_STATUS_OFF, STATUS_FAIL, STATUS_PASS};
use crate::sched::{boot_base, boot_soc, build_stl_program, CoreStl};
use crate::wrap::cache::{WrapConfig, WrapError};

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
    /// Per core, in core order: the routine names and the core's share.
    cores: BTreeMap<usize, (Vec<String>, CoreStl)>,
}

impl StlCatalog {
    /// An empty catalog.
    pub fn new() -> StlCatalog {
        StlCatalog::default()
    }

    /// Adds a routine to one core's boot sequence. Core `c`'s mailboxes
    /// start at `SRAM_BASE + 0x100 + 0x400·c` and its scratch areas at
    /// `SRAM_BASE + 0x4000 + 0x1000·c`, room for 64 routines each.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or already has 64 routines.
    pub fn add(&mut self, name: &str, core: usize, routine: Box<dyn SelfTestRoutine>) {
        assert!(core < 3, "triple-core SoC: core must be 0..3");
        let (names, stl) = self.cores.entry(core).or_insert_with(|| {
            let env = RoutineEnv {
                result_addr: SRAM_BASE + 0x100 + 0x400 * core as u32,
                data_base: SRAM_BASE + 0x4000 + 0x1000 * core as u32,
                ..RoutineEnv::for_core(CoreKind::ALL[core])
            };
            (Vec::new(), CoreStl::new(Vec::new(), env))
        });
        assert!(names.len() < 64, "core {core} already runs 64 routines");
        names.push(name.to_string());
        stl.routines.push(routine);
    }

    /// Number of routines.
    pub fn len(&self) -> usize {
        self.cores.values().map(|(names, _)| names.len()).sum()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Learns every routine's golden signature on its own core
    /// (single-core cached runs, see [`CoreStl::learn`]) and returns
    /// the persistable database.
    ///
    /// # Errors
    ///
    /// Propagates wrapper errors (oversized routine, assembly failure).
    pub fn learn(&self) -> Result<GoldenDb, WrapError> {
        let mut entries = Vec::with_capacity(self.len());
        for (names, stl) in self.cores.values() {
            entries.extend(names.iter().cloned().zip(stl.learn()?));
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
    /// persisted) goldens: active core `i` (in core order) boots from
    /// slot `i` (see [`build_stl_program`] and [`boot_soc`]).
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
        let mut programs = Vec::with_capacity(self.cores.len());
        let mut status_addrs = HashMap::new();
        for (slot, (&core, (names, stl))) in self.cores.iter().enumerate() {
            let goldens: Vec<u32> = names
                .iter()
                .map(|n| db.get(n).unwrap_or_else(|| panic!("no golden for {n}")))
                .collect();
            let wrap = WrapConfig::default();
            let asm = build_stl_program(core, self.cores.len() as u32, stl, &goldens, None, &wrap);
            programs.push((core, boot_base(slot), asm.assemble(boot_base(slot))?));
            for (i, name) in names.iter().enumerate() {
                let status = stl.env_of(i).result_addr + RESULT_STATUS_OFF as u32;
                status_addrs.insert(name.clone(), status);
            }
        }
        Ok(BootImage { programs, status_addrs })
    }
}

/// The built boot-test image: one program per active core plus the
/// routine→status-word directory.
pub struct BootImage {
    programs: Vec<(usize, u32, Program)>,
    status_addrs: HashMap<String, u32>,
}

impl BootImage {
    /// The per-core programs: `(core index, base address, program)`.
    pub fn programs(&self) -> &[(usize, u32, Program)] {
        &self.programs
    }

    /// The boot SoC with every program on its slot (see [`boot_soc`]):
    /// build it, arm faults on its cores, run it, and read the verdicts
    /// with [`report`](BootImage::report).
    pub fn builder(&self) -> SocBuilder {
        boot_soc(self.programs.iter().map(|(core, _, p)| (CoreKind::ALL[*core], p)))
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
    pub fn run_observed(&self, watchdog: u64) -> (BootReport, sbst_obs::MetricsHub) {
        let mut soc = self.builder().observe().build();
        let outcome = soc.run(watchdog);
        let metrics = soc.metrics().expect("observability attached");
        (self.report(&soc, outcome), metrics)
    }

    /// Reads the verdicts out of a finished SoC.
    pub fn report(&self, soc: &Soc, outcome: sbst_soc::RunOutcome) -> BootReport {
        let verdicts = self
            .status_addrs
            .iter()
            .map(|(name, &addr)| {
                let verdict = match soc.peek(addr) {
                    STATUS_PASS => BootVerdict::Pass,
                    STATUS_FAIL => BootVerdict::Fail,
                    _ => BootVerdict::NotRun,
                };
                (name.clone(), verdict)
            })
            .collect();
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
