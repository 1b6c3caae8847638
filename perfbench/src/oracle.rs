//! The reference oracle: recorded golden runs and reference-path
//! verdicts for every fault of a workload's universe.
//!
//! One line per experiment:
//! `<key> <golden cycles> <golden signature, hex> <verdict letters>`,
//! the letters in universe order (see [`letter`]). The files under
//! `oracle/` are produced by `--regen-oracle`, which grades every
//! universe cell on the reference (cold) path.

use std::collections::HashMap;

use sbst_campaign::fleet::{run_fleet_serial, EcuSpec, FleetGrader, FleetPlan};
use sbst_campaign::{routines_for, run_campaign_detailed, Experiment, Observation};
use sbst_fault::{FaultSite, Verdict};

use crate::inputs::{Lists, Workload};
use crate::trace::Tracer;

/// The recorded reference of one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Golden-run cycle count.
    pub cycles: u64,
    /// Golden signature.
    pub signature: u32,
    /// Reference verdict of every universe fault, in universe order.
    pub verdicts: Vec<Verdict>,
}

/// The oracle of one workload.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    entries: HashMap<String, Entry>,
}

/// The committed oracle text of `workload`.
pub fn committed(workload: Workload) -> &'static str {
    match workload {
        Workload::CtlFleet => include_str!("../oracle/ctl-fleet.txt"),
        Workload::FwdUncachedSweep => include_str!("../oracle/fwd-uncached-sweep.txt"),
    }
}

/// Letter a verdict is recorded as.
pub fn letter(v: Verdict) -> char {
    match v {
        Verdict::WrongSignature => 'S',
        Verdict::TestFail => 'F',
        Verdict::UnexpectedTrap => 'T',
        Verdict::Hang => 'H',
        Verdict::Undetected => 'U',
        Verdict::SimError => 'E',
    }
}

fn from_letter(c: char) -> Option<Verdict> {
    Some(match c {
        'S' => Verdict::WrongSignature,
        'F' => Verdict::TestFail,
        'T' => Verdict::UnexpectedTrap,
        'H' => Verdict::Hang,
        'U' => Verdict::Undetected,
        'E' => Verdict::SimError,
        _ => return None,
    })
}

impl Oracle {
    /// Parses oracle text; `Err` names the first malformed line.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("oracle line {}: malformed", n + 1);
            let f: Vec<&str> = line.split(' ').collect();
            let [key, cycles, signature, verdicts] = f[..] else {
                return Err(bad());
            };
            let entry = Entry {
                cycles: cycles.parse().map_err(|_| bad())?,
                signature: u32::from_str_radix(signature, 16).map_err(|_| bad())?,
                verdicts: verdicts
                    .chars()
                    .map(from_letter)
                    .collect::<Option<_>>()
                    .ok_or_else(bad)?,
            };
            entries.insert(key.to_string(), entry);
        }
        Ok(Oracle { entries })
    }

    /// The committed oracle of `workload`.
    pub fn load(workload: Workload) -> Result<Oracle, String> {
        let oracle = Oracle::parse(committed(workload))?;
        if let Some(cell) = workload
            .universe()
            .iter()
            .find(|c| oracle.get(c.key()).is_none())
        {
            return Err(format!("oracle has no entry for {}", cell.key()));
        }
        Ok(oracle)
    }

    /// The entry of experiment `key`.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.get(key)
    }

    /// Replaces the entry of `key` (self-tests corrupt the oracle with it).
    pub fn insert(&mut self, key: &str, entry: Entry) {
        self.entries.insert(key.to_string(), entry);
    }

    /// Renders one oracle line.
    pub fn line(key: &str, golden: &Observation, verdicts: &[Verdict]) -> String {
        let letters: String = verdicts.iter().map(|&v| letter(v)).collect();
        format!("{key} {} {:08x} {letters}", golden.cycles, golden.signature)
    }
}

/// Failed and attempted checks of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks made: one per graded fault and one per golden run.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, for the error stream.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one check.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    /// Records a failure not tied to a single check (a stolen shard).
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Checks a golden run against the recorded one.
    pub fn golden(&mut self, key: &str, entry: &Entry, golden: &Observation) {
        self.check(
            entry.cycles == golden.cycles && entry.signature == golden.signature,
            || {
                format!(
                    "{key}: golden {} cycles sig {:08x}, recorded {} cycles sig {:08x}",
                    golden.cycles, golden.signature, entry.cycles, entry.signature
                )
            },
        );
    }

    /// Checks graded verdicts of the universe faults at `picks`.
    pub fn verdicts(&mut self, key: &str, entry: &Entry, picks: &[usize], got: &[Verdict]) {
        if picks.len() != got.len() {
            self.fail(format!(
                "{key}: {} verdicts for {} faults",
                got.len(),
                picks.len()
            ));
            return;
        }
        for (&i, &v) in picks.iter().zip(got) {
            let want = entry.verdicts.get(i).copied();
            self.check(v != Verdict::SimError && want == Some(v), || {
                format!("{key}: fault #{i} graded {v:?}, reference {want:?}")
            });
        }
    }

    /// `failed / attempted`.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a digest of a verdict sequence (the self-tests compare runs by it).
pub fn digest(verdicts: impl IntoIterator<Item = Verdict>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in verdicts {
        h ^= letter(v) as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Grades every fault of `workload`'s universe on the reference path
/// and renders the oracle text: cold `run_campaign_detailed` for the
/// forwarding workloads, `run_fleet_serial` over cold graders for
/// ctl-fleet.
pub fn regenerate(workload: Workload, threads: usize) -> String {
    let mut lists = Lists::default();
    let mut tracer = Tracer::new(false);
    let cells = workload.universe();
    let mut experiments = Vec::new();
    let mut universes = Vec::new();
    for cell in &cells {
        let collapsed = lists.get(cell.spec.config.kind, cell.spec.unit, &mut tracer);
        universes.push(cell.universe(collapsed));
        let exp = Experiment::assemble_config(&*routines_for(cell.spec.unit), &cell.spec.config)
            .expect("benchmark experiments assemble");
        let golden = exp.golden();
        experiments.push((exp, golden));
    }
    let verdicts: Vec<Vec<Verdict>> = if workload == Workload::CtlFleet {
        let plan = FleetPlan::build(
            cells.iter().map(|c| c.spec.clone()).collect(),
            universes.clone(),
            usize::MAX,
        );
        run_fleet_serial(&plan, &ColdGrader(&experiments))
    } else {
        experiments
            .iter()
            .zip(&universes)
            .map(|((exp, golden), universe)| {
                run_campaign_detailed(exp, golden, universe, threads)
                    .1
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect()
    };
    let mut text = format!(
        "# Reference verdicts of every {} universe fault; regenerate with --regen-oracle.\n",
        workload.name()
    );
    for ((cell, (_, golden)), v) in cells.iter().zip(&experiments).zip(&verdicts) {
        text.push_str(&Oracle::line(cell.key(), golden, v));
        text.push('\n');
    }
    text
}

/// The reference (cold, from-reset) grader behind `run_fleet_serial`.
struct ColdGrader<'a>(&'a [(Experiment, Observation)]);

impl FleetGrader for ColdGrader<'_> {
    fn grade(&self, ecu: usize, _spec: &EcuSpec, site: FaultSite) -> Verdict {
        let (exp, golden) = &self.0[ecu];
        exp.test_fault(golden, site)
    }
}
