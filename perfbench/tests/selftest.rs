//! Self-tests of the benchmark: seeded inputs are reproducible, the
//! oracle gate catches wrong results, and tracing changes no verdict.

use std::path::PathBuf;

use det_sbst_perfbench::inputs::Workload;
use det_sbst_perfbench::oracle::{digest, Oracle, Tally};
use det_sbst_perfbench::trace::Tracer;
use det_sbst_perfbench::workload::{check, grade, setup, Graded, Setup};
use sbst_cpu::unit_fault_list;
use sbst_fault::{collapse, Verdict};

/// A scratch directory of this test alone (fleet checkpoints).
fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{test}"))
}

/// The seed's sample: every cell's oracle key and picked universe indices.
fn sample(workload: Workload, seed: u64) -> Vec<(String, Vec<usize>)> {
    let oracle = Oracle::load(workload).expect("committed oracle parses");
    let mut tracer = Tracer::new(false);
    let prepared = setup(workload, seed, &oracle, &mut tracer);
    prepared
        .cells
        .iter()
        .map(|c| (c.cell.key().to_string(), c.picks.clone()))
        .collect()
}

fn graded_pass(workload: Workload, seed: u64, test: &str, traced: bool) -> (Setup, Graded) {
    let oracle = Oracle::load(workload).expect("committed oracle parses");
    let mut tracer = Tracer::new(traced);
    let prepared = setup(workload, seed, &oracle, &mut tracer);
    let graded = grade(&prepared, seed, &scratch(test), &mut tracer);
    assert_eq!(
        traced,
        !tracer.spans().is_empty(),
        "spans are recorded only when traced"
    );
    (prepared, graded)
}

fn verdict_digest(graded: &Graded) -> u64 {
    digest(graded.verdicts.iter().flatten().copied())
}

#[test]
fn oracle_covers_every_universe_fault() {
    for workload in Workload::ALL {
        let oracle = Oracle::load(workload).expect("committed oracle parses");
        for cell in workload.universe() {
            let collapsed = collapse(&unit_fault_list(cell.spec.config.kind, cell.spec.unit));
            let universe = cell.universe(collapsed.representatives());
            let entry = oracle
                .get(cell.key())
                .expect("every universe cell has an entry");
            assert_eq!(entry.verdicts.len(), universe.len(), "{}", cell.key());
        }
    }
}

#[test]
fn same_seed_gives_same_sample_and_verdict_digest() {
    for workload in Workload::ALL {
        assert_eq!(
            sample(workload, 7),
            sample(workload, 7),
            "{}",
            workload.name()
        );
    }
    for workload in Workload::ALL {
        let oracle = Oracle::load(workload).expect("committed oracle parses");
        let (prepared, first) = graded_pass(workload, 7, "same-seed-a", false);
        let (_, second) = graded_pass(workload, 7, "same-seed-b", false);
        assert_eq!(
            verdict_digest(&first),
            verdict_digest(&second),
            "{}",
            workload.name()
        );
        let mut tally = Tally::default();
        check(&prepared, &first, &oracle, &mut tally);
        assert_eq!(tally.failed, 0, "{}: {:?}", workload.name(), tally.notes);
        assert!(tally.attempted as usize >= prepared.items());
    }
}

#[test]
fn different_seed_gives_different_sample() {
    for workload in Workload::ALL {
        assert_ne!(
            sample(workload, 1),
            sample(workload, 2),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn corrupted_expected_verdicts_raise_fail_rate() {
    let workload = Workload::FwdUncachedSweep;
    let oracle = Oracle::load(workload).expect("committed oracle parses");
    let (prepared, graded) = graded_pass(workload, 3, "corrupt", false);
    let mut clean = Tally::default();
    check(&prepared, &graded, &oracle, &mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);

    // Flip the expected verdict of one sampled fault.
    let cell = &prepared.cells[0];
    let mut entry = oracle.get(cell.cell.key()).expect("entry").clone();
    let i = cell.picks[0];
    entry.verdicts[i] = match entry.verdicts[i] {
        Verdict::Undetected => Verdict::WrongSignature,
        _ => Verdict::Undetected,
    };
    let mut corrupted = oracle.clone();
    corrupted.insert(cell.cell.key(), entry.clone());
    let mut tally = Tally::default();
    check(&prepared, &graded, &corrupted, &mut tally);
    assert_eq!(tally.failed, 1);
    assert!(tally.fail_rate() > 0.0);

    // A golden run that no longer matches the recorded one fails too.
    entry.cycles += 1;
    corrupted.insert(cell.cell.key(), entry);
    let mut tally = Tally::default();
    check(&prepared, &graded, &corrupted, &mut tally);
    assert_eq!(tally.failed, 2);
}

#[test]
fn traced_and_untraced_runs_grade_identical_verdicts() {
    for workload in Workload::ALL {
        let (_, plain) = graded_pass(workload, 11, "trace-off", false);
        let (_, traced) = graded_pass(workload, 11, "trace-on", true);
        assert_eq!(plain.verdicts, traced.verdicts, "{}", workload.name());
    }
}
