//! Campaign robustness: panic isolation (one crashing fault simulation
//! must not abort the campaign) and checkpoint/resume (an interrupted
//! campaign finishes later with the identical result).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sbst_campaign::{
    fingerprint, resume_campaign, resume_campaign_graded, routines_for, run_campaign_detailed,
    run_campaign_graded, Checkpoint, CheckpointConfig, CheckpointError, ExecStyle, Experiment,
    FaultGrader,
};
use sbst_cpu::{unit_fault_list, CoreKind};
use sbst_fault::{Element, FaultList, FaultSite, Polarity, Unit, Verdict};
use sbst_soc::Scenario;

/// A fast deterministic grader: verdict is a pure function of the site
/// (FNV over its debug rendering), optionally panicking on one index.
struct SyntheticGrader {
    sites: Vec<FaultSite>,
    panic_on: Option<usize>,
    calls: AtomicUsize,
}

impl SyntheticGrader {
    fn new(sites: &[FaultSite]) -> SyntheticGrader {
        SyntheticGrader { sites: sites.to_vec(), panic_on: None, calls: AtomicUsize::new(0) }
    }

    fn verdict_of(site: FaultSite) -> Verdict {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in format!("{site:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        match h % 5 {
            0 => Verdict::WrongSignature,
            1 => Verdict::TestFail,
            2 => Verdict::UnexpectedTrap,
            3 => Verdict::Hang,
            _ => Verdict::Undetected,
        }
    }
}

impl FaultGrader for SyntheticGrader {
    fn grade(&self, site: FaultSite) -> Verdict {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = self.panic_on {
            if self.sites[idx] == site {
                panic!("injected simulator defect at fault #{idx}");
            }
        }
        SyntheticGrader::verdict_of(site)
    }
}

fn synthetic_faults(n: u16) -> FaultList {
    (0..n)
        .map(|i| FaultSite {
            unit: Unit::Hdcu,
            instance: i,
            element: Element::StallLine { line: (i % 7) as u8 },
            polarity: if i % 2 == 0 { Polarity::StuckAt0 } else { Polarity::StuckAt1 },
        })
        .collect()
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("det-sbst-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn panicking_fault_is_recorded_and_the_rest_are_unaffected() {
    let faults = synthetic_faults(40);
    let clean = run_campaign_graded(&SyntheticGrader::new(faults.sites()), &faults, 4);

    let mut grader = SyntheticGrader::new(faults.sites());
    grader.panic_on = Some(17);
    let (result, records, errors) = run_campaign_graded(&grader, &faults, 4);

    // The campaign completed: every fault has a verdict.
    assert_eq!(result.total, faults.len());
    assert_eq!(result.sim_errors, 1);
    assert_eq!(records[17].1, Verdict::SimError);
    // The crash names the offending site with the panic message.
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, Some(faults.sites()[17]));
    assert_eq!(errors[0].index, 17);
    assert!(errors[0].message.contains("injected simulator defect"), "{}", errors[0].message);
    // Every other verdict is identical to the crash-free campaign.
    for (i, (site, verdict)) in records.iter().enumerate() {
        if i != 17 {
            assert_eq!((site, verdict), (&clean.1[i].0, &clean.1[i].1), "fault #{i}");
        }
    }
    // Coverage arithmetic treats the crashed sim as proven-nothing.
    assert_eq!(result.detected() + result.undetected + result.sim_errors, result.total);
}

#[test]
fn interrupted_campaign_resumes_to_the_identical_result() {
    let faults = synthetic_faults(60);
    let uninterrupted = run_campaign_graded(&SyntheticGrader::new(faults.sites()), &faults, 3);

    let path = scratch_path("resume.ckpt.json");
    let _ = std::fs::remove_file(&path);
    // Grade in slices of 17 — each invocation "dies" after max_new new
    // faults, exactly like a killed process whose last checkpoint held
    // that many verdicts.
    let mut invocations = 0;
    loop {
        invocations += 1;
        let grader = SyntheticGrader::new(faults.sites());
        let cfg = CheckpointConfig {
            every: 5,
            max_new: Some(17),
            ..CheckpointConfig::new(path.clone())
        };
        let outcome = resume_campaign_graded(&grader, &faults, 3, &cfg).expect("slice");
        assert!(outcome.newly_graded <= 17);
        // Resumption must *skip* already-graded sites, not re-simulate.
        assert_eq!(grader.calls.load(Ordering::Relaxed), outcome.newly_graded);
        if outcome.complete {
            assert_eq!(outcome.result, uninterrupted.0, "resumed != uninterrupted");
            assert_eq!(outcome.records, uninterrupted.1);
            break;
        }
        assert!(invocations < 20, "never converged");
    }
    assert_eq!(invocations, 60usize.div_ceil(17), "one invocation per slice");

    // A second full resume over the finished checkpoint re-simulates
    // nothing and reproduces the result again.
    let grader = SyntheticGrader::new(faults.sites());
    let cfg = CheckpointConfig::new(path.clone());
    let again = resume_campaign_graded(&grader, &faults, 3, &cfg).expect("noop resume");
    assert_eq!(grader.calls.load(Ordering::Relaxed), 0);
    assert_eq!(again.result, uninterrupted.0);
    let _ = std::fs::remove_file(&path);
}

/// The lock-contention fix's contract: `on_done` observers get slot
/// snapshots cloned under the publishing lock but run outside it, so a
/// heavily threaded campaign checkpointing after *every* verdict must
/// still leave only consistent states on disk — every mid-campaign
/// checkpoint holds correct verdicts for exactly the faults it claims,
/// and resuming from any of them converges to the identical result.
#[test]
fn every_mid_campaign_checkpoint_is_consistent_and_resumes_identically() {
    let faults = synthetic_faults(48);
    let reference = run_campaign_graded(&SyntheticGrader::new(faults.sites()), &faults, 3);

    let path = scratch_path("consistent.ckpt.json");
    let _ = std::fs::remove_file(&path);
    let mut slices = 0;
    let mut graded = 0;
    loop {
        slices += 1;
        let grader = SyntheticGrader::new(faults.sites());
        // Many workers, a checkpoint per verdict, die every 7 faults:
        // maximal pressure on the publish/observe seam.
        let cfg =
            CheckpointConfig { every: 1, max_new: Some(7), ..CheckpointConfig::new(path.clone()) };
        let outcome = resume_campaign_graded(&grader, &faults, 8, &cfg).expect("slice");
        let on_disk = Checkpoint::load(&path).expect("mid-campaign checkpoint loads");
        assert_eq!(on_disk.fingerprint, fingerprint(&faults));
        // Consistency: whatever subset the checkpoint captured, each
        // recorded verdict is the right one for its site — no torn or
        // misattributed slots under concurrency.
        for (i, v) in on_disk.verdicts.iter().enumerate() {
            if let Some(v) = v {
                assert_eq!(*v, reference.1[i].1, "fault #{i} verdict corrupted");
            }
        }
        graded += outcome.newly_graded;
        assert_eq!(
            on_disk.completed(),
            graded,
            "the final checkpoint of a slice must capture every verdict \
             graded so far (the every=1 writer may not lose the last ones \
             to out-of-order snapshot delivery)"
        );
        if outcome.complete {
            assert_eq!(outcome.result, reference.0);
            assert_eq!(outcome.records, reference.1);
            break;
        }
        assert!(slices < 20, "never converged");
    }
    assert_eq!(slices, 48usize.div_ceil(7));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_for_a_different_fault_list_is_rejected() {
    let faults = synthetic_faults(10);
    let other = synthetic_faults(11);
    let path = scratch_path("mismatch.ckpt.json");
    Checkpoint::new(&other).save(&path).expect("save");
    let grader = SyntheticGrader::new(faults.sites());
    let err = resume_campaign_graded(&grader, &faults, 1, &CheckpointConfig::new(path.clone()))
        .expect_err("fingerprint mismatch");
    match err {
        CheckpointError::FingerprintMismatch { found, expected } => {
            assert_eq!(found, fingerprint(&other));
            assert_eq!(expected, fingerprint(&faults));
        }
        other => panic!("wrong error: {other}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_file_on_disk_tracks_progress() {
    let faults = synthetic_faults(12);
    let path = scratch_path("progress.ckpt.json");
    let _ = std::fs::remove_file(&path);
    let grader = SyntheticGrader::new(faults.sites());
    let cfg =
        CheckpointConfig { every: 1, max_new: Some(5), ..CheckpointConfig::new(path.clone()) };
    let outcome = resume_campaign_graded(&grader, &faults, 1, &cfg).expect("slice");
    assert!(!outcome.complete);
    assert_eq!(outcome.newly_graded, 5);
    let on_disk = Checkpoint::load(&path).expect("loads");
    assert_eq!(on_disk.completed(), 5);
    assert_eq!(on_disk.fingerprint, fingerprint(&faults));
    assert!(!on_disk.is_complete());
    let _ = std::fs::remove_file(&path);
}

/// The production path: a real (sampled) experiment graded via
/// `resume_campaign` in one go matches `run_campaign_detailed` exactly.
#[test]
fn resumed_experiment_campaign_matches_direct_run() {
    let factory = routines_for(Unit::Icu);
    let exp = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario::single_core(),
    )
    .expect("experiment");
    let golden = exp.golden();
    let faults = unit_fault_list(CoreKind::A, Unit::Icu).sample(60);
    let direct = run_campaign_detailed(&exp, &golden, &faults, 0).0;

    let path = scratch_path("experiment.ckpt.json");
    let _ = std::fs::remove_file(&path);
    let outcome = resume_campaign(&exp, &golden, &faults, 0, &CheckpointConfig::new(path.clone()))
        .expect("resumable campaign");
    assert!(outcome.complete);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.result, direct);
    // The checkpoint on disk is stamped with the experiment's config.
    let on_disk = Checkpoint::load(&path).expect("loads");
    assert_eq!(on_disk.config, exp.config_fingerprint());
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint recorded under one SoC configuration must not resume a
/// campaign against another ECU variant: the same fault list graded on
/// a different core count / cache geometry produces differently-meaning
/// verdicts, so the resume is rejected with a clear error.
#[test]
fn checkpoint_for_a_different_soc_config_is_rejected() {
    let factory = routines_for(Unit::Icu);
    let single = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario::single_core(),
    )
    .expect("single-core experiment");
    let triple = Experiment::assemble(
        &*factory,
        CoreKind::A,
        ExecStyle::CacheWrapped,
        &Scenario { active_cores: 3, ..Scenario::single_core() },
    )
    .expect("triple-core experiment");
    assert_ne!(single.config_fingerprint(), triple.config_fingerprint());

    // Stride 25 over the ~118-site collapsed ICU list keeps ~5 faults —
    // comfortably more than `max_new: 2`, so the first pass really is
    // partial (stride > list length would collapse to a single fault
    // and complete immediately).
    let faults = unit_fault_list(CoreKind::A, Unit::Icu).sample(25);
    assert!(faults.len() > 2, "need a partial first pass");
    let path = scratch_path("config-mismatch.ckpt.json");
    let _ = std::fs::remove_file(&path);

    // Record a (partial) checkpoint under the single-core config...
    let golden = single.golden();
    let cfg = CheckpointConfig { max_new: Some(2), ..CheckpointConfig::new(path.clone()) };
    let partial =
        resume_campaign(&single, &golden, &faults, 0, &cfg).expect("partial campaign");
    assert!(!partial.complete);

    // ...then try to finish it on the triple-core variant.
    let golden3 = triple.golden();
    let err = resume_campaign(&triple, &golden3, &faults, 0, &CheckpointConfig::new(path.clone()))
        .expect_err("config mismatch must be rejected");
    match err {
        CheckpointError::ConfigMismatch { found, expected } => {
            assert_eq!(found, single.config_fingerprint());
            assert_eq!(expected, triple.config_fingerprint());
        }
        other => panic!("wrong error: {other}"),
    }

    // The matching experiment still resumes fine.
    let finished = resume_campaign(&single, &golden, &faults, 0, &CheckpointConfig::new(path.clone()))
        .expect("matching config resumes");
    assert!(finished.complete);
    let _ = std::fs::remove_file(&path);
}
