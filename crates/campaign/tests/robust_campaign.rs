//! Campaign robustness: panic isolation (one crashing fault simulation
//! must not abort the campaign). Crash-safe resume is the fleet's
//! per-shard checkpoint, tested in `fleet.rs`.

use sbst_campaign::{run_campaign_graded, FaultGrader};
use sbst_fault::{Element, FaultList, FaultSite, Polarity, Unit, Verdict};

/// A fast deterministic grader: verdict is a pure function of the site
/// (FNV over its debug rendering), optionally panicking on one index.
struct SyntheticGrader {
    sites: Vec<FaultSite>,
    panic_on: Option<usize>,
}

impl SyntheticGrader {
    fn new(sites: &[FaultSite]) -> SyntheticGrader {
        SyntheticGrader { sites: sites.to_vec(), panic_on: None }
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
