//! Boot-image tests: the deployable STL catalog end to end, including an
//! injected fault flipping exactly its routine to FAIL.

use sbst_cpu::CoreKind;
use sbst_fault::{Element, FaultPlane, FaultSite, Polarity, Unit};
use sbst_stl::routines::{ForwardingTest, GenericAluTest, IcuTest, LsuTest, RegFileTest};
use sbst_stl::{BootVerdict, StlCatalog};

fn full_catalog() -> StlCatalog {
    let mut catalog = StlCatalog::new();
    catalog.add("regfile-a", 0, Box::new(RegFileTest::new()));
    catalog.add("fwd-a", 0, Box::new(ForwardingTest::without_pcs(CoreKind::A)));
    catalog.add("alu-b", 1, Box::new(GenericAluTest::new(2)));
    catalog.add("lsu-b", 1, Box::new(LsuTest::new()));
    catalog.add("icu-c", 2, Box::new(IcuTest::with_rounds(2)));
    catalog
}

#[test]
fn parallel_boot_test_passes_clean() {
    let image = full_catalog().build().expect("builds");
    assert_eq!(image.programs().len(), 3, "three active cores");
    let report = image.run(60_000_000);
    for (name, verdict) in report.iter() {
        assert_eq!(verdict, BootVerdict::Pass, "{name}");
    }
    assert!(report.all_passed());
}

#[test]
fn injected_fault_fails_exactly_the_targeting_routine() {
    let image = full_catalog().build().expect("builds");
    // Arm a forwarding fault on core A's *operand-B* mux: branches and
    // address computations ride operand A, so the core keeps control
    // flow intact and the corruption shows up purely as wrong data.
    // `fwd-a` must FAIL; the register-file routine on the same core may
    // legitimately catch it too; cores B and C stay green.
    let site = FaultSite {
        unit: Unit::Forwarding,
        instance: sbst_cpu::operand_mux_id(0, 1),
        element: Element::MuxDataIn { src: sbst_cpu::SRC_EXMEM_P0 as u8, bit: 7 },
        polarity: Polarity::StuckAt1,
    };
    let mut soc = image.builder().build();
    soc.core_mut(0).set_plane(FaultPlane::armed(site));
    let outcome = soc.run(60_000_000);
    let report = image.report(&soc, outcome);
    assert_eq!(report.verdict("fwd-a"), Some(BootVerdict::Fail), "alarm raised");
    assert_ne!(report.verdict("regfile-a"), Some(BootVerdict::NotRun));
    assert_eq!(report.verdict("alu-b"), Some(BootVerdict::Pass));
    assert_eq!(report.verdict("lsu-b"), Some(BootVerdict::Pass));
    assert_eq!(report.verdict("icu-c"), Some(BootVerdict::Pass));
    assert!(!report.all_passed());
}

#[test]
fn golden_db_round_trips_and_rebuilds_the_image() {
    use sbst_stl::GoldenDb;
    let catalog = full_catalog();
    let db = catalog.learn().expect("learns");
    assert_eq!(db.len(), 5);
    // Persist, reload, rebuild — the image must behave identically.
    let text = db.to_text();
    let reloaded = GoldenDb::from_text(&text).expect("parses");
    assert_eq!(db, reloaded);
    let image = catalog.build_with(&reloaded).expect("builds");
    let report = image.run(60_000_000);
    assert!(report.all_passed());
    // Tampered golden -> the affected routine fails its self-check.
    let tampered = GoldenDb::from_text(&text.replace(
        &format!("{:#010x}", db.get("alu-b").unwrap()),
        &format!("{:#010x}", db.get("alu-b").unwrap() ^ 1),
    ))
    .expect("parses");
    let image = catalog.build_with(&tampered).expect("builds");
    let report = image.run(60_000_000);
    assert_eq!(report.verdict("alu-b"), Some(BootVerdict::Fail));
    assert_eq!(report.verdict("lsu-b"), Some(BootVerdict::Pass));
}

/// The goldens `full_catalog` learns, as literals: a persisted
/// [`GoldenDb`] must stay valid when the boot image's mailboxes or
/// learning base move, so these values must not.
///
/// [`GoldenDb`]: sbst_stl::GoldenDb
#[test]
fn learned_goldens_are_pinned() {
    let db = full_catalog().learn().expect("learns");
    let pinned = [
        ("regfile-a", 0x3169_7c3c),
        ("fwd-a", 0xd84d_c088),
        ("alu-b", 0xfc90_4b1f),
        ("lsu-b", 0xf4d4_5128),
        ("icu-c", 0x5272_9a27),
    ];
    for (name, golden) in pinned {
        assert_eq!(db.get(name), Some(golden), "{name}: {:#010x?}", db.get(name));
    }
    assert_eq!(db.len(), pinned.len());
}

#[test]
fn golden_db_text_format_rejects_garbage() {
    use sbst_stl::GoldenDb;
    assert!(GoldenDb::from_text("# comment\n\nname = 0xdeadbeef\n").is_ok());
    assert_eq!(GoldenDb::from_text("no-equals-here\n"), Err(1));
    assert_eq!(GoldenDb::from_text("x = banana\n"), Err(1));
}
