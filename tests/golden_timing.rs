//! Golden timing pinning: exact end-of-run statistics of a contended
//! multi-core matrix, checked against `tests/fixtures/golden_timing.json`.
//!
//! The golden-signature fixture (`crates/core/tests/golden_signatures.rs`)
//! pins cache-wrapped single-core signatures, which are immune to bus
//! contention by design. This fixture pins the *timing* those signatures
//! hide: every cycle the simulator kernel (`Soc::step` and everything it
//! drives — fetch, caches, bus arbitration, Flash row buffers) spends,
//! counted per core, per cache, per bus port and per slave. A change to
//! the kernel that is meant to be behaviour-neutral (an optimisation)
//! must leave this file byte-identical.
//!
//! The matrix crosses
//!
//! * the forwarding, HDCU and ICU routines of the paper's campaigns,
//! * 1, 2 and 3 active cores (the core under test first, the other kinds
//!   after it, running the same routine with caches on, as in
//!   `Experiment`),
//! * an uncached and a cache-wrapped core under test,
//! * the round-robin, fixed-priority and TDMA arbiters,
//!
//! rotating the core under test through all three kinds and the code
//! position, alignment and start skew through the scenario axes. One
//! extra cell adds a chaos plane (traffic injector plus SEU strikes).
//!
//! Each fixture line is one cell: outcome, SoC cycles, the core under
//! test's signature; per core the retired instructions, IF/MEM/hazard
//! stall cycles and forwarding uses; per cache the read/write hits and
//! misses; per bus port the grants, summed wait and worst single wait;
//! bus transactions and busy cycles; Flash accesses and row hits.
//!
//! Regenerating the fixture after an intentional timing change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_timing
//! git diff tests/fixtures/golden_timing.json  # review!
//! ```

use det_sbst::campaign::routines_for;
use det_sbst::cpu::{CoreConfig, CoreKind};
use det_sbst::fault::Unit;
use det_sbst::mem::{ArbiterKind, InjectorProgram, SeuConfig, SRAM_BASE};
use det_sbst::obs::{parse_json, CacheCounters, Json};
use det_sbst::soc::{Alignment, ChaosConfig, CodePosition, RunOutcome, Scenario, Soc, SocBuilder};
use det_sbst::stl::{wrap_sequence, RoutineEnv, SelfTestRoutine, WrapConfig, RESULT_SIG_OFF};

/// Cycle backstop per cell; every cell halts far below it.
const BUDGET: u64 = 2_000_000;

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    unit: Unit,
    cut: CoreKind,
    active: usize,
    cached: bool,
    arbiter: ArbiterKind,
    chaos: Option<ChaosConfig>,
    scenario: Scenario,
}

impl Cell {
    fn name(&self) -> String {
        let style = if self.cached { "cached" } else { "uncached" };
        let chaos = if self.chaos.is_some() { "/chaos" } else { "" };
        format!(
            "{}/{:?}/{}c/{style}/{}{chaos}",
            self.unit,
            self.cut,
            self.active,
            self.arbiter.name()
        )
    }
}

fn matrix() -> Vec<Cell> {
    let arbiters = [
        ArbiterKind::RoundRobin,
        ArbiterKind::fixed_priority(),
        ArbiterKind::tdma(),
    ];
    let mut cells = Vec::new();
    for unit in Unit::ALL {
        for active in 1..=3 {
            for cached in [false, true] {
                for arbiter in arbiters {
                    // `i % 3` is the arbiter; shifting the kind by the
                    // arbiter group pairs every kind with every arbiter.
                    let i = cells.len();
                    let group = i / 3;
                    let scenario = Scenario {
                        active_cores: active,
                        position: CodePosition::ALL[group % 3],
                        alignment: Alignment::ALL[(group / 3) % 3],
                        skew_seed: i as u64,
                    };
                    cells.push(Cell {
                        unit,
                        cut: CoreKind::ALL[(i + group) % 3],
                        active,
                        cached,
                        arbiter,
                        chaos: None,
                        scenario,
                    });
                }
            }
        }
    }
    // The chaos plane: a random-traffic injector on its own port and SEU
    // strikes in caches and in-flight bus data.
    let base = cells.len();
    cells.push(Cell {
        unit: Unit::Forwarding,
        cut: CoreKind::B,
        active: 2,
        cached: true,
        arbiter: ArbiterKind::RoundRobin,
        chaos: Some(ChaosConfig {
            injector: InjectorProgram::with_intensity(60, 0x5eed),
            seu: SeuConfig::at_rate(0xface, 2_000),
        }),
        scenario: Scenario {
            active_cores: 2,
            position: CodePosition::Mid,
            alignment: Alignment::Word,
            skew_seed: base as u64,
        },
    });
    cells
}

/// Result mailbox of core `i` (the `Experiment` layout).
fn mailbox(i: usize) -> u32 {
    SRAM_BASE + 0x40 + 0x100 * i as u32
}

fn build(cell: &Cell) -> Soc {
    let factory = routines_for(cell.unit);
    let mut kinds = vec![cell.cut];
    kinds.extend(CoreKind::ALL.iter().copied().filter(|&k| k != cell.cut));
    kinds.truncate(cell.active);
    let delays = cell.scenario.start_delays();
    let mut builder = SocBuilder::new().arbiter(cell.arbiter);
    for (i, &kind) in kinds.iter().enumerate() {
        let env = RoutineEnv {
            result_addr: mailbox(i),
            data_base: SRAM_BASE + 0x4000 + 0x800 * i as u32,
            ..RoutineEnv::for_core(kind)
        };
        let cut_uncached = i == 0 && !cell.cached;
        let wrap = WrapConfig {
            iterations: if cut_uncached { 1 } else { 2 },
            invalidate: !cut_uncached,
            icache_capacity: u32::MAX,
            ..WrapConfig::default()
        };
        let routine: Box<dyn SelfTestRoutine> = factory(kind);
        let base = cell.scenario.code_base(i);
        let program = wrap_sequence(&[routine.as_ref()], &env, &wrap, &format!("c{i}"))
            .assemble(base)
            .expect("routine assembles");
        let cfg = if cut_uncached {
            CoreConfig::uncached(kind, i, base)
        } else {
            CoreConfig::cached(kind, i, base)
        };
        builder = builder.load(&program).core(cfg, delays[i]);
    }
    if let Some(chaos) = cell.chaos {
        builder = builder.chaos(chaos);
    }
    builder.build()
}

fn cache_json(c: Option<CacheCounters>) -> Json {
    match c {
        None => Json::Null,
        Some(c) => Json::Arr(
            [c.read_hits, c.read_misses, c.write_hits, c.write_misses]
                .into_iter()
                .map(Json::int)
                .collect(),
        ),
    }
}

fn ints(values: &[u64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::int).collect())
}

/// Runs one cell and collects its end-of-run statistics.
fn measure(cell: &Cell) -> Json {
    let mut soc = build(cell);
    let outcome = soc.run(BUDGET);
    let outcome = match outcome {
        RunOutcome::AllHalted { .. } => "halted".to_string(),
        RunOutcome::FatalTrap { core, .. } => format!("trap{core}"),
        RunOutcome::Watchdog { .. } => "watchdog".to_string(),
    };
    let mut cores = Vec::new();
    let mut icache = Vec::new();
    let mut dcache = Vec::new();
    for i in 0..soc.core_count() {
        let s = soc.core(i).obs_sample();
        let c = s.counters;
        cores.push(Json::Obj(vec![
            ("retired".into(), Json::int(c.retired)),
            ("if".into(), Json::int(c.if_stalls)),
            ("mem".into(), Json::int(c.mem_stalls)),
            ("haz".into(), Json::int(c.haz_stalls)),
            ("fwd".into(), Json::int(c.fwd_uses)),
        ]));
        icache.push(cache_json(s.icache));
        dcache.push(cache_json(s.dcache));
    }
    let bus = soc.bus().stats();
    let (flash_accesses, row_hits) = soc.bus().flash().stats();
    let mut doc = Json::Obj(vec![
        ("outcome".into(), Json::Str(outcome)),
        ("cycles".into(), Json::int(soc.cycle())),
        (
            "sig".into(),
            Json::int(u64::from(soc.peek(mailbox(0) + RESULT_SIG_OFF as u32))),
        ),
        ("cores".into(), Json::Arr(cores)),
        ("icache".into(), Json::Arr(icache)),
        ("dcache".into(), Json::Arr(dcache)),
        ("grants".into(), ints(&bus.grants)),
        ("wait".into(), ints(&bus.wait_cycles)),
        ("max_wait".into(), ints(&bus.max_grant_wait)),
        ("bus".into(), ints(&[bus.transactions, bus.busy_cycles])),
        ("flash".into(), ints(&[flash_accesses, row_hits])),
    ]);
    if let Some(inj) = soc.injector_stats() {
        doc.set(
            "injector",
            ints(&[inj.requests, inj.words, inj.throttled_cycles]),
        );
        doc.set(
            "seu",
            ints(&[soc.seu_events().len() as u64, soc.seu_landed() as u64]),
        );
    }
    doc
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_timing.json")
}

/// One line per cell, so a timing change shows as a per-cell diff.
fn render(cells: &[(String, Json)]) -> String {
    let lines: Vec<String> = cells
        .iter()
        .map(|(name, stats)| format!("  {}: {}", Json::Str(name.clone()).render(), stats.render()))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[test]
fn contended_timing_matches_the_fixture() {
    let cells = matrix();
    for kind in CoreKind::ALL {
        assert!(
            cells.iter().any(|c| c.cut == kind),
            "{kind:?} never under test"
        );
    }
    let measured: Vec<(String, Json)> = cells.iter().map(|c| (c.name(), measure(c))).collect();

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(fixture_path(), render(&measured)).expect("write fixture");
        eprintln!("regenerated {}", fixture_path().display());
        return;
    }

    let text = std::fs::read_to_string(fixture_path())
        .expect("fixture missing: run with GOLDEN_REGEN=1 per the test header to create it");
    let Json::Obj(pinned) = parse_json(&text).expect("fixture parses as JSON") else {
        panic!("fixture is not a JSON object");
    };
    let pinned_names: Vec<&str> = pinned.iter().map(|(n, _)| n.as_str()).collect();
    let measured_names: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        pinned_names, measured_names,
        "fixture cells differ from the matrix"
    );
    for ((name, want), (_, got)) in pinned.iter().zip(&measured) {
        assert_eq!(
            want.render(),
            got.render(),
            "timing of {name} moved (fixture first, measured second). If this \
             change is intentional, regenerate the fixture (see header)."
        );
    }
    assert_eq!(text, render(&measured), "fixture is not in canonical form");
}
