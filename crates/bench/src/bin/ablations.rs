//! Ablation study of the cache-based wrapper (DESIGN.md §9): which
//! ingredient of Figure 2b buys determinism, which buys coverage.
//!
//! Usage: `ablations [quick|standard]`

use sbst_campaign::ablation::{ablate, render_ablation};
use sbst_campaign::tables::{cli_mode, Effort};
use sbst_cpu::CoreKind;

fn main() {
    let effort = match cli_mode(&["quick", "standard"]) {
        "standard" => Effort::standard(),
        _ => Effort { seeds: 4, ..Effort::quick() },
    };
    let rows = ablate(CoreKind::A, &effort);
    println!("{}", render_ablation(&rows));
    println!("Reading guide:");
    println!(" - only variants with a loading loop AND caches are deterministic;");
    println!(" - skipping invalidation happens to stay deterministic HERE because a");
    println!("   fresh LRU cache makes it redundant — the paper's step guards against");
    println!("   non-LRU replacement and leftover cache contents (see EXPERIMENTS.md);");
    println!(" - a third iteration adds cycles but neither determinism nor coverage;");
    println!(" - the uncached baseline is both unstable and low-coverage.");
}
