//! One-shot reproduction driver: regenerates every table, figure and
//! extension experiment of the paper at the chosen effort and prints a
//! consolidated report.
//!
//! Usage: `reproduce [quick|standard|full]`

use sbst_campaign::ablation::{ablate, render_ablation};
use sbst_campaign::tables::{
    cli_mode, render_table1, render_table2, render_table3, render_table4, table1, table2, table3,
    table4, Effort,
};
use sbst_cpu::CoreKind;

fn main() {
    let effort = match cli_mode(&["quick", "standard", "full"]) {
        "full" => Effort::full(),
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    println!("det-sbst reproduction run (faults/list budget: {})\n", effort.max_faults);

    println!("{}", render_table1(&table1(&effort)));
    println!("{}", render_table2(&table2(&effort)));
    println!("{}", render_table3(&table3(&effort)));
    println!("{}", render_table4(&table4()));
    println!("{}", render_ablation(&ablate(CoreKind::A, &effort)));
    println!("For Figures 1 and 2 run the `fig1` / `fig2` binaries; for the");
    println!("delay-fault and cache-capacity extensions run `delay_faults` /");
    println!("`cache_sweep`; paper-vs-measured analysis lives in EXPERIMENTS.md.");
}
