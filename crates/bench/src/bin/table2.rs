//! Regenerates the paper's Table II (forwarding-logic fault simulation).
//!
//! Usage: `table2 [quick|standard|full]`

use sbst_campaign::tables::{cli_mode, render_table2, table2, Effort};

fn main() {
    let effort = match cli_mode(&["quick", "standard", "full"]) {
        "full" => Effort::full(),
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    let rows = table2(&effort);
    println!("{}", render_table2(&rows));
    println!(
        "(graded {} of {} faults per core; paper: A 53,298 / B 57,506 / C 113,212)",
        rows[0].simulated, rows[0].fault_count
    );
}
