//! Regenerates the paper's Table I (multi-core STL execution: stalls due
//! to the memory subsystem).
//!
//! Usage: `table1 [quick|standard|full]`

use sbst_campaign::tables::{cli_mode, render_table1, table1, Effort};

fn main() {
    let effort = match cli_mode(&["quick", "standard", "full"]) {
        "full" => Effort::full(),
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    let rows = table1(&effort);
    println!("{}", render_table1(&rows));
    println!("(averaged over {} phase seeds; paper: 200,679/117,965 -> 1,878,336/663,386)", effort.seeds);
}
