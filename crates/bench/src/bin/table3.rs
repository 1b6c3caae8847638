//! Regenerates the paper's Table III (ICU and HDCU fault simulation).
//!
//! Usage: `table3 [quick|standard|full]`

use sbst_campaign::tables::{cli_mode, render_table3, table3, Effort};

fn main() {
    let effort = match cli_mode(&["quick", "standard", "full"]) {
        "full" => Effort::full(),
        "standard" => Effort::standard(),
        _ => Effort::quick(),
    };
    let rows = table3(&effort);
    println!("{}", render_table3(&rows));
    println!(
        "(graded up to {} faults per list; paper FC: ICU 46.57->51.36 (A), \
         54.94->60.91 (C); HDCU 62.53->70.37 (A))",
        effort.max_faults
    );
}
