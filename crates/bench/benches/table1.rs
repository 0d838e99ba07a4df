//! **Table 1** — implementation results of the target-specific
//! multipliers: cycles, clock, LUT, FF, DSP for LW, HS-I-256, HS-I-512,
//! HS-II and the re-implemented [10] baselines.
//!
//! Prints the model-vs-paper table.

use saber_bench::tables::format_table1;

fn main() {
    println!("\n=== Reproduction of Table 1 ===\n");
    println!("{}", format_table1());
}
