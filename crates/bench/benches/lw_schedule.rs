//! **§4.1 cycle accounting** — the lightweight multiplier's schedule:
//! 16 384 pure-compute cycles, the memory overhead (paper: 3 087 extra
//! cycles ⇒ 19 471 total, "less than 16 %"), and the high-speed
//! contrast (512 MACs: 128 pure vs 213 with memory, 39 % overhead).

use saber_bench::tables::canonical_operands;
use saber_core::{CentralizedMultiplier, HwMultiplier, LightweightMultiplier};
use saber_ring::PolyMultiplier;

fn print_schedule_table() {
    let (a, s) = canonical_operands();

    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    let lwc = lw.report().cycles;

    let mut hs = CentralizedMultiplier::new(512);
    let _ = hs.multiply(&a, &s);
    let hsc = hs.report().cycles;

    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>12}",
        "architecture", "compute", "memory", "total", "ovh/total"
    );
    println!("{}", "-".repeat(74));
    for (name, c) in [("LW (model)", lwc), ("HS-I 512 (model)", hsc)] {
        println!(
            "{:<26} {:>10} {:>10} {:>10} {:>11.1}%",
            name,
            c.compute_cycles,
            c.memory_overhead_cycles,
            c.total(),
            100.0 * c.memory_overhead_cycles as f64 / c.total() as f64
        );
    }
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>11.1}%",
        "LW (paper §4.1)",
        16_384,
        3_087,
        19_471,
        100.0 * 3_087.0 / 19_471.0
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>11.1}%",
        "HS 512 (paper §4.1)",
        128,
        85,
        213,
        100.0 * 85.0 / 213.0
    );
    println!(
        "\nLW total deviation from the paper: {:+.1}% (authors' RTL scheduler unpublished; see EXPERIMENTS.md)",
        100.0 * (lwc.total() as f64 - 19_471.0) / 19_471.0
    );
}

fn main() {
    println!("\n=== §4.1 schedule accounting ===\n");
    print_schedule_table();
}
