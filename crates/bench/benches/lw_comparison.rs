//! **§5.1 lightweight comparisons** — LW against RISQ-V \[9\], the M4
//! Toom-Cook software of \[6\], and the M4 NTT software of \[14\]; plus
//! the device-utilization argument (< 7 % LUTs / < 2 % FFs of the small
//! Artix-7).

use saber_bench::literature::LIGHTWEIGHT_COMPARISONS;
use saber_bench::tables::canonical_operands;
use saber_core::{HwMultiplier, LightweightMultiplier};
use saber_ring::PolyMultiplier;

fn print_comparison() {
    let (a, s) = canonical_operands();
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    let measured = lw.report().cycles.total();

    println!("cycles for one 256-coefficient multiplication:");
    println!(
        "  {:<22} {:<30} {:>9}  note",
        "implementation", "platform", "cycles"
    );
    println!("  {}", "-".repeat(100));
    for row in LIGHTWEIGHT_COMPARISONS {
        println!(
            "  {:<22} {:<30} {:>9}  {}",
            row.name, row.platform, row.mult_cycles, row.note
        );
    }
    println!(
        "  {:<22} {:<30} {:>9}  our cycle-accurate model",
        "LW (this model)", "simulated Artix-7 @ 100 MHz", measured
    );

    let r = lw.report();
    println!(
        "\ndevice utilization on the XC7A12TL: {:.1}% LUTs, {:.1}% FFs (paper: <7% / <2%)",
        100.0 * r.lut_utilization(),
        100.0 * r.ff_utilization()
    );
    println!(
        "shape check: LW beats RISQ-V by ×{:.1} and the M4 Toom-Cook software by ×{:.1},",
        LIGHTWEIGHT_COMPARISONS[1].mult_cycles as f64 / measured as f64,
        LIGHTWEIGHT_COMPARISONS[2].mult_cycles as f64 / measured as f64,
    );
    println!(
        "and is comparable in cycles to the M4 NTT software — at a fraction of the area/power."
    );
}

fn main() {
    println!("\n=== §5.1 lightweight comparisons ===\n");
    print_comparison();
}
