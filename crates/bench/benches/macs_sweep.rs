//! **§4.2 trade-off sweep** — lightweight variants with 4/8/16 MACs and
//! the two memory strategies the paper sketches (accumulator buffer vs
//! wider bus): cycle count roughly halves/quarters while LUTs grow only
//! mildly.

use saber_bench::tables::canonical_operands;
use saber_core::{HwMultiplier, MemoryStrategy, ScaledLightweightMultiplier};
use saber_ring::PolyMultiplier;

fn variants() -> Vec<ScaledLightweightMultiplier> {
    vec![
        ScaledLightweightMultiplier::new(4, MemoryStrategy::DirectStream),
        ScaledLightweightMultiplier::new(8, MemoryStrategy::AccumulatorBuffer),
        ScaledLightweightMultiplier::new(8, MemoryStrategy::WiderBus),
        ScaledLightweightMultiplier::new(16, MemoryStrategy::AccumulatorBuffer),
        ScaledLightweightMultiplier::new(16, MemoryStrategy::WiderBus),
    ]
}

fn print_sweep() {
    let (a, s) = canonical_operands();
    println!(
        "{:<38} {:>9} {:>8} {:>7} {:>6} {:>6}  vs 4-MAC",
        "variant", "cycles", "LUT", "FF", "BRAM", "DSP"
    );
    println!("{}", "-".repeat(92));
    let mut base_total = 0u64;
    for mut hw in variants() {
        let _ = hw.multiply(&a, &s);
        let r = hw.report();
        if base_total == 0 {
            base_total = r.cycles.total();
        }
        println!(
            "{:<38} {:>9} {:>8} {:>7} {:>6} {:>6}  ×{:.2}",
            r.name,
            r.cycles.total(),
            r.area.luts,
            r.area.ffs,
            r.area.brams,
            r.area.dsps,
            r.cycles.total() as f64 / base_total as f64
        );
    }
    println!("\npaper §4.2: 8/16 MACs ⇒ \"about a half or a quarter of the current cycle count\",");
    println!("with \"only minor consequences on the LUTs requirements\".");
}

fn main() {
    println!("\n=== §4.2 MAC-count design space ===\n");
    print_sweep();
}
