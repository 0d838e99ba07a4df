//! **§5.2 coprocessor projection** — "a complete Saber implementation
//! with any of our high-speed polynomial multipliers would offer better
//! area/performance trade-offs than the implementations in [7, 12]".
//!
//! Drops each multiplier model into the [10]-style coprocessor cost
//! model and compares full-KEM latency, area and the area×time product.

use saber_bench::coprocessor::standard_projections;

fn print_projection() {
    println!(
        "{:<28} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "multiplier", "LUT", "DSP", "keygen", "encaps", "decaps", "enc µs", "LUT·µs"
    );
    println!("{}", "-".repeat(96));
    for p in standard_projections() {
        println!(
            "{:<28} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9.1} {:>12.0}",
            p.multiplier,
            p.area.luts,
            p.area.dsps,
            p.keygen_cycles,
            p.encaps_cycles,
            p.decaps_cycles,
            p.encaps_us(),
            p.area_time_product()
        );
    }
    println!("\n(Saber parameter set; coprocessor surroundings held fixed across rows;");
    println!(" §5.2: any HS multiplier beats the [7]-style coprocessor on area×time.)");
}

fn main() {
    println!("\n=== §5.2 full-coprocessor projection ===\n");
    print_projection();
}
