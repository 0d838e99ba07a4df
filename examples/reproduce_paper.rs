//! One command, the whole evaluation: prints every headline number of
//! the paper next to this workspace's measured/modeled counterpart.
//!
//! ```sh
//! cargo run --release --example reproduce_paper
//! ```
//!
//! (The `saber-bench` bench targets print each table in full, one
//! target per table or figure; this binary is the quick look.)

use saber::arch::{CentralizedMultiplier, HwMultiplier, LightweightMultiplier};
use saber::hw::{Fpga, PowerModel};
use saber::kem::cost::{encaps_cost, CostModel};
use saber::kem::params::{ALL_PARAMS, SABER};
use saber::ring::{PolyMultiplier, PolyQ, SecretPoly};
use saber_bench::coprocessor::standard_projections;
use saber_bench::tables::format_table1;

fn operands() -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(2718) & 0x1fff),
        SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4),
    )
}

fn main() {
    println!("==========================================================");
    println!(" Basso & Sinha Roy, DAC 2021 — reproduction summary");
    println!("==========================================================\n");

    // Table 1.
    println!("{}", format_table1());

    // §4.1 schedule numbers.
    let (a, s) = operands();
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    let lwc = lw.report().cycles;
    let mut hs = CentralizedMultiplier::new(512);
    let _ = hs.multiply(&a, &s);
    let hsc = hs.report().cycles;
    println!(
        "§4.1 — LW: {} compute + {} memory = {} (paper: 16 384 + 3 087 = 19 471)",
        lwc.compute_cycles,
        lwc.memory_overhead_cycles,
        lwc.total()
    );
    println!("§4.1 — HS-512 with memory: {} (paper: 213)\n", hsc.total());

    // §1 motivation.
    println!("§1 motivation — multiplication share (256-cycle multiplier):");
    let model = CostModel::high_speed();
    for params in &ALL_PARAMS {
        println!(
            "  {:<12} {:>4.0}%   (paper: \"up to 56%\")",
            params.name,
            100.0 * encaps_cost(params, &model).multiplication_share()
        );
    }

    // §5 power.
    let activity = lw.report().activity.expect("LW tracks activity");
    let power = PowerModel::for_platform(Fpga::Artix7).estimate(&activity, 100.0);
    println!(
        "\n§5 power — LW @ 100 MHz: {:.3} W total, {:.3} W dynamic, {:.0}% IO, {:.3} W logic",
        power.total_w(),
        power.dynamic_w(),
        100.0 * power.io_share(),
        power.logic_w
    );
    println!("          (paper: 0.106 W, 0.048 W, 89%, 0.001 W)\n");

    // §5.2 coprocessor projection.
    println!("§5.2 — full-coprocessor projection (Saber, per multiplier):");
    for p in standard_projections() {
        println!(
            "  {:<28} {:>7} LUT {:>4} DSP   encaps {:>7} cy ({:.1} µs)",
            p.multiplier,
            p.area.luts,
            p.area.dsps,
            p.encaps_cycles,
            p.encaps_us()
        );
    }

    // Device-capacity sanity (why LW goes on the Artix-7).
    println!(
        "\nplatform fits — LW on XC7A12TL: {} | HS-I 256 on XC7A12TL: {} | all on XCZU9EG: {}",
        lw.report().fits(Fpga::Artix7),
        {
            let mut h = CentralizedMultiplier::new(256);
            let _ = h.multiply(&operands().0, &operands().1);
            h.report().fits(Fpga::Artix7)
        },
        hs.report().fits(Fpga::UltrascalePlus),
    );
    let _ = SABER; // anchor the default parameter set in the imports

    println!("\nsee EXPERIMENTS.md for the full paper-vs-measured record.");
}
