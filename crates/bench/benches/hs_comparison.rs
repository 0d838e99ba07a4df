//! **§5.2 high-speed comparisons** — the claimed LUT reductions against
//! the re-implemented \[10\] baselines (−22 %, −24 %, −46 %), the
//! DSP-efficiency argument against Dang et al. \[12\] (half the DSPs,
//! twice the performance, 4 coefficient products per DSP per cycle), and
//! the clock-frequency contrast with the Karatsuba design \[11\].

use saber_bench::literature::high_speed;
use saber_bench::tables::canonical_operands;
use saber_core::{BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier};
use saber_ring::{karatsuba, PolyMultiplier};

fn print_lut_reductions() {
    let (a, s) = canonical_operands();
    let lut = |hw: &mut dyn HwMultiplier| {
        let _ = hw.multiply(&a, &s);
        hw.report().area.luts as f64
    };
    let base256 = lut(&mut BaselineMultiplier::new(256));
    let base512 = lut(&mut BaselineMultiplier::new(512));
    let hs1_256 = lut(&mut CentralizedMultiplier::new(256));
    let hs1_512 = lut(&mut CentralizedMultiplier::new(512));
    let hs2 = lut(&mut DspPackedMultiplier::new());

    println!("LUT reductions vs the [10] baselines (model vs paper §5.2):");
    println!("  {:<26} {:>9} {:>9}", "comparison", "model", "paper");
    let rows = [
        (
            "HS-I 256 vs [10] 256",
            1.0 - hs1_256 / base256,
            high_speed::CLAIMED_LUT_REDUCTIONS[0].0,
        ),
        (
            "HS-I 512 vs [10] 512",
            1.0 - hs1_512 / base512,
            high_speed::CLAIMED_LUT_REDUCTIONS[1].0,
        ),
        (
            "HS-II vs [10] 512",
            1.0 - hs2 / base512,
            high_speed::CLAIMED_LUT_REDUCTIONS[2].0,
        ),
    ];
    for (name, model, paper) in rows {
        println!(
            "  {:<26} {:>8.0}% {:>8.0}%",
            name,
            100.0 * model,
            100.0 * paper
        );
    }

    println!(
        "\n  HS-I 512 vs [10] 256: ×{:.2} LUTs for ×2 speed (paper: ~+27% LUTs)",
        hs1_512 / base256
    );
}

fn print_dsp_efficiency() {
    let (a, s) = canonical_operands();
    let mut hs2 = DspPackedMultiplier::new();
    let _ = hs2.multiply(&a, &s);
    let r = hs2.report();
    println!("\nDSP efficiency vs Dang et al. [12]:");
    println!(
        "  {:<22} {:>8} {:>8} {:>22}",
        "design", "DSPs", "cycles", "coeff-mults/DSP/cycle"
    );
    println!(
        "  {:<22} {:>8} {:>8} {:>22}",
        "[12] (1 mult/DSP)",
        high_speed::DANG_DSPS,
        high_speed::DANG_CYCLES,
        1
    );
    println!(
        "  {:<22} {:>8} {:>8} {:>22}",
        "HS-II (packed)", r.area.dsps, r.cycles.compute_cycles, 4
    );
    println!(
        "  ⇒ half the DSPs ({} vs {}), ~twice the speed ({} vs {} cycles)",
        r.area.dsps,
        high_speed::DANG_DSPS,
        r.cycles.compute_cycles,
        high_speed::DANG_CYCLES
    );
}

fn print_karatsuba_contrast() {
    println!("\nKaratsuba [11] contrast (§5.2):");
    println!(
        "  [11] runs at {} MHz vs our 250 MHz; its 8-level Karatsuba trades a long pre/post",
        high_speed::ZHU_CLOCK_MHZ
    );
    println!(
        "  add network ({} base mults vs schoolbook's {}) for a low cycle count.",
        karatsuba::base_multiplications(8),
        256 * 256
    );
}

fn main() {
    println!("\n=== §5.2 high-speed comparisons ===\n");
    print_lut_reductions();
    print_dsp_efficiency();
    print_karatsuba_contrast();
}
