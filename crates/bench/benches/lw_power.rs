//! **§5 power** — the lightweight multiplier's Artix-7 power story:
//! 0.106 W total, 0.048 W dynamic, 89 % of dynamic power in the IO pins,
//! logic ≈ 0.001 W. Reproduced by feeding the simulator's measured
//! activity into the calibrated activity-based power model.

use saber_bench::tables::canonical_operands;
use saber_core::{HwMultiplier, LightweightMultiplier};
use saber_hw::{Fpga, PowerModel};
use saber_ring::PolyMultiplier;

fn print_power() {
    let (a, s) = canonical_operands();
    let mut hw = LightweightMultiplier::new();
    let _ = hw.multiply(&a, &s);
    let activity = hw.report().activity.expect("LW tracks activity");

    let model = PowerModel::for_platform(Fpga::Artix7);
    let power = model.estimate(&activity, 100.0);

    println!("LW on Artix-7 @ 100 MHz — activity-model estimate vs paper (Vivado):");
    println!("  {:<24} {:>9} {:>9}", "component", "model", "paper");
    println!("  {:<24} {:>8.3}W {:>9}", "static", power.static_w, "—");
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "dynamic: IO", power.io_w, "~0.043W"
    );
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "dynamic: BRAM", power.bram_w, "—"
    );
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "dynamic: logic", power.logic_w, "0.001W"
    );
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "dynamic: clock/regs", power.clock_w, "—"
    );
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "dynamic total",
        power.dynamic_w(),
        "0.048W"
    );
    println!(
        "  {:<24} {:>8.3}W {:>9}",
        "TOTAL",
        power.total_w(),
        "0.106W"
    );
    println!(
        "\n  IO share of dynamic power: {:.0}% (paper: 89% — \"the vast majority … comes from driving the IO pins\")",
        100.0 * power.io_share()
    );
}

fn main() {
    println!("\n=== §5 power breakdown ===\n");
    print_power();
}
