//! **§1 motivation** — "polynomial multiplication takes up to 56 % of
//! the overall computation time" (citing the \[10\] coprocessor).
//!
//! Uses the structural cost model of `saber-kem::cost` to decompose each
//! KEM operation's cycle budget per parameter set and multiplier, and
//! cross-checks it against a component-measured keygen.

use saber_bench::simulated::simulate_keygen;
use saber_core::CentralizedMultiplier;
use saber_kem::cost::{decaps_cost, encaps_cost, keygen_cost, CostModel};
use saber_kem::params::ALL_PARAMS;

fn print_breakdown() {
    println!("multiplication share of the modeled coprocessor cycle budget:");
    println!(
        "  {:<12} {:>10} {:>10} {:>10}   (multiplier: 256-cycle HS)",
        "params", "keygen", "encaps", "decaps"
    );
    let model = CostModel::high_speed();
    for params in &ALL_PARAMS {
        let kg = keygen_cost(params, &model);
        let enc = encaps_cost(params, &model);
        let dec = decaps_cost(params, &model);
        println!(
            "  {:<12} {:>9.0}% {:>9.0}% {:>9.0}%",
            params.name,
            100.0 * kg.multiplication_share(),
            100.0 * enc.multiplication_share(),
            100.0 * dec.multiplication_share()
        );
    }
    println!("\n  paper §1 (citing [10]): \"up to 56% of the overall computation time\"");

    // Detailed Saber-encaps segment table.
    let enc = encaps_cost(&saber_kem::params::SABER, &model);
    println!(
        "\nSaber encapsulation budget ({} modeled cycles):",
        enc.total()
    );
    for seg in &enc.segments {
        println!(
            "  {:<34} {:>7} cycles ({:>4.1}%)",
            seg.name,
            seg.cycles,
            100.0 * seg.cycles as f64 / enc.total() as f64
        );
    }

    // With the lightweight multiplier the share explodes — the reason a
    // faster multiplier matters so much.
    let lw_model = CostModel::high_speed().with_mult_cycles(19_471);
    let lw_share = encaps_cost(&saber_kem::params::SABER, &lw_model).multiplication_share();
    println!(
        "\nwith the 19,471-cycle LW multiplier the share rises to {:.0}% — the motivation in reverse.",
        100.0 * lw_share
    );

    // Cross-check the analytic model against the component-measured
    // keygen (Keccak core + sampler core + HS-I multiplier simulation).
    let mut hw = CentralizedMultiplier::new(256);
    let measured = simulate_keygen(&saber_kem::params::SABER, &[1; 32], &[2; 32], &mut hw);
    let analytic_keygen = keygen_cost(&saber_kem::params::SABER, &model);
    println!("\nanalytic vs component-measured Saber keygen:");
    println!(
        "  matrix + sampling: analytic {:>6} vs measured {:>6} cycles",
        analytic_keygen
            .segments
            .iter()
            .filter(|s| s.name.contains("SHAKE"))
            .map(|s| s.cycles)
            .sum::<u64>(),
        measured.matrix.total() + measured.sampling.total()
    );
    println!(
        "  multiplications:   analytic {:>6} vs measured {:>6} cycles",
        analytic_keygen
            .segments
            .iter()
            .filter(|s| s.name.contains("multiplications"))
            .map(|s| s.cycles)
            .sum::<u64>(),
        measured.multiplication_cycles
    );
}

fn main() {
    println!("\n=== §1 motivation: multiplication share of Saber ===\n");
    print_breakdown();
}
