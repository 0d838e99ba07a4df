//! Quickstart: multiply one Saber polynomial pair on every architecture.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Every multiplier — two software baselines and six cycle-accurate
//! hardware models — computes the schoolbook product; the hardware models
//! additionally report their Table-1 row (cycles, LUT/FF/DSP, estimated
//! clock).

use saber::arch::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber::ring::mul::{KaratsubaMultiplier, SchoolbookMultiplier, ToomCook4Multiplier};
use saber::ring::{PolyMultiplier, PolyQ, SecretPoly};

fn main() {
    // A Saber-shaped multiplication: 13-bit public operand, small secret.
    let public = PolyQ::from_fn(|i| ((i as u16).wrapping_mul(2718) ^ 0x0aaa) & 0x1fff);
    let secret = SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4);

    // Software baselines all agree with the schoolbook oracle.
    let mut oracle = SchoolbookMultiplier;
    let expected = oracle.multiply(&public, &secret);
    println!("software baselines:");
    let mut software: Vec<Box<dyn PolyMultiplier>> = vec![
        Box::new(KaratsubaMultiplier { levels: 8 }),
        Box::new(ToomCook4Multiplier),
    ];
    for backend in software.iter_mut() {
        let ok = backend.multiply(&public, &secret) == expected;
        println!(
            "  {:<28} product {}",
            backend.name(),
            if ok { "✓" } else { "✗" }
        );
        assert!(ok);
    }

    // Hardware models: same product, plus their Table-1 rows.
    println!("\nhardware architectures (DAC 2021):");
    let mut hardware: Vec<Box<dyn HwMultiplier>> = vec![
        Box::new(BaselineMultiplier::new(256)),
        Box::new(BaselineMultiplier::new(512)),
        Box::new(CentralizedMultiplier::new(256)),
        Box::new(CentralizedMultiplier::new(512)),
        Box::new(DspPackedMultiplier::new()),
        Box::new(LightweightMultiplier::new()),
    ];
    for hw in hardware.iter_mut() {
        let product = hw.multiply(&public, &secret);
        assert_eq!(product, expected, "{} disagrees with schoolbook", hw.name());
        println!("  {}", hw.report());
    }

    println!("\nall eight multipliers computed the identical product.");
}
