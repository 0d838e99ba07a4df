//! Property-based tests across the architecture models: oracle
//! agreement on adversarial distributions and at the negacyclic
//! boundary, data-independent schedules, and HS-I scaling to 1024 MACs.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest).

use saber_core::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier};
use saber_ring::{schoolbook, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::{cases, Rng};

const CASES: usize = 16;

fn rand_poly(rng: &mut Rng) -> PolyQ {
    PolyQ::from_fn(|_| rng.range_u16(0, 8191))
}

/// Sparse polynomials stress the wrap/sign paths differently from dense
/// ones.
fn rand_sparse_poly(rng: &mut Rng) -> PolyQ {
    let mut p = PolyQ::zero();
    for _ in 0..rng.range_usize(0, 7) {
        let i = rng.range_usize(0, 255);
        p.set_coeff(i, rng.range_u16(0, 8191));
    }
    p
}

fn rand_secret(rng: &mut Rng, bound: i8) -> SecretPoly {
    SecretPoly::from_fn(|_| rng.secret_coeff(bound))
}

#[test]
fn hs2_agrees_on_sparse_adversaries() {
    for mut rng in cases(CASES) {
        let a = rand_sparse_poly(&mut rng);
        let s = rand_secret(&mut rng, 4);
        let mut hw = DspPackedMultiplier::new();
        assert_eq!(
            hw.multiply(&a, &s),
            schoolbook::mul_asym(&a, &s),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn lw_agrees_on_sparse_adversaries() {
    for mut rng in cases(CASES) {
        let a = rand_sparse_poly(&mut rng);
        let s = rand_secret(&mut rng, 5);
        let mut hw = LightweightMultiplier::new();
        assert_eq!(
            hw.multiply(&a, &s),
            schoolbook::mul_asym(&a, &s),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn schedules_are_data_independent() {
    // Constant-time property: the cycle count must not depend on the
    // operand values for any architecture.
    let reference = {
        let mut hw = DspPackedMultiplier::new();
        let _ = hw.multiply(&PolyQ::zero(), &SecretPoly::zero());
        hw.report().cycles
    };
    let lw_reference = {
        let mut hw = LightweightMultiplier::new();
        let _ = hw.multiply(&PolyQ::zero(), &SecretPoly::zero());
        hw.report().cycles
    };
    for mut rng in cases(CASES) {
        let a = rand_poly(&mut rng);
        let s = rand_secret(&mut rng, 4);
        let mut hw = DspPackedMultiplier::new();
        let _ = hw.multiply(&a, &s);
        assert_eq!(hw.report().cycles, reference, "case seed {}", rng.seed());

        let mut lw = LightweightMultiplier::new();
        let _ = lw.multiply(&a, &s);
        assert_eq!(lw.report().cycles, lw_reference, "case seed {}", rng.seed());
    }
}

#[test]
fn negacyclic_boundary_battery() {
    // Targeted wraparound cases for every architecture: monomials at the
    // very top of the ring interacting with top secret positions.
    let mut cases = Vec::new();
    for ai in [0usize, 1, 254, 255] {
        for si in [0usize, 1, 254, 255] {
            let mut a = PolyQ::zero();
            a.set_coeff(ai, 8191);
            let s = SecretPoly::from_fn(|k| if k == si { -4 } else { 0 });
            cases.push((a, s));
        }
    }
    for (a, s) in &cases {
        let expected = schoolbook::mul_asym(a, s);
        assert_eq!(
            DspPackedMultiplier::new().multiply(a, s),
            expected,
            "HS-II boundary"
        );
        assert_eq!(
            LightweightMultiplier::new().multiply(a, s),
            expected,
            "LW boundary"
        );
        assert_eq!(
            CentralizedMultiplier::new(1024).multiply(a, s),
            expected,
            "HS-I 1024 boundary"
        );
    }
}

#[test]
fn hs1_1024_reaches_64_cycles() {
    // §3.1's scaling argument, one step beyond the paper's tables.
    let a = PolyQ::from_fn(|i| i as u16);
    let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
    let mut hw = CentralizedMultiplier::new(1024);
    let _ = hw.multiply(&a, &s);
    assert_eq!(hw.report().cycles.compute_cycles, 64);
    // Area roughly doubles vs 512 — the trade continues linearly.
    let lut_512 = CentralizedMultiplier::new(512).area().luts as f64;
    let lut_1024 = hw.area().luts as f64;
    assert!((lut_1024 / lut_512 - 2.0).abs() < 0.2);
}
