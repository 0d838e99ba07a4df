//! Cross-crate integration: every multiplier backend in the workspace —
//! four software algorithms and six cycle-accurate hardware models —
//! must compute identical products, every backend's `multiply_batch`
//! must equal the mapped `multiply`, and every backend's `inner_product`
//! must equal the summed `multiply`.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest).

use saber::arch::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, LightweightMultiplier,
    MemoryStrategy, ScaledLightweightMultiplier,
};
use saber::ring::mul::{KaratsubaMultiplier, SchoolbookMultiplier, ToomCook4Multiplier};
use saber::ring::{CtSchoolbookMultiplier, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::{cases, Rng};

fn rand_poly(rng: &mut Rng) -> PolyQ {
    PolyQ::from_fn(|_| rng.range_u16(0, 8191))
}

/// Saber-range secrets (|s| ≤ 4) — accepted by every backend including
/// the DSP-packed HS-II.
fn rand_saber_secret(rng: &mut Rng) -> SecretPoly {
    SecretPoly::from_fn(|_| rng.secret_coeff(4))
}

/// LightSaber-range secrets (|s| ≤ 5) — all backends except HS-II.
fn rand_lightsaber_secret(rng: &mut Rng) -> SecretPoly {
    SecretPoly::from_fn(|_| rng.secret_coeff(5))
}

fn saber_range_backends() -> Vec<Box<dyn PolyMultiplier>> {
    vec![
        Box::new(KaratsubaMultiplier { levels: 8 }),
        Box::new(ToomCook4Multiplier),
        Box::new(CtSchoolbookMultiplier::new()),
        Box::new(BaselineMultiplier::new(256)),
        Box::new(BaselineMultiplier::new(512)),
        Box::new(CentralizedMultiplier::new(256)),
        Box::new(CentralizedMultiplier::new(512)),
        Box::new(DspPackedMultiplier::new()),
        Box::new(LightweightMultiplier::new()),
        Box::new(ScaledLightweightMultiplier::new(
            16,
            MemoryStrategy::WiderBus,
        )),
    ]
}

#[test]
fn all_backends_agree_on_saber_range() {
    for mut rng in cases(24) {
        let a = rand_poly(&mut rng);
        let s = rand_saber_secret(&mut rng);
        let expected = SchoolbookMultiplier.multiply(&a, &s);
        for backend in saber_range_backends().iter_mut() {
            let product = backend.multiply(&a, &s);
            assert_eq!(
                product.coeffs(),
                expected.coeffs(),
                "backend {} disagrees, case seed {}",
                backend.name(),
                rng.seed()
            );
        }
    }
}

#[test]
fn lightsaber_range_backends_agree() {
    // Hardware HS-II excluded: its 15-bit packing requires |s| ≤ 4
    // (§3.2).
    for mut rng in cases(24) {
        let a = rand_poly(&mut rng);
        let s = rand_lightsaber_secret(&mut rng);
        let expected = SchoolbookMultiplier.multiply(&a, &s);
        let mut backends: Vec<Box<dyn PolyMultiplier>> = vec![
            Box::new(ToomCook4Multiplier),
            Box::new(CtSchoolbookMultiplier::new()),
            Box::new(CentralizedMultiplier::new(512)),
            Box::new(LightweightMultiplier::new()),
        ];
        for backend in backends.iter_mut() {
            let product = backend.multiply(&a, &s);
            assert_eq!(
                product.coeffs(),
                expected.coeffs(),
                "backend {} disagrees, case seed {}",
                backend.name(),
                rng.seed()
            );
        }
    }
}

/// The batch entry point must be extensionally equal to the mapped
/// per-call path for EVERY backend.
#[test]
fn multiply_batch_equals_mapped_multiply_for_every_backend() {
    for mut rng in cases(8) {
        // A mat-vec-shaped batch: 3 distinct secrets, each paired with
        // 3 distinct publics (so the batch has repeated-secret
        // structure).
        let secrets: Vec<SecretPoly> = (0..3).map(|_| rand_saber_secret(&mut rng)).collect();
        let publics: Vec<PolyQ> = (0..9).map(|_| rand_poly(&mut rng)).collect();
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .enumerate()
            .map(|(i, a)| (a, &secrets[i % 3]))
            .collect();
        for backend in saber_range_backends().iter_mut() {
            let batched = backend.multiply_batch(&ops);
            let mapped: Vec<PolyQ> = ops.iter().map(|(a, s)| backend.multiply(a, s)).collect();
            assert_eq!(
                batched,
                mapped,
                "backend {} batch/mapped mismatch, case seed {}",
                backend.name(),
                rng.seed()
            );
        }
    }
}

/// `inner_product` must equal the summed per-call products for EVERY
/// backend: the default sums `multiply_batch`, and the constant-time
/// engine overrides it with its fold-once kernel. Zero pairs give the
/// zero polynomial.
#[test]
fn inner_product_equals_summed_multiply_for_every_backend() {
    for mut rng in cases(4) {
        let secrets: Vec<SecretPoly> = (0..4).map(|_| rand_saber_secret(&mut rng)).collect();
        let publics: Vec<PolyQ> = (0..4).map(|_| rand_poly(&mut rng)).collect();
        let pairs: Vec<(&PolyQ, &SecretPoly)> = publics.iter().zip(&secrets).collect();
        for backend in saber_range_backends().iter_mut() {
            for len in 0..=pairs.len() {
                let mut summed = PolyQ::zero();
                for (a, s) in &pairs[..len] {
                    summed += &backend.multiply(a, s);
                }
                assert_eq!(
                    backend.inner_product(&pairs[..len]),
                    summed,
                    "backend {}, {len} pairs, case seed {}",
                    backend.name(),
                    rng.seed()
                );
            }
        }
    }
}

#[test]
fn empty_batch_is_empty() {
    for backend in saber_range_backends().iter_mut() {
        assert!(
            backend.multiply_batch(&[]).is_empty(),
            "backend {}",
            backend.name()
        );
    }
}

#[test]
fn adversarial_operands() {
    // Deterministic corner cases across the hardware models and the
    // hot-path engine.
    let cases: Vec<(PolyQ, SecretPoly)> = vec![
        (PolyQ::zero(), SecretPoly::zero()),
        (PolyQ::from_fn(|_| 8191), SecretPoly::from_fn(|_| 4)),
        (PolyQ::from_fn(|_| 8191), SecretPoly::from_fn(|_| -4)),
        (
            PolyQ::from_fn(|i| if i == 255 { 8191 } else { 0 }),
            SecretPoly::from_fn(|i| if i == 255 { -4 } else { 0 }),
        ),
        (
            PolyQ::from_fn(|i| if i % 2 == 0 { 8191 } else { 1 }),
            SecretPoly::from_fn(|i| if i % 2 == 0 { 4 } else { -4 }),
        ),
    ];
    for (idx, (a, s)) in cases.iter().enumerate() {
        let expected = SchoolbookMultiplier.multiply(a, s);
        let mut backends: Vec<Box<dyn PolyMultiplier>> = vec![
            Box::new(CtSchoolbookMultiplier::new()),
            Box::new(CentralizedMultiplier::new(256)),
            Box::new(DspPackedMultiplier::new()),
            Box::new(LightweightMultiplier::new()),
        ];
        for backend in backends.iter_mut() {
            assert_eq!(
                backend.multiply(a, s),
                expected,
                "case {idx}, backend {}",
                backend.name()
            );
        }
    }
}
