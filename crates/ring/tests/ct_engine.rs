//! Property battery for the constant-time engine
//! ([`saber_ring::ct::CtSchoolbookMultiplier`], the hot-path engine):
//! bit-exact against the schoolbook oracle across all three Saber
//! parameter-set secret bounds and batch sizes 1/4/16/64, with the
//! batch path identical to the mapped path, and the fold-once
//! `inner_product` identical to the summed oracle products.
//!
//! The adversarial shapes lean on what a *broken* constant-time kernel
//! would get wrong: all-zero secrets (anything with an early exit
//! degenerates here), single-coefficient secrets at every position (the
//! negacyclic wrap and the limb seams 63/64, 127/128 and 191/192 of the
//! Toom-4 split), and saturated operands (evaluations at 3 that wrap
//! mod 2^16, and publics whose four limbs differ).

use saber_ring::{schoolbook, CtSchoolbookMultiplier, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;

/// Secret bounds of LightSaber / Saber / FireSaber.
const BOUNDS: [i8; 3] = [5, 4, 3];

/// Batch sizes the ISSUE pins: single-shot through mat-vec scale.
const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];

fn workload(seed: u64, bound: i8, publics: usize, secrets: usize) -> (Vec<PolyQ>, Vec<SecretPoly>) {
    let mut rng = Rng::new(seed);
    let span = u32::from(2 * bound as u8 + 1);
    let a = (0..publics)
        .map(|_| PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16))
        .collect();
    let s = (0..secrets)
        .map(|_| SecretPoly::from_fn(|_| ((rng.next_u32() % span) as i8) - bound))
        .collect();
    (a, s)
}

#[test]
fn ct_batch_matches_mapped_and_oracle_across_bounds_and_batch_sizes() {
    for (i, bound) in BOUNDS.into_iter().enumerate() {
        for (j, batch) in BATCH_SIZES.into_iter().enumerate() {
            let seed = 0xC7_E9617E ^ ((i as u64) << 8) ^ (j as u64);
            let secrets_n = (batch / 2).max(1); // exercises secret reuse
            let (publics, secrets) = workload(seed, bound, batch, secrets_n);
            let ops: Vec<(&PolyQ, &SecretPoly)> =
                publics.iter().zip(secrets.iter().cycle()).collect();
            let expected: Vec<PolyQ> = ops
                .iter()
                .map(|(a, s)| schoolbook::mul_asym(a, s))
                .collect();
            let mut batch_shard = CtSchoolbookMultiplier::new();
            assert_eq!(
                batch_shard.multiply_batch(&ops),
                expected,
                "ct batch path, bound {bound}, batch {batch}"
            );
            let mut mapped_shard = CtSchoolbookMultiplier::new();
            let mapped: Vec<PolyQ> = ops
                .iter()
                .map(|(a, s)| mapped_shard.multiply(a, s))
                .collect();
            assert_eq!(
                mapped, expected,
                "ct mapped path, bound {bound}, batch {batch}"
            );
        }
    }
}

#[test]
fn ct_engine_handles_adversarial_secret_shapes() {
    let mut engine = CtSchoolbookMultiplier::new();
    let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(2741) & 0x1fff);
    let mut shapes: Vec<SecretPoly> = vec![
        SecretPoly::zero(),
        SecretPoly::from_fn(|i| if i == 0 { 5 } else { 0 }),
        SecretPoly::from_fn(|i| if i == 255 { -5 } else { 0 }),
        SecretPoly::from_fn(|_| 5),
        SecretPoly::from_fn(|_| -5),
        SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 }),
    ];
    for bound in BOUNDS {
        shapes.push(SecretPoly::from_fn(|i| {
            let span = 2 * bound as usize + 1;
            (((i * 13) % span) as i8) - bound
        }));
    }
    for s in &shapes {
        assert_eq!(
            engine.multiply(&a, s),
            schoolbook::mul_asym(&a, s),
            "shape with support {}",
            s.iter().filter(|&&c| c != 0).count()
        );
    }
}

#[test]
fn ct_engine_state_does_not_bleed_between_calls() {
    // The engine holds no state between calls: its arenas live on the
    // stack of each call. Interleave dense and zero secrets and re-check
    // against fresh-engine results, so state added later cannot leak
    // one product into the next.
    let mut rng = Rng::new(0x5C7A7E);
    let mut reused = CtSchoolbookMultiplier::new();
    for round in 0..12 {
        let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
        let s = if round % 3 == 2 {
            SecretPoly::zero()
        } else {
            SecretPoly::from_fn(|_| rng.secret_coeff(5))
        };
        let mut fresh = CtSchoolbookMultiplier::new();
        assert_eq!(
            reused.multiply(&a, &s),
            fresh.multiply(&a, &s),
            "round {round}"
        );
    }
}

fn summed_oracle(pairs: &[(&PolyQ, &SecretPoly)]) -> PolyQ {
    let mut acc = PolyQ::zero();
    for (a, s) in pairs {
        acc += &schoolbook::mul_asym(a, s);
    }
    acc
}

#[test]
fn inner_product_equals_summed_oracle_for_zero_to_four_pairs() {
    // Zero pairs must give the zero polynomial.
    let mut engine = CtSchoolbookMultiplier::new();
    for (i, bound) in BOUNDS.into_iter().enumerate() {
        for len in 0..=4 {
            for case in 0..4u64 {
                let seed = 0x019E_7A0D ^ ((i as u64) << 16) ^ ((len as u64) << 8) ^ case;
                let (publics, secrets) = workload(seed, bound, len, len);
                let pairs: Vec<(&PolyQ, &SecretPoly)> = publics.iter().zip(&secrets).collect();
                assert_eq!(
                    engine.inner_product(&pairs),
                    summed_oracle(&pairs),
                    "bound {bound}, {len} pairs, case {case}"
                );
            }
        }
    }
}

#[test]
fn saturated_operands_stay_exact() {
    // The all-0x1fff public evaluates to 40·0x1fff at 3, which wraps mod
    // 2^16; the second public has four unequal limbs (0x1fff, 0, 0x1fff,
    // 1). Each secret saturates the bound in every lane: all +5, all -5,
    // alternating, and limb by limb (+5, -5, +5, -5), which makes
    // s(1) = 0 and s(-1) = 20 in every lane.
    let publics = [
        PolyQ::from_fn(|_| 0x1fff),
        PolyQ::from_fn(|i| [0x1fff, 0, 0x1fff, 1][i / 64]),
    ];
    let secrets = [
        SecretPoly::from_fn(|_| 5),
        SecretPoly::from_fn(|_| -5),
        SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 }),
        SecretPoly::from_fn(|i| if i % 128 < 64 { 5 } else { -5 }),
    ];
    let mut engine = CtSchoolbookMultiplier::new();
    for a in &publics {
        for s in &secrets {
            assert_eq!(engine.multiply(a, s), schoolbook::mul_asym(a, s));
        }
        for len in 1..=4 {
            for s in &secrets {
                let pairs = vec![(a, s); len];
                assert_eq!(
                    engine.inner_product(&pairs),
                    summed_oracle(&pairs),
                    "{len} pairs"
                );
            }
        }
    }
}

#[test]
fn basis_sweep_covers_every_position_and_value() {
    // 256 positions × 11 values = 2,816 products: the negacyclic wrap at
    // 255 and the limb seams 63/64, 127/128 and 191/192 included.
    let mut rng = Rng::new(0xBA515);
    let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
    let mut engine = CtSchoolbookMultiplier::new();
    for position in 0..256 {
        for value in -5i8..=5 {
            let s = SecretPoly::from_fn(|i| if i == position { value } else { 0 });
            assert_eq!(
                engine.multiply(&a, &s),
                schoolbook::mul_asym(&a, &s),
                "position {position}, value {value}"
            );
        }
    }
}

#[test]
fn multiply_is_the_inner_product_of_one_pair() {
    let mut engine = CtSchoolbookMultiplier::new();
    for (i, bound) in BOUNDS.into_iter().enumerate() {
        let (publics, secrets) = workload(0x9A1E ^ i as u64, bound, 8, 8);
        for (a, s) in publics.iter().zip(&secrets) {
            assert_eq!(engine.multiply(a, s), engine.inner_product(&[(a, s)]));
        }
    }
}
