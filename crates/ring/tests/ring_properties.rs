//! Property-based tests for the ring substrate: algebraic laws, multiplier
//! cross-agreement, and serialization roundtrips.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest); every failure message carries the case
//! seed needed to replay it.

use saber_ring::{
    karatsuba, modulus::N, packing, rounding, schoolbook, toom, Poly, PolyP, PolyQ, SecretPoly,
};
use saber_testkit::{cases, Rng};

const CASES: usize = 64;

fn rand_poly_q(rng: &mut Rng) -> PolyQ {
    PolyQ::from_fn(|_| rng.range_u16(0, 8191))
}

fn rand_poly_p(rng: &mut Rng) -> PolyP {
    PolyP::from_fn(|_| rng.range_u16(0, 1023))
}

fn rand_secret(rng: &mut Rng) -> SecretPoly {
    SecretPoly::from_fn(|_| rng.secret_coeff(5))
}

#[test]
fn addition_commutes() {
    for mut rng in cases(CASES) {
        let (a, b) = (rand_poly_q(&mut rng), rand_poly_q(&mut rng));
        assert_eq!(&a + &b, &b + &a, "case seed {}", rng.seed());
    }
}

#[test]
fn addition_associates() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let b = rand_poly_q(&mut rng);
        let c = rand_poly_q(&mut rng);
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c), "case seed {}", rng.seed());
    }
}

#[test]
fn multiplication_distributes() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let b = rand_poly_q(&mut rng);
        let s = rand_secret(&mut rng);
        let lhs = schoolbook::mul_asym(&(&a + &b), &s);
        let rhs = &schoolbook::mul_asym(&a, &s) + &schoolbook::mul_asym(&b, &s);
        assert_eq!(lhs, rhs, "case seed {}", rng.seed());
    }
}

#[test]
fn symmetric_multiplication_commutes() {
    for mut rng in cases(CASES) {
        let (a, b) = (rand_poly_q(&mut rng), rand_poly_q(&mut rng));
        assert_eq!(
            schoolbook::mul(&a, &b),
            schoolbook::mul(&b, &a),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn mul_by_x_agrees_with_monomial_product() {
    let x = SecretPoly::from_fn(|i| i8::from(i == 1));
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        assert_eq!(
            schoolbook::mul_asym(&a, &x),
            a.mul_by_x(),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn karatsuba_matches_schoolbook() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let s = rand_secret(&mut rng);
        let levels = rng.range_usize(0, 8) as u32;
        assert_eq!(
            karatsuba::mul_asym(&a, &s, levels),
            schoolbook::mul_asym(&a, &s),
            "levels {levels}, case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn toom_matches_schoolbook() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let s = rand_secret(&mut rng);
        assert_eq!(
            toom::mul_asym(&a, &s),
            schoolbook::mul_asym(&a, &s),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn toom_symmetric_matches_schoolbook() {
    for mut rng in cases(CASES) {
        let (a, b) = (rand_poly_q(&mut rng), rand_poly_q(&mut rng));
        assert_eq!(
            toom::mul(&a, &b),
            schoolbook::mul(&a, &b),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn mod_p_reduction_commutes_with_multiplication() {
    // (a·s mod q) mod p == (a mod p)·s mod p — the property that lets
    // the 13-bit hardware datapath serve mod-p multiplications.
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let s = rand_secret(&mut rng);
        let wide = schoolbook::mul_asym(&a, &s).reduce_to::<10>();
        let narrow =
            schoolbook::mul_asym(&a.reduce_to::<10>().embed_to::<13>(), &s).reduce_to::<10>();
        assert_eq!(wide, narrow, "case seed {}", rng.seed());
    }
}

#[test]
fn poly_byte_roundtrip() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        assert_eq!(
            packing::poly_from_bytes::<13>(&packing::poly_to_bytes(&a)),
            a,
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn poly10_byte_roundtrip() {
    for mut rng in cases(CASES) {
        let a = rand_poly_p(&mut rng);
        assert_eq!(
            packing::poly_from_bytes::<10>(&packing::poly_to_bytes(&a)),
            a,
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn word_image_roundtrip() {
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let words = packing::poly13_to_words(&a);
        assert_eq!(words.len(), 52);
        assert_eq!(
            packing::poly13_from_words(&words),
            a,
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn secret_word_image_roundtrip() {
    for mut rng in cases(CASES) {
        let s = rand_secret(&mut rng);
        let words = packing::secret_to_words(&s);
        assert_eq!(
            packing::secret_from_words(&words).unwrap(),
            s,
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn rounding_error_is_bounded() {
    // |a − 8·round(a)| ≤ 4 (mod q, centered).
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let down: PolyP = rounding::scale_round(&a);
        let back: PolyQ = down.shift_up_to::<13>();
        let diff = &a - &back;
        for i in 0..N {
            let err = diff.coeff_centered(i);
            assert!(
                err.abs() <= 4,
                "coefficient {i} error {err}, case seed {}",
                rng.seed()
            );
        }
    }
}

#[test]
fn negacyclic_shift_preserves_products() {
    // (x·a)·s == x·(a·s).
    for mut rng in cases(CASES) {
        let a = rand_poly_q(&mut rng);
        let s = rand_secret(&mut rng);
        let lhs = schoolbook::mul_asym(&a.mul_by_x(), &s);
        let rhs = schoolbook::mul_asym(&a, &s).mul_by_x();
        assert_eq!(lhs, rhs, "case seed {}", rng.seed());
    }
}

#[test]
fn message_poly_roundtrip() {
    for mut rng in cases(CASES) {
        let msg = rng.bytes32();
        let poly: Poly<1> = packing::message_to_poly(&msg);
        assert_eq!(
            packing::poly_to_message(&poly),
            msg,
            "case seed {}",
            rng.seed()
        );
    }
}
