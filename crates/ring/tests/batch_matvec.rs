//! Regression coverage for the matrix–vector path: routing `mul_vec` /
//! `mul_vec_transposed` / `inner_product_mod_p` through one
//! `PolyMultiplier::inner_product` call per output must not change any
//! result, for any rank Saber uses (2, 3, 4), for a backend that keeps
//! the default (which sums `multiply_batch`) and for the constant-time
//! engine's fold-once override.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest).

use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::{
    schoolbook, CtSchoolbookMultiplier, PolyMatrix, PolyMultiplier, PolyP, PolyQ, PolyVec,
    SecretPoly, SecretVec,
};
use saber_testkit::{cases, Rng};

fn rand_matrix(rng: &mut Rng, rank: usize) -> PolyMatrix {
    let entries = (0..rank * rank)
        .map(|_| PolyQ::from_fn(|_| rng.range_u16(0, 8191)))
        .collect();
    PolyMatrix::from_entries(rank, entries)
}

fn rand_secret_vec(rng: &mut Rng, rank: usize, bound: i8) -> SecretVec {
    SecretVec::from_polys(
        (0..rank)
            .map(|_| SecretPoly::from_fn(|_| rng.secret_coeff(bound)))
            .collect(),
    )
}

/// The reference: one schoolbook product per (row, col) pair, summed
/// per row.
fn reference_mul_vec(a: &PolyMatrix, s: &SecretVec, transpose: bool) -> PolyVec<13> {
    let rank = a.rank();
    let mut out = Vec::with_capacity(rank);
    for row in 0..rank {
        let mut acc = PolyQ::zero();
        for col in 0..rank {
            let entry = if transpose {
                a.entry(col, row)
            } else {
                a.entry(row, col)
            };
            acc += &schoolbook::mul_asym(entry, &s[col]);
        }
        out.push(acc);
    }
    PolyVec::from_polys(out)
}

#[test]
fn mul_vec_unchanged_for_all_saber_ranks() {
    // LightSaber rank 2, Saber rank 3, FireSaber rank 4 (with the
    // matching secret bounds 5 / 4 / 3).
    for (rank, bound) in [(2usize, 5i8), (3, 4), (4, 3)] {
        for mut rng in cases(8) {
            let a = rand_matrix(&mut rng, rank);
            let s = rand_secret_vec(&mut rng, rank, bound);
            let expected = reference_mul_vec(&a, &s, false);
            let expected_t = reference_mul_vec(&a, &s, true);

            let mut oracle = SchoolbookMultiplier;
            let mut ct = CtSchoolbookMultiplier::new();
            for backend in [
                &mut oracle as &mut dyn PolyMultiplier,
                &mut ct as &mut dyn PolyMultiplier,
            ] {
                assert_eq!(
                    a.mul_vec(&s, backend),
                    expected,
                    "rank {rank}, backend {}, case seed {}",
                    backend.name(),
                    rng.seed()
                );
                assert_eq!(
                    a.mul_vec_transposed(&s, backend),
                    expected_t,
                    "rank {rank} transposed, backend {}, case seed {}",
                    backend.name(),
                    rng.seed()
                );
            }
        }
    }
}

#[test]
fn inner_product_mod_p_unchanged_for_all_saber_ranks() {
    for (rank, bound) in [(2usize, 5i8), (3, 4), (4, 3)] {
        for mut rng in cases(8) {
            let b = PolyVec::<10>::from_polys(
                (0..rank)
                    .map(|_| PolyP::from_fn(|_| rng.range_u16(0, 1023)))
                    .collect(),
            );
            let s = rand_secret_vec(&mut rng, rank, bound);

            // Reference: term-by-term embed + schoolbook multiply.
            let mut acc = PolyQ::zero();
            for k in 0..rank {
                let wide: PolyQ = b[k].embed_to::<13>();
                acc += &schoolbook::mul_asym(&wide, &s[k]);
            }
            let expected = acc.reduce_to::<10>();

            let mut oracle = SchoolbookMultiplier;
            let mut ct = CtSchoolbookMultiplier::new();
            for backend in [
                &mut oracle as &mut dyn PolyMultiplier,
                &mut ct as &mut dyn PolyMultiplier,
            ] {
                assert_eq!(
                    b.inner_product_mod_p(&s, backend),
                    expected,
                    "rank {rank}, backend {}, case seed {}",
                    backend.name(),
                    rng.seed()
                );
            }
        }
    }
}

#[test]
fn repeated_secrets_in_a_batch_share_state_safely() {
    // A pathological batch: the same secret reference many times, plus a
    // value-equal clone at a different address — reuse must not corrupt
    // any result.
    for mut rng in cases(8) {
        let s = SecretPoly::from_fn(|_| rng.secret_coeff(5));
        let s_clone = s.clone();
        let publics: Vec<PolyQ> = (0..5)
            .map(|_| PolyQ::from_fn(|_| rng.range_u16(0, 8191)))
            .collect();
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .enumerate()
            .map(|(k, a)| (a, if k % 2 == 0 { &s } else { &s_clone }))
            .collect();
        let mut ct = CtSchoolbookMultiplier::new();
        let batched = ct.multiply_batch(&ops);
        for (k, (a, secret)) in ops.iter().enumerate() {
            assert_eq!(
                batched[k],
                schoolbook::mul_asym(a, secret),
                "pair {k}, case seed {}",
                rng.seed()
            );
        }
    }
}
