//! The fuzzing corpus: structured random and adversarial operand pairs.
//!
//! Uniform random inputs alone are a weak differential oracle for this
//! workspace: the HS-II carry fix only fires when the packed middle sum
//! overflows 16 bits (large magnitudes), its borrow repairs only fire on
//! mixed-sign coefficient pairs, and the negacyclic wrap only matters
//! when late secret coefficients are populated. The corpus therefore
//! *stratifies* cases across [`CaseKind`]s so every datapath corner is
//! hit thousands of times per run, not left to chance.

use saber_ring::{PolyQ, SecretPoly, N};
use saber_testkit::Rng;

/// Public-coefficient values sitting on packing/rounding boundaries
/// (field edges of the 13-bit ring and the 15-bit HS-II packing).
const BOUNDARY_COEFFS: [u16; 8] = [0, 1, 2, 4095, 4096, 8190, 8191, 5461];

/// The structural family a generated case belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Uniform public and secret coefficients — the baseline sweep.
    Uniform,
    /// Max-magnitude everything: `a` drawn from boundary values,
    /// `|s| = bound` throughout. Stresses the HS-II middle-field carry
    /// and the 13-bit accumulator wraparound.
    MaxMagnitude,
    /// Alternating-sign max-magnitude secrets with near-maximal public
    /// coefficients: every HS-II packed pair is mixed-sign, firing the
    /// borrow-repair network on every cycle.
    SignBoundary,
    /// A handful of nonzero secret coefficients placed anywhere
    /// (including the top positions that exercise the negacyclic wrap),
    /// against a dense public operand.
    SparseSecret,
    /// A handful of nonzero public coefficients against a dense
    /// max-magnitude secret — isolates single-column datapaths.
    SparsePublic,
    /// Block-structured operands: runs of constant values whose
    /// products cancel or accumulate coherently, the shape that exposed
    /// scheduling bugs in block-serial (LW) designs.
    BlockPattern,
}

impl CaseKind {
    /// All kinds, in generation rotation order.
    pub const ALL: [CaseKind; 6] = [
        CaseKind::Uniform,
        CaseKind::MaxMagnitude,
        CaseKind::SignBoundary,
        CaseKind::SparseSecret,
        CaseKind::SparsePublic,
        CaseKind::BlockPattern,
    ];

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CaseKind::Uniform => "uniform",
            CaseKind::MaxMagnitude => "max-magnitude",
            CaseKind::SignBoundary => "sign-boundary",
            CaseKind::SparseSecret => "sparse-secret",
            CaseKind::SparsePublic => "sparse-public",
            CaseKind::BlockPattern => "block-pattern",
        }
    }
}

/// One generated operand pair, tagged with its family.
#[derive(Debug, Clone)]
pub struct Case {
    /// Which corpus family produced it.
    pub kind: CaseKind,
    /// The 13-bit public operand.
    pub public: PolyQ,
    /// The small secret operand (all coefficients within the requested
    /// bound).
    pub secret: SecretPoly,
}

/// Generates case `index` of a corpus with secret magnitudes limited to
/// `bound`. The kind rotates with the index so every family receives an
/// equal share of any case budget.
///
/// # Panics
///
/// Panics if `bound` is not in `1..=5`.
#[must_use]
pub fn generate(rng: &mut Rng, index: usize, bound: i8) -> Case {
    assert!((1..=5).contains(&bound), "secret bound must be 1..=5");
    let kind = CaseKind::ALL[index % CaseKind::ALL.len()];
    let (public, secret) = match kind {
        CaseKind::Uniform => (
            PolyQ::from_fn(|_| rng.range_u16(0, 8191)),
            SecretPoly::from_fn(|_| rng.secret_coeff(bound)),
        ),
        CaseKind::MaxMagnitude => {
            let public =
                PolyQ::from_fn(|_| BOUNDARY_COEFFS[rng.range_usize(0, BOUNDARY_COEFFS.len() - 1)]);
            let secret = SecretPoly::from_fn(|_| {
                if rng.next_u64() & 1 == 0 {
                    bound
                } else {
                    -bound
                }
            });
            (public, secret)
        }
        CaseKind::SignBoundary => {
            // Alternating signs guarantee every (even, odd) packed pair
            // is mixed-sign; occasionally drop a coefficient to zero to
            // hit the zero-operand edges of the repair conditions.
            let public = PolyQ::from_fn(|_| rng.range_u16(8191 - 7, 8191));
            let secret = SecretPoly::from_fn(|i| {
                if rng.range_usize(0, 15) == 0 {
                    0
                } else if i.is_multiple_of(2) {
                    bound
                } else {
                    -bound
                }
            });
            (public, secret)
        }
        CaseKind::SparseSecret => {
            let public = PolyQ::from_fn(|_| rng.range_u16(0, 8191));
            let mut coeffs = [0i8; N];
            for _ in 0..rng.range_usize(1, 8) {
                let pos = rng.range_usize(0, N - 1);
                let mut v = rng.secret_coeff(bound);
                if v == 0 {
                    v = bound;
                }
                coeffs[pos] = v;
            }
            // Always populate a top coefficient: products through it
            // cross the negacyclic wrap for almost every output index.
            coeffs[N - 1 - rng.range_usize(0, 3)] = if rng.next_u64() & 1 == 0 {
                bound
            } else {
                -bound
            };
            (
                public,
                SecretPoly::try_from_coeffs(coeffs).expect("coeffs within bound"),
            )
        }
        CaseKind::SparsePublic => {
            let mut coeffs = [0u16; N];
            for _ in 0..rng.range_usize(1, 8) {
                coeffs[rng.range_usize(0, N - 1)] =
                    BOUNDARY_COEFFS[rng.range_usize(0, BOUNDARY_COEFFS.len() - 1)];
            }
            let secret = SecretPoly::from_fn(|_| {
                if rng.next_u64() & 1 == 0 {
                    bound
                } else {
                    -bound
                }
            });
            (PolyQ::from_coeffs(coeffs), secret)
        }
        CaseKind::BlockPattern => {
            // Constant runs of a random block length; signs flip per
            // block on the secret side.
            let block = 1 << rng.range_usize(2, 6); // 4..=64
            let a_even = rng.range_u16(0, 8191);
            let a_odd = rng.range_u16(0, 8191);
            let public = PolyQ::from_fn(|i| {
                if (i / block).is_multiple_of(2) {
                    a_even
                } else {
                    a_odd
                }
            });
            let s_mag = rng.range_i64(1, i64::from(bound)) as i8;
            let secret = SecretPoly::from_fn(|i| {
                if (i / block).is_multiple_of(2) {
                    s_mag
                } else {
                    -s_mag
                }
            });
            (public, secret)
        }
    };
    Case {
        kind,
        public,
        secret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_testkit::cases;

    #[test]
    fn secrets_respect_the_bound() {
        for mut rng in cases(4) {
            for bound in 1..=5i8 {
                for index in 0..CaseKind::ALL.len() * 2 {
                    let case = generate(&mut rng, index, bound);
                    assert!(
                        case.secret.max_magnitude() <= bound,
                        "kind {:?} exceeded bound {bound}",
                        case.kind
                    );
                }
            }
        }
    }

    #[test]
    fn kinds_rotate_evenly() {
        let mut rng = Rng::new(1);
        for (index, &kind) in CaseKind::ALL.iter().enumerate() {
            assert_eq!(generate(&mut rng, index, 4).kind, kind);
            assert_eq!(
                generate(&mut rng, index + CaseKind::ALL.len(), 4).kind,
                kind
            );
        }
    }

    #[test]
    fn sign_boundary_cases_mix_signs_in_every_pair() {
        let mut rng = Rng::new(7);
        let case = generate(&mut rng, 2, 4);
        assert_eq!(case.kind, CaseKind::SignBoundary);
        let mixed = (0..N / 2).filter(|&k| {
            let s0 = case.secret.coeff(2 * k);
            let s1 = case.secret.coeff(2 * k + 1);
            s0 > 0 && s1 < 0
        });
        // Most pairs must be mixed-sign (a few are zeroed on purpose).
        assert!(mixed.count() > N / 2 - 40);
    }

    #[test]
    fn sparse_secret_populates_the_wrap_region() {
        for mut rng in cases(8) {
            let case = generate(&mut rng, 3, 5);
            assert_eq!(case.kind, CaseKind::SparseSecret);
            let top_nonzero = (N - 4..N).any(|i| case.secret.coeff(i) != 0);
            assert!(top_nonzero, "wrap region must be populated");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut Rng::new(99), 1, 4);
        let b = generate(&mut Rng::new(99), 1, 4);
        assert_eq!(a.public, b.public);
        assert_eq!(a.secret.coeffs(), b.secret.coeffs());
    }
}
