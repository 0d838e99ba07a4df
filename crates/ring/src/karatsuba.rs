//! Recursive Karatsuba multiplication.
//!
//! Karatsuba splits each operand in halves and trades one of the four
//! half-size products for a handful of additions. The high-performance
//! Saber design of Zhu et al. (ePrint 2020/1037, reference \[11\] of the
//! paper) unrolls **8 levels**, i.e. recurses all the way down to single
//! coefficients; this module supports any recursion depth so that the
//! area/delay discussion of §5.2 can be explored quantitatively.

use crate::modulus::N;
use crate::poly::Poly;
use crate::schoolbook::{fold_negacyclic, linear_mul_i64};
use crate::secret::SecretPoly;

/// Maximum useful recursion depth for 256-coefficient operands
/// (2^8 = 256 → single-coefficient base case).
pub const MAX_LEVELS: u32 = 8;

/// Linear product with `levels` of Karatsuba recursion; below the cutoff
/// (or at level 0) falls back to schoolbook.
///
/// Operand lengths need not be powers of two: odd lengths split as
/// `⌈n/2⌉ / ⌊n/2⌋`.
#[must_use]
pub fn karatsuba_linear(a: &[i64], b: &[i64], levels: u32) -> Vec<i64> {
    debug_assert_eq!(a.len(), b.len(), "operands must have equal length");
    let n = a.len();
    if levels == 0 || n <= 1 {
        return linear_mul_i64(a, b);
    }
    let half = n.div_ceil(2);
    let (a_lo, a_hi) = a.split_at(half);
    let (b_lo, b_hi) = b.split_at(half);

    // Three half-size products: lo·lo, hi·hi, (lo+hi)·(lo+hi).
    let p_lo = karatsuba_linear(a_lo, b_lo, levels - 1);
    let p_hi = if a_hi.is_empty() {
        Vec::new()
    } else {
        karatsuba_linear(a_hi, b_hi, levels - 1)
    };

    let mut a_sum = a_lo.to_vec();
    for (dst, &src) in a_sum.iter_mut().zip(a_hi.iter()) {
        *dst += src;
    }
    let mut b_sum = b_lo.to_vec();
    for (dst, &src) in b_sum.iter_mut().zip(b_hi.iter()) {
        *dst += src;
    }
    let p_mid = karatsuba_linear(&a_sum, &b_sum, levels - 1);

    // Assemble: lo + (mid − lo − hi)·x^half + hi·x^(2·half).
    let mut out = vec![0i64; 2 * n - 1];
    for (k, &v) in p_lo.iter().enumerate() {
        out[k] += v;
        out[k + half] -= v;
    }
    for (k, &v) in p_hi.iter().enumerate() {
        out[k + 2 * half] += v;
        out[k + half] -= v;
    }
    for (k, &v) in p_mid.iter().enumerate() {
        out[k + half] += v;
    }
    out
}

/// Negacyclic product with `levels` of Karatsuba recursion.
#[must_use]
pub fn negacyclic_mul(a: &[i64; N], b: &[i64; N], levels: u32) -> [i64; N] {
    fold_negacyclic(&karatsuba_linear(a, b, levels))
}

/// Karatsuba product of two ring polynomials.
///
/// # Examples
///
/// ```
/// use saber_ring::{PolyQ, karatsuba, schoolbook};
///
/// let a = PolyQ::from_fn(|i| i as u16);
/// let b = PolyQ::from_fn(|i| (255 - i) as u16);
/// assert_eq!(karatsuba::mul(&a, &b, 8), schoolbook::mul(&a, &b));
/// ```
#[must_use]
pub fn mul<const QBITS: u32>(a: &Poly<QBITS>, b: &Poly<QBITS>, levels: u32) -> Poly<QBITS> {
    Poly::from_signed(&negacyclic_mul(&a.to_i64(), &b.to_i64(), levels))
}

/// Karatsuba product of a public polynomial and a small secret.
#[must_use]
pub fn mul_asym<const QBITS: u32>(a: &Poly<QBITS>, s: &SecretPoly, levels: u32) -> Poly<QBITS> {
    Poly::from_signed(&negacyclic_mul(&a.to_i64(), &s.to_i64(), levels))
}

/// Number of base-case coefficient multiplications performed by a
/// `levels`-deep Karatsuba on length-256 operands: `3^levels ·
/// (256/2^levels)^2`.
///
/// Used by the §5.2 discussion: 8 levels ⇒ 6 561 multiplications versus
/// 65 536 for schoolbook, at the price of long add/sub pre/post networks.
#[must_use]
pub fn base_multiplications(levels: u32) -> u64 {
    assert!(levels <= MAX_LEVELS, "more levels than log2(256)");
    let leaf = (N as u64) >> levels;
    3u64.pow(levels) * leaf * leaf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyQ;
    use crate::schoolbook;

    fn poly(seed: u16) -> PolyQ {
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) ^ (seed << 2))
    }

    #[test]
    fn all_levels_match_schoolbook() {
        let a = poly(19);
        let b = poly(1201);
        let expected = schoolbook::mul(&a, &b);
        for levels in 0..=MAX_LEVELS {
            assert_eq!(mul(&a, &b, levels), expected, "levels = {levels}");
        }
    }

    #[test]
    fn asym_matches_schoolbook() {
        let a = poly(7);
        let s = SecretPoly::from_fn(|i| (((i * 5) % 11) as i8) - 5);
        assert_eq!(mul_asym(&a, &s, 8), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    fn odd_length_split_is_correct() {
        // 5-coefficient operands exercise the ⌈n/2⌉ split.
        let a = [3i64, -2, 7, 0, 5];
        let b = [1i64, 4, -1, 2, 6];
        assert_eq!(
            karatsuba_linear(&a, &b, 3),
            crate::schoolbook::linear_mul_i64(&a, &b)
        );
    }

    #[test]
    fn multiplication_counts() {
        assert_eq!(base_multiplications(0), 65_536);
        assert_eq!(base_multiplications(1), 3 * 128 * 128);
        assert_eq!(base_multiplications(8), 6_561);
    }

    #[test]
    #[should_panic(expected = "more levels")]
    fn too_many_levels_panics() {
        let _ = base_multiplications(9);
    }
}
