//! Toom-Cook 4-way multiplication.
//!
//! Toom-4 is the multiplier of the original Saber submission and of the
//! DAC 2020 co-processor (references \[3\] and \[7\] of the paper): each
//! 256-coefficient operand splits into four 64-coefficient limbs, the
//! limb polynomials are evaluated at seven points, seven quarter-size
//! products are computed, and the degree-6 limb product is recovered by
//! interpolation.
//!
//! Interpolation is performed with an **exact rational inverse** of the
//! 7×7 evaluation matrix, computed once by Gauss–Jordan elimination over
//! `i128` fractions. This avoids transcribing one of the many hand-
//! optimized (and easy to mistype) interpolation sequences from the
//! literature while remaining provably exact: every division asserts
//! divisibility.

use std::sync::OnceLock;

use crate::modulus::N;
use crate::poly::Poly;
use crate::schoolbook::{fold_negacyclic, linear_mul_i64};
use crate::secret::SecretPoly;

/// Number of evaluation points (degree-3 × degree-3 ⇒ degree-6 ⇒ 7).
pub const POINTS: usize = 7;

/// Finite evaluation points; the seventh "point" is ∞ (leading limb).
pub const FINITE_POINTS: [i128; POINTS - 1] = [0, 1, -1, 2, -2, 3];

/// Limb count of Toom-4.
pub const LIMBS: usize = 4;

/// An exact fraction over `i128`, used only for the tiny 7×7 inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fraction {
    pub(crate) num: i128,
    pub(crate) den: i128, // invariant: den > 0, gcd(num, den) = 1
}

impl Fraction {
    fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs()).max(1) as i128;
        Self {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    fn from_int(v: i128) -> Self {
        Self { num: v, den: 1 }
    }

    fn is_zero(self) -> bool {
        self.num == 0
    }

    // Used by the inverse-verification test; the hot path accumulates
    // over a common denominator instead.
    #[cfg_attr(not(test), allow(dead_code))]
    fn add(self, other: Self) -> Self {
        Self::new(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }

    fn sub(self, other: Self) -> Self {
        Self::new(
            self.num * other.den - other.num * self.den,
            self.den * other.den,
        )
    }

    fn mul(self, other: Self) -> Self {
        Self::new(self.num * other.num, self.den * other.den)
    }

    fn div(self, other: Self) -> Self {
        assert!(!other.is_zero(), "division by zero fraction");
        Self::new(self.num * other.den, self.den * other.num)
    }
}

pub(crate) fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The inverse of the 7×7 evaluation matrix, as exact fractions.
///
/// Row `k` of the inverse yields limb-product coefficient `w_k` from the
/// evaluation vector `(w(0), w(1), w(−1), w(2), w(−2), w(3), w_6)`.
pub(crate) fn interpolation_matrix() -> &'static [[Fraction; POINTS]; POINTS] {
    static MATRIX: OnceLock<[[Fraction; POINTS]; POINTS]> = OnceLock::new();
    MATRIX.get_or_init(|| {
        // Build the evaluation matrix: row per point, column per power.
        let mut m = [[Fraction::from_int(0); POINTS]; POINTS];
        for (row, &t) in FINITE_POINTS.iter().enumerate() {
            let mut power: i128 = 1;
            for entry in m[row].iter_mut() {
                *entry = Fraction::from_int(power);
                power *= t;
            }
        }
        // The ∞ row reads the leading coefficient directly.
        m[POINTS - 1][POINTS - 1] = Fraction::from_int(1);

        invert(&m)
    })
}

/// Gauss–Jordan inversion over exact fractions.
fn invert(m: &[[Fraction; POINTS]; POINTS]) -> [[Fraction; POINTS]; POINTS] {
    let mut a = *m;
    let mut inv = [[Fraction::from_int(0); POINTS]; POINTS];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = Fraction::from_int(1);
    }
    for col in 0..POINTS {
        // Find a pivot (the matrix is Vandermonde-like, always invertible).
        let pivot_row = (col..POINTS)
            .find(|&r| !a[r][col].is_zero())
            .expect("evaluation matrix is singular");
        a.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let pivot = a[col][col];
        for j in 0..POINTS {
            a[col][j] = a[col][j].div(pivot);
            inv[col][j] = inv[col][j].div(pivot);
        }
        for row in 0..POINTS {
            if row == col || a[row][col].is_zero() {
                continue;
            }
            let factor = a[row][col];
            for j in 0..POINTS {
                a[row][j] = a[row][j].sub(factor.mul(a[col][j]));
                inv[row][j] = inv[row][j].sub(factor.mul(inv[col][j]));
            }
        }
    }
    inv
}

/// The interpolation operator in pure-integer form: limb-product
/// coefficient `w_k = (Σ_j num[k][j] · v_j) / den`, with every division
/// exact over ℤ.
///
/// Derived once from the exact rational inverse by clearing the rows to
/// their least common denominator; interpolation then needs only integer
/// multiply-accumulate plus one exact division per output coefficient.
#[derive(Debug, Clone, Copy)]
struct ScaledInterpolation {
    /// Numerators scaled to the common denominator, row per output limb
    /// coefficient, column per evaluation point.
    num: [[i128; POINTS]; POINTS],
    /// The shared positive denominator.
    den: i128,
}

/// The integer form of the interpolation matrix (computed once).
fn scaled_interpolation() -> &'static ScaledInterpolation {
    static SCALED: OnceLock<ScaledInterpolation> = OnceLock::new();
    SCALED.get_or_init(|| {
        let inv = interpolation_matrix();
        let mut den: i128 = 1;
        for row in inv.iter() {
            for f in row.iter() {
                den = den / gcd(den.unsigned_abs(), f.den.unsigned_abs()) as i128 * f.den;
            }
        }
        let mut num = [[0i128; POINTS]; POINTS];
        for (src, dst) in inv.iter().zip(num.iter_mut()) {
            for (f, slot) in src.iter().zip(dst.iter_mut()) {
                *slot = f.num * (den / f.den);
            }
        }
        ScaledInterpolation { num, den }
    })
}

/// Evaluates the four limbs of `poly` (length 4·`limb`) at point `t`.
fn evaluate(limbs: &[&[i64]], t: i128, out: &mut [i128]) {
    for (idx, slot) in out.iter_mut().enumerate() {
        let mut acc: i128 = 0;
        let mut power: i128 = 1;
        for limb in limbs {
            acc += power * i128::from(limb[idx]);
            power *= t;
        }
        *slot = acc;
    }
}

/// Linear Toom-4 product of two equal-length sequences.
///
/// # Panics
///
/// Panics if the operand length is not divisible by 4, or if any
/// interpolation division is inexact (which would indicate a logic error,
/// not bad input — the divisions are exact over ℤ by construction).
#[must_use]
pub fn toom4_linear(a: &[i64], b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "operands must have equal length");
    assert_eq!(a.len() % LIMBS, 0, "operand length must be divisible by 4");
    let limb = a.len() / LIMBS;

    let a_limbs: Vec<&[i64]> = a.chunks(limb).collect();
    let b_limbs: Vec<&[i64]> = b.chunks(limb).collect();

    // Evaluate, multiply point-wise products (each of length 2·limb − 1).
    let mut products: Vec<Vec<i128>> = Vec::with_capacity(POINTS);
    let mut ea = vec![0i128; limb];
    let mut eb = vec![0i128; limb];
    for &t in FINITE_POINTS.iter() {
        evaluate(&a_limbs, t, &mut ea);
        evaluate(&b_limbs, t, &mut eb);
        // Values at t = ±3 stay < 2^13·(1+3+9+27) < 2^19; products of
        // 64-term sums < 2^45 — comfortably i64. Convert and reuse the
        // schoolbook/Karatsuba linear multiplier.
        let ea64: Vec<i64> = ea
            .iter()
            .map(|&v| i64::try_from(v).expect("eval fits i64"))
            .collect();
        let eb64: Vec<i64> = eb
            .iter()
            .map(|&v| i64::try_from(v).expect("eval fits i64"))
            .collect();
        products.push(
            linear_mul_i64(&ea64, &eb64)
                .into_iter()
                .map(i128::from)
                .collect(),
        );
    }
    // Point ∞: product of the leading limbs.
    products.push(
        linear_mul_i64(a_limbs[LIMBS - 1], b_limbs[LIMBS - 1])
            .into_iter()
            .map(i128::from)
            .collect(),
    );

    // Interpolate each coefficient position across the 7 limb products,
    // over the shared integer denominator (no per-coefficient fractions).
    let scaled = scaled_interpolation();
    let prod_len = 2 * limb - 1;
    let mut out = vec![0i64; 2 * a.len() - 1];
    for (k, row) in scaled.num.iter().enumerate() {
        for idx in 0..prod_len {
            // w_k[idx] = (Σ_j num[k][j] · v_j[idx]) / den, exactly.
            let mut acc: i128 = 0;
            for (j, &c) in row.iter().enumerate() {
                if c != 0 {
                    acc += c * products[j][idx];
                }
            }
            assert_eq!(acc % scaled.den, 0, "Toom-4 interpolation must be exact");
            out[k * limb + idx] +=
                i64::try_from(acc / scaled.den).expect("limb coefficient fits i64");
        }
    }
    out
}

/// Negacyclic Toom-4 product of two length-256 sequences.
#[must_use]
pub fn negacyclic_mul(a: &[i64; N], b: &[i64; N]) -> [i64; N] {
    fold_negacyclic(&toom4_linear(a, b))
}

/// Toom-4 product of two ring polynomials.
///
/// # Examples
///
/// ```
/// use saber_ring::{PolyQ, toom, schoolbook};
///
/// let a = PolyQ::from_fn(|i| (i * 3) as u16);
/// let b = PolyQ::from_fn(|i| (i ^ 0x155) as u16);
/// assert_eq!(toom::mul(&a, &b), schoolbook::mul(&a, &b));
/// ```
#[must_use]
pub fn mul<const QBITS: u32>(a: &Poly<QBITS>, b: &Poly<QBITS>) -> Poly<QBITS> {
    Poly::from_signed(&negacyclic_mul(&a.to_i64(), &b.to_i64()))
}

/// Toom-4 product of a public polynomial and a small secret.
#[must_use]
pub fn mul_asym<const QBITS: u32>(a: &Poly<QBITS>, s: &SecretPoly) -> Poly<QBITS> {
    Poly::from_signed(&negacyclic_mul(&a.to_i64(), &s.to_i64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyQ;
    use crate::schoolbook;

    #[test]
    fn interpolation_matrix_is_exact_inverse() {
        let inv = interpolation_matrix();
        // Rebuild the forward matrix and check inv · m = I.
        let mut m = [[Fraction::from_int(0); POINTS]; POINTS];
        for (row, &t) in FINITE_POINTS.iter().enumerate() {
            let mut power: i128 = 1;
            for entry in m[row].iter_mut() {
                *entry = Fraction::from_int(power);
                power *= t;
            }
        }
        m[POINTS - 1][POINTS - 1] = Fraction::from_int(1);
        for (i, inv_row) in inv.iter().enumerate() {
            for j in 0..POINTS {
                let mut acc = Fraction::from_int(0);
                for (k, mk) in m.iter().enumerate() {
                    acc = acc.add(inv_row[k].mul(mk[j]));
                }
                let expect = Fraction::from_int(i128::from(i == j));
                assert_eq!(acc, expect, "inverse entry ({i},{j})");
            }
        }
    }

    #[test]
    fn scaled_matrix_agrees_with_rational_inverse() {
        let inv = interpolation_matrix();
        let scaled = scaled_interpolation();
        assert!(scaled.den > 0);
        for (frow, srow) in inv.iter().zip(scaled.num.iter()) {
            for (f, &s) in frow.iter().zip(srow.iter()) {
                // num/den reduced ≡ the original fraction.
                assert_eq!(s * f.den, f.num * scaled.den);
            }
        }
    }

    #[test]
    fn small_linear_case() {
        // Length-4 operands (single-coefficient limbs).
        let a = [2i64, -3, 5, 7];
        let b = [1i64, 0, -4, 6];
        assert_eq!(toom4_linear(&a, &b), linear_mul_i64(&a, &b));
    }

    #[test]
    fn full_ring_matches_schoolbook() {
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(97) ^ 0x01ff);
        let b = PolyQ::from_fn(|i| (i as u16).wrapping_mul(53).wrapping_add(11));
        assert_eq!(mul(&a, &b), schoolbook::mul(&a, &b));
    }

    #[test]
    fn asym_matches_schoolbook() {
        let a = PolyQ::from_fn(|i| (8191 - i) as u16);
        let s = SecretPoly::from_fn(|i| (((i * 7) % 11) as i8) - 5);
        assert_eq!(mul_asym(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    fn extreme_coefficients() {
        // All-max public operand times all-(-5) secret: worst-case growth.
        let a = PolyQ::from_fn(|_| 8191);
        let s = SecretPoly::from_fn(|_| -5);
        assert_eq!(mul_asym(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn indivisible_length_panics() {
        let _ = toom4_linear(&[1, 2, 3], &[4, 5, 6]);
    }
}
