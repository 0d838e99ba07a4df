//! Dense 256-coefficient polynomials with a const-generic power-of-two
//! modulus.

use std::fmt;
use std::ops::{Add, AddAssign, Index, Neg, Sub, SubAssign};

use crate::modulus::{center, reduce_i64, N};

/// A polynomial in `Z_{2^QBITS}[x] / (x^256 + 1)`.
///
/// Coefficients are stored as canonical residues in `0..2^QBITS`. The two
/// instantiations used by Saber have aliases: [`PolyQ`] (`QBITS = 13`) and
/// [`PolyP`] (`QBITS = 10`).
///
/// # Examples
///
/// ```
/// use saber_ring::PolyQ;
///
/// let a = PolyQ::from_fn(|i| i as u16);
/// let b = &a + &a;
/// assert_eq!(b.coeff(3), 6);
/// // x^256 = -1: multiplying by x wraps the top coefficient negated.
/// let shifted = a.mul_by_x();
/// assert_eq!(shifted.coeff(0), PolyQ::MASK - 255 + 1); // -255 mod 2^13
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Poly<const QBITS: u32> {
    coeffs: [u16; N],
}

/// Polynomial modulo `q = 2^13`.
pub type PolyQ = Poly<13>;

/// Polynomial modulo `p = 2^10`.
pub type PolyP = Poly<10>;

impl<const QBITS: u32> Poly<QBITS> {
    /// The coefficient mask `2^QBITS - 1`.
    pub const MASK: u16 = ((1u32 << QBITS) - 1) as u16;

    /// The all-zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Self { coeffs: [0; N] }
    }

    /// Builds a polynomial from a coefficient function; values are reduced.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> u16>(mut f: F) -> Self {
        let mut coeffs = [0u16; N];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = f(i) & Self::MASK;
        }
        Self { coeffs }
    }

    /// Builds a polynomial from raw residues, reducing each.
    #[must_use]
    pub fn from_coeffs(raw: [u16; N]) -> Self {
        Self::from_fn(|i| raw[i])
    }

    /// Builds a polynomial from signed wide coefficients (e.g. the output
    /// of an integer convolution), reducing each modulo `2^QBITS`.
    #[must_use]
    pub fn from_signed(raw: &[i64; N]) -> Self {
        let mut coeffs = [0u16; N];
        for (c, &v) in coeffs.iter_mut().zip(raw.iter()) {
            *c = reduce_i64(v, QBITS);
        }
        Self { coeffs }
    }

    /// Returns coefficient `i` as a canonical residue.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[must_use]
    pub fn coeff(&self, i: usize) -> u16 {
        self.coeffs[i]
    }

    /// Returns coefficient `i` centered in `-2^(QBITS-1) .. 2^(QBITS-1)`.
    #[must_use]
    pub fn coeff_centered(&self, i: usize) -> i32 {
        center(self.coeffs[i], QBITS)
    }

    /// Sets coefficient `i`, reducing the value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn set_coeff(&mut self, i: usize, value: u16) {
        self.coeffs[i] = value & Self::MASK;
    }

    /// All coefficients as a slice of canonical residues.
    #[must_use]
    pub fn coeffs(&self) -> &[u16; N] {
        &self.coeffs
    }

    /// Iterator over canonical residues.
    pub fn iter(&self) -> std::slice::Iter<'_, u16> {
        self.coeffs.iter()
    }

    /// Multiplies by `x` (a negacyclic shift: `x^256 = -1`).
    #[must_use]
    pub fn mul_by_x(&self) -> Self {
        let mut out = [0u16; N];
        out[0] = reduce_i64(-i64::from(self.coeffs[N - 1]), QBITS);
        out[1..N].copy_from_slice(&self.coeffs[..N - 1]);
        Self { coeffs: out }
    }

    /// Adds the constant `value` to every coefficient (used for the Saber
    /// rounding constants `h1`, `h2`).
    #[must_use]
    pub fn add_constant(&self, value: u16) -> Self {
        Self::from_fn(|i| self.coeffs[i].wrapping_add(value))
    }

    /// Reinterprets this polynomial modulo a *smaller* power of two,
    /// `2^RBITS`, by masking coefficients.
    ///
    /// This is the mathematically correct reduction map
    /// `Z_{2^QBITS} -> Z_{2^RBITS}` whenever `RBITS <= QBITS`, which is why
    /// a 13-bit hardware datapath can serve mod-`p` multiplications.
    #[must_use]
    pub fn reduce_to<const RBITS: u32>(&self) -> Poly<RBITS> {
        assert!(RBITS <= QBITS, "reduce_to may only shrink the modulus");
        Poly::<RBITS>::from_fn(|i| self.coeffs[i])
    }

    /// Zero-extends this polynomial into a larger modulus `2^WBITS`,
    /// keeping the integer value of every coefficient.
    ///
    /// Unlike [`shift_up_to`](Self::shift_up_to) this does not scale: it
    /// is the embedding used to run mod-`p` multiplications on the 13-bit
    /// hardware datapath (the low `QBITS` bits of the wide product are
    /// exactly the mod-`2^QBITS` product).
    #[must_use]
    pub fn embed_to<const WBITS: u32>(&self) -> Poly<WBITS> {
        assert!(WBITS >= QBITS, "embed_to may only grow the modulus");
        Poly::<WBITS>::from_fn(|i| self.coeffs[i])
    }

    /// Widens this polynomial into a larger modulus `2^WBITS` by shifting
    /// every coefficient left `WBITS - QBITS` bits (the Saber "mod switch
    /// up" used when a mod-`p` value re-enters a mod-`q` computation).
    #[must_use]
    pub fn shift_up_to<const WBITS: u32>(&self) -> Poly<WBITS> {
        assert!(WBITS >= QBITS, "shift_up_to may only grow the modulus");
        let shift = WBITS - QBITS;
        Poly::<WBITS>::from_fn(|i| self.coeffs[i] << shift)
    }

    /// Lifts coefficients to `i64` canonical residues (for convolution
    /// algorithms that work over the integers).
    #[must_use]
    pub fn to_i64(&self) -> [i64; N] {
        let mut out = [0i64; N];
        for (o, &c) in out.iter_mut().zip(self.coeffs.iter()) {
            *o = i64::from(c);
        }
        out
    }
}

impl<const QBITS: u32> Default for Poly<QBITS> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const QBITS: u32> fmt::Debug for Poly<QBITS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show the head and tail; 256 coefficients would drown test output.
        write!(
            f,
            "Poly<{}>[{}, {}, {}, {}, …, {}, {}]",
            QBITS,
            self.coeffs[0],
            self.coeffs[1],
            self.coeffs[2],
            self.coeffs[3],
            self.coeffs[N - 2],
            self.coeffs[N - 1]
        )
    }
}

impl<const QBITS: u32> fmt::Display for Poly<QBITS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}·x")?,
                _ => write!(f, "{c}·x^{i}")?,
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<const QBITS: u32> Index<usize> for Poly<QBITS> {
    type Output = u16;

    fn index(&self, i: usize) -> &u16 {
        &self.coeffs[i]
    }
}

impl<const QBITS: u32> Add for &Poly<QBITS> {
    type Output = Poly<QBITS>;

    fn add(self, rhs: Self) -> Poly<QBITS> {
        Poly::from_fn(|i| self.coeffs[i].wrapping_add(rhs.coeffs[i]))
    }
}

// The mask is modular reduction, not a bitwise trick.
#[allow(clippy::suspicious_op_assign_impl)]
impl<const QBITS: u32> AddAssign<&Poly<QBITS>> for Poly<QBITS> {
    fn add_assign(&mut self, rhs: &Poly<QBITS>) {
        for (a, &b) in self.coeffs.iter_mut().zip(rhs.coeffs.iter()) {
            *a = a.wrapping_add(b) & Self::MASK;
        }
    }
}

impl<const QBITS: u32> Sub for &Poly<QBITS> {
    type Output = Poly<QBITS>;

    fn sub(self, rhs: Self) -> Poly<QBITS> {
        Poly::from_fn(|i| self.coeffs[i].wrapping_sub(rhs.coeffs[i]))
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl<const QBITS: u32> SubAssign<&Poly<QBITS>> for Poly<QBITS> {
    fn sub_assign(&mut self, rhs: &Poly<QBITS>) {
        for (a, &b) in self.coeffs.iter_mut().zip(rhs.coeffs.iter()) {
            *a = a.wrapping_sub(b) & Self::MASK;
        }
    }
}

impl<const QBITS: u32> Neg for &Poly<QBITS> {
    type Output = Poly<QBITS>;

    fn neg(self) -> Poly<QBITS> {
        Poly::from_fn(|i| 0u16.wrapping_sub(self.coeffs[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PolyQ {
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(2718) ^ 0x0aaa)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = sample();
        let b = PolyQ::from_fn(|i| (i as u16).wrapping_mul(31));
        let sum = &a + &b;
        assert_eq!(&sum - &b, a);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = sample();
        assert_eq!(&a + &(-&a), PolyQ::zero());
    }

    #[test]
    fn mul_by_x_256_times_negates() {
        let a = sample();
        let mut shifted = a.clone();
        for _ in 0..N {
            shifted = shifted.mul_by_x();
        }
        assert_eq!(shifted, -&a, "x^256 must equal -1 in the ring");
    }

    #[test]
    fn reduce_to_is_ring_homomorphism_for_addition() {
        let a = sample();
        let b = PolyQ::from_fn(|i| (i as u16) * 3 + 7);
        let lhs = (&a + &b).reduce_to::<10>();
        let rhs = &a.reduce_to::<10>() + &b.reduce_to::<10>();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn display_sparse() {
        let mut p = PolyQ::zero();
        p.set_coeff(0, 5);
        p.set_coeff(2, 1);
        assert_eq!(p.to_string(), "5 + 1·x^2");
        assert_eq!(PolyQ::zero().to_string(), "0");
    }

    #[test]
    fn from_signed_wraps() {
        let mut raw = [0i64; N];
        raw[0] = -1;
        raw[1] = 8192;
        let p = PolyQ::from_signed(&raw);
        assert_eq!(p.coeff(0), 8191);
        assert_eq!(p.coeff(1), 0);
    }

    #[test]
    #[should_panic(expected = "shrink")]
    fn reduce_to_larger_panics() {
        let a = PolyP::zero();
        let _ = a.reduce_to::<13>();
    }
}
