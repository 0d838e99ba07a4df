//! The small-coefficient secret operand of every Saber multiplication.

use std::fmt;

use crate::modulus::N;

/// Largest secret-coefficient magnitude across all Saber parameter sets.
///
/// The centered binomial distribution `β_μ` gives |s| ≤ µ/2: LightSaber
/// (µ = 10) ⇒ 5, Saber (µ = 8) ⇒ 4, FireSaber (µ = 6) ⇒ 3. The paper's
/// shift-and-add multiplier (Algorithm 2) therefore supports selectors up
/// to 5.
pub const MAX_SECRET_MAGNITUDE: i8 = 5;

/// A polynomial with small signed coefficients, |sᵢ| ≤ 5.
///
/// In Saber one operand of every polynomial multiplication is secret and
/// tiny; this dedicated type keeps the asymmetry visible in APIs and lets
/// the hardware models pack coefficients into 4-bit two's-complement
/// fields exactly as the RTL does.
///
/// # Examples
///
/// ```
/// use saber_ring::SecretPoly;
///
/// let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
/// assert_eq!(s.coeff(0), -4);
/// assert!(s.iter().all(|&c| c.abs() <= 5));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecretPoly {
    coeffs: [i8; N],
}

/// Error returned when constructing a [`SecretPoly`] from out-of-range
/// coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretRangeError {
    /// Index of the first offending coefficient.
    pub index: usize,
    /// The offending value.
    pub value: i8,
}

impl fmt::Display for SecretRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "secret coefficient {} at index {} exceeds magnitude {}",
            self.value, self.index, MAX_SECRET_MAGNITUDE
        )
    }
}

impl std::error::Error for SecretRangeError {}

impl SecretPoly {
    /// The all-zero secret.
    #[must_use]
    pub fn zero() -> Self {
        Self { coeffs: [0; N] }
    }

    /// Overwrites every coefficient with zero, in place.
    ///
    /// This is the wipe the KEM layer's drop-time secret hygiene
    /// (`saber_kem::secret`) runs on long-lived key material. The
    /// [`std::hint::black_box`] afterwards is a best-effort barrier
    /// against the store being elided as dead (this crate denies
    /// `unsafe_code` outside the `ct` kernel's dispatch, so a volatile
    /// write is not available); the KEM tests
    /// verify the cleared state through this still-live binding.
    ///
    /// `SecretPoly` deliberately has **no** `Drop` impl — transient
    /// copies churn through hot paths (`mul_by_x` rotation chains,
    /// batch grouping) where an unconditional wipe would cost real
    /// throughput. Long-lived holders opt in instead.
    pub fn zeroize(&mut self) {
        self.coeffs = [0; N];
        std::hint::black_box(&mut self.coeffs);
    }

    /// Builds a secret from a coefficient function.
    ///
    /// # Panics
    ///
    /// Panics if any produced coefficient exceeds magnitude
    /// [`MAX_SECRET_MAGNITUDE`]; use [`try_from_coeffs`](Self::try_from_coeffs)
    /// for a fallible variant.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> i8>(mut f: F) -> Self {
        let mut coeffs = [0i8; N];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = f(i);
        }
        match Self::try_from_coeffs(coeffs) {
            Ok(secret) => secret,
            Err(SecretRangeError { index, value }) => {
                panic!("secret coefficient {value} at index {index} out of range")
            }
        }
    }

    /// Fallible constructor from raw coefficients.
    ///
    /// The range check is branch-free over the coefficients: it ORs
    /// every coefficient's violation flag and branches once, after the
    /// loop, so a valid secret's check takes the same path whatever its
    /// values. (A per-coefficient `abs` test compiles to a sign branch
    /// whose prediction history differs between secrets; so does
    /// `unsigned_abs` in an unoptimized build, so the magnitude is
    /// formed with the sign as a mask.)
    ///
    /// # Errors
    ///
    /// Returns [`SecretRangeError`] for the first coefficient with
    /// |value| > 5.
    pub fn try_from_coeffs(raw: [i8; N]) -> Result<Self, SecretRangeError> {
        let bound = MAX_SECRET_MAGNITUDE.unsigned_abs();
        let mut out_of_range = false;
        for &value in &raw {
            let sign = value >> 7;
            out_of_range |= (value ^ sign).wrapping_sub(sign) as u8 > bound;
        }
        if out_of_range {
            // Rejected input only: locating the offender may branch.
            let index = raw
                .iter()
                .position(|value| value.unsigned_abs() > bound)
                .expect("an out-of-range coefficient was flagged");
            return Err(SecretRangeError {
                index,
                value: raw[index],
            });
        }
        Ok(Self { coeffs: raw })
    }

    /// Returns coefficient `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[must_use]
    pub fn coeff(&self, i: usize) -> i8 {
        self.coeffs[i]
    }

    /// All coefficients.
    #[must_use]
    pub fn coeffs(&self) -> &[i8; N] {
        &self.coeffs
    }

    /// Iterator over the coefficients.
    pub fn iter(&self) -> std::slice::Iter<'_, i8> {
        self.coeffs.iter()
    }

    /// Largest coefficient magnitude present in this secret.
    #[must_use]
    pub fn max_magnitude(&self) -> i8 {
        self.coeffs.iter().map(|c| c.abs()).max().unwrap_or(0)
    }

    /// Negacyclic shift: multiplies the secret by `x`.
    ///
    /// This is the per-cycle rotation of the secret buffer in the
    /// schoolbook architectures (Fig. 1/2 of the paper).
    #[must_use]
    pub fn mul_by_x(&self) -> Self {
        let mut out = [0i8; N];
        out[0] = -self.coeffs[N - 1];
        out[1..N].copy_from_slice(&self.coeffs[..N - 1]);
        Self { coeffs: out }
    }

    /// Lifts the secret to `i64` coefficients for convolution algorithms.
    #[must_use]
    pub fn to_i64(&self) -> [i64; N] {
        let mut out = [0i64; N];
        for (o, &c) in out.iter_mut().zip(self.coeffs.iter()) {
            *o = i64::from(c);
        }
        out
    }

    /// Encodes each coefficient as a 4-bit two's-complement nibble, the
    /// representation used by the hardware secret buffers (16 coefficients
    /// per 64-bit memory word).
    ///
    /// Values must lie in `-8..=7`, which all Saber secrets do.
    #[must_use]
    pub fn to_nibbles(&self) -> [u8; N] {
        let mut out = [0u8; N];
        for (o, &c) in out.iter_mut().zip(self.coeffs.iter()) {
            *o = (c as u8) & 0x0f;
        }
        out
    }

    /// Decodes 4-bit two's-complement nibbles back into a secret.
    ///
    /// # Errors
    ///
    /// Returns [`SecretRangeError`] if a nibble decodes outside the Saber
    /// secret range.
    pub fn from_nibbles(nibbles: &[u8; N]) -> Result<Self, SecretRangeError> {
        let mut raw = [0i8; N];
        for (r, &n) in raw.iter_mut().zip(nibbles.iter()) {
            let v = (n & 0x0f) as i8;
            *r = if v >= 8 { v - 16 } else { v };
        }
        Self::try_from_coeffs(raw)
    }
}

impl Default for SecretPoly {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Debug for SecretPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SecretPoly[{}, {}, {}, {}, …, {}, {}]",
            self.coeffs[0],
            self.coeffs[1],
            self.coeffs[2],
            self.coeffs[3],
            self.coeffs[N - 2],
            self.coeffs[N - 1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_is_enforced() {
        let mut raw = [0i8; N];
        raw[17] = 6;
        let err = SecretPoly::try_from_coeffs(raw).unwrap_err();
        assert_eq!(err.index, 17);
        assert_eq!(err.value, 6);
        assert!(err.to_string().contains("index 17"));
    }

    #[test]
    fn range_check_reports_the_first_of_several_offenders() {
        let mut raw = [0i8; N];
        raw[200] = 7;
        raw[40] = i8::MIN;
        raw[90] = -6;
        let err = SecretPoly::try_from_coeffs(raw).unwrap_err();
        assert_eq!((err.index, err.value), (40, i8::MIN));
        raw[40] = -5;
        raw[90] = 5;
        raw[200] = 0;
        assert!(SecretPoly::try_from_coeffs(raw).is_ok(), "|s| = 5 is legal");
    }

    #[test]
    #[should_panic(expected = "secret coefficient -6 at index 3 out of range")]
    fn from_fn_panics_on_the_first_offender() {
        let _ = SecretPoly::from_fn(|i| match i {
            3 => -6,
            9 => 6,
            _ => 0,
        });
    }

    #[test]
    fn nibble_roundtrip() {
        let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        let nibbles = s.to_nibbles();
        assert_eq!(SecretPoly::from_nibbles(&nibbles).unwrap(), s);
    }

    #[test]
    fn negative_nibbles_encode_as_twos_complement() {
        let s = SecretPoly::from_fn(|i| if i == 0 { -1 } else { 0 });
        assert_eq!(s.to_nibbles()[0], 0x0f);
    }

    #[test]
    fn mul_by_x_negates_wraparound() {
        let s = SecretPoly::from_fn(|i| if i == N - 1 { 3 } else { 0 });
        let shifted = s.mul_by_x();
        assert_eq!(shifted.coeff(0), -3);
        assert_eq!(shifted.coeff(1), 0);
    }

    #[test]
    fn mul_by_x_512_times_is_identity() {
        let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
        let mut t = s.clone();
        for _ in 0..(2 * N) {
            t = t.mul_by_x();
        }
        assert_eq!(t, s, "x^512 = 1 in the negacyclic ring");
    }

    #[test]
    fn max_magnitude_reported() {
        let s = SecretPoly::from_fn(|i| if i == 100 { -5 } else { 1 });
        assert_eq!(s.max_magnitude(), 5);
    }

    #[test]
    fn zeroize_clears_every_coefficient() {
        let mut s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        assert!(s.iter().any(|&c| c != 0));
        s.zeroize();
        assert!(s.iter().all(|&c| c == 0));
        assert_eq!(s, SecretPoly::zero());
    }
}
