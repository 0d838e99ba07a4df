//! Constant-time multiplier: one Karatsuba level over a register-blocked
//! schoolbook, with a secret-independent scan order and memory access
//! pattern.
//!
//! The shortcuts that make a software multiplier fast tend to depend on
//! the *secret* operand: scanning only the positions that hold each
//! nonzero secret value makes the work proportional to the secret's
//! support, and a separate path for negative coefficients makes it
//! depend on the sign pattern. [`CtSchoolbookMultiplier`] takes neither,
//! and is still the fastest multiplier in the workspace and the one
//! hot-path engine (README "Engines").
//!
//! # The kernel
//!
//! Each operand splits into halves, `a = a_lo + x^128·a_hi`. One
//! Karatsuba level turns a product into three 128 × 128 half-products,
//! `a_lo·s_lo`, `a_hi·s_hi` and `(a_lo + a_hi)·(s_lo + s_hi)`: 3 · 128²
//! multiply-accumulates instead of 256². Each half-product is a
//! register-blocked schoolbook ([`mac_block`]): one pass takes [`BLOCK`]
//! secret lanes and runs once over the [`WINDOW`] arena lanes they
//! touch, so every arena lane is loaded and stored once per `BLOCK`
//! MACs. The public half is padded with `BLOCK − 1` zeros on each side
//! ([`PADDED`]), so every shifted read is a fixed in-bounds slice.
//!
//! [`PolyMultiplier::inner_product`] accumulates the three half-products
//! of every pair into three stack arenas, then interpolates
//! (`mid = pm − p0 − p1`) and folds `x^256 ≡ −1` once per output, not
//! once per product. [`PolyMultiplier::multiply`] is the same code run
//! on one pair.
//!
//! # Exactness
//!
//! Every lane is a wrapping `u16`, and every operation on it — the
//! operand sums `a_lo + a_hi` and `s_lo + s_hi`, the MACs, the
//! interpolation's subtractions and the fold — is `+`, `−` or `×` mod
//! 2^16. Karatsuba needs no division: its interpolation is
//! `mid = pm − p0 − p1`. (Toom-4's divides by 2, 4 and 8 and so spends
//! 3 of the 16 bits.) The lanes therefore hold the exact integer result
//! mod 2^16, and reduction mod 2^16 followed by reduction mod
//! q = 2^13 equals reduction mod 2^13, because 2^13 divides 2^16. No
//! intermediate bound is needed: `s_lo + s_hi` reaches ±10 and
//! `a_lo + a_hi` reaches 2^14 − 2, and both are plain ring elements.
//! This is the paper's HS-I observation (§3.1: 13-bit MAC registers make
//! the mod-q reduction free) at lane width 16. The `wrapping_*`
//! operations carry no overflow check even under `overflow-checks =
//! true`, so LLVM vectorizes [`mac_block`] into 8-lane SSE2
//! `pmullw`/`paddw` on baseline x86-64.
//!
//! # Secret independence
//!
//! The trip count of every loop, and every address read or written, is
//! a function of `N`, [`BLOCK`] and the number of pairs alone, all of
//! which are public: each pair is split, evaluated and scanned block by
//! block in the same order whatever its values. There is no branch on a
//! secret, no early exit or zero skip, and no secret-indexed table;
//! secret lanes enter only as multiplicands of `wrapping_mul` and as
//! addends of `wrapping_add`. The residual assumption, standard for this
//! style of hardening, is that the CPU's integer multiply has
//! operand-independent latency (true of every mainstream 64-bit core;
//! see DESIGN.md §14 for the threat model). The `saber-timing` crate's
//! dudect-style harness is the *measured* check on that assumption:
//! this engine is the one backend expected to pass the fixed-vs-random
//! leakage gate.

use crate::modulus::{EPS_Q, N};
use crate::mul::PolyMultiplier;
use crate::poly::PolyQ;
use crate::secret::SecretPoly;

// The u16 lanes are exact only while q divides 2^16.
const _: () = assert!(EPS_Q <= 16);

/// Secret lanes per pass of the blocked schoolbook, chosen by paired
/// measurement against 8 and 16.
pub const BLOCK: usize = 4;

/// Operand length of each half-product: one Karatsuba level halves `N`.
pub const HALF: usize = N / 2;

/// Arena lanes one [`mac_block`] pass writes: a half operand shifted by
/// up to `BLOCK − 1`.
pub const WINDOW: usize = HALF + BLOCK - 1;

/// Length of a half operand padded with `BLOCK − 1` zeros on each side.
pub const PADDED: usize = HALF + 2 * (BLOCK - 1);

/// Lanes of a half-product arena: `2·HALF − 1` are written, the last
/// stays zero.
const ARENA: usize = 2 * HALF;

const _: () = assert!(HALF.is_multiple_of(BLOCK));

/// Constant-time Karatsuba-over-blocked-schoolbook backend, the
/// hot-path engine.
///
/// # Examples
///
/// ```
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier};
/// use saber_ring::{CtSchoolbookMultiplier, PolyQ, SecretPoly};
///
/// let a = PolyQ::from_fn(|i| (i as u16 * 31) & 0x1fff);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// let mut ct = CtSchoolbookMultiplier::new();
/// let mut oracle = SchoolbookMultiplier;
/// let product = oracle.multiply(&a, &s);
/// assert_eq!(ct.multiply(&a, &s), product);
/// assert_eq!(ct.inner_product(&[(&a, &s), (&a, &s)]), &product + &product);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtSchoolbookMultiplier;

impl CtSchoolbookMultiplier {
    /// A fresh engine. It holds no state: the arenas live on the stack
    /// of each call.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// One pass of the blocked scan:
/// `window[m] += Σ_t padded[BLOCK − 1 − t + m] · secrets[t]` in wrapping
/// `u16` lanes, for `BLOCK` secret lanes (sign-extended to 16 bits).
///
/// Each window lane is loaded and stored once per `BLOCK` MACs. For the
/// block of secret lanes `j .. j + BLOCK` of a half-product, the window
/// is the arena's lanes `j .. j + WINDOW`. It is public so that timing
/// mutants can reuse the shipped kernel verbatim.
#[inline]
pub fn mac_block(window: &mut [u16; WINDOW], padded: &[u16; PADDED], secrets: &[u16; BLOCK]) {
    let rows: [&[u16; WINDOW]; BLOCK] = std::array::from_fn(|t| {
        padded[BLOCK - 1 - t..][..WINDOW]
            .try_into()
            .expect("WINDOW lanes")
    });
    for (m, slot) in window.iter_mut().enumerate() {
        let mut acc = *slot;
        for (row, &s) in rows.iter().zip(secrets) {
            acc = acc.wrapping_add(row[m].wrapping_mul(s));
        }
        *slot = acc;
    }
}

/// Adds the half-product `padded · secrets` into `arena`, one
/// [`mac_block`] pass per block of secret lanes.
fn half_product(arena: &mut [u16; ARENA], padded: &[u16; PADDED], secrets: &[u16; HALF]) {
    for (j, block) in secrets.chunks_exact(BLOCK).enumerate() {
        let start = j * BLOCK;
        let window = (&mut arena[start..start + WINDOW])
            .try_into()
            .expect("WINDOW lanes");
        mac_block(window, padded, block.try_into().expect("BLOCK lanes"));
    }
}

/// The three half-product sums of one inner product:
/// `Σ a_lo·s_lo`, `Σ a_hi·s_hi` and `Σ (a_lo + a_hi)·(s_lo + s_hi)`.
struct Arenas([[u16; ARENA]; 3]);

impl Arenas {
    fn new() -> Self {
        Self([[0; ARENA]; 3])
    }

    /// Evaluates one pair at the three Karatsuba points and adds their
    /// half-products.
    fn accumulate(&mut self, public: &PolyQ, secret: &SecretPoly) {
        let (a, s) = (public.coeffs(), secret.coeffs());
        let mut publics = [[0u16; PADDED]; 3];
        let mut secrets = [[0u16; HALF]; 3];
        for i in 0..HALF {
            let (lo, hi) = (a[i], a[i + HALF]);
            publics[0][BLOCK - 1 + i] = lo;
            publics[1][BLOCK - 1 + i] = hi;
            publics[2][BLOCK - 1 + i] = lo.wrapping_add(hi);
            // `as` sign-extends: -1 becomes 0xffff ≡ -1 (mod 2^16).
            let (lo, hi) = (s[i] as u16, s[i + HALF] as u16);
            secrets[0][i] = lo;
            secrets[1][i] = hi;
            secrets[2][i] = lo.wrapping_add(hi);
        }
        for ((arena, padded), secrets) in self.0.iter_mut().zip(&publics).zip(&secrets) {
            half_product(arena, padded, secrets);
        }
    }

    /// Karatsuba interpolation and negacyclic fold in one pass. The
    /// unreduced sum is `p0 + x^HALF·mid + x^N·p1` with
    /// `mid = pm − p0 − p1`, and `x^N ≡ −1` folds lanes `N..` onto
    /// `0..N` with a minus sign:
    ///
    /// - `out[k]        = p0[k] − p1[k] − mid[k + HALF]`
    /// - `out[k + HALF] = p0[k + HALF] − p1[k + HALF] + mid[k]`
    ///
    /// for `k < HALF`.
    fn interpolate_fold(&self) -> PolyQ {
        let [p0, p1, pm] = &self.0;
        let mid = |i: usize| pm[i].wrapping_sub(p0[i]).wrapping_sub(p1[i]);
        let mut out = [0u16; N];
        for k in 0..HALF {
            out[k] = p0[k].wrapping_sub(p1[k]).wrapping_sub(mid(k + HALF));
            out[k + HALF] = p0[k + HALF].wrapping_sub(p1[k + HALF]).wrapping_add(mid(k));
        }
        PolyQ::from_coeffs(out)
    }
}

impl PolyMultiplier for CtSchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        self.inner_product(&[(public, secret)])
    }

    // multiply_batch: the trait default (a plain map over `multiply`)
    // is already secret-independent — no override.

    fn inner_product(&mut self, pairs: &[(&PolyQ, &SecretPoly)]) -> PolyQ {
        let mut arenas = Arenas::new();
        for (public, secret) in pairs {
            arenas.accumulate(public, secret);
        }
        arenas.interpolate_fold()
    }

    fn name(&self) -> &str {
        "ct-schoolbook constant-time (software)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::SchoolbookMultiplier;
    use saber_testkit::Rng;

    #[test]
    fn matches_the_schoolbook_oracle_on_random_operands() {
        let mut rng = Rng::new(0x5ABE_C701);
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        for _ in 0..24 {
            let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
            let s = SecretPoly::from_fn(|_| rng.secret_coeff(5));
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
    }

    #[test]
    fn zero_secret_yields_zero_product() {
        let mut ct = CtSchoolbookMultiplier::new();
        let a = PolyQ::from_fn(|i| (i as u16) & 0x1fff);
        let product = ct.multiply(&a, &SecretPoly::zero());
        assert_eq!(product, PolyQ::zero());
    }

    #[test]
    fn extreme_magnitude_secrets_stay_exact() {
        // All-(+5) and all-(-5) secrets maximize the accumulator bound.
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        let a = PolyQ::from_fn(|_| 0x1fff);
        for mag in [5i8, -5] {
            let s = SecretPoly::from_fn(|_| mag);
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
    }

    #[test]
    fn mac_block_reads_shifted_padded_lanes() {
        // A unit secret in lane t copies the half operand, shifted by t,
        // into the window.
        let mut padded = [0u16; PADDED];
        for (i, lane) in padded[BLOCK - 1..][..HALF].iter_mut().enumerate() {
            *lane = i as u16 + 1;
        }
        for t in 0..BLOCK {
            let mut secrets = [0u16; BLOCK];
            secrets[t] = 1;
            let mut window = [0u16; WINDOW];
            mac_block(&mut window, &padded, &secrets);
            for (m, &lane) in window.iter().enumerate() {
                let expected = if (t..t + HALF).contains(&m) {
                    (m - t) as u16 + 1
                } else {
                    0
                };
                assert_eq!(lane, expected, "lane {m}, secret lane {t}");
            }
        }
    }
}
