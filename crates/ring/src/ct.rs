//! Constant-time schoolbook multiplier: secret-independent scan order
//! and memory access pattern.
//!
//! The fast software engines in this workspace all trade timing
//! uniformity for speed in ways that depend on the *secret* operand:
//!
//! - the HS-I cached engine ([`crate::cached`]) builds value-indexed
//!   buckets and scans only the positions holding each nonzero secret
//!   value, so its work is proportional to the secret's support;
//! - the HS-II SWAR engine ([`crate::swar`]) takes a complement-trick
//!   path only for negative packed rows, so its work depends on the
//!   secret's sign pattern;
//! - Toom/NTT evaluate the secret operand through data-dependent
//!   normalization steps.
//!
//! [`CtSchoolbookMultiplier`] is the hardened engine, and the default
//! (`SABER_ENGINE=ct`): a fixed-order 256 × 256 multiply-accumulate
//! scan whose iteration count, branch trace, and memory addresses are
//! identical for every secret in the domain. There is no zero skip, no
//! sign branch, and no value-indexed table — coefficient `j` of the
//! secret always touches accumulator slots `j .. j + 256` in the same
//! order, whatever its value.
//!
//! The residual assumption, standard for this style of hardening, is
//! that the CPU's integer multiply has operand-independent latency
//! (true of every mainstream 64-bit core; see DESIGN.md §14 for the
//! threat model). The `saber-timing` crate's dudect-style harness is
//! the *measured* check on that assumption: this engine is the one
//! backend expected to pass the fixed-vs-random leakage gate. It is
//! also the fastest engine in the workspace (README "Engines").
//!
//! Exactness: the scan accumulates in wrapping `u16` lanes. Every
//! operation in it — multiply, add, and the negacyclic fold's subtract —
//! is a ring operation mod 2^16, and reduction mod 2^16 followed by
//! reduction mod q = 2^13 equals reduction mod 2^13, because 2^13
//! divides 2^16. So the wrapped lanes agree with the exact integer
//! product in their low 13 bits, which is all a `PolyQ` keeps. This is
//! the paper's HS-I observation (§3.1: 13-bit MAC registers make the
//! mod-q reduction free) at lane width 16. No intermediate bound is
//! needed, and the `wrapping_*` operations carry no overflow check even
//! under `overflow-checks = true`, so LLVM vectorizes the inner loop
//! (8-lane SSE2 `pmullw`/`paddw` on baseline x86-64) with no branch or
//! address that depends on the secret.

use crate::modulus::{EPS_Q, N};
use crate::mul::PolyMultiplier;
use crate::poly::PolyQ;
use crate::secret::SecretPoly;

// The u16 lanes are exact only while q divides 2^16.
const _: () = assert!(EPS_Q <= 16);

/// Constant-time fixed-scan schoolbook backend (`SABER_ENGINE=ct`, the
/// default engine).
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
/// assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtSchoolbookMultiplier;

impl CtSchoolbookMultiplier {
    /// A fresh engine. It holds no state: the product arena lives on the
    /// stack of each call.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// One pass of the fixed scan: `window[i] += a[i] · s_j` in wrapping
/// `u16` lanes, for secret coefficient `s_j` (sign-extended to 16 bits).
///
/// [`CtSchoolbookMultiplier`] calls this for every `j` on the window
/// `acc[j .. j + N]` of its `2N` arena; it is public so that timing
/// mutants can reuse the shipped kernel verbatim.
///
/// # Panics
///
/// Panics if `window` is shorter than `N`.
#[inline]
pub fn mac_row(window: &mut [u16], a: &[u16; N], sj: i8) {
    // `as` sign-extends: -1 becomes 0xffff ≡ -1 (mod 2^16).
    let s = sj as u16;
    for (slot, &av) in window[..N].iter_mut().zip(a.iter()) {
        *slot = slot.wrapping_add(av.wrapping_mul(s));
    }
}

/// Negacyclic fold of a `2N` product arena: `x^(k+N) ≡ -x^k` in
/// `Z[x]/(x^N + 1)`, so coefficient `k` is `acc[k] - acc[k + N]`. The
/// fold reads every slot unconditionally, so it is as uniform as the
/// scan.
#[inline]
#[must_use]
pub fn fold(acc: &[u16; 2 * N]) -> PolyQ {
    let (low, high) = acc.split_at(N);
    let mut folded = [0u16; N];
    for ((out, &lo), &hi) in folded.iter_mut().zip(low).zip(high) {
        *out = lo.wrapping_sub(hi);
    }
    PolyQ::from_coeffs(folded)
}

impl PolyMultiplier for CtSchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let a = public.coeffs();
        let mut acc = [0u16; 2 * N];
        // Fixed scan: every secret coefficient — zero, positive, or
        // negative — performs exactly N multiply-accumulates over the
        // same contiguous window. No early exit, no sign branch.
        for (j, &c) in secret.coeffs().iter().enumerate() {
            mac_row(&mut acc[j..], a, c);
        }
        fold(&acc)
    }

    // multiply_batch: the trait default (a plain map over `multiply`)
    // is already secret-independent — no override, so the batch path
    // inherits the uniform scan verbatim.

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
}
