//! Batched NTT-over-CRT hot-path engine.
//!
//! [`crate::ntt_crt`] provides the free-function two-prime NTT
//! multiplier; this module promotes it to a first-class
//! [`PolyMultiplier`]. The transform pipeline per product is
//!
//! 1. forward NTT of the public operand in both prime fields,
//! 2. pointwise product with the **cached forward NTT of the secret**
//!    ([`SecretNttSpectrum`]),
//! 3. inverse NTT + ψ⁻¹/N descale in both fields,
//! 4. Garner CRT recombination with a centered lift.
//!
//! Of the six transforms a naive call performs, the two secret-side
//! forwards are loop-invariant across a batch sharing a secret; the
//! batch path computes them once per distinct secret and reuses the
//! spectrum, counted by the `ntt.forward_skipped` trace counter. All state is
//! fixed-size arrays owned by the engine — the hot path touches the heap
//! only for the returned products.

use crate::modulus::N;
use crate::mul::PolyMultiplier;
use crate::ntt_crt::{context, forward_into, pointwise_inverse_into, recombine_centered};
use crate::poly::PolyQ;
use crate::secret::SecretPoly;

/// Per-secret reusable state: the secret's forward NTT in both prime
/// fields.
///
/// # Examples
///
/// ```
/// use saber_ring::ntt_crt_engine::SecretNttSpectrum;
/// use saber_ring::SecretPoly;
///
/// let s = SecretPoly::from_fn(|i| ((i % 5) as i8) - 2);
/// let mut spectrum = SecretNttSpectrum::default();
/// spectrum.decompose(&s);
/// ```
#[derive(Debug, Clone)]
pub struct SecretNttSpectrum {
    f1: [u32; N],
    f2: [u32; N],
}

impl Default for SecretNttSpectrum {
    fn default() -> Self {
        Self {
            f1: [0; N],
            f2: [0; N],
        }
    }
}

impl SecretNttSpectrum {
    /// (Re)computes the two forward transforms for `secret` in place.
    pub fn decompose(&mut self, secret: &SecretPoly) {
        let ctx = context();
        let s = secret.to_i64();
        forward_into(&s, &ctx.f1, &mut self.f1);
        forward_into(&s, &ctx.f2, &mut self.f2);
        saber_trace::counter("ring", "ntt.secret_forward_build", 1);
    }
}

/// NTT-CRT multiplier with engine-owned scratch and per-secret spectrum
/// caching (see the module docs).
///
/// # Examples
///
/// ```
/// use saber_ring::ntt_crt_engine::NttCrtEngine;
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier};
/// use saber_ring::{PolyQ, SecretPoly};
///
/// let a = PolyQ::from_fn(|i| (41 * i as u16) & 0x1fff);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// let mut ntt = NttCrtEngine::new();
/// assert_eq!(ntt.multiply(&a, &s), SchoolbookMultiplier.multiply(&a, &s));
/// ```
#[derive(Debug, Clone)]
pub struct NttCrtEngine {
    /// Public-side working vectors, one per prime field; they hold the
    /// forward transform, then the pointwise product, then the residues.
    fa1: [u32; N],
    fa2: [u32; N],
    /// Centered integer coefficients after recombination.
    recombined: [i64; N],
    /// Secret-spectrum scratch for the single-product path.
    scratch_secret: SecretNttSpectrum,
}

impl Default for NttCrtEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NttCrtEngine {
    /// Creates an engine with all scratch preallocated (and the CRT
    /// twiddle tables faulted in).
    #[must_use]
    pub fn new() -> Self {
        let _ = context();
        Self {
            fa1: [0; N],
            fa2: [0; N],
            recombined: [0; N],
            scratch_secret: SecretNttSpectrum::default(),
        }
    }

    /// Multiplies `public` by a secret whose spectrum was already
    /// computed — the amortizable core of the batch path.
    pub fn multiply_transformed(&mut self, public: &PolyQ, secret: &SecretNttSpectrum) -> PolyQ {
        let ctx = context();
        let a = public.to_i64();
        forward_into(&a, &ctx.f1, &mut self.fa1);
        forward_into(&a, &ctx.f2, &mut self.fa2);
        saber_trace::counter("ring", "ntt.public_forward", 2);
        pointwise_inverse_into(&mut self.fa1, &secret.f1, &ctx.f1);
        pointwise_inverse_into(&mut self.fa2, &secret.f2, &ctx.f2);
        recombine_centered(&self.fa1, &self.fa2, &mut self.recombined);
        saber_trace::counter("ring", "ntt.crt_recombine", 1);
        PolyQ::from_signed(&self.recombined)
    }
}

impl PolyMultiplier for NttCrtEngine {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let mut spectrum = std::mem::take(&mut self.scratch_secret);
        spectrum.decompose(secret);
        let product = self.multiply_transformed(public, &spectrum);
        self.scratch_secret = spectrum;
        product
    }

    fn multiply_batch(&mut self, ops: &[(&PolyQ, &SecretPoly)]) -> Vec<PolyQ> {
        // Transform each distinct secret exactly once (reference identity
        // first, value equality as a fallback); every reuse skips the two
        // secret-side forward transforms.
        let mut transformed: Vec<(&SecretPoly, SecretNttSpectrum)> = Vec::new();
        let mut out = Vec::with_capacity(ops.len());
        for &(public, secret) in ops {
            let index = match transformed
                .iter()
                .position(|(known, _)| std::ptr::eq(*known, secret) || *known == secret)
            {
                Some(index) => {
                    saber_trace::counter("ring", "ntt.forward_skipped", 2);
                    index
                }
                None => {
                    let mut spectrum = SecretNttSpectrum::default();
                    spectrum.decompose(secret);
                    transformed.push((secret, spectrum));
                    transformed.len() - 1
                }
            };
            out.push(self.multiply_transformed(public, &transformed[index].1));
        }
        out
    }

    fn name(&self) -> &str {
        "ntt-crt batched engine (software)"
    }
}

// Compile-time proof the engine can move into service worker threads.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<NttCrtEngine>();
    assert_send::<SecretNttSpectrum>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;

    fn poly(seed: u16) -> PolyQ {
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed).wrapping_add(seed >> 1) & 0x1fff)
    }

    fn secret(seed: i8) -> SecretPoly {
        SecretPoly::from_fn(|i| (((i as i16).wrapping_mul(seed as i16 + 7) % 11) - 5) as i8)
    }

    #[test]
    fn matches_schoolbook_oracle() {
        let mut ntt = NttCrtEngine::new();
        for seed in [3u16, 127, 2048, 8191] {
            let a = poly(seed);
            let s = secret((seed % 5) as i8);
            assert_eq!(
                ntt.multiply(&a, &s),
                schoolbook::mul_asym(&a, &s),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn worst_case_magnitudes_stay_within_crt_bound() {
        let mut ntt = NttCrtEngine::new();
        let a = PolyQ::from_fn(|_| 8191);
        for s in [
            SecretPoly::from_fn(|_| 5),
            SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 }),
            SecretPoly::zero(),
        ] {
            assert_eq!(ntt.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
        }
    }

    #[test]
    fn batch_matches_mapped_multiplies() {
        let mut ntt = NttCrtEngine::new();
        let publics: Vec<PolyQ> = (0..9).map(|k| poly(900 + k)).collect();
        let s0 = secret(1);
        let s1 = secret(3);
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .enumerate()
            .map(|(k, a)| (a, if k % 3 == 2 { &s1 } else { &s0 }))
            .collect();
        let batched = ntt.multiply_batch(&ops);
        for (k, (a, s)) in ops.iter().enumerate() {
            assert_eq!(batched[k], schoolbook::mul_asym(a, s), "pair {k}");
        }
    }

    #[test]
    fn batch_counters_record_skipped_forwards() {
        let session = saber_trace::start();
        saber_trace::instant_event("test", "sentinel.nttcrt");
        let mut ntt = NttCrtEngine::new();
        let publics: Vec<PolyQ> = (0..6).map(|k| poly(1100 + k)).collect();
        let s0 = secret(2);
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics.iter().map(|a| (a, &s0)).collect();
        let _ = ntt.multiply_batch(&ops);
        let trace = session.finish();
        let tid = trace
            .events()
            .iter()
            .find(|e| e.name == "sentinel.nttcrt")
            .expect("sentinel recorded")
            .tid;
        let total = |name: &str| -> i64 {
            trace
                .events()
                .iter()
                .filter(|e| e.tid == tid && e.name == name)
                .filter_map(|e| match e.kind {
                    saber_trace::EventKind::Counter { value, .. } => Some(value),
                    _ => None,
                })
                .sum()
        };
        // One secret, six ops: one spectrum build, 2×5 skipped forwards,
        // 2×6 public forwards, six recombines.
        assert_eq!(total("ntt.secret_forward_build"), 1);
        assert_eq!(total("ntt.forward_skipped"), 10);
        assert_eq!(total("ntt.public_forward"), 12);
        assert_eq!(total("ntt.crt_recombine"), 6);
    }

    #[test]
    fn scratch_state_does_not_leak_between_calls() {
        let mut ntt = NttCrtEngine::new();
        let _ = ntt.multiply(&poly(5432), &secret(5));
        let sparse = SecretPoly::from_fn(|k| i8::from(k == 31));
        let a = poly(77);
        assert_eq!(ntt.multiply(&a, &sparse), schoolbook::mul_asym(&a, &sparse));
    }
}
