//! The polynomial-multiplier backend abstraction.
//!
//! Every multiplier in this workspace — the software baselines in this
//! crate and the cycle-accurate hardware models in `saber-core` —
//! implements [`PolyMultiplier`], so the Saber KEM and the benchmark
//! harness can swap backends freely. The signature is the asymmetric
//! Saber multiplication: a 13-bit public operand times a small secret.
//!
//! Backends take `&mut self` because hardware models accumulate cycle
//! and memory-access statistics across invocations.

use crate::karatsuba;
use crate::poly::PolyQ;
use crate::schoolbook;
use crate::secret::SecretPoly;
use crate::toom;

/// A backend that multiplies a public mod-`q` polynomial by a secret.
///
/// Multiplications modulo `p = 2^10` are served by the same backend:
/// zero-extend the mod-`p` operand into mod-`q`, multiply, and mask the
/// result down (the integer residues are equal, so the low 10 bits of the
/// mod-`2^13` product are exactly the mod-`2^10` product).
///
/// # Examples
///
/// ```
/// use saber_ring::{PolyQ, SecretPoly};
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier, ToomCook4Multiplier};
///
/// let a = PolyQ::from_fn(|i| i as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 7) as i8) - 3);
/// let mut reference = SchoolbookMultiplier;
/// let mut fast = ToomCook4Multiplier;
/// assert_eq!(reference.multiply(&a, &s), fast.multiply(&a, &s));
/// ```
pub trait PolyMultiplier {
    /// Computes `public · secret` in `Z_{2^13}[x]/(x^256 + 1)`.
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ;

    /// Computes a batch of products, one per `(public, secret)` pair, in
    /// order.
    ///
    /// The default implementation loops over [`multiply`](Self::multiply),
    /// so every backend is automatically batch-capable. A backend that
    /// can amortize per-operand work across the batch may override it;
    /// wrappers that time or count calls override it to forward.
    fn multiply_batch(&mut self, ops: &[(&PolyQ, &SecretPoly)]) -> Vec<PolyQ> {
        ops.iter().map(|(a, s)| self.multiply(a, s)).collect()
    }

    /// Computes the inner product `Σ public_k · secret_k` over the pairs;
    /// no pairs give the zero polynomial.
    ///
    /// Every output of the KEM's module arithmetic is one inner product:
    /// a row of [`PolyMatrix::mul_vec`](crate::PolyMatrix::mul_vec) and
    /// [`PolyVec::inner_product_mod_p`](crate::PolyVec::inner_product_mod_p)
    /// each make one call. The default sums
    /// [`multiply_batch`](Self::multiply_batch), so a backend that keeps
    /// it — every cycle-accurate model — makes exactly one per-product
    /// call per pair. [`CtSchoolbookMultiplier`](crate::CtSchoolbookMultiplier)
    /// overrides it to accumulate every pair before it interpolates and
    /// folds once.
    fn inner_product(&mut self, pairs: &[(&PolyQ, &SecretPoly)]) -> PolyQ {
        let mut acc = PolyQ::zero();
        for product in &self.multiply_batch(pairs) {
            acc += product;
        }
        acc
    }

    /// Human-readable backend name for reports and tables.
    fn name(&self) -> &str;
}

/// Reference schoolbook backend (the correctness oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchoolbookMultiplier;

impl PolyMultiplier for SchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        schoolbook::mul_asym(public, secret)
    }

    fn name(&self) -> &str {
        "schoolbook (software)"
    }
}

/// Recursive Karatsuba backend with a configurable recursion depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KaratsubaMultiplier {
    /// Recursion depth, 0 ..= 8; 8 is the fully-unrolled variant of \[11\].
    pub levels: u32,
}

impl Default for KaratsubaMultiplier {
    fn default() -> Self {
        Self { levels: 4 }
    }
}

impl PolyMultiplier for KaratsubaMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        karatsuba::mul_asym(public, secret, self.levels)
    }

    fn name(&self) -> &str {
        "karatsuba (software)"
    }
}

/// Toom-Cook 4-way backend (the original Saber submission's multiplier).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToomCook4Multiplier;

impl PolyMultiplier for ToomCook4Multiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        toom::mul_asym(public, secret)
    }

    fn name(&self) -> &str {
        "toom-cook-4 (software)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands(seed: u16) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) ^ (seed >> 1)),
            SecretPoly::from_fn(|i| ((((i as u16).wrapping_mul(seed) >> 3) % 11) as i8) - 5),
        )
    }

    #[test]
    fn all_software_backends_agree() {
        let (a, s) = operands(921);
        let expected = SchoolbookMultiplier.multiply(&a, &s);
        let mut backends: Vec<Box<dyn PolyMultiplier>> = vec![
            Box::new(KaratsubaMultiplier { levels: 0 }),
            Box::new(KaratsubaMultiplier { levels: 4 }),
            Box::new(KaratsubaMultiplier { levels: 8 }),
            Box::new(ToomCook4Multiplier),
        ];
        for backend in backends.iter_mut() {
            assert_eq!(
                backend.multiply(&a, &s),
                expected,
                "backend {}",
                backend.name()
            );
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn PolyMultiplier> = Box::new(SchoolbookMultiplier);
        let (a, s) = operands(3);
        let _ = boxed.multiply(&a, &s);
        assert!(boxed.name().contains("schoolbook"));
    }
}
