//! Ready-made [`TimingTarget`]s: the hot-path multiplier (or any boxed
//! backend), the secret sampler, and the full KEM
//! encapsulation/decapsulation pipelines.
//!
//! Class semantics follow dudect's fixed-vs-random recipe, with the
//! *secret* as the class variable and everything public randomized in
//! both classes:
//!
//! - [`MulTarget`]: fixed class reuses the all-zero secret (the
//!   extreme that maximizes the signal of support-dependent backends,
//!   and a perfectly legal input); random class draws a fresh bounded
//!   secret per sample.
//!   Public operands are fresh in *both* classes, so a detected
//!   difference can only come from the secret.
//! - [`DecapsTarget`]: fixed class decapsulates one (key, ciphertext)
//!   pair; random class draws from a pool of independently generated
//!   pairs, prepared at construction so per-sample work is a pool
//!   index, not a keygen.
//! - [`EncapsTarget`]: fixed class reuses one entropy input against a
//!   fixed public key; random class draws fresh entropy.
//! - [`SamplerTarget`]: fixed class expands one secret seed; random
//!   class draws a fresh seed, so the sampled secret differs per
//!   sample.

use saber_kem::expand::gen_secret;
use saber_kem::{decaps, encaps, keygen, Ciphertext, KemSecretKey, PublicKey, SaberParams};
use saber_ring::{CtSchoolbookMultiplier, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;

use crate::harness::{Class, TimingTarget};

type Backend = Box<dyn PolyMultiplier + Send>;

/// Times one polynomial multiplication per sample on any boxed backend.
pub struct MulTarget {
    backend: Backend,
    bound: i8,
}

impl MulTarget {
    /// Target for the constant-time hot-path engine, at the full
    /// LightSaber bound.
    #[must_use]
    pub fn ct() -> Self {
        Self::from_backend(Box::new(CtSchoolbookMultiplier::new()), 5)
    }

    /// Target for an arbitrary backend (the timing mutants enter here),
    /// drawing random-class secrets with |s| ≤ `bound`.
    #[must_use]
    pub fn from_backend(backend: Backend, bound: i8) -> Self {
        Self { backend, bound }
    }
}

impl TimingTarget for MulTarget {
    type Input = (PolyQ, SecretPoly);

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        // The public operand is random in BOTH classes: only the secret
        // distinguishes them.
        let public = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
        let secret = match class {
            Class::Fixed => SecretPoly::zero(),
            Class::Random => {
                let bound = self.bound;
                SecretPoly::from_fn(|_| rng.secret_coeff(bound))
            }
        };
        (public, secret)
    }

    fn execute(&mut self, input: &Self::Input) {
        let product = self.backend.multiply(&input.0, &input.1);
        std::hint::black_box(product.coeff(0));
    }
}

/// Times one full decapsulation per sample: fixed (key, ciphertext)
/// pair vs a pool of random pairs.
pub struct DecapsTarget {
    backend: Backend,
    fixed: (KemSecretKey, Ciphertext),
    pool: Vec<(KemSecretKey, Ciphertext)>,
}

impl DecapsTarget {
    /// Builds the fixed pair and a `pool_size`-entry random pool for
    /// `params` on the constant-time engine, running all key generation
    /// up front (outside any timed region).
    #[must_use]
    pub fn new(params: &SaberParams, pool_size: usize, rng: &mut Rng) -> Self {
        let mut backend: Backend = Box::new(CtSchoolbookMultiplier::new());
        let mut pair = |rng: &mut Rng| {
            let (pk, sk) = keygen(params, &rng.bytes32(), backend.as_mut());
            let (ct, _ss) = encaps(&pk, &rng.bytes32(), backend.as_mut());
            (sk, ct)
        };
        let fixed = pair(rng);
        let pool = (0..pool_size.max(1)).map(|_| pair(rng)).collect();
        Self {
            backend,
            fixed,
            pool,
        }
    }
}

impl TimingTarget for DecapsTarget {
    type Input = (Class, usize);

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        let idx = rng.range_usize(0, self.pool.len() - 1);
        (class, idx)
    }

    fn execute(&mut self, input: &Self::Input) {
        let (sk, ct) = match input.0 {
            Class::Fixed => &self.fixed,
            Class::Random => &self.pool[input.1],
        };
        let ss = decaps(sk, ct, self.backend.as_mut());
        std::hint::black_box(ss.as_bytes()[0]);
    }
}

/// Times one full encapsulation per sample against a fixed public key:
/// fixed vs fresh entropy.
pub struct EncapsTarget {
    backend: Backend,
    pk: PublicKey,
    fixed_entropy: [u8; 32],
}

impl EncapsTarget {
    /// Builds the key pair on the constant-time engine, up front
    /// (outside any timed region).
    #[must_use]
    pub fn new(params: &SaberParams, rng: &mut Rng) -> Self {
        let mut backend: Backend = Box::new(CtSchoolbookMultiplier::new());
        let (pk, _sk) = keygen(params, &rng.bytes32(), backend.as_mut());
        let fixed_entropy = rng.bytes32();
        Self {
            backend,
            pk,
            fixed_entropy,
        }
    }
}

impl TimingTarget for EncapsTarget {
    type Input = [u8; 32];

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        match class {
            Class::Fixed => self.fixed_entropy,
            Class::Random => rng.bytes32(),
        }
    }

    fn execute(&mut self, input: &Self::Input) {
        let (_ct, ss) = encaps(&self.pk, input, self.backend.as_mut());
        std::hint::black_box(ss.as_bytes()[0]);
    }
}

/// Times one secret-vector expansion (`saber_kem::expand::gen_secret`:
/// SHAKE-128, the centered binomial sampler, the range check) per
/// sample: fixed vs fresh seed. Keygen, encaps and the decaps
/// re-encryption all run this on secret seeds.
pub struct SamplerTarget {
    params: SaberParams,
    fixed_seed: [u8; 32],
}

impl SamplerTarget {
    /// Draws the fixed-class seed for `params`.
    #[must_use]
    pub fn new(params: &SaberParams, rng: &mut Rng) -> Self {
        Self {
            params: *params,
            fixed_seed: rng.bytes32(),
        }
    }
}

impl TimingTarget for SamplerTarget {
    type Input = [u8; 32];

    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input {
        match class {
            Class::Fixed => self.fixed_seed,
            Class::Random => rng.bytes32(),
        }
    }

    fn execute(&mut self, input: &Self::Input) {
        let secret = gen_secret(input, &self.params);
        std::hint::black_box(secret[0].coeff(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_kem::LIGHT_SABER;

    #[test]
    fn mul_target_classes_differ_only_in_the_secret() {
        let mut target = MulTarget::ct();
        let mut rng = Rng::new(42);
        let (_, s_fixed) = target.prepare(Class::Fixed, &mut rng);
        let (_, s_fixed2) = target.prepare(Class::Fixed, &mut rng);
        assert_eq!(s_fixed, s_fixed2, "fixed class reuses one secret");
        assert_eq!(s_fixed, SecretPoly::zero(), "the all-zero fixed secret");
        let (_, s_rand) = target.prepare(Class::Random, &mut rng);
        let (_, s_rand2) = target.prepare(Class::Random, &mut rng);
        assert_ne!(s_rand, s_rand2, "random class draws fresh secrets");
    }

    #[test]
    fn mul_target_executes_on_the_ct_engine() {
        let mut rng = Rng::new(7);
        let mut target = MulTarget::ct();
        for class in [Class::Fixed, Class::Random] {
            let input = target.prepare(class, &mut rng);
            target.execute(&input);
        }
    }

    #[test]
    fn kem_targets_run_end_to_end() {
        let mut rng = Rng::new(9);
        let mut dec = DecapsTarget::new(&LIGHT_SABER, 4, &mut rng);
        for class in [Class::Fixed, Class::Random] {
            let input = dec.prepare(class, &mut rng);
            dec.execute(&input);
        }
        let mut enc = EncapsTarget::new(&LIGHT_SABER, &mut rng);
        for class in [Class::Fixed, Class::Random] {
            let input = enc.prepare(class, &mut rng);
            enc.execute(&input);
        }
    }

    #[test]
    fn sampler_target_classes_differ_only_in_the_seed() {
        let mut rng = Rng::new(11);
        let mut target = SamplerTarget::new(&LIGHT_SABER, &mut rng);
        let fixed = target.prepare(Class::Fixed, &mut rng);
        assert_eq!(fixed, target.prepare(Class::Fixed, &mut rng));
        let random = target.prepare(Class::Random, &mut rng);
        assert_ne!(random, target.prepare(Class::Random, &mut rng));
        target.execute(&fixed);
        target.execute(&random);
    }
}
