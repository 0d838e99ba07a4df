//! The Saber IND-CPA public-key encryption scheme (Round-3 spec, §2.4).
//!
//! All polynomial multiplications are delegated to a
//! [`PolyMultiplier`] backend, so the same code runs on the software
//! oracles and on the cycle-accurate hardware models of `saber-core`.

use std::fmt;

use saber_ring::rounding::{h1, h2};
use saber_ring::{packing, PolyMultiplier, PolyP, PolyVec, SecretVec, EPS_P, N};

use crate::expand::{gen_matrix, gen_secret, MatrixCache};
use crate::params::SaberParams;

/// A polynomial compressed to `bits`-wide coefficients (the ciphertext
/// component `c_m`; `bits = ε_T` varies per parameter set, so the width
/// is a runtime value rather than a const generic).
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedPoly {
    values: [u16; N],
    bits: u32,
}

impl CompressedPoly {
    /// Wraps raw values, validating the width.
    ///
    /// # Panics
    ///
    /// Panics if any value needs more than `bits` bits.
    #[must_use]
    pub fn new(values: [u16; N], bits: u32) -> Self {
        assert!((1..=10).contains(&bits), "compression width out of range");
        for (i, &v) in values.iter().enumerate() {
            assert!(
                u32::from(v) < (1 << bits),
                "value {v} at {i} exceeds {bits} bits"
            );
        }
        Self { values, bits }
    }

    /// Coefficient `i`.
    #[must_use]
    pub fn coeff(&self, i: usize) -> u16 {
        self.values[i]
    }

    /// Compression width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Serializes as a little-endian bitstream.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        packing::pack_bits(&self.values, self.bits)
    }

    /// Allocation-free [`to_bytes`](Self::to_bytes): `out` must hold
    /// exactly `256·bits/8` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub(crate) fn to_bytes_into(&self, out: &mut [u8]) {
        packing::pack_bits_into(&self.values, self.bits, out);
    }

    /// Deserializes from a little-endian bitstream.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for 256 `bits`-wide values.
    #[must_use]
    pub fn from_bytes(bytes: &[u8], bits: u32) -> Self {
        let mut values = [0u16; N];
        packing::unpack_bits_into(bytes, bits, &mut values);
        Self::new(values, bits)
    }
}

impl fmt::Debug for CompressedPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompressedPoly({} bits)", self.bits)
    }
}

/// A Saber public key: the matrix seed and the rounded vector `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    /// Seed from which the public matrix `A` is expanded.
    pub seed_a: [u8; 32],
    /// The rounded product `b = ((Aᵀs + h) mod q) >> (ε_q − ε_p)`.
    pub b: PolyVec<10>,
    /// Parameter set this key belongs to.
    pub params: SaberParams,
}

/// The IND-CPA secret key: the small vector `s`.
#[derive(Clone, PartialEq, Eq)]
pub struct CpaSecretKey {
    /// The secret vector.
    pub s: SecretVec,
    /// Parameter set this key belongs to.
    pub params: SaberParams,
}

impl fmt::Debug for CpaSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "CpaSecretKey({}, <redacted>)", self.params.name)
    }
}

/// A Saber ciphertext: the rounded vector `b'` and the compressed `c_m`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// The rounded re-encryption vector.
    pub b_prime: PolyVec<10>,
    /// The compressed message-carrying polynomial.
    pub cm: CompressedPoly,
}

/// IND-CPA key generation (Algorithm 17 of the spec).
///
/// Deterministic given the two 32-byte seeds; the caller supplies
/// randomness (the KEM layer feeds hashed seeds).
#[must_use]
pub fn keygen<M: PolyMultiplier + ?Sized>(
    params: &SaberParams,
    seed_a: [u8; 32],
    seed_s: &[u8; 32],
    backend: &mut M,
) -> (PublicKey, CpaSecretKey) {
    let _span = saber_trace::span("kem", "pke.keygen");
    let a = gen_matrix(&seed_a, params);
    let s = gen_secret(seed_s, params);
    let product = {
        let _matvec = saber_trace::span("kem", "matvec");
        a.mul_vec_transposed(&s, backend)
    };
    let b = {
        let _rounding = saber_trace::span("kem", "rounding");
        product.add_constant(h1()).scale_round_to_p_floor()
    };
    (
        PublicKey {
            seed_a,
            b,
            params: *params,
        },
        CpaSecretKey { s, params: *params },
    )
}

/// IND-CPA encryption of a 32-byte message with explicit coins
/// (Algorithm 18), expanding `A` from `pk.seed_a` afresh: this is
/// [`encrypt_cached`] with an empty cache.
#[must_use]
pub fn encrypt<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    message: &[u8; 32],
    coins: &[u8; 32],
    backend: &mut M,
) -> Ciphertext {
    encrypt_cached(pk, message, coins, &mut MatrixCache::new(), backend)
}

/// [`encrypt`] taking `A` from `matrices`, which looks it up by the
/// key's own `seed_A` and rank (expanding it on a miss). The matrix
/// never comes from the caller, so it cannot belong to another key, and
/// the ciphertext is byte-identical to [`encrypt`]'s.
#[must_use]
pub fn encrypt_cached<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    message: &[u8; 32],
    coins: &[u8; 32],
    matrices: &mut MatrixCache,
    backend: &mut M,
) -> Ciphertext {
    let _span = saber_trace::span("kem", "pke.encrypt");
    let params = &pk.params;
    let a = matrices.matrix(&pk.seed_a, params);
    let s_prime = gen_secret(coins, params);

    // b' = ((A·s' + h) mod q) >> (ε_q − ε_p) takes one inner product per
    // row of A, and v' = bᵀ·(s' mod p) + h1 mod p takes one more.
    let (product, v) = {
        let _matvec = saber_trace::span("kem", "matvec");
        (
            a.mul_vec(&s_prime, backend),
            pk.b.inner_product_mod_p(&s_prime, backend),
        )
    };

    let _rounding = saber_trace::span("kem", "rounding");
    let b_prime = product.add_constant(h1()).scale_round_to_p_floor();
    let v_prime = v.add_constant(h1());

    // c_m = (v' − 2^(ε_p−1)·m mod p) >> (ε_p − ε_T)
    let m_poly = packing::message_to_poly(message);
    let shift = EPS_P - params.eps_t;
    let mut cm = [0u16; N];
    for (i, slot) in cm.iter_mut().enumerate() {
        let with_msg = v_prime
            .coeff(i)
            .wrapping_sub(m_poly.coeff(i) << (EPS_P - 1))
            & PolyP::MASK;
        *slot = with_msg >> shift;
    }
    Ciphertext {
        b_prime,
        cm: CompressedPoly::new(cm, params.eps_t),
    }
}

/// IND-CPA decryption (Algorithm 19).
#[must_use]
pub fn decrypt<M: PolyMultiplier + ?Sized>(
    sk: &CpaSecretKey,
    ciphertext: &Ciphertext,
    backend: &mut M,
) -> [u8; 32] {
    let _span = saber_trace::span("kem", "pke.decrypt");
    let params = &sk.params;
    // v = b'ᵀ·(s mod p) mod p
    let v = {
        let _matvec = saber_trace::span("kem", "matvec");
        ciphertext.b_prime.inner_product_mod_p(&sk.s, backend)
    };

    let _rounding = saber_trace::span("kem", "rounding");
    // m' = ((v + h2 − 2^(ε_p − ε_T)·c_m) mod p) >> (ε_p − 1)
    let shift = EPS_P - params.eps_t;
    let h2_val = h2(params.eps_t);
    let mut m_poly = saber_ring::Poly::<1>::zero();
    for i in 0..N {
        let x = v
            .coeff(i)
            .wrapping_add(h2_val)
            .wrapping_sub(ciphertext.cm.coeff(i) << shift)
            & PolyP::MASK;
        m_poly.set_coeff(i, x >> (EPS_P - 1));
    }
    packing::poly_to_message(&m_poly)
}

/// Floor-scaling helper on vectors (the spec shifts after adding `h`, so
/// no extra rounding constant is applied here).
trait ScaleRoundExt {
    fn scale_round_to_p_floor(&self) -> PolyVec<10>;
}

impl ScaleRoundExt for PolyVec<13> {
    fn scale_round_to_p_floor(&self) -> PolyVec<10> {
        PolyVec::from_polys(
            self.iter()
                .map(saber_ring::rounding::scale_floor::<13, 10>)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ALL_PARAMS, SABER};
    use saber_ring::mul::SchoolbookMultiplier;

    fn msg(seed: u8) -> [u8; 32] {
        let mut m = [0u8; 32];
        for (i, b) in m.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(29).wrapping_add(seed);
        }
        m
    }

    #[test]
    fn roundtrip_all_parameter_sets() {
        let mut backend = SchoolbookMultiplier;
        for params in &ALL_PARAMS {
            let (pk, sk) = keygen(params, [1; 32], &[2; 32], &mut backend);
            for seed in 0..4u8 {
                let m = msg(seed);
                let ct = encrypt(&pk, &m, &[seed.wrapping_add(40); 32], &mut backend);
                assert_eq!(
                    decrypt(&sk, &ct, &mut backend),
                    m,
                    "{} seed {seed}",
                    params.name
                );
            }
        }
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        let mut backend = SchoolbookMultiplier;
        let (pk, sk) = keygen(&SABER, [3; 32], &[4; 32], &mut backend);
        for m in [[0u8; 32], [0xff; 32]] {
            let ct = encrypt(&pk, &m, &[9; 32], &mut backend);
            assert_eq!(decrypt(&sk, &ct, &mut backend), m);
        }
    }

    #[test]
    fn decryption_with_wrong_key_garbles() {
        let mut backend = SchoolbookMultiplier;
        let (pk, _) = keygen(&SABER, [5; 32], &[6; 32], &mut backend);
        let (_, wrong_sk) = keygen(&SABER, [5; 32], &[7; 32], &mut backend);
        let m = msg(1);
        let ct = encrypt(&pk, &m, &[8; 32], &mut backend);
        assert_ne!(decrypt(&wrong_sk, &ct, &mut backend), m);
    }

    #[test]
    fn ciphertexts_differ_per_coins() {
        let mut backend = SchoolbookMultiplier;
        let (pk, _) = keygen(&SABER, [1; 32], &[2; 32], &mut backend);
        let m = msg(0);
        let c1 = encrypt(&pk, &m, &[10; 32], &mut backend);
        let c2 = encrypt(&pk, &m, &[11; 32], &mut backend);
        assert_ne!(c1, c2);
    }

    #[test]
    fn encryption_is_deterministic_given_coins() {
        let mut backend = SchoolbookMultiplier;
        let (pk, _) = keygen(&SABER, [1; 32], &[2; 32], &mut backend);
        let m = msg(7);
        assert_eq!(
            encrypt(&pk, &m, &[12; 32], &mut backend),
            encrypt(&pk, &m, &[12; 32], &mut backend)
        );
    }

    #[test]
    fn compressed_poly_roundtrip() {
        let values = {
            let mut v = [0u16; N];
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = (i % 16) as u16;
            }
            v
        };
        let cp = CompressedPoly::new(values, 4);
        assert_eq!(CompressedPoly::from_bytes(&cp.to_bytes(), 4), cp);
    }

    #[test]
    #[should_panic(expected = "exceeds 3 bits")]
    fn compressed_poly_validates_width() {
        let mut values = [0u16; N];
        values[0] = 8;
        let _ = CompressedPoly::new(values, 3);
    }

    #[test]
    fn secret_key_debug_redacts() {
        let mut backend = SchoolbookMultiplier;
        let (_, sk) = keygen(&SABER, [1; 32], &[2; 32], &mut backend);
        assert!(format!("{sk:?}").contains("redacted"));
    }
}
