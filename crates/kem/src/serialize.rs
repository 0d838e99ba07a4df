//! Byte encodings of Saber keys and ciphertexts.
//!
//! The layouts are this workspace's own deterministic little-endian
//! bitstream framing (see DESIGN.md §2); lengths match the Round-3 spec
//! sizes exactly, which is what the hardware memory model cares about.

use std::fmt;

use saber_ring::{packing, PolyVec, N};

use crate::params::SaberParams;
use crate::pke::{Ciphertext, CompressedPoly, PublicKey};

/// Error returned when decoding malformed key/ciphertext bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer length does not match the parameter set.
    Length {
        /// Expected byte count.
        expected: usize,
        /// Received byte count.
        got: usize,
    },
    /// A secret-key nibble decodes outside the Saber secret range.
    SecretCoefficient {
        /// Polynomial of the secret vector holding the coefficient.
        poly: usize,
        /// Index of the first offending coefficient in that polynomial.
        index: usize,
        /// The decoded value.
        value: i8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "invalid encoding length: expected {expected}, got {got}")
            }
            DecodeError::SecretCoefficient { poly, index, value } => write!(
                f,
                "invalid secret key: coefficient {index} of polynomial {poly} decodes to \
                 {value}, outside the secret range"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes of one 10-bit polynomial.
const POLY10_BYTES: usize = N * 10 / 8;

/// Packs each polynomial of `v` into consecutive 320-byte slots of `out`.
fn polyvec10_into(v: &PolyVec<10>, out: &mut [u8]) {
    assert_eq!(
        v.len() * POLY10_BYTES,
        out.len(),
        "vector length must match the parameter set's rank"
    );
    for (poly, slot) in v.iter().zip(out.chunks_exact_mut(POLY10_BYTES)) {
        packing::poly_to_bytes_into(poly, slot);
    }
}

fn polyvec10_from_bytes(bytes: &[u8], rank: usize) -> PolyVec<10> {
    bytes
        .chunks_exact(POLY10_BYTES)
        .take(rank)
        .map(packing::poly_from_bytes::<10>)
        .collect()
}

/// Serializes a public key (`seed_A ‖ b`) into one buffer.
#[must_use]
pub fn public_key_to_bytes(pk: &PublicKey) -> Vec<u8> {
    let mut out = vec![0u8; pk.params.public_key_bytes()];
    out[..32].copy_from_slice(&pk.seed_a);
    polyvec10_into(&pk.b, &mut out[32..]);
    out
}

/// Deserializes a public key.
///
/// # Errors
///
/// Returns [`DecodeError::Length`] if the buffer size does not match the
/// parameter set.
pub fn public_key_from_bytes(bytes: &[u8], params: &SaberParams) -> Result<PublicKey, DecodeError> {
    let expected = params.public_key_bytes();
    if bytes.len() != expected {
        return Err(DecodeError::Length {
            expected,
            got: bytes.len(),
        });
    }
    let mut seed_a = [0u8; 32];
    seed_a.copy_from_slice(&bytes[..32]);
    let b = polyvec10_from_bytes(&bytes[32..], params.rank);
    Ok(PublicKey {
        seed_a,
        b,
        params: *params,
    })
}

/// Serializes a ciphertext (`b' ‖ c_m`) into one buffer.
#[must_use]
pub fn ciphertext_to_bytes(ct: &Ciphertext, params: &SaberParams) -> Vec<u8> {
    let mut out = vec![0u8; params.ciphertext_bytes()];
    let (b_prime, cm) = out.split_at_mut(params.rank * POLY10_BYTES);
    polyvec10_into(&ct.b_prime, b_prime);
    ct.cm.to_bytes_into(cm);
    out
}

/// Deserializes a ciphertext.
///
/// # Errors
///
/// Returns [`DecodeError::Length`] if the buffer size does not match the
/// parameter set.
pub fn ciphertext_from_bytes(
    bytes: &[u8],
    params: &SaberParams,
) -> Result<Ciphertext, DecodeError> {
    let expected = params.ciphertext_bytes();
    if bytes.len() != expected {
        return Err(DecodeError::Length {
            expected,
            got: bytes.len(),
        });
    }
    let split = params.rank * POLY10_BYTES;
    let b_prime = polyvec10_from_bytes(&bytes[..split], params.rank);
    let cm = CompressedPoly::from_bytes(&bytes[split..], params.eps_t);
    Ok(Ciphertext { b_prime, cm })
}

/// Serialized KEM secret-key length: the 4-bit-packed secret vector,
/// the embedded public key, the public-key hash, and `z`.
#[must_use]
pub const fn secret_key_bytes(params: &SaberParams) -> usize {
    params.rank * N * 4 / 8 + params.public_key_bytes() + 32 + 32
}

/// Serializes a KEM secret key (`s ‖ pk ‖ H(pk) ‖ z`, following the
/// spec's component order with this workspace's packing).
#[must_use]
pub fn secret_key_to_bytes(sk: &crate::kem::KemSecretKey) -> Vec<u8> {
    let params = sk.params();
    let mut out = Vec::with_capacity(secret_key_bytes(params));
    for poly in sk.cpa().s.iter() {
        for word in saber_ring::packing::secret_to_words(poly) {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    out.extend_from_slice(&public_key_to_bytes(sk.public_key()));
    out.extend_from_slice(sk.pk_hash());
    out.extend_from_slice(sk.z());
    debug_assert_eq!(out.len(), secret_key_bytes(params));
    out
}

/// Deserializes a KEM secret key.
///
/// # Errors
///
/// Returns [`DecodeError::Length`] on a size mismatch, and
/// [`DecodeError::SecretCoefficient`], naming the first offending
/// coefficient, when a nibble decodes outside the Saber secret range.
pub fn secret_key_from_bytes(
    bytes: &[u8],
    params: &SaberParams,
) -> Result<crate::kem::KemSecretKey, DecodeError> {
    let expected = secret_key_bytes(params);
    if bytes.len() != expected {
        return Err(DecodeError::Length {
            expected,
            got: bytes.len(),
        });
    }
    let sec_words_per_poly = N / 16;
    let mut offset = 0usize;
    let mut polys = Vec::with_capacity(params.rank);
    for poly_index in 0..params.rank {
        let mut words = [0u64; 16];
        for word in words.iter_mut() {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[offset..offset + 8]);
            *word = u64::from_le_bytes(raw);
            offset += 8;
        }
        debug_assert_eq!(words.len(), sec_words_per_poly);
        let poly = saber_ring::packing::secret_from_words(&words).map_err(|e| {
            DecodeError::SecretCoefficient {
                poly: poly_index,
                index: e.index,
                value: e.value,
            }
        })?;
        polys.push(poly);
    }
    let s = saber_ring::SecretVec::from_polys(polys);
    let pk_len = params.public_key_bytes();
    let pk = public_key_from_bytes(&bytes[offset..offset + pk_len], params)?;
    offset += pk_len;
    let mut pk_hash = [0u8; 32];
    pk_hash.copy_from_slice(&bytes[offset..offset + 32]);
    offset += 32;
    let mut z = [0u8; 32];
    z.copy_from_slice(&bytes[offset..offset + 32]);
    Ok(crate::kem::KemSecretKey::from_parts(
        crate::pke::CpaSecretKey { s, params: *params },
        pk,
        pk_hash,
        z,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ALL_PARAMS, SABER};
    use crate::pke;
    use saber_ring::mul::SchoolbookMultiplier;

    #[test]
    fn public_key_roundtrip_all_sets() {
        let mut backend = SchoolbookMultiplier;
        for params in &ALL_PARAMS {
            let (pk, _) = pke::keygen(params, [1; 32], &[2; 32], &mut backend);
            let bytes = public_key_to_bytes(&pk);
            assert_eq!(bytes.len(), params.public_key_bytes());
            assert_eq!(public_key_from_bytes(&bytes, params).unwrap(), pk);
        }
    }

    #[test]
    fn ciphertext_roundtrip_all_sets() {
        let mut backend = SchoolbookMultiplier;
        for params in &ALL_PARAMS {
            let (pk, _) = pke::keygen(params, [1; 32], &[2; 32], &mut backend);
            let ct = pke::encrypt(&pk, &[0x5a; 32], &[3; 32], &mut backend);
            let bytes = ciphertext_to_bytes(&ct, params);
            assert_eq!(bytes.len(), params.ciphertext_bytes());
            assert_eq!(ciphertext_from_bytes(&bytes, params).unwrap(), ct);
        }
    }

    #[test]
    fn secret_key_roundtrip_preserves_decapsulation() {
        let mut backend = SchoolbookMultiplier;
        for params in &ALL_PARAMS {
            let (pk, sk) = crate::kem::keygen(params, &[7; 32], &mut backend);
            let bytes = secret_key_to_bytes(&sk);
            assert_eq!(bytes.len(), secret_key_bytes(params), "{}", params.name);
            let restored = secret_key_from_bytes(&bytes, params).unwrap();
            let (ct, ss) = crate::kem::encaps(&pk, &[8; 32], &mut backend);
            assert_eq!(
                crate::kem::decaps(&restored, &ct, &mut backend),
                ss,
                "{}: restored key must decapsulate",
                params.name
            );
            // Implicit rejection state must survive too.
            assert_eq!(restored.z(), sk.z());
            assert_eq!(restored.pk_hash(), sk.pk_hash());
        }
    }

    #[test]
    fn secret_key_sizes() {
        // ℓ·128 + pk + 64 bytes.
        assert_eq!(secret_key_bytes(&SABER), 3 * 128 + 992 + 64);
    }

    #[test]
    fn malformed_secret_nibble_rejected() {
        let mut backend = SchoolbookMultiplier;
        let (_, sk) = crate::kem::keygen(&SABER, &[7; 32], &mut backend);
        let mut bytes = secret_key_to_bytes(&sk);
        bytes[0] = 0x77; // nibble 7 = +7, outside |s| ≤ 5
        let err = secret_key_from_bytes(&bytes, &SABER).unwrap_err();
        assert_eq!(
            err,
            DecodeError::SecretCoefficient {
                poly: 0,
                index: 0,
                value: 7
            }
        );
        assert!(
            err.to_string().contains("coefficient 0 of polynomial 0"),
            "{err}"
        );
        // The second polynomial's first nibble is reported as such.
        let mut bytes = secret_key_to_bytes(&sk);
        bytes[N / 2] = 0x08; // nibble 8 = −8
        assert_eq!(
            secret_key_from_bytes(&bytes, &SABER).unwrap_err(),
            DecodeError::SecretCoefficient {
                poly: 1,
                index: 0,
                value: -8
            }
        );
    }

    #[test]
    fn wrong_length_is_rejected() {
        let err = public_key_from_bytes(&[0u8; 10], &SABER).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Length {
                expected: 992,
                got: 10
            }
        );
        assert!(err.to_string().contains("992"));
        assert!(ciphertext_from_bytes(&[0u8; 9], &SABER).is_err());
    }
}
