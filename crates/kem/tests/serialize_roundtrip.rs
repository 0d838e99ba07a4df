//! Round-trip property tests for every bit width the serialization
//! layer packs: q = 13 bits, p = 10 bits, the three ciphertext
//! compression widths T ∈ {3, 4, 6}, and the 1-bit message encoding —
//! plus the full key/ciphertext framings built on top of them.
//!
//! Driven by the deterministic `saber-testkit` harness; every failure
//! message names the case seed.

use saber_kem::pke::CompressedPoly;
use saber_kem::{kem, pke, serialize, ALL_PARAMS};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::{packing, Poly, N};
use saber_testkit::{cases, Rng};

fn random_values(rng: &mut Rng, bits: u32) -> Vec<u16> {
    let mask = (1u16 << bits) - 1;
    (0..N).map(|_| rng.range_u16(0, mask)).collect()
}

#[test]
fn pack_bits_roundtrips_every_width() {
    for mut rng in cases(16) {
        for bits in [1u32, 3, 4, 6, 10, 13] {
            let values = random_values(&mut rng, bits);
            let bytes = packing::pack_bits(&values, bits);
            assert_eq!(
                bytes.len(),
                N * bits as usize / 8,
                "width {bits}: packed length must be exact (seed {})",
                rng.seed()
            );
            assert_eq!(
                packing::unpack_bits(&bytes, bits, N),
                values,
                "width {bits} (seed {})",
                rng.seed()
            );
        }
    }
}

#[test]
fn pack_bits_boundary_patterns_roundtrip() {
    // All-zero, all-ones, and alternating extremes — the patterns where
    // bit-spill bugs across byte boundaries show up.
    for bits in [1u32, 3, 4, 6, 10, 13] {
        let mask = (1u16 << bits) - 1;
        for pattern in [
            vec![0u16; N],
            vec![mask; N],
            (0..N)
                .map(|i| if i % 2 == 0 { mask } else { 0 })
                .collect::<Vec<u16>>(),
            (0..N).map(|i| (i as u16) & mask).collect(),
        ] {
            let bytes = packing::pack_bits(&pattern, bits);
            assert_eq!(
                packing::unpack_bits(&bytes, bits, N),
                pattern,
                "width {bits}"
            );
        }
    }
}

#[test]
fn poly_bytes_roundtrip_q_and_p() {
    fn roundtrip<const QBITS: u32>(rng: &mut Rng) {
        let poly = Poly::<QBITS>::from_fn(|_| rng.range_u16(0, ((1u32 << QBITS) - 1) as u16));
        let bytes = packing::poly_to_bytes(&poly);
        assert_eq!(bytes.len(), N * QBITS as usize / 8);
        assert_eq!(
            packing::poly_from_bytes::<QBITS>(&bytes),
            poly,
            "QBITS={QBITS} (seed {})",
            rng.seed()
        );
    }
    for mut rng in cases(16) {
        roundtrip::<13>(&mut rng);
        roundtrip::<10>(&mut rng);
        roundtrip::<1>(&mut rng);
    }
}

#[test]
fn compressed_poly_roundtrips_all_t_widths() {
    for mut rng in cases(16) {
        for params in &ALL_PARAMS {
            let bits = params.eps_t;
            let mut values = [0u16; N];
            for v in values.iter_mut() {
                *v = rng.range_u16(0, (1u16 << bits) - 1);
            }
            let cm = CompressedPoly::new(values, bits);
            let decoded = CompressedPoly::from_bytes(&cm.to_bytes(), bits);
            assert_eq!(decoded, cm, "T={bits} (seed {})", rng.seed());
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(decoded.coeff(i), v);
            }
        }
    }
}

#[test]
fn message_encoding_roundtrips() {
    for mut rng in cases(32) {
        let message = rng.bytes32();
        let poly = packing::message_to_poly(&message);
        assert_eq!(
            packing::poly_to_message(&poly),
            message,
            "seed {}",
            rng.seed()
        );
    }
}

#[test]
fn secret_words_roundtrip_all_bounds() {
    use saber_ring::SecretPoly;
    for mut rng in cases(16) {
        for bound in [3i8, 4, 5] {
            let secret = SecretPoly::from_fn(|_| rng.secret_coeff(bound));
            let words = packing::secret_to_words(&secret);
            let decoded =
                packing::secret_from_words(&words).expect("encoder output is always in range");
            assert_eq!(
                decoded.coeffs(),
                secret.coeffs(),
                "bound {bound} (seed {})",
                rng.seed()
            );
        }
    }
}

#[test]
fn full_framings_roundtrip_for_every_parameter_set() {
    let mut backend = SchoolbookMultiplier;
    for mut rng in cases(4) {
        for params in &ALL_PARAMS {
            let (pk, sk) = kem::keygen(params, &rng.bytes32(), &mut backend);

            let pk_bytes = serialize::public_key_to_bytes(&pk);
            assert_eq!(pk_bytes.len(), params.public_key_bytes());
            let pk2 = serialize::public_key_from_bytes(&pk_bytes, params).expect("valid bytes");
            assert_eq!(serialize::public_key_to_bytes(&pk2), pk_bytes);

            let ct = pke::encrypt(&pk, &rng.bytes32(), &rng.bytes32(), &mut backend);
            let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);
            assert_eq!(ct_bytes.len(), params.ciphertext_bytes());
            let ct2 = serialize::ciphertext_from_bytes(&ct_bytes, params).expect("valid bytes");
            assert_eq!(ct2, ct, "{} (seed {})", params.name, rng.seed());

            let sk_bytes = serialize::secret_key_to_bytes(&sk);
            assert_eq!(sk_bytes.len(), serialize::secret_key_bytes(params));
            let sk2 = serialize::secret_key_from_bytes(&sk_bytes, params).expect("valid bytes");
            assert_eq!(serialize::secret_key_to_bytes(&sk2), sk_bytes);
        }
    }
}
