//! Negative-path KEM tests: a tampered ciphertext or a corrupted secret
//! key must land in the implicit-rejection branch — a shared-secret
//! mismatch — and must **never** panic. Decapsulation is the
//! attacker-facing entry point; "garbage in, panic out" would be a
//! denial-of-service bug even when the cryptography is sound.

use saber_kem::{kem, serialize, ALL_PARAMS};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::CtSchoolbookMultiplier;
use saber_testkit::{cases, Rng};

fn transcript(
    rng: &mut Rng,
    params: &'static saber_kem::SaberParams,
) -> (
    saber_kem::KemSecretKey,
    saber_kem::Ciphertext,
    saber_kem::SharedSecret,
) {
    let mut backend = SchoolbookMultiplier;
    let (pk, sk) = kem::keygen(params, &rng.bytes32(), &mut backend);
    let (ct, ss) = kem::encaps(&pk, &rng.bytes32(), &mut backend);
    (sk, ct, ss)
}

#[test]
fn byte_level_ciphertext_tampering_is_implicitly_rejected() {
    // Sweep tamper positions across the whole encoding — the b' region
    // and the c_m region both — via the serialized form, so the test
    // covers decode + decaps as one attacker-shaped pipeline.
    let mut backend = SchoolbookMultiplier;
    for params in &ALL_PARAMS {
        let mut rng = Rng::new(0x000B_ADC1);
        let (sk, ct, ss) = transcript(&mut rng, params);
        let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);
        let stride = ct_bytes.len() / 24; // 24 positions spread evenly
        for pos in (0..ct_bytes.len()).step_by(stride.max(1)) {
            for flip in [0x01u8, 0x80] {
                let mut tampered = ct_bytes.clone();
                tampered[pos] ^= flip;
                let decoded = serialize::ciphertext_from_bytes(&tampered, params)
                    .expect("length unchanged, decode must succeed");
                if decoded == ct {
                    // The flipped bit fell on encoding slack; skip.
                    continue;
                }
                let ss_bad = kem::decaps(&sk, &decoded, &mut backend);
                assert_ne!(
                    ss.as_bytes(),
                    ss_bad.as_bytes(),
                    "{}: tamper at byte {pos} (flip {flip:#04x}) must not \
                     reproduce the shared secret",
                    params.name
                );
            }
        }
    }
}

#[test]
fn implicit_rejection_is_deterministic_per_key() {
    // The FO transform derives the rejection secret from z and the
    // ciphertext: the same invalid ciphertext must always yield the
    // same (pseudorandom) secret, and a different invalid ciphertext a
    // different one.
    let mut backend = SchoolbookMultiplier;
    let mut rng = Rng::new(0x000B_ADC2);
    let (sk, ct, _) = transcript(&mut rng, &saber_kem::SABER);
    let params = &saber_kem::SABER;
    let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);

    let mut t1 = ct_bytes.clone();
    t1[0] ^= 1;
    let bad1 = serialize::ciphertext_from_bytes(&t1, params).unwrap();
    let mut t2 = ct_bytes.clone();
    t2[1] ^= 1;
    let bad2 = serialize::ciphertext_from_bytes(&t2, params).unwrap();

    let r1a = kem::decaps(&sk, &bad1, &mut backend);
    let r1b = kem::decaps(&sk, &bad1, &mut backend);
    let r2 = kem::decaps(&sk, &bad2, &mut backend);
    assert_eq!(r1a.as_bytes(), r1b.as_bytes(), "rejection must be stable");
    assert_ne!(
        r1a.as_bytes(),
        r2.as_bytes(),
        "distinct invalid ciphertexts must reject to distinct secrets"
    );
}

#[test]
fn corrupted_secret_keys_never_panic_and_never_agree() {
    // Corrupt every region of the serialized secret key (s, pk, H(pk),
    // z) and decapsulate. Outcomes allowed: the decoder rejects the
    // bytes (secret nibble out of range), or decapsulation completes
    // with the region-appropriate result — a mismatched shared secret
    // for the s/pk/H(pk) regions, and for the trailing z region (which
    // the FO transform only consults on *invalid* ciphertexts) an
    // unchanged honest path but a diverted rejection path. A panic is a
    // failure everywhere.
    let mut backend = SchoolbookMultiplier;
    for params in &ALL_PARAMS {
        let mut rng = Rng::new(0x000B_ADC3);
        let (sk, ct, ss) = transcript(&mut rng, params);
        let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);
        let mut invalid_bytes = ct_bytes.clone();
        invalid_bytes[0] ^= 1;
        let invalid_ct = serialize::ciphertext_from_bytes(&invalid_bytes, params).unwrap();
        let honest_rejection = kem::decaps(&sk, &invalid_ct, &mut backend);

        let sk_bytes = serialize::secret_key_to_bytes(&sk);
        let z_region = sk_bytes.len() - 32;
        let stride = sk_bytes.len() / 32;
        let mut corrupted_decodes = 0u32;
        for pos in (0..sk_bytes.len()).step_by(stride.max(1)) {
            let mut corrupted = sk_bytes.clone();
            corrupted[pos] ^= 0x11;
            match serialize::secret_key_from_bytes(&corrupted, params) {
                Err(_) => {} // malformed encodings may be rejected outright
                Ok(sk_bad) => {
                    corrupted_decodes += 1;
                    let ss_bad = kem::decaps(&sk_bad, &ct, &mut backend);
                    if pos >= z_region {
                        // z is inert on the honest path...
                        assert_eq!(
                            ss.as_bytes(),
                            ss_bad.as_bytes(),
                            "{}: z corruption at byte {pos} must not affect \
                             valid-ciphertext decapsulation",
                            params.name
                        );
                        // ...but it alone determines the rejection secret.
                        let rejected = kem::decaps(&sk_bad, &invalid_ct, &mut backend);
                        assert_ne!(
                            honest_rejection.as_bytes(),
                            rejected.as_bytes(),
                            "{}: z corruption at byte {pos} must divert the \
                             implicit-rejection output",
                            params.name
                        );
                    } else {
                        assert_ne!(
                            ss.as_bytes(),
                            ss_bad.as_bytes(),
                            "{}: secret key corrupted at byte {pos} still \
                             reproduced the shared secret",
                            params.name
                        );
                    }
                }
            }
        }
        assert!(
            corrupted_decodes > 0,
            "{}: corruption sweep never reached decapsulation",
            params.name
        );
    }
}

#[test]
fn wrong_length_inputs_error_instead_of_panicking() {
    for params in &ALL_PARAMS {
        for len in [0usize, 1, 31, params.ciphertext_bytes() - 1] {
            let bytes = vec![0u8; len];
            assert!(serialize::ciphertext_from_bytes(&bytes, params).is_err());
            assert!(serialize::public_key_from_bytes(&bytes, params).is_err());
            assert!(serialize::secret_key_from_bytes(&bytes, params).is_err());
        }
    }
}

#[test]
fn garbage_ciphertexts_decapsulate_without_panicking() {
    let mut backend = SchoolbookMultiplier;
    for params in &ALL_PARAMS {
        let mut rng = Rng::new(0x000B_ADC4);
        let (sk, _, ss) = transcript(&mut rng, params);
        for mut case_rng in cases(8) {
            let mut garbage = vec![0u8; params.ciphertext_bytes()];
            case_rng.fill_bytes(&mut garbage);
            let ct = serialize::ciphertext_from_bytes(&garbage, params)
                .expect("correct length always decodes");
            let ss_bad = kem::decaps(&sk, &ct, &mut backend);
            assert_ne!(
                ss.as_bytes(),
                ss_bad.as_bytes(),
                "{}: random ciphertext matched the real secret (seed {})",
                params.name,
                case_rng.seed()
            );
        }
    }
}

#[test]
fn mutated_keys_and_ciphertexts_of_the_right_length_never_panic() {
    // Seeded byte flips in a valid public key, secret key and
    // ciphertext: each decoder answers `Ok` or `Err`, encaps and decaps
    // finish on whatever decodes, and no mutated ciphertext recovers the
    // shared secret.
    let mut backend = CtSchoolbookMultiplier::new();
    for params in &ALL_PARAMS {
        let mut rng = Rng::new(0x000B_ADC5);
        let (pk, sk) = kem::keygen(params, &rng.bytes32(), &mut backend);
        let (ct, ss) = kem::encaps(&pk, &rng.bytes32(), &mut backend);
        let pk_bytes = serialize::public_key_to_bytes(&pk);
        let sk_bytes = serialize::secret_key_to_bytes(&sk);
        let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);
        for case in 0..16 {
            let mut bytes = pk_bytes.clone();
            rng.flip_bytes(&mut bytes);
            if let Ok(pk_bad) = serialize::public_key_from_bytes(&bytes, params) {
                let _ = kem::encaps(&pk_bad, &rng.bytes32(), &mut backend);
            }

            let mut bytes = sk_bytes.clone();
            rng.flip_bytes(&mut bytes);
            if let Ok(sk_bad) = serialize::secret_key_from_bytes(&bytes, params) {
                let _ = kem::decaps(&sk_bad, &ct, &mut backend);
            }

            let mut bytes = ct_bytes.clone();
            rng.flip_bytes(&mut bytes);
            let ct_bad = serialize::ciphertext_from_bytes(&bytes, params)
                .expect("length unchanged, decode must succeed");
            if ct_bad != ct {
                assert_ne!(
                    ss.as_bytes(),
                    kem::decaps(&sk, &ct_bad, &mut backend).as_bytes(),
                    "{}: mutated ciphertext {case} recovered the shared secret",
                    params.name
                );
            }
        }
    }
}
