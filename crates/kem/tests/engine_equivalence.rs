//! KEM transcript equivalence: the full keygen → encaps → decaps round
//! trip on the hot-path engine must produce a **byte-for-byte identical
//! transcript** to the one the schoolbook oracle produces.
//!
//! The Saber KEM is deterministic given (parameter set, master seed,
//! encapsulation entropy), and the multiplier backend is supposed to be
//! an invisible implementation detail — so serializing the public key,
//! secret key, ciphertext and shared secrets on the constant-time engine
//! must reproduce the exact bytes the schoolbook oracle emits. A single
//! differing byte means the engine is not a drop-in replacement, even if
//! its raw polynomial products pass the differential fuzzer.

use saber_kem::params::ALL_PARAMS;
use saber_kem::serialize::{ciphertext_to_bytes, public_key_to_bytes, secret_key_to_bytes};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::{CtSchoolbookMultiplier, PolyMultiplier};

/// One backend's full serialized transcript for one parameter set.
#[derive(PartialEq, Eq, Debug)]
struct Transcript {
    pk: Vec<u8>,
    sk: Vec<u8>,
    ct: Vec<u8>,
    ss_enc: [u8; 32],
    ss_dec: [u8; 32],
}

fn roundtrip_transcript(
    backend: &mut dyn PolyMultiplier,
    params: &'static saber_kem::SaberParams,
    seed: &[u8; 32],
    entropy: &[u8; 32],
) -> Transcript {
    let (pk, sk) = saber_kem::keygen(params, seed, backend);
    let (ct, ss_enc) = saber_kem::encaps(&pk, entropy, backend);
    let ss_dec = saber_kem::decaps(&sk, &ct, backend);
    assert_eq!(
        ss_enc,
        ss_dec,
        "{}/{}: round trip must close",
        backend.name(),
        params.name
    );
    Transcript {
        pk: public_key_to_bytes(&pk),
        sk: secret_key_to_bytes(&sk),
        ct: ciphertext_to_bytes(&ct, params),
        ss_enc: *ss_enc.as_bytes(),
        ss_dec: *ss_dec.as_bytes(),
    }
}

#[test]
fn ct_reproduces_the_oracle_transcript_byte_for_byte() {
    for (i, params) in ALL_PARAMS.iter().enumerate() {
        let seed = [0x3A + i as u8; 32];
        let entropy = [0xB5 ^ i as u8; 32];
        let reference = roundtrip_transcript(&mut SchoolbookMultiplier, params, &seed, &entropy);
        let transcript =
            roundtrip_transcript(&mut CtSchoolbookMultiplier::new(), params, &seed, &entropy);
        assert_eq!(
            transcript, reference,
            "ct/{} transcript diverges from the schoolbook oracle",
            params.name
        );
    }
}

#[test]
fn transcripts_separate_across_seeds() {
    // Sanity check on the test's own power: a *different seed* must
    // change the transcript, so the byte-equality above is not vacuous
    // (e.g. all-zero serializations would pass it).
    let params = &ALL_PARAMS[1];
    let mut ct = CtSchoolbookMultiplier::new();
    let a = roundtrip_transcript(&mut ct, params, &[1; 32], &[2; 32]);
    let b = roundtrip_transcript(&mut ct, params, &[3; 32], &[2; 32]);
    assert_ne!(a.pk, b.pk);
    assert_ne!(a.ct, b.ct);
    assert_ne!(a.ss_enc, b.ss_enc);
}
