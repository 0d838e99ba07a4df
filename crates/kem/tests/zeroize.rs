//! Secret-hygiene battery: every secret-bearing type must wipe its
//! sensitive bytes on [`Zeroize::zeroize`], and the `Drop` wiring must
//! actually fire (verified through the `secret.*` trace counters,
//! because reading freed memory to check a wipe is undefined
//! behaviour — the capture-before-drop harness snapshots the *live*
//! binding instead).
//!
//! Counter assertions are `>=`: the trace probe enable-flag is global,
//! so secrets dropped by concurrently running tests in this binary may
//! land in an open session too.

use saber_kem::kem::{decaps, encaps, keygen, KemSecretKey, SharedSecret};
use saber_kem::params::LIGHT_SABER;
use saber_kem::secret::{
    assert_zeroize_clears, ct_eq, CPA_ZEROIZED, KEM_SK_ZEROIZED, SHARED_ZEROIZED,
};
use saber_ring::CtSchoolbookMultiplier;

/// Secret bytes of a KEM secret key: the implicit-rejection secret `z`
/// plus every coefficient of the CPA secret vector. `pk_hash` and the
/// embedded public key are public by design and excluded.
fn kem_sk_secret_bytes(sk: &KemSecretKey) -> Vec<u8> {
    let mut out: Vec<u8> = sk.z().to_vec();
    for poly in sk.cpa().s.iter() {
        out.extend(poly.coeffs().iter().map(|&c| c as u8));
    }
    out
}

fn fresh_key(seed: u8) -> KemSecretKey {
    let mut backend = CtSchoolbookMultiplier::new();
    keygen(&LIGHT_SABER, &[seed; 32], &mut backend).1
}

#[test]
fn kem_secret_key_zeroize_wipes_z_and_the_cpa_vector() {
    assert_zeroize_clears(fresh_key(0x11), kem_sk_secret_bytes);
}

#[test]
fn cpa_secret_key_zeroize_wipes_the_secret_vector() {
    assert_zeroize_clears(fresh_key(0x22).cpa().clone(), |sk| {
        sk.s.iter()
            .flat_map(|p| p.coeffs().iter().map(|&c| c as u8))
            .collect()
    });
}

#[test]
fn shared_secret_zeroize_wipes_the_key_bytes() {
    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, _) = keygen(&LIGHT_SABER, &[0x33; 32], &mut backend);
    let (_, ss) = encaps(&pk, &[0x44; 32], &mut backend);
    assert_zeroize_clears(ss, |ss: &SharedSecret| ss.as_bytes().to_vec());
}

#[test]
fn dropping_secrets_fires_the_zeroize_counters() {
    let session = saber_trace::start();
    {
        let mut backend = CtSchoolbookMultiplier::new();
        let (pk, sk) = keygen(&LIGHT_SABER, &[0x55; 32], &mut backend);
        let (ct, ss_enc) = encaps(&pk, &[0x66; 32], &mut backend);
        let ss_dec = decaps(&sk, &ct, &mut backend);
        assert_eq!(ss_enc, ss_dec);
        // sk, ss_enc, ss_dec all drop here; the nested CPA key's own
        // `Drop` fires right after the KEM key wipes `z`, so one KEM
        // key drop emits *both* the kem_sk and cpa counters.
    }
    let trace = session.finish();
    assert!(
        trace.counter_total(KEM_SK_ZEROIZED) >= 1,
        "KemSecretKey drop"
    );
    assert!(
        trace.counter_total(CPA_ZEROIZED) >= 1,
        "nested CpaSecretKey drop"
    );
    assert!(
        trace.counter_total(SHARED_ZEROIZED) >= 2,
        "both SharedSecret drops"
    );
}

#[test]
fn ct_eq_agrees_with_equality_and_rejects_single_bit_flips() {
    let a = [0x5Au8; 64];
    assert!(ct_eq(&a, &a));
    for byte in 0..a.len() {
        for bit in 0..8 {
            let mut b = a;
            b[byte] ^= 1 << bit;
            assert!(!ct_eq(&a, &b), "flip at byte {byte} bit {bit}");
        }
    }
    assert!(
        !ct_eq(&a, &a[..63]),
        "length mismatch is public and unequal"
    );
}
