//! The CCA-secure Saber KEM: the IND-CPA PKE wrapped in a
//! Fujisaki–Okamoto transform with implicit rejection (Round-3 spec,
//! §2.5).
//!
//! Hash roles follow the spec: `F = SHA3-256` (public-key hash and final
//! key derivation), `G = SHA3-512` (splits into the pre-key `K̂` and the
//! encryption coins `r`).
//!
//! # Re-entrancy and threading
//!
//! [`keygen`], [`encaps`] and [`decaps`] are pure functions of their
//! explicit inputs: all randomness enters through the caller-supplied
//! 32-byte seed/entropy arguments (no global RNG, no interior state),
//! so the same inputs give bit-identical outputs from any thread, in
//! any interleaving. Key material, ciphertexts and shared secrets are
//! plain owned data — `Send + Sync`, enforced at compile time below —
//! which is what lets `saber-service` fan the three operations out
//! across a worker pool and still promise sequential-equivalent
//! results. The only per-call mutable state is the multiplier backend
//! and, in [`encaps_cached`]/[`decaps_cached`], the matrix cache, both
//! of which each worker owns exclusively (`&mut`). The cache holds only
//! public matrices, each a pure function of its key, so it changes how
//! fast a call runs, never what it returns.

use std::fmt;

use saber_keccak::{Sha3_256, Sha3_512, Shake256};
use saber_ring::PolyMultiplier;

use crate::expand::MatrixCache;
use crate::params::SaberParams;
use crate::pke::{self, Ciphertext, CpaSecretKey, PublicKey};
use crate::serialize;

/// A 32-byte shared secret.
///
/// `Debug` never prints the bytes; use [`as_bytes`](Self::as_bytes)
/// to extract them deliberately.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SharedSecret([u8; 32]);

impl SharedSecret {
    /// Returns the raw secret bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSecret(<redacted>)")
    }
}

impl crate::secret::Zeroize for SharedSecret {
    fn zeroize(&mut self) {
        crate::secret::wipe_bytes(&mut self.0);
    }
}

impl Drop for SharedSecret {
    fn drop(&mut self) {
        crate::secret::Zeroize::zeroize(self);
        saber_trace::counter("kem", crate::secret::SHARED_ZEROIZED, 1);
    }
}

/// The KEM secret key: the CPA key plus the FO transform state.
#[derive(Clone)]
pub struct KemSecretKey {
    cpa: CpaSecretKey,
    public_key: PublicKey,
    pk_hash: [u8; 32],
    /// Implicit-rejection secret.
    z: [u8; 32],
}

impl KemSecretKey {
    /// Assembles a secret key from its parts (used by deserialization).
    #[must_use]
    pub fn from_parts(
        cpa: CpaSecretKey,
        public_key: PublicKey,
        pk_hash: [u8; 32],
        z: [u8; 32],
    ) -> Self {
        Self {
            cpa,
            public_key,
            pk_hash,
            z,
        }
    }

    /// The IND-CPA secret key.
    #[must_use]
    pub fn cpa(&self) -> &CpaSecretKey {
        &self.cpa
    }

    /// The cached public-key hash used by the FO transform.
    #[must_use]
    pub fn pk_hash(&self) -> &[u8; 32] {
        &self.pk_hash
    }

    /// The implicit-rejection secret.
    #[must_use]
    pub fn z(&self) -> &[u8; 32] {
        &self.z
    }

    /// The embedded public key (the spec stores it in the secret key so
    /// decapsulation can re-encrypt).
    #[must_use]
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }

    /// Parameter set of this key.
    #[must_use]
    pub fn params(&self) -> &SaberParams {
        &self.public_key.params
    }
}

impl crate::secret::Zeroize for KemSecretKey {
    fn zeroize(&mut self) {
        // `z` is the implicit-rejection secret; the nested CPA key wipes
        // its secret vector. `pk_hash` and the embedded public key are
        // public values and stay readable.
        crate::secret::wipe_bytes(&mut self.z);
        crate::secret::Zeroize::zeroize(&mut self.cpa);
    }
}

impl Drop for KemSecretKey {
    fn drop(&mut self) {
        // Only `z` is wiped here: the nested `cpa` field's own `Drop`
        // runs right after this body and wipes the secret vector (and
        // emits its own counter), so wiping it here too would be
        // redundant work on every drop.
        crate::secret::wipe_bytes(&mut self.z);
        saber_trace::counter("kem", crate::secret::KEM_SK_ZEROIZED, 1);
    }
}

impl fmt::Debug for KemSecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KemSecretKey({}, <redacted>)", self.params().name)
    }
}

/// Derives the three independent 32-byte seeds key generation consumes
/// from one master seed (domain-separated SHAKE-256).
fn expand_keygen_seed(seed: &[u8; 32]) -> ([u8; 32], [u8; 32], [u8; 32]) {
    let mut xof = Shake256::new();
    xof.absorb(seed);
    xof.absorb(b"saber-kem-keygen");
    (xof.read_array(), xof.read_array(), xof.read_array())
}

/// KEM key generation from a 32-byte master seed.
///
/// # Examples
///
/// ```
/// use saber_kem::{kem, params::SABER};
/// use saber_ring::mul::SchoolbookMultiplier;
///
/// let mut backend = SchoolbookMultiplier;
/// let (pk, sk) = kem::keygen(&SABER, &[7u8; 32], &mut backend);
/// let (ct, ss_enc) = kem::encaps(&pk, &[8u8; 32], &mut backend);
/// let ss_dec = kem::decaps(&sk, &ct, &mut backend);
/// assert_eq!(ss_enc, ss_dec);
/// ```
#[must_use]
pub fn keygen<M: PolyMultiplier + ?Sized>(
    params: &SaberParams,
    seed: &[u8; 32],
    backend: &mut M,
) -> (PublicKey, KemSecretKey) {
    let _span = saber_trace::span("kem", "kem.keygen");
    let (seed_a, seed_s, z) = expand_keygen_seed(seed);
    let (pk, cpa_sk) = pke::keygen(params, seed_a, &seed_s, backend);
    let pk_hash = {
        let _hash = saber_trace::span("kem", "hash");
        Sha3_256::digest(&serialize::public_key_to_bytes(&pk))
    };
    let sk = KemSecretKey {
        cpa: cpa_sk,
        public_key: pk.clone(),
        pk_hash,
        z,
    };
    (pk, sk)
}

/// Splits `G(pk_hash ‖ m)` into the pre-key and the encryption coins.
fn g_split(pk_hash: &[u8; 32], m: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let _hash = saber_trace::span("kem", "hash");
    let mut g = Sha3_512::new();
    g.update(pk_hash);
    g.update(m);
    let out = g.finalize();
    let mut khat = [0u8; 32];
    let mut coins = [0u8; 32];
    khat.copy_from_slice(&out[..32]);
    coins.copy_from_slice(&out[32..]);
    (khat, coins)
}

/// Derives the final shared secret `SHA3-256(K̂ ‖ c)`.
fn final_key(khat: &[u8; 32], ct_bytes: &[u8]) -> SharedSecret {
    let _hash = saber_trace::span("kem", "hash");
    let mut h = Sha3_256::new();
    h.update(khat);
    h.update(ct_bytes);
    SharedSecret(h.finalize())
}

/// Encapsulation: produces a ciphertext and the shared secret.
///
/// `entropy` is the caller-supplied randomness; it is hashed before use
/// (`m = SHA3-256(entropy)`) exactly as the spec hashes the sampled
/// message to de-bias it. Expands `A` afresh: this is
/// [`encaps_cached`] with an empty cache.
#[must_use]
pub fn encaps<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    entropy: &[u8; 32],
    backend: &mut M,
) -> (Ciphertext, SharedSecret) {
    encaps_cached(pk, entropy, &mut MatrixCache::new(), backend)
}

/// [`encaps`] taking `pk`'s matrix `A` from `matrices` (see
/// [`pke::encrypt_cached`]); the output is byte-identical.
#[must_use]
pub fn encaps_cached<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    entropy: &[u8; 32],
    matrices: &mut MatrixCache,
    backend: &mut M,
) -> (Ciphertext, SharedSecret) {
    let _span = saber_trace::span("kem", "kem.encaps");
    let (m, pk_hash) = {
        let _hash = saber_trace::span("kem", "hash");
        (
            Sha3_256::digest(entropy),
            Sha3_256::digest(&serialize::public_key_to_bytes(pk)),
        )
    };
    let (khat, coins) = g_split(&pk_hash, &m);
    let ct = pke::encrypt_cached(pk, &m, &coins, matrices, backend);
    let ct_bytes = serialize::ciphertext_to_bytes(&ct, &pk.params);
    (ct, final_key(&khat, &ct_bytes))
}

/// Decapsulation with implicit rejection: an invalid ciphertext yields a
/// pseudorandom secret derived from `z` instead of an error. Expands `A`
/// afresh for the re-encryption: this is [`decaps_cached`] with an empty
/// cache.
#[must_use]
pub fn decaps<M: PolyMultiplier + ?Sized>(
    sk: &KemSecretKey,
    ct: &Ciphertext,
    backend: &mut M,
) -> SharedSecret {
    decaps_cached(sk, ct, &mut MatrixCache::new(), backend)
}

/// [`decaps`] taking the re-encryption's matrix `A` from `matrices`,
/// keyed by the embedded public key's `seed_A` (see
/// [`pke::encrypt_cached`]); the output is byte-identical. A server
/// decapsulating against its own static key hits on every call after
/// the first.
#[must_use]
pub fn decaps_cached<M: PolyMultiplier + ?Sized>(
    sk: &KemSecretKey,
    ct: &Ciphertext,
    matrices: &mut MatrixCache,
    backend: &mut M,
) -> SharedSecret {
    let _span = saber_trace::span("kem", "kem.decaps");
    let m_prime = pke::decrypt(&sk.cpa, ct, backend);
    let (khat_prime, coins_prime) = g_split(&sk.pk_hash, &m_prime);
    let ct_prime = pke::encrypt_cached(&sk.public_key, &m_prime, &coins_prime, matrices, backend);
    let ct_bytes = serialize::ciphertext_to_bytes(ct, sk.params());
    // FO re-encryption check in constant time: a short-circuiting `==`
    // would leak how long a forged ciphertext's matching prefix is.
    let ct_prime_bytes = serialize::ciphertext_to_bytes(&ct_prime, sk.params());
    if crate::secret::ct_eq(&ct_prime_bytes, &ct_bytes) {
        final_key(&khat_prime, &ct_bytes)
    } else {
        final_key(&sk.z, &ct_bytes)
    }
}

// Compile-time proof of the threading contract documented above: every
// value crossing the service layer's thread boundaries is Send + Sync.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<PublicKey>();
    assert_send_sync::<KemSecretKey>();
    assert_send_sync::<Ciphertext>();
    assert_send_sync::<SharedSecret>();
    assert_send_sync::<SaberParams>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ALL_PARAMS, SABER};
    use saber_ring::mul::SchoolbookMultiplier;

    #[test]
    fn encaps_decaps_roundtrip_all_sets() {
        let mut backend = SchoolbookMultiplier;
        for params in &ALL_PARAMS {
            let (pk, sk) = keygen(params, &[1; 32], &mut backend);
            for e in 0..4u8 {
                let (ct, ss1) = encaps(&pk, &[e; 32], &mut backend);
                let ss2 = decaps(&sk, &ct, &mut backend);
                assert_eq!(ss1, ss2, "{} entropy {e}", params.name);
            }
        }
    }

    #[test]
    fn tampered_ciphertext_rejected_implicitly() {
        let mut backend = SchoolbookMultiplier;
        let (pk, sk) = keygen(&SABER, &[1; 32], &mut backend);
        let (ct, ss) = encaps(&pk, &[2; 32], &mut backend);
        // Flip one c_m coefficient.
        let mut values = [0u16; 256];
        for (i, v) in values.iter_mut().enumerate() {
            *v = ct.cm.coeff(i);
        }
        values[0] ^= 1;
        let tampered = Ciphertext {
            b_prime: ct.b_prime.clone(),
            cm: crate::pke::CompressedPoly::new(values, SABER.eps_t),
        };
        let ss_bad = decaps(&sk, &tampered, &mut backend);
        assert_ne!(ss, ss_bad, "tampering must change the shared secret");
        // Implicit rejection is deterministic.
        assert_eq!(ss_bad, decaps(&sk, &tampered, &mut backend));
    }

    #[test]
    fn different_entropy_different_secrets() {
        let mut backend = SchoolbookMultiplier;
        let (pk, _) = keygen(&SABER, &[1; 32], &mut backend);
        let (ct1, ss1) = encaps(&pk, &[2; 32], &mut backend);
        let (ct2, ss2) = encaps(&pk, &[3; 32], &mut backend);
        assert_ne!(ss1, ss2);
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn decaps_with_wrong_key_differs() {
        let mut backend = SchoolbookMultiplier;
        let (pk, _) = keygen(&SABER, &[1; 32], &mut backend);
        let (_, sk_other) = keygen(&SABER, &[9; 32], &mut backend);
        let (ct, ss) = encaps(&pk, &[2; 32], &mut backend);
        assert_ne!(ss, decaps(&sk_other, &ct, &mut backend));
    }

    #[test]
    fn shared_secret_debug_is_redacted() {
        let mut backend = SchoolbookMultiplier;
        let (pk, sk) = keygen(&SABER, &[1; 32], &mut backend);
        let (_, ss) = encaps(&pk, &[2; 32], &mut backend);
        assert_eq!(format!("{ss:?}"), "SharedSecret(<redacted>)");
        assert!(format!("{sk:?}").contains("redacted"));
    }

    #[test]
    fn concurrent_ops_match_sequential() {
        // The re-entrancy contract: the full keygen → encaps → decaps
        // pipeline run on four threads at once, each with its own
        // backend, reproduces the sequential transcripts bit for bit.
        let mut backend = saber_ring::CtSchoolbookMultiplier::new();
        let expected: Vec<_> = (0..4u8)
            .map(|i| {
                let (pk, sk) = keygen(&SABER, &[i; 32], &mut backend);
                let (ct, ss_enc) = encaps(&pk, &[i ^ 0x5a; 32], &mut backend);
                let ss_dec = decaps(&sk, &ct, &mut backend);
                (pk, ct, ss_enc, ss_dec)
            })
            .collect();
        let got: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u8)
                .map(|i| {
                    scope.spawn(move || {
                        let mut backend = saber_ring::CtSchoolbookMultiplier::new();
                        let (pk, sk) = keygen(&SABER, &[i; 32], &mut backend);
                        let (ct, ss_enc) = encaps(&pk, &[i ^ 0x5a; 32], &mut backend);
                        let ss_dec = decaps(&sk, &ct, &mut backend);
                        (pk, ct, ss_enc, ss_dec)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
            assert_eq!(e.0, g.0, "pk {i}");
            assert_eq!(e.1, g.1, "ct {i}");
            assert_eq!(e.2, g.2, "ss_enc {i}");
            assert_eq!(e.3, g.3, "ss_dec {i}");
        }
    }

    #[test]
    fn pipeline_spans_nest_under_the_kem_stages() {
        let session = saber_trace::start();
        saber_trace::instant_event("test", "sentinel.kem");
        let mut backend = saber_ring::CtSchoolbookMultiplier::new();
        let (pk, sk) = keygen(&SABER, &[21; 32], &mut backend);
        let (ct, _) = encaps(&pk, &[22; 32], &mut backend);
        let _ = decaps(&sk, &ct, &mut backend);
        let trace = session.finish();
        // Filter to this thread: parallel tests also emit kem spans.
        let tid = trace
            .events()
            .iter()
            .find(|e| e.name == "sentinel.kem")
            .expect("sentinel recorded")
            .tid;
        let count = |name: &str| {
            trace
                .events()
                .iter()
                .filter(|e| e.tid == tid && e.name == name)
                .count()
        };
        // One span per pipeline stage…
        assert_eq!(count("kem.keygen"), 1);
        assert_eq!(count("kem.encaps"), 1);
        assert_eq!(count("kem.decaps"), 1);
        // …and the inner stages appear under them: keygen + encaps +
        // decaps (decrypt + re-encrypt) = 4 pke spans, each with a
        // matvec and a rounding phase.
        assert_eq!(
            count("pke.keygen") + count("pke.encrypt") + count("pke.decrypt"),
            4
        );
        assert_eq!(count("matvec"), 4);
        assert_eq!(count("rounding"), 4);
        // Matrix expansion runs in keygen, encaps and the re-encrypt.
        assert_eq!(count("expand.matrix"), 3);
        assert_eq!(count("expand.secret"), 3);
        assert!(count("hash") >= 6, "hash spans = {}", count("hash"));
        // Nesting is recorded: pke stages sit below the kem stages.
        let depth_of = |name: &str| {
            trace
                .events()
                .iter()
                .find(|e| e.tid == tid && e.name == name)
                .unwrap()
                .depth
        };
        assert_eq!(depth_of("kem.encaps"), 0);
        assert_eq!(depth_of("pke.encrypt"), 1);
        assert_eq!(depth_of("expand.matrix"), 2);
    }

    #[test]
    fn keygen_is_deterministic() {
        let mut backend = SchoolbookMultiplier;
        let (pk1, _) = keygen(&SABER, &[4; 32], &mut backend);
        let (pk2, _) = keygen(&SABER, &[4; 32], &mut backend);
        assert_eq!(pk1, pk2);
    }
}
