//! Secret hygiene: best-effort zeroization of key material on drop.
//!
//! A KEM service holds secret keys for a long time and churns through
//! shared secrets at request rate; when those buffers are freed the
//! bytes should not linger in the allocator's freelist for a later
//! out-of-bounds read, core dump, or swap page to exhume. This module
//! gives the crate one vocabulary for wiping:
//!
//! - [`Zeroize`] — "overwrite your secret bytes in place". Implemented
//!   by [`CpaSecretKey`] (the secret vector `s`),
//!   [`crate::KemSecretKey`] (the implicit-rejection secret `z` plus the
//!   nested CPA key), and [`crate::SharedSecret`] (the 32 output bytes).
//! - `Drop` wiring — each of those types wipes itself automatically
//!   when it goes out of scope, including the service layer's job
//!   buffers: a `Request::Decaps` carries a `Box<KemSecretKey>` that is
//!   dropped (and therefore wiped) as soon as the worker finishes the
//!   job, and drained-at-shutdown jobs take the same path. Every
//!   drop-wipe emits a trace counter
//!   ([`CPA_ZEROIZED`]/[`KEM_SK_ZEROIZED`]/[`SHARED_ZEROIZED`],
//!   category `"kem"`), which is how tests verify the wiring without
//!   reading freed memory.
//!
//! # Scope and honesty
//!
//! The workspace forbids `unsafe`, so a volatile write is unavailable;
//! the wipe is a plain overwrite followed by [`std::hint::black_box`]
//! as a best-effort optimization barrier. Likewise, *proving* the heap
//! bytes are gone after `free` would itself require reading freed
//! memory (undefined behavior, and exactly what `miri` exists to
//! reject). The test strategy is therefore the capture-before-drop
//! harness [`assert_zeroize_clears`]: snapshot the secret through its
//! accessors, run the same wipe `Drop` runs, and verify the still-live
//! binding reads back zero — plus trace counters proving `Drop` really
//! invokes that wipe on every path (worker loop, shutdown drain,
//! caller-side rejection).
//!
//! `SecretPoly`/`SecretVec` in `saber-ring` expose `zeroize()` but have
//! no `Drop` of their own: transient copies churn through the batch
//! hot paths where an unconditional wipe would cost throughput.
//! Long-lived holders — the key types here — opt in at their level.

use crate::pke::CpaSecretKey;

/// Trace counter (category `"kem"`) emitted when a [`CpaSecretKey`] is
/// wiped by `Drop`.
pub const CPA_ZEROIZED: &str = "secret.cpa_zeroized";
/// Trace counter (category `"kem"`) emitted when a
/// [`KemSecretKey`](crate::KemSecretKey) is
/// wiped by `Drop`.
pub const KEM_SK_ZEROIZED: &str = "secret.kem_sk_zeroized";
/// Trace counter (category `"kem"`) emitted when a
/// [`SharedSecret`](crate::SharedSecret) is
/// wiped by `Drop`.
pub const SHARED_ZEROIZED: &str = "secret.shared_zeroized";

/// In-place overwrite of secret material with zeros.
///
/// Implementations must leave the value in a valid (all-zero) state —
/// `Drop` calls this, but so can callers that want to retire a secret
/// early while the binding stays alive.
pub trait Zeroize {
    /// Overwrites every secret byte with zero.
    fn zeroize(&mut self);
}

/// Wipes a byte buffer in place with a best-effort barrier against the
/// store being optimized out.
pub fn wipe_bytes(bytes: &mut [u8]) {
    bytes.fill(0);
    std::hint::black_box(bytes);
}

/// Constant-time byte equality: XOR-accumulates every position and
/// checks the accumulator once at the end, so the cost depends only on
/// the (public) length — never on where the first mismatch sits.
///
/// Used by `decaps` for the Fujisaki–Okamoto re-encryption check: a
/// short-circuiting `==` there would leak, through timing, *how much* of
/// a forged ciphertext matches the honest re-encryption.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        // Lengths are public (fixed per parameter set); an early return
        // here leaks nothing secret.
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    std::hint::black_box(diff) == 0
}

impl Zeroize for CpaSecretKey {
    fn zeroize(&mut self) {
        self.s.zeroize();
    }
}

impl Drop for CpaSecretKey {
    fn drop(&mut self) {
        self.zeroize();
        saber_trace::counter("kem", CPA_ZEROIZED, 1);
    }
}

/// Capture-before-drop harness: verifies that the wipe `Drop` will run
/// actually clears the backing memory, *through a still-live binding*
/// (reading memory after the real drop would be undefined behavior —
/// see the module docs).
///
/// `snapshot` projects the secret bytes out of the value via its normal
/// accessors. The harness asserts the snapshot is nonzero before the
/// wipe (a test wiping an already-zero secret proves nothing) and
/// all-zero after, then lets the value drop normally — so the trace
/// counter side of the contract still fires for callers counting.
///
/// # Panics
///
/// Panics if the secret was all-zero to begin with, or if any byte
/// survives the wipe.
pub fn assert_zeroize_clears<T, S>(mut value: T, snapshot: S)
where
    T: Zeroize,
    S: Fn(&T) -> Vec<u8>,
{
    let before = snapshot(&value);
    assert!(
        before.iter().any(|&b| b != 0),
        "capture-before-drop: secret must be nonzero before the wipe"
    );
    value.zeroize();
    let after = snapshot(&value);
    assert_eq!(before.len(), after.len());
    assert!(
        after.iter().all(|&b| b == 0),
        "capture-before-drop: zeroize left live secret bytes behind"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wipe_bytes_clears_and_keeps_length() {
        let mut buf = vec![0xAAu8; 48];
        wipe_bytes(&mut buf);
        assert_eq!(buf.len(), 48);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn counter_names_are_distinct() {
        let names = [CPA_ZEROIZED, KEM_SK_ZEROIZED, SHARED_ZEROIZED];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero before the wipe")]
    fn harness_rejects_all_zero_secrets() {
        struct Dummy(Vec<u8>);
        impl Zeroize for Dummy {
            fn zeroize(&mut self) {
                wipe_bytes(&mut self.0);
            }
        }
        assert_zeroize_clears(Dummy(vec![0; 8]), |d| d.0.clone());
    }
}
