//! Deterministic seeded load generation for soak and stress runs.
//!
//! A [`LoadProfile`] (seed + op count + operation mix) expands into a
//! concrete [`LoadPlan`]: every job's inputs — keygen seeds, encaps
//! entropy, decapsulation ciphertexts — are derived up front from one
//! SplitMix64 stream, so the *work* is fixed before any of it is
//! scheduled. The same plan can then be executed two ways:
//!
//! * [`run_sequential`] — one thread, one backend, in op order: the
//!   reference transcript;
//! * [`run_service`] — through a [`KemService`] pool with a bounded
//!   in-flight window, riding the backpressure path when the queue
//!   fills.
//!
//! This is a closed loop: the submitter waits on its oldest job when
//! the window or the queue is full. Open-loop traffic, timed from each
//! request's scheduled arrival, is perfbench's `kem_open` workload,
//! which brings its own arrival generator.
//!
//! Because every KEM operation is a pure function of its planned inputs
//! (see the re-entrancy contract in `saber_kem::kem`), both executions
//! must produce byte-identical [`Transcript`]s for any worker count and
//! any interleaving — the property the concurrency battery and the soak
//! test assert. Transcript entries carry a SHA3-256 digest of the full
//! result bytes, so "byte-identical" is checked across serialization,
//! not just equality of in-memory structs.

use std::collections::VecDeque;

use saber_keccak::Sha3_256;
use saber_kem::params::SaberParams;
use saber_kem::{serialize, Ciphertext, KemSecretKey, PublicKey};
use saber_ring::{CtSchoolbookMultiplier, PolyMultiplier};
use saber_testkit::Rng;

use crate::metrics::OpKind;
use crate::service::{JobError, JobHandle, KemService, SubmitError};

/// Relative weights of the three KEM operations in a generated load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of key generations.
    pub keygen: u32,
    /// Weight of encapsulations.
    pub encaps: u32,
    /// Weight of decapsulations.
    pub decaps: u32,
}

impl Default for OpMix {
    /// A server-shaped mix: mostly encaps/decaps traffic, occasional
    /// keygen — keygen:encaps:decaps 1:4:4, perfbench's `kem_mixed`.
    fn default() -> Self {
        Self {
            keygen: 1,
            encaps: 4,
            decaps: 4,
        }
    }
}

impl OpMix {
    fn total(self) -> u32 {
        self.keygen + self.encaps + self.decaps
    }
}

/// A reproducible description of a load: expand with [`build_plan`].
#[derive(Debug, Clone, Copy)]
pub struct LoadProfile {
    /// Parameter set every KEM op uses.
    pub params: &'static SaberParams,
    /// Master seed; equal profiles generate equal plans, always.
    pub seed: u64,
    /// Number of operations to generate.
    pub ops: usize,
    /// Size of the pre-generated keypair ring (encaps/decaps draw from
    /// it).
    pub keyring: usize,
    /// Operation mix.
    pub mix: OpMix,
}

impl LoadProfile {
    /// A profile with the default mix and a 4-entry keyring.
    #[must_use]
    pub fn new(params: &'static SaberParams, seed: u64, ops: usize) -> Self {
        Self {
            params,
            seed,
            ops,
            keyring: 4,
            mix: OpMix::default(),
        }
    }
}

/// One fully-specified operation: all inputs fixed at plan time.
#[derive(Debug, Clone)]
pub enum PlannedOp {
    /// Generate a keypair from this seed.
    Keygen {
        /// The master seed the keygen consumes.
        seed: [u8; 32],
    },
    /// Encapsulate against keyring entry `key`.
    Encaps {
        /// Keyring index of the public key.
        key: usize,
        /// Caller entropy for the encapsulation.
        entropy: [u8; 32],
    },
    /// Decapsulate a (plan-time precomputed) ciphertext under keyring
    /// entry `key`.
    Decaps {
        /// Keyring index of the secret key.
        key: usize,
        /// The ciphertext to decapsulate.
        ct: Box<Ciphertext>,
    },
}

impl PlannedOp {
    /// The metrics kind of this op.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            PlannedOp::Keygen { .. } => OpKind::Keygen,
            PlannedOp::Encaps { .. } => OpKind::Encaps,
            PlannedOp::Decaps { .. } => OpKind::Decaps,
        }
    }
}

/// The expanded, concrete work list (see module docs).
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Parameter set of every KEM op.
    pub params: &'static SaberParams,
    /// Pre-generated keypairs the ops reference by index.
    pub keyring: Vec<(PublicKey, KemSecretKey)>,
    /// The operations, in submission order.
    pub ops: Vec<PlannedOp>,
}

/// One executed operation: its index, kind, and a SHA3-256 digest of
/// the complete result bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Position in [`LoadPlan::ops`].
    pub index: usize,
    /// Operation kind.
    pub op: OpKind,
    /// SHA3-256 over the canonical result bytes.
    pub digest: [u8; 32],
}

/// The ordered record of a full load execution.
pub type Transcript = Vec<TranscriptEntry>;

/// Why a service-driven load run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A submission failed for a non-backpressure reason.
    Submit(SubmitError),
    /// An admitted job failed.
    Job(JobError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Submit(e) => write!(f, "load submission failed: {e}"),
            LoadError::Job(e) => write!(f, "load job failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Expands a profile into its concrete plan (keyring, op sequence).
/// Deterministic: equal profiles ⇒ equal plans.
///
/// # Panics
///
/// Panics if the profile's mix has zero total weight.
#[must_use]
pub fn build_plan(profile: &LoadProfile) -> LoadPlan {
    assert!(profile.mix.total() > 0, "op mix must have positive weight");
    let mut rng = Rng::new(profile.seed);
    let mut backend = CtSchoolbookMultiplier::new();

    let pool = profile.keyring.max(1);
    let keyring: Vec<(PublicKey, KemSecretKey)> = (0..pool)
        .map(|_| saber_kem::keygen(profile.params, &rng.bytes32(), &mut backend))
        .collect();

    let mix = profile.mix;
    let ops = (0..profile.ops)
        .map(|_| {
            let mut draw = rng.range_usize(0, mix.total() as usize - 1) as u32;
            if draw < mix.keygen {
                return PlannedOp::Keygen {
                    seed: rng.bytes32(),
                };
            }
            draw -= mix.keygen;
            if draw < mix.encaps {
                return PlannedOp::Encaps {
                    key: rng.range_usize(0, pool - 1),
                    entropy: rng.bytes32(),
                };
            }
            // The rest of the weight is decaps. Precompute the
            // ciphertext at plan time so the decaps job is a single,
            // self-contained unit of service work.
            let key = rng.range_usize(0, pool - 1);
            let (ct, _) = saber_kem::encaps(&keyring[key].0, &rng.bytes32(), &mut backend);
            PlannedOp::Decaps {
                key,
                ct: Box::new(ct),
            }
        })
        .collect();

    LoadPlan {
        params: profile.params,
        keyring,
        ops,
    }
}

fn digest_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha3_256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// Recomputes one planned op directly on `backend` and returns its
/// transcript entry — the oracle the soak test samples against.
#[must_use]
pub fn recompute_entry<M: PolyMultiplier + ?Sized>(
    plan: &LoadPlan,
    index: usize,
    backend: &mut M,
) -> TranscriptEntry {
    let op = &plan.ops[index];
    let digest = match op {
        PlannedOp::Keygen { seed } => {
            let (pk, sk) = saber_kem::keygen(plan.params, seed, backend);
            keygen_digest(&pk, &sk)
        }
        PlannedOp::Encaps { key, entropy } => {
            let (ct, ss) = saber_kem::encaps(&plan.keyring[*key].0, entropy, backend);
            encaps_digest(plan.params, &ct, &ss)
        }
        PlannedOp::Decaps { key, ct } => {
            let ss = saber_kem::decaps(&plan.keyring[*key].1, ct, backend);
            digest_parts(&[ss.as_bytes()])
        }
    };
    TranscriptEntry {
        index,
        op: op.kind(),
        digest,
    }
}

fn keygen_digest(pk: &PublicKey, sk: &KemSecretKey) -> [u8; 32] {
    digest_parts(&[
        &serialize::public_key_to_bytes(pk),
        &serialize::secret_key_to_bytes(sk),
    ])
}

fn encaps_digest(params: &SaberParams, ct: &Ciphertext, ss: &saber_kem::SharedSecret) -> [u8; 32] {
    digest_parts(&[&serialize::ciphertext_to_bytes(ct, params), ss.as_bytes()])
}

/// Executes the plan on one backend, in order: the reference
/// transcript.
#[must_use]
pub fn run_sequential<M: PolyMultiplier + ?Sized>(plan: &LoadPlan, backend: &mut M) -> Transcript {
    (0..plan.ops.len())
        .map(|i| recompute_entry(plan, i, backend))
        .collect()
}

enum Pending {
    Keygen(JobHandle<(PublicKey, KemSecretKey)>),
    Encaps(JobHandle<(Ciphertext, saber_kem::SharedSecret)>),
    Decaps(JobHandle<saber_kem::SharedSecret>),
}

/// Executes the plan through a service pool, keeping at most
/// `max_in_flight` jobs outstanding; when the queue pushes back
/// ([`SubmitError::QueueFull`]), the oldest pending job is drained and
/// the submission retried — load shedding is the *caller's* policy, and
/// this caller chooses wait-and-retry.
///
/// Returns the transcript in op order (identical to [`run_sequential`]
/// on the same plan, for any worker count).
///
/// # Errors
///
/// [`LoadError`] if a submission fails for a non-backpressure reason or
/// an admitted job fails.
pub fn run_service(
    plan: &LoadPlan,
    service: &KemService,
    max_in_flight: usize,
) -> Result<Transcript, LoadError> {
    let max_in_flight = max_in_flight.max(1);
    let mut pending: VecDeque<(usize, Pending)> = VecDeque::new();
    let mut transcript: Transcript = Vec::with_capacity(plan.ops.len());

    for (index, op) in plan.ops.iter().enumerate() {
        while pending.len() >= max_in_flight {
            drain_front(plan, &mut pending, &mut transcript)?;
        }
        loop {
            match submit_op(plan, service, op) {
                Ok(handle) => {
                    pending.push_back((index, handle));
                    break;
                }
                Err(SubmitError::QueueFull { .. }) => {
                    // Backpressure: free a slot by finishing the oldest
                    // outstanding job, then retry.
                    drain_front(plan, &mut pending, &mut transcript)?;
                }
                Err(err @ SubmitError::ShutDown) => return Err(LoadError::Submit(err)),
            }
        }
    }
    while !pending.is_empty() {
        drain_front(plan, &mut pending, &mut transcript)?;
    }
    Ok(transcript)
}

fn submit_op(
    plan: &LoadPlan,
    service: &KemService,
    op: &PlannedOp,
) -> Result<Pending, SubmitError> {
    match op {
        PlannedOp::Keygen { seed } => service
            .submit_keygen(plan.params, *seed)
            .map(Pending::Keygen),
        PlannedOp::Encaps { key, entropy } => service
            .submit_encaps(plan.keyring[*key].0.clone(), *entropy)
            .map(Pending::Encaps),
        PlannedOp::Decaps { key, ct } => service
            .submit_decaps(plan.keyring[*key].1.clone(), (**ct).clone())
            .map(Pending::Decaps),
    }
}

fn drain_front(
    plan: &LoadPlan,
    pending: &mut VecDeque<(usize, Pending)>,
    transcript: &mut Transcript,
) -> Result<(), LoadError> {
    let Some((index, handle)) = pending.pop_front() else {
        // Queue-full with nothing in flight means the queue is congested
        // by other submitters; yield and let the caller retry.
        std::thread::yield_now();
        return Ok(());
    };
    let (op, digest) = match handle {
        Pending::Keygen(h) => {
            let (pk, sk) = h.wait().map_err(LoadError::Job)?;
            (OpKind::Keygen, keygen_digest(&pk, &sk))
        }
        Pending::Encaps(h) => {
            let (ct, ss) = h.wait().map_err(LoadError::Job)?;
            (OpKind::Encaps, encaps_digest(plan.params, &ct, &ss))
        }
        Pending::Decaps(h) => {
            let ss = h.wait().map_err(LoadError::Job)?;
            (OpKind::Decaps, digest_parts(&[ss.as_bytes()]))
        }
    };
    transcript.push(TranscriptEntry { index, op, digest });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_kem::params::SABER;

    #[test]
    fn plans_are_deterministic() {
        let profile = LoadProfile::new(&SABER, 0xfeed, 24);
        let a = build_plan(&profile);
        let b = build_plan(&profile);
        assert_eq!(a.ops.len(), 24);
        for (x, y) in a.ops.iter().zip(b.ops.iter()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        // A different seed reshuffles the op sequence.
        let c = build_plan(&LoadProfile::new(&SABER, 0xbeef, 24));
        assert_ne!(
            format!("{:?}", a.ops),
            format!("{:?}", c.ops),
            "different seeds should give different plans"
        );
    }

    #[test]
    fn default_mix_generates_every_kind() {
        let plan = build_plan(&LoadProfile::new(&SABER, 7, 64));
        for kind in OpKind::ALL {
            assert!(
                plan.ops.iter().any(|op| op.kind() == kind),
                "mix never produced {kind:?} in 64 ops"
            );
        }
    }

    #[test]
    fn sequential_transcript_is_reproducible() {
        let plan = build_plan(&LoadProfile::new(&SABER, 3, 8));
        let mut b1 = CtSchoolbookMultiplier::new();
        let mut b2 = CtSchoolbookMultiplier::new();
        assert_eq!(
            run_sequential(&plan, &mut b1),
            run_sequential(&plan, &mut b2)
        );
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_mix_rejected() {
        let mut profile = LoadProfile::new(&SABER, 1, 1);
        profile.mix = OpMix {
            keygen: 0,
            encaps: 0,
            decaps: 0,
        };
        let _ = build_plan(&profile);
    }
}
