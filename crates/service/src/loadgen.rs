//! Deterministic seeded load generation for soak and stress runs.
//!
//! A [`LoadProfile`] (seed + op count + operation mix) expands into a
//! concrete [`LoadPlan`]: every job's inputs — keygen seeds, encaps
//! entropy, decapsulation ciphertexts, mat-vec operands — are derived
//! up front from one SplitMix64 stream, so the *work* is fixed before
//! any of it is scheduled. The same plan can then be executed two ways:
//!
//! * [`run_sequential`] — one thread, one backend, in op order: the
//!   reference transcript;
//! * [`run_service`] — through a [`KemService`] pool with a bounded
//!   in-flight window, riding the backpressure path when the queue
//!   fills;
//! * [`run_open_loop`] — through a pool at a fixed *offered* rate
//!   drawn from a seeded [`ArrivalProcess`] (Poisson or bursty
//!   heavy-tail): the submitter never blocks and never retries, so
//!   overload surfaces as shed jobs and queue-wait growth instead of
//!   submitter self-throttling — the honest saturation measurement a
//!   closed loop cannot make.
//!
//! Because every KEM operation is a pure function of its planned inputs
//! (see the re-entrancy contract in `saber_kem::kem`), both executions
//! must produce byte-identical [`Transcript`]s for any worker count and
//! any interleaving — the property the concurrency battery and the soak
//! test assert. Transcript entries carry a SHA3-256 digest of the full
//! result bytes, so "byte-identical" is checked across serialization,
//! not just equality of in-memory structs.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use saber_keccak::Sha3_256;
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::SaberParams;
use saber_kem::{serialize, Ciphertext, KemSecretKey, PublicKey};
use saber_ring::{
    CtSchoolbookMultiplier, PolyMatrix, PolyMultiplier, PolyVec, SecretVec,
};
use saber_testkit::Rng;

use crate::metrics::{HistogramSnapshot, OpKind};
use crate::service::{JobError, JobHandle, KemService, SubmitError};

/// Relative weights of the four operations in a generated load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of key generations.
    pub keygen: u32,
    /// Weight of encapsulations.
    pub encaps: u32,
    /// Weight of decapsulations.
    pub decaps: u32,
    /// Weight of raw matrix–vector products.
    pub matvec: u32,
}

impl Default for OpMix {
    /// A server-shaped mix: mostly encaps/decaps traffic, occasional
    /// keygen, a stream of raw mat-vec work.
    fn default() -> Self {
        Self {
            keygen: 1,
            encaps: 4,
            decaps: 4,
            matvec: 3,
        }
    }
}

impl OpMix {
    /// A mat-vec-only mix (the throughput-bench shape).
    #[must_use]
    pub fn matvec_only() -> Self {
        Self {
            keygen: 0,
            encaps: 0,
            decaps: 0,
            matvec: 1,
        }
    }

    fn total(self) -> u32 {
        self.keygen + self.encaps + self.decaps + self.matvec
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
    /// it) and of the mat-vec operand pool.
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
    /// Multiply pool matrix `A` by pool secret `s`.
    MatVec {
        /// Shared public matrix.
        matrix: Arc<PolyMatrix>,
        /// Shared secret vector.
        secret: Arc<SecretVec>,
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
            PlannedOp::MatVec { .. } => OpKind::MatVec,
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

/// Expands a profile into its concrete plan (keyring, operand pools,
/// op sequence). Deterministic: equal profiles ⇒ equal plans.
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
    let matrices: Vec<Arc<PolyMatrix>> = (0..pool)
        .map(|_| Arc::new(gen_matrix(&rng.bytes32(), profile.params)))
        .collect();
    let secrets: Vec<Arc<SecretVec>> = (0..pool)
        .map(|_| Arc::new(gen_secret(&rng.bytes32(), profile.params)))
        .collect();

    let mix = profile.mix;
    let ops = (0..profile.ops)
        .map(|_| {
            let mut draw = rng.range_usize(0, mix.total() as usize - 1) as u32;
            if draw < mix.keygen {
                return PlannedOp::Keygen { seed: rng.bytes32() };
            }
            draw -= mix.keygen;
            if draw < mix.encaps {
                return PlannedOp::Encaps {
                    key: rng.range_usize(0, pool - 1),
                    entropy: rng.bytes32(),
                };
            }
            draw -= mix.encaps;
            if draw < mix.decaps {
                // Precompute the ciphertext at plan time so the decaps
                // job is a single, self-contained unit of service work.
                let key = rng.range_usize(0, pool - 1);
                let (ct, _) =
                    saber_kem::encaps(&keyring[key].0, &rng.bytes32(), &mut backend);
                return PlannedOp::Decaps {
                    key,
                    ct: Box::new(ct),
                };
            }
            PlannedOp::MatVec {
                matrix: Arc::clone(&matrices[rng.range_usize(0, pool - 1)]),
                secret: Arc::clone(&secrets[rng.range_usize(0, pool - 1)]),
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

fn polyvec_bytes(v: &PolyVec<13>) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 2 * 256);
    for poly in v.iter() {
        for &c in poly.coeffs() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
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
        PlannedOp::MatVec { matrix, secret } => {
            let v = matrix.mul_vec(secret, backend);
            digest_parts(&[&polyvec_bytes(&v)])
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

fn encaps_digest(
    params: &SaberParams,
    ct: &Ciphertext,
    ss: &saber_kem::SharedSecret,
) -> [u8; 32] {
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
    MatVec(JobHandle<PolyVec<13>>),
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
        PlannedOp::MatVec { matrix, secret } => service
            .submit_matvec(Arc::clone(matrix), Arc::clone(secret))
            .map(Pending::MatVec),
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
        Pending::MatVec(h) => {
            let v = h.wait().map_err(LoadError::Job)?;
            (OpKind::MatVec, digest_parts(&[&polyvec_bytes(&v)]))
        }
    };
    transcript.push(TranscriptEntry { index, op, digest });
    Ok(())
}

/// The inter-arrival process of an open-loop (offered-rate) load.
///
/// Both processes are parameterized by their mean gap and expanded into
/// a concrete gap vector by [`arrival_gaps`] from one seeded stream, so
/// a soak's arrival schedule is as reproducible as its op plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponentially distributed gaps (the classic
    /// open-system model — smooth load at the configured rate).
    Poisson {
        /// Mean inter-arrival gap, nanoseconds.
        mean_gap_ns: u64,
    },
    /// Heavy-tailed arrivals: Pareto-distributed gaps (`α = 1.5`), so
    /// most jobs arrive in tight bursts separated by occasional long
    /// lulls — the convoy-forming shape real KEM front-ends see.
    Bursty {
        /// Mean inter-arrival gap, nanoseconds (tail capped at 50×).
        mean_gap_ns: u64,
    },
}

impl ArrivalProcess {
    /// Stable label used in bench reports (`"poisson"` / `"bursty"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }

    /// The configured mean inter-arrival gap, nanoseconds.
    #[must_use]
    pub fn mean_gap_ns(self) -> u64 {
        match self {
            ArrivalProcess::Poisson { mean_gap_ns } | ArrivalProcess::Bursty { mean_gap_ns } => {
                mean_gap_ns
            }
        }
    }
}

/// Uniform draw in `(0, 1]` — the `+1.0` excludes an exact zero so the
/// inverse-CDF transforms below never take `ln(0)` or divide by zero.
fn uniform01(rng: &mut Rng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / 9_007_199_254_740_992.0
}

/// Expands an arrival process into `n` concrete inter-arrival gaps
/// (nanoseconds) via inverse-CDF sampling of one seeded stream.
/// Deterministic: equal `(process, n, seed)` ⇒ equal gaps.
#[must_use]
pub fn arrival_gaps(process: ArrivalProcess, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean = process.mean_gap_ns() as f64;
    (0..n)
        .map(|_| {
            let u = uniform01(&mut rng);
            let gap = match process {
                // Exponential via inverse CDF: gap = −mean·ln(u).
                ArrivalProcess::Poisson { .. } => -mean * u.ln(),
                // Pareto(α=1.5): gap = xm·u^(−1/α) with xm = mean/3 so
                // the distribution mean is α·xm/(α−1) = 3·xm = mean.
                // The tail is capped at 50× the mean: an uncapped
                // α=1.5 Pareto has infinite variance and a single
                // pathological draw would stall the whole soak.
                ArrivalProcess::Bursty { .. } => {
                    let xm = mean / 3.0;
                    (xm * u.powf(-1.0 / 1.5)).min(mean * 50.0)
                }
            };
            gap as u64
        })
        .collect()
}

/// What an open-loop soak observed: admission accounting, goodput, and
/// queue-wait quantiles under the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Jobs the arrival process offered.
    pub offered: u64,
    /// Jobs the service admitted.
    pub admitted: u64,
    /// Admitted jobs that completed successfully.
    pub completed: u64,
    /// Jobs shed at submit time (queue full / hard cap).
    pub shed: u64,
    /// Admitted jobs that failed (worker panic).
    pub failed: u64,
    /// Jobs admitted above the soft capacity under the degrade policy.
    pub degraded_admissions: u64,
    /// Wall-clock duration of the soak (first submit → last drain).
    pub duration_ns: u64,
    /// Median queue wait across all admitted jobs, nanoseconds.
    pub p50_wait_ns: u64,
    /// 99th-percentile queue wait across all admitted jobs, nanoseconds.
    pub p99_wait_ns: u64,
}

impl SoakOutcome {
    /// Completed jobs per second of wall clock (goodput, not offered
    /// throughput — shed and failed jobs don't count).
    #[must_use]
    pub fn goodput_per_sec(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.duration_ns as f64
    }

    /// Offered jobs per second of wall clock.
    #[must_use]
    pub fn offered_per_sec(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.offered as f64 * 1e9 / self.duration_ns as f64
    }
}

/// Executes the plan through a service pool **open-loop**: each op is
/// submitted at its scheduled arrival instant (from [`arrival_gaps`])
/// regardless of how far behind the service is. The submitter never
/// blocks on backpressure — a full queue sheds the job and moves on —
/// so offered load is held at the configured rate and overload shows up
/// as shed counts and queue-wait growth, not submitter slowdown.
///
/// Queue-wait quantiles are read from the service's own metrics at the
/// end of the run, so the service should be **freshly spawned** for the
/// soak (a reused pool would fold earlier traffic into the histograms).
///
/// # Errors
///
/// [`LoadError::Submit`] only if the service is shut down mid-run;
/// shed jobs and worker-panic failures are outcomes, not errors.
pub fn run_open_loop(
    plan: &LoadPlan,
    service: &KemService,
    process: ArrivalProcess,
    seed: u64,
) -> Result<SoakOutcome, LoadError> {
    let gaps = arrival_gaps(process, plan.ops.len(), seed);
    let start = Instant::now();
    let mut next_arrival_ns: u64 = 0;
    let mut pending: Vec<Pending> = Vec::with_capacity(plan.ops.len());
    let mut offered = 0u64;
    let mut shed = 0u64;

    for (op, &gap) in plan.ops.iter().zip(gaps.iter()) {
        next_arrival_ns = next_arrival_ns.saturating_add(gap);
        loop {
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= next_arrival_ns {
                break;
            }
            // Sleep the bulk of the gap, spin the last stretch — OS
            // sleep granularity is far coarser than sub-µs gaps.
            let remaining = next_arrival_ns - elapsed;
            if remaining > 100_000 {
                std::thread::sleep(Duration::from_nanos(remaining - 50_000));
            } else {
                std::hint::spin_loop();
            }
        }
        offered += 1;
        match submit_op(plan, service, op) {
            Ok(handle) => pending.push(handle),
            Err(SubmitError::QueueFull { .. }) => shed += 1,
            Err(err @ SubmitError::ShutDown) => return Err(LoadError::Submit(err)),
        }
    }

    let admitted = pending.len() as u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    for handle in pending {
        let ok = match handle {
            Pending::Keygen(h) => h.wait().is_ok(),
            Pending::Encaps(h) => h.wait().is_ok(),
            Pending::Decaps(h) => h.wait().is_ok(),
            Pending::MatVec(h) => h.wait().is_ok(),
        };
        if ok {
            completed += 1;
        } else {
            failed += 1;
        }
    }
    let duration_ns = (start.elapsed().as_nanos() as u64).max(1);

    let report = service.report();
    let mut wait = HistogramSnapshot::default();
    for (_, h) in &report.queue_wait {
        wait.merge(h);
    }
    Ok(SoakOutcome {
        offered,
        admitted,
        completed,
        shed,
        failed,
        degraded_admissions: report.degraded_admissions,
        duration_ns,
        p50_wait_ns: wait.quantile_ns(0.5),
        p99_wait_ns: wait.quantile_ns(0.99),
    })
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
        assert_eq!(run_sequential(&plan, &mut b1), run_sequential(&plan, &mut b2));
    }

    #[test]
    fn arrival_gaps_are_deterministic_and_roughly_hit_the_mean() {
        for process in [
            ArrivalProcess::Poisson { mean_gap_ns: 10_000 },
            ArrivalProcess::Bursty { mean_gap_ns: 10_000 },
        ] {
            let a = arrival_gaps(process, 4096, 42);
            let b = arrival_gaps(process, 4096, 42);
            assert_eq!(a, b, "{} gaps must be seed-deterministic", process.label());
            assert_ne!(a, arrival_gaps(process, 4096, 43), "seed must matter");
            let mean = a.iter().sum::<u64>() as f64 / a.len() as f64;
            assert!(
                (mean - 10_000.0).abs() < 3_000.0,
                "{} empirical mean {mean} too far from 10µs",
                process.label()
            );
        }
    }

    #[test]
    fn bursty_gaps_are_heavy_tailed_but_capped() {
        let gaps = arrival_gaps(ArrivalProcess::Bursty { mean_gap_ns: 10_000 }, 4096, 7);
        let max = *gaps.iter().max().unwrap();
        assert!(max <= 50 * 10_000, "tail cap exceeded: {max}");
        assert!(max > 5 * 10_000, "no heavy tail at all: {max}");
        // Pareto minimum is xm = mean/3: no gap can undershoot it.
        assert!(gaps.iter().all(|&g| g >= 10_000 / 3), "gap below Pareto minimum");
        // Burstiness: the median sits well below the mean.
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        assert!(sorted[sorted.len() / 2] < 8_000, "median should be below the mean");
    }

    #[test]
    fn open_loop_accounting_conserves_jobs() {
        use crate::service::{KemService, ServiceConfig};
        let plan = build_plan(&LoadProfile::new(&SABER, 11, 48));
        let service = KemService::spawn(&ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        // Offered far faster than a 2-worker pool can serve: some
        // shedding is possible and the books must still balance.
        let outcome = run_open_loop(
            &plan,
            &service,
            ArrivalProcess::Poisson { mean_gap_ns: 1_000 },
            99,
        )
        .expect("soak runs");
        assert_eq!(outcome.offered, 48);
        assert_eq!(outcome.offered, outcome.admitted + outcome.shed);
        assert_eq!(outcome.admitted, outcome.completed + outcome.failed);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.duration_ns > 0);
        assert!(outcome.goodput_per_sec() > 0.0);
        let _ = service.shutdown();
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_mix_rejected() {
        let mut profile = LoadProfile::new(&SABER, 1, 1);
        profile.mix = OpMix {
            keygen: 0,
            encaps: 0,
            decaps: 0,
            matvec: 0,
        };
        let _ = build_plan(&profile);
    }
}
