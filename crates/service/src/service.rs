//! The worker pool: sharded multiplier caches, typed job handles,
//! panic containment, and graceful draining shutdown.
//!
//! ## Architecture
//!
//! ```text
//!  submitters ──try_push──▶ per-worker deques ──▶ worker 0 ─┐ owns deque+shard 0
//!      │ (reject when full)  (shortest-queue      worker 1 ─┤ owns deque+shard 1 ─▶ JobHandle
//!      ▼                      submit, seeded         …      │ (one engine-built       .wait()
//!   SubmitError::QueueFull    work stealing)      worker N ─┘  multiplier each)
//! ```
//!
//! Dispatch is per-worker bounded deques with seeded work stealing
//! ([`crate::steal::WorkStealQueue`]; owner pops newest-first, thieves
//! take the older half from a victim's back), jointly bounded by one
//! global capacity. At that capacity a submission is rejected with
//! [`SubmitError::QueueFull`]; nothing is buffered past it. The whole
//! configuration is the [`ServiceConfig`] value the pool is spawned
//! with — no environment variable changes how jobs are dispatched.
//!
//! Each worker owns one multiplier shard built from
//! [`ServiceConfig::engine`], the constant-time u16-lane engine — the
//! software analogue of the paper replicating a verified datapath per
//! compute unit. The [`ServiceReport`] `engines` field names that
//! engine once per worker. Each worker also owns a bounded
//! [`MatrixCache`] of expanded public matrices `A`, keyed by
//! `(seed_A, rank)`, which its encaps and decaps jobs share: a server
//! decapsulating against its own key expands `A` once per worker, not
//! once per request (hits and misses are in the report). The shard and
//! the cache are worker-local, so the hot path (the multiply lane
//! scans, Keccak) runs with **no lock held and no sharing**; the
//! only synchronized structures are the O(1) queue operations and the
//! one-shot result slots.
//!
//! ## Failure containment
//!
//! A panic while executing a job is caught at the worker loop
//! (`std::panic::catch_unwind`): the job's handle resolves to
//! [`JobError::WorkerPanicked`], the worker discards its multiplier
//! shard (its scratch state is suspect mid-panic) and builds a fresh
//! one, then keeps serving. One poisoned job never takes out the pool.
//!
//! ## Shutdown protocol
//!
//! [`KemService::shutdown`] closes the queue — new submissions fail
//! with [`SubmitError::ShutDown`] — then joins every worker. Closing
//! does not discard admitted jobs: workers drain the queue to empty
//! before exiting, so every accepted `JobHandle` resolves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use saber_kem::params::SaberParams;
use saber_kem::{Ciphertext, KemSecretKey, MatrixCache, PublicKey, SharedSecret};
use saber_ring::{EngineKind, PolyMultiplier};
use saber_testkit::Rng;

use crate::metrics::{Metrics, OpKind, ServiceReport};
use crate::steal::{PushError, WorkStealQueue};

/// The steal-decision seed of [`ServiceConfig::default`].
pub const DEFAULT_STEAL_SEED: u64 = 0x5ABE_57EA;

/// The dispatch structure feeding the workers: per-worker bounded
/// deques with seeded work stealing ([`WorkStealQueue`]), the only one
/// the service has. The type remains so reports can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Per-worker bounded deques with seeded work stealing.
    WorkSteal,
}

impl SchedulerKind {
    /// Stable label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::WorkSteal => "steal",
        }
    }
}

/// What the service does when a submission arrives at a full queue:
/// reject it, the only policy the service has. The type remains so
/// reports can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Reject at the configured capacity: overload turns into explicit
    /// [`SubmitError::QueueFull`] responses and the wait-time
    /// distribution stays bounded.
    Reject,
}

impl OverloadPolicy {
    /// Stable label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OverloadPolicy::Reject => "reject",
        }
    }
}

/// Pool sizing and scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (= multiplier shards). Must be ≥ 1.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Multiplier engine each worker shard is built from.
    pub engine: EngineKind,
    /// Dispatch scheduler (work stealing, the only one).
    pub scheduler: SchedulerKind,
    /// What to do at a full queue (reject, the only policy).
    pub overload: OverloadPolicy,
    /// Seed driving every steal/victim decision. Fixed default so runs
    /// are reproducible; tests sweep it to stress different steal
    /// orders.
    pub steal_seed: u64,
}

impl Default for ServiceConfig {
    /// Four workers over a 64-deep queue: a deliberately fixed default
    /// (not `available_parallelism`) so behaviour is identical on every
    /// host; size explicitly for production use. The engine is the
    /// constant-time `ct` engine and the steal seed is
    /// [`DEFAULT_STEAL_SEED`]. Nothing here is read from the
    /// environment.
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            engine: EngineKind::default(),
            scheduler: SchedulerKind::WorkSteal,
            overload: OverloadPolicy::Reject,
            steal_seed: DEFAULT_STEAL_SEED,
        }
    }
}

/// Why a submission was refused (the job was **not** admitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the queue is at capacity. Retry later, shed load,
    /// or widen the queue — the service never buffers unboundedly.
    QueueFull {
        /// The configured capacity that was exhausted.
        capacity: usize,
    },
    /// The service is shutting down; no new work is admitted.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity}): backpressure")
            }
            SubmitError::ShutDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *admitted* job failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The worker panicked while executing this job. The pool survives;
    /// only this job is lost.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::WorkerPanicked { message } => {
                write!(f, "worker panicked while executing job: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A worker-holding gate for deterministic scheduler tests: a job
/// carrying a gate occupies its worker until [`Gate::release`].
///
/// This is test instrumentation in the same spirit as
/// `saber_core::fault` — a controlled way to drive the scheduler into
/// its edge states (full queue, shutdown with in-flight work) without
/// sleeping or racing.
#[derive(Debug, Default)]
pub struct Gate {
    released: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// A new, closed gate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the gate, releasing any worker waiting on it (idempotent).
    pub fn release(&self) {
        *self.released.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }

    fn wait_released(&self) {
        let mut released = self.released.lock().expect("gate lock");
        while !*released {
            released = self.cv.wait(released).expect("gate lock");
        }
    }
}

/// What a worker is asked to do. KEM inputs are owned (boxed where
/// large).
enum Request {
    Keygen {
        params: &'static SaberParams,
        seed: [u8; 32],
    },
    Encaps {
        pk: Box<PublicKey>,
        entropy: [u8; 32],
    },
    Decaps {
        sk: Box<KemSecretKey>,
        ct: Box<Ciphertext>,
    },
    /// Fault injection: panics inside the worker (test instrumentation).
    Panic { message: String },
    /// Holds the worker until the gate opens (test instrumentation).
    Hold { gate: Arc<Gate> },
}

/// What a worker produced.
enum Response {
    Keygen(Box<(PublicKey, KemSecretKey)>),
    Encaps(Box<(Ciphertext, SharedSecret)>),
    Decaps(SharedSecret),
    Unit,
}

/// One-shot result cell shared between a worker and a [`JobHandle`].
#[derive(Default)]
struct Slot {
    cell: Mutex<Option<Result<Response, JobError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, result: Result<Response, JobError>) {
        let mut cell = self.cell.lock().expect("slot lock");
        debug_assert!(cell.is_none(), "a job resolves exactly once");
        *cell = Some(result);
        drop(cell);
        self.ready.notify_all();
    }
}

/// The caller's side of an admitted job: blocks until the worker pool
/// resolves it. Every admitted job resolves, including across
/// [`KemService::shutdown`] (the queue drains before workers exit).
pub struct JobHandle<T> {
    slot: Arc<Slot>,
    extract: fn(Response) -> T,
}

impl<T> JobHandle<T> {
    /// Blocks until the job resolves.
    ///
    /// # Errors
    ///
    /// [`JobError::WorkerPanicked`] if the worker panicked executing
    /// this job (the pool itself keeps serving).
    pub fn wait(self) -> Result<T, JobError> {
        let mut cell = self.slot.cell.lock().expect("slot lock");
        loop {
            if let Some(result) = cell.take() {
                return result.map(self.extract);
            }
            cell = self.slot.ready.wait(cell).expect("slot lock");
        }
    }
}

struct Job {
    request: Request,
    op: Option<OpKind>,
    slot: Arc<Slot>,
    enqueued: Instant,
}

struct Inner {
    queue: WorkStealQueue<Job>,
    metrics: Metrics,
    config: ServiceConfig,
}

/// The concurrent KEM service: a fixed pool of workers, each owning an
/// engine-built multiplier shard, fed by a bounded backpressured queue
/// (see the module docs for the architecture).
///
/// # Examples
///
/// ```
/// use saber_kem::params::SABER;
/// use saber_service::{KemService, ServiceConfig};
///
/// let config = ServiceConfig { workers: 2, queue_capacity: 16, ..ServiceConfig::default() };
/// let service = KemService::spawn(&config);
/// let keys = service.submit_keygen(&SABER, [7; 32]).unwrap();
/// let (pk, sk) = keys.wait().unwrap();
/// let (ct, ss_enc) = service.submit_encaps(pk, [8; 32]).unwrap().wait().unwrap();
/// let ss_dec = service.submit_decaps(sk, ct).unwrap().wait().unwrap();
/// assert_eq!(ss_enc, ss_dec);
/// let report = service.shutdown();
/// assert_eq!(report.completed, 3);
/// ```
pub struct KemService {
    inner: Arc<Inner>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl KemService {
    /// Starts the pool: `config.workers` threads, each with its own
    /// multiplier shard.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero (a pool that can never make
    /// progress) or `config.queue_capacity` is zero.
    #[must_use]
    pub fn spawn(config: &ServiceConfig) -> Self {
        assert!(config.workers > 0, "service needs at least one worker");
        // Production observability posture: arm the flight recorder
        // and install the crash-dump panic hook — both idempotent, both
        // process-wide.
        saber_trace::flight::set_enabled(true);
        crate::obs::install_panic_hook();
        let inner = Arc::new(Inner {
            queue: WorkStealQueue::new(config.queue_capacity, config.workers),
            metrics: Metrics::default(),
            config: *config,
        });
        let handles = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("saber-service-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn service worker")
            })
            .collect();
        Self { inner, handles }
    }

    /// Submits a KEM key generation from a 32-byte master seed.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is
    /// shutting down; the job was not admitted.
    pub fn submit_keygen(
        &self,
        params: &'static SaberParams,
        seed: [u8; 32],
    ) -> Result<JobHandle<(PublicKey, KemSecretKey)>, SubmitError> {
        self.submit(
            Some(OpKind::Keygen),
            Request::Keygen { params, seed },
            |r| match r {
                Response::Keygen(out) => *out,
                _ => unreachable!("keygen job resolves to a keygen response"),
            },
        )
    }

    /// Submits an encapsulation against `pk`.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is
    /// shutting down; the job was not admitted.
    pub fn submit_encaps(
        &self,
        pk: PublicKey,
        entropy: [u8; 32],
    ) -> Result<JobHandle<(Ciphertext, SharedSecret)>, SubmitError> {
        self.submit(
            Some(OpKind::Encaps),
            Request::Encaps {
                pk: Box::new(pk),
                entropy,
            },
            |r| match r {
                Response::Encaps(out) => *out,
                _ => unreachable!("encaps job resolves to an encaps response"),
            },
        )
    }

    /// Submits a decapsulation of `ct` under `sk`.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is
    /// shutting down; the job was not admitted.
    pub fn submit_decaps(
        &self,
        sk: KemSecretKey,
        ct: Ciphertext,
    ) -> Result<JobHandle<SharedSecret>, SubmitError> {
        self.submit(
            Some(OpKind::Decaps),
            Request::Decaps {
                sk: Box::new(sk),
                ct: Box::new(ct),
            },
            |r| match r {
                Response::Decaps(ss) => ss,
                _ => unreachable!("decaps job resolves to a decaps response"),
            },
        )
    }

    /// Fault injection: submits a job that panics inside its worker.
    ///
    /// Test instrumentation (the service-layer analogue of
    /// `saber_core::fault`): proves one poisoned job fails alone while
    /// the pool keeps serving.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is
    /// shutting down; the job was not admitted.
    pub fn submit_fault_panic(&self, message: &str) -> Result<JobHandle<()>, SubmitError> {
        self.submit(
            None,
            Request::Panic {
                message: message.to_string(),
            },
            |_| (),
        )
    }

    /// Test instrumentation: submits a job that occupies a worker until
    /// `gate` is released — the deterministic way to fill the queue or
    /// shut down with work in flight.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is
    /// shutting down; the job was not admitted.
    pub fn submit_hold(&self, gate: Arc<Gate>) -> Result<JobHandle<()>, SubmitError> {
        self.submit(None, Request::Hold { gate }, |_| ())
    }

    fn submit<T>(
        &self,
        op: Option<OpKind>,
        request: Request,
        extract: fn(Response) -> T,
    ) -> Result<JobHandle<T>, SubmitError> {
        let slot = Arc::new(Slot::default());
        let job = Job {
            request,
            op,
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
        };
        match self.inner.queue.try_push(job) {
            Ok(depth) => {
                self.inner.metrics.record_submitted(depth);
                Ok(JobHandle { slot, extract })
            }
            Err(PushError::Full(_)) => {
                self.inner.metrics.record_rejected();
                Err(SubmitError::QueueFull {
                    capacity: self.inner.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(SubmitError::ShutDown),
        }
    }

    /// A live metrics snapshot (the service keeps running).
    #[must_use]
    pub fn report(&self) -> ServiceReport {
        self.inner
            .metrics
            .snapshot(&self.inner.config, self.inner.queue.len())
    }

    /// Begins shutdown without blocking: closes the queue, so every
    /// submission that loses the race fails with
    /// [`SubmitError::ShutDown`] while already-admitted jobs keep
    /// draining (their handles still resolve). Idempotent; call
    /// [`shutdown`](Self::shutdown) afterwards to join the workers and
    /// collect the final report.
    pub fn begin_shutdown(&self) {
        self.inner.queue.close();
    }

    /// Graceful shutdown: stops admitting work, drains every admitted
    /// job, joins all workers, and returns the final metrics report.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        self.inner.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.report()
    }
}

impl Drop for KemService {
    /// Dropping without [`shutdown`](Self::shutdown) still drains and
    /// joins, so admitted handles resolve and no thread leaks.
    fn drop(&mut self) {
        self.inner.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn run_request(
    shard: &mut dyn PolyMultiplier,
    matrices: &mut MatrixCache,
    request: Request,
) -> Response {
    match request {
        Request::Keygen { params, seed } => {
            let (pk, sk) = saber_kem::keygen(params, &seed, shard);
            Response::Keygen(Box::new((pk, sk)))
        }
        Request::Encaps { pk, entropy } => {
            let (ct, ss) = saber_kem::encaps_cached(&pk, &entropy, matrices, shard);
            Response::Encaps(Box::new((ct, ss)))
        }
        Request::Decaps { sk, ct } => {
            Response::Decaps(saber_kem::decaps_cached(&sk, &ct, matrices, shard))
        }
        Request::Panic { message } => panic!("{message}"),
        Request::Hold { gate } => {
            gate.wait_released();
            Response::Unit
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    let kind = inner.config.engine;
    let mut shard = kind.build();
    // The worker's own cache of expanded matrices `A`, which its encaps
    // and decaps jobs share. Entries are public and complete (a panic
    // mid-expansion inserts nothing), so it survives a shard rebuild.
    let mut matrices = MatrixCache::new();
    // Every steal/victim decision this worker makes is drawn from a
    // seeded stream: the pool seed mixed with the worker index
    // (SplitMix64-style odd-constant spread so adjacent workers do not
    // correlate).
    let mut steal_rng = Rng::new(
        inner
            .config
            .steal_seed
            .wrapping_add((worker as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    while let Some((job, tally)) = inner.queue.pop(worker, &mut steal_rng) {
        if tally.attempts > 0 {
            inner.metrics.record_steal_attempts(tally.attempts);
        }
        if let Some(victim) = tally.victim {
            inner.metrics.record_steal_hit(tally.moved);
            saber_trace::counter("service", "steal.hit", 1);
            saber_trace::counter("service", saber_trace::victim_counter_name(victim), 1);
        }
        let Job {
            request,
            op,
            slot,
            enqueued,
        } = job;
        let dequeued = Instant::now();
        let wait_ns = u64::try_from(dequeued.saturating_duration_since(enqueued).as_nanos())
            .unwrap_or(u64::MAX);
        let lookups = (matrices.hits(), matrices.misses());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_request(shard.as_mut(), &mut matrices, request)
        }));
        inner
            .metrics
            .record_matrix_lookups(matrices.hits() - lookups.0, matrices.misses() - lookups.1);
        match outcome {
            Ok(response) => {
                let exec_ns = u64::try_from(dequeued.elapsed().as_nanos()).unwrap_or(u64::MAX);
                // Record job spans when a capture session is live OR
                // the flight recorder is armed — span_at routes to
                // whichever sinks are active.
                if saber_trace::enabled() || saber_trace::flight::enabled() {
                    let name = op.map_or("job", OpKind::label);
                    saber_trace::span_at(
                        "service",
                        "queue_wait",
                        saber_trace::instant_ns(enqueued),
                        wait_ns,
                    );
                    saber_trace::span_at(
                        "service",
                        name,
                        saber_trace::instant_ns(dequeued),
                        exec_ns,
                    );
                }
                match op {
                    Some(op) => inner.metrics.record_completed(op, wait_ns, exec_ns),
                    None => inner.metrics.record_completed_untyped(),
                }
                slot.fill(Ok(response));
            }
            Err(payload) => {
                // The shard's scratch state is suspect after an unwind
                // mid-multiplication: rebuild it (same engine), fail
                // only this job.
                shard = kind.build();
                inner.metrics.record_failed_panic();
                // The panic hook already dumped at panic time; this
                // extra dump is the *recovery-site* context (post-
                // rebuild), emitted only when a dump file is requested.
                let _ = saber_trace::flight::dump_if_armed("worker-fault");
                slot.fill(Err(JobError::WorkerPanicked {
                    message: panic_message(payload),
                }));
            }
        }
    }
}
