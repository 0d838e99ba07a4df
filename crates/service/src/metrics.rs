//! Lock-free service instrumentation: atomic counters, fixed-bucket
//! latency histograms, and the [`ServiceReport`] they are read into
//! (written and read by [`crate::snapshot`]).
//!
//! The recording side is wait-free (`fetch_add` / `fetch_max` with
//! relaxed ordering — the numbers are monotone gauges, not
//! synchronization), so instrumentation never perturbs the hot path it
//! measures. Snapshots are taken by reading every atomic once; a
//! snapshot racing live traffic is *torn but monotone*: each individual
//! counter is exact at its read instant, and re-snapshotting never
//! decreases any of them (`metrics_report.rs` tests this).
//!
//! Histogram buckets are fixed powers of two of a microsecond
//! ([`BUCKET_BOUNDS_NS`]): latency in a KEM service spans keygen at
//! tens of microseconds to queue-saturated multi-millisecond waits, so
//! geometric buckets hold the whole range in 16 slots with constant
//! relative resolution — the same reasoning as the paper's
//! power-of-two moduli: cheap boundaries, no division on the record
//! path (bucket index is a leading-zeros computation).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::service::ServiceConfig;
use crate::snapshot::FlightStatus;

/// Number of latency buckets (15 geometric + 1 overflow).
pub const BUCKET_COUNT: usize = 16;

/// Exclusive upper bounds of the latency buckets, in nanoseconds:
/// bucket `i < 15` holds samples `< 1µs · 2^i`; the last bucket holds
/// everything slower.
pub const BUCKET_BOUNDS_NS: [u64; BUCKET_COUNT] = {
    let mut bounds = [u64::MAX; BUCKET_COUNT];
    let mut i = 0;
    while i < BUCKET_COUNT - 1 {
        bounds[i] = 1_000u64 << i;
        i += 1;
    }
    bounds
};

/// The canonical serialized label for a bucket's upper edge: the
/// decimal bound for the 15 finite buckets, `"+Inf"` for the overflow
/// bucket. **Both** serialized forms of the histograms — the JSON
/// `bucket_bounds_ns` array and the Prometheus `le` labels — use this
/// exact string, so the two expositions can never disagree on an edge
/// (cumulative `le` semantics; the exclusive-upper-bound convention of
/// [`bucket_index`] maps bucket `i` to `le = BUCKET_BOUNDS_NS[i]`).
#[must_use]
pub fn bucket_edge_label(index: usize) -> String {
    let bound = BUCKET_BOUNDS_NS[index];
    if bound == u64::MAX {
        "+Inf".to_string()
    } else {
        bound.to_string()
    }
}

/// The bucket a latency sample falls into.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    // Samples below 1µs land in bucket 0; otherwise the bucket is the
    // position of the highest set bit above the 1µs base, capped at the
    // overflow bucket. Equivalent to a linear scan of BUCKET_BOUNDS_NS.
    let mut i = 0;
    while i < BUCKET_COUNT - 1 && ns >= BUCKET_BOUNDS_NS[i] {
        i += 1;
    }
    i
}

/// The three KEM operations the service serves and meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// KEM key generation.
    Keygen,
    /// KEM encapsulation.
    Encaps,
    /// KEM decapsulation.
    Decaps,
}

impl OpKind {
    /// Every operation, in report order.
    pub const ALL: [OpKind; 3] = [OpKind::Keygen, OpKind::Encaps, OpKind::Decaps];

    /// Stable label used in JSON reports and test assertions.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Keygen => "keygen",
            OpKind::Encaps => "encaps",
            OpKind::Decaps => "decaps",
        }
    }

    /// Inverse of [`label`](Self::label).
    #[must_use]
    pub fn from_label(label: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|op| op.label() == label)
    }

    /// Position in [`OpKind::ALL`] (the declaration order).
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// One operation's live latency histogram (atomic recording side).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Reads the current state into a plain snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKET_COUNT];
        for (out, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) histogram snapshot, as serialized into
/// [`ServiceReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bounds in [`BUCKET_BOUNDS_NS`]).
    pub counts: [u64; BUCKET_COUNT],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded latencies, nanoseconds.
    pub total_ns: u64,
    /// Largest recorded latency, nanoseconds.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Mean latency in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The service's full live-metrics registry. One instance per pool,
/// shared by reference with every worker and submitter.
#[derive(Debug, Default)]
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    queue_high_water: AtomicU64,
    steal_attempts: AtomicU64,
    steal_hits: AtomicU64,
    stolen_jobs: AtomicU64,
    matrix_cache_hits: AtomicU64,
    matrix_cache_misses: AtomicU64,
    ops: [LatencyHistogram; OpKind::ALL.len()],
    queue_wait: [LatencyHistogram; OpKind::ALL.len()],
    execute: [LatencyHistogram; OpKind::ALL.len()],
}

impl Metrics {
    /// A job was admitted to the queue; `depth` is the queue depth
    /// including it (feeds the high-water gauge).
    pub fn record_submitted(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_high_water
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A submission was rejected by backpressure.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker ran `n` victim scans while looking for work to steal
    /// (counted only when the queue was non-empty, so idle sleeps never
    /// inflate the gauge).
    pub fn record_steal_attempts(&self, n: u64) {
        self.steal_attempts.fetch_add(n, Ordering::Relaxed);
    }

    /// A steal succeeded, migrating `moved` jobs (the executed one plus
    /// any appended to the thief's own deque).
    pub fn record_steal_hit(&self, moved: u64) {
        self.steal_hits.fetch_add(1, Ordering::Relaxed);
        self.stolen_jobs.fetch_add(moved, Ordering::Relaxed);
    }

    /// A worker's job looked its matrix `A` up `hits + misses` times in
    /// the worker's cache (zero for jobs that take no matrix).
    pub fn record_matrix_lookups(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.matrix_cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.matrix_cache_misses
                .fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// A job completed successfully. The two halves of its life are
    /// recorded separately — `wait_ns` is enqueue→dequeue (scheduling
    /// pressure), `exec_ns` is dequeue→completion (work) — and their sum
    /// feeds the combined per-op histogram.
    pub fn record_completed(&self, op: OpKind, wait_ns: u64, exec_ns: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: latencies are measurements, not
        // residues — on (absurd) overflow we want the clamp at u64::MAX
        // to land in the top histogram bucket, never a tiny wrapped value.
        self.ops[op.index()].record(wait_ns.saturating_add(exec_ns));
        self.queue_wait[op.index()].record(wait_ns);
        self.execute[op.index()].record(exec_ns);
    }

    /// An instrumentation job (no [`OpKind`]) completed: bumps the
    /// completed counter without touching any latency histogram.
    pub fn record_completed_untyped(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job failed (its worker panicked while executing it).
    pub fn record_failed_panic(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots every counter and histogram, with the pool shape of
    /// `config`, the current `queue_depth` and the live flight-recorder
    /// status, into a [`ServiceReport`]. Every shard is built from
    /// `config.engine`, so `engines` names it once per worker.
    #[must_use]
    pub fn snapshot(&self, config: &ServiceConfig, queue_depth: usize) -> ServiceReport {
        let read = |side: &[LatencyHistogram]| {
            OpKind::ALL
                .into_iter()
                .map(|op| (op, side[op.index()].snapshot()))
                .collect()
        };
        ServiceReport {
            engines: vec![config.engine.label().to_string(); config.workers],
            workers: config.workers as u64,
            queue_capacity: config.queue_capacity as u64,
            queue_depth: queue_depth as u64,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steal_hits: self.steal_hits.load(Ordering::Relaxed),
            stolen_jobs: self.stolen_jobs.load(Ordering::Relaxed),
            matrix_cache_hits: self.matrix_cache_hits.load(Ordering::Relaxed),
            matrix_cache_misses: self.matrix_cache_misses.load(Ordering::Relaxed),
            ops: read(&self.ops),
            queue_wait: read(&self.queue_wait),
            execute: read(&self.execute),
            flight: FlightStatus::capture(),
        }
    }
}

/// A point-in-time view of the service: its counters, its latency
/// histograms and the flight recorder's status. It is the one report
/// the service writes: [`crate::snapshot`] serializes it as the
/// versioned `saber-metrics` JSON document (README shows a sample) and
/// as a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// Worker threads in the pool.
    pub workers: u64,
    /// Configured queue capacity.
    pub queue_capacity: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Jobs admitted to the queue.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Jobs that failed (worker panic while executing).
    pub failed: u64,
    /// Worker panics contained by the pool.
    pub worker_panics: u64,
    /// Highest queue depth observed at submit time.
    pub queue_high_water: u64,
    /// Victim scans run by workers looking for stealable work (only
    /// counted while the queue was non-empty).
    pub steal_attempts: u64,
    /// Successful steals (victim scans that migrated at least one job).
    pub steal_hits: u64,
    /// Jobs migrated between worker deques by stealing.
    pub stolen_jobs: u64,
    /// Encaps/decaps lookups of the matrix `A` that a worker's cache
    /// answered, summed over workers.
    pub matrix_cache_hits: u64,
    /// Encaps/decaps lookups that expanded `A` (and cached it), summed
    /// over workers.
    pub matrix_cache_misses: u64,
    /// Engine label of each worker shard, one entry per worker.
    pub engines: Vec<String>,
    /// Per-operation end-to-end (enqueue→completion) latency
    /// histograms, in [`OpKind::ALL`] order.
    pub ops: Vec<(OpKind, HistogramSnapshot)>,
    /// Per-operation queue-wait (enqueue→dequeue) histograms.
    pub queue_wait: Vec<(OpKind, HistogramSnapshot)>,
    /// Per-operation execution (dequeue→completion) histograms.
    pub execute: Vec<(OpKind, HistogramSnapshot)>,
    /// Flight-recorder status at snapshot time.
    pub flight: FlightStatus,
}

/// The histogram of `op` in one side of a report.
fn find(side: &[(OpKind, HistogramSnapshot)], op: OpKind) -> Option<&HistogramSnapshot> {
    side.iter().find(|(k, _)| *k == op).map(|(_, h)| h)
}

impl ServiceReport {
    /// The end-to-end snapshot for one operation, if recorded.
    #[must_use]
    pub fn op(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        find(&self.ops, op)
    }

    /// The queue-wait half of one operation's latency, if recorded.
    #[must_use]
    pub fn op_queue_wait(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        find(&self.queue_wait, op)
    }

    /// The execution half of one operation's latency, if recorded.
    #[must_use]
    pub fn op_execute(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        find(&self.execute, op)
    }

    /// A compact one-line text summary (for logs and bench output).
    #[must_use]
    pub fn format_summary(&self) -> String {
        let mut line = format!(
            "workers={} capacity={} submitted={} completed={} rejected={} failed={} high_water={}",
            self.workers,
            self.queue_capacity,
            self.submitted,
            self.completed,
            self.rejected,
            self.failed,
            self.queue_high_water,
        );
        if !self.engines.is_empty() {
            line.push_str(&format!(" engines={}", self.engines.join(",")));
        }
        if self.steal_attempts > 0 || self.steal_hits > 0 {
            line.push_str(&format!(
                " steals[attempts={} hits={} moved={}]",
                self.steal_attempts, self.steal_hits, self.stolen_jobs
            ));
        }
        if self.matrix_cache_hits > 0 || self.matrix_cache_misses > 0 {
            line.push_str(&format!(
                " matrix_cache[hits={} misses={}]",
                self.matrix_cache_hits, self.matrix_cache_misses
            ));
        }
        for (op, h) in &self.ops {
            if h.count > 0 {
                let wait = self
                    .op_queue_wait(*op)
                    .map_or(0, HistogramSnapshot::mean_ns);
                let exec = self.op_execute(*op).map_or(0, HistogramSnapshot::mean_ns);
                line.push_str(&format!(
                    " {}[n={} mean={}ns max={}ns wait={}ns exec={}ns]",
                    op.label(),
                    h.count,
                    h.mean_ns(),
                    h.max_ns,
                    wait,
                    exec
                ));
            }
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_testkit::json::Value;

    fn config(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn bucket_bounds_are_geometric_then_overflow() {
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().take(BUCKET_COUNT - 1).enumerate() {
            assert_eq!(bound, 1_000u64 << i, "bucket {i}");
        }
        assert_eq!(BUCKET_BOUNDS_NS[BUCKET_COUNT - 1], u64::MAX);
    }

    #[test]
    fn bucket_index_boundaries_are_exclusive_upper() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0);
        assert_eq!(bucket_index(1_000), 1, "exactly 1µs rolls into bucket 1");
        assert_eq!(bucket_index(1_999), 1);
        assert_eq!(bucket_index(2_000), 2);
        // Deep bucket: 1µs·2^14 = 16.384ms is the last finite bound.
        assert_eq!(bucket_index(16_384_000 - 1), 14);
        assert_eq!(bucket_index(16_384_000), 15);
        assert_eq!(bucket_index(u64::MAX - 1), 15);
    }

    #[test]
    fn histogram_accumulates_and_snapshots() {
        let h = LatencyHistogram::default();
        for ns in [500, 1_500, 1_500, 20_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[1], 2);
        assert_eq!(s.counts[BUCKET_COUNT - 1], 1);
        assert_eq!(s.total_ns, 20_003_500);
        assert_eq!(s.max_ns, 20_000_000);
        assert_eq!(s.mean_ns(), 20_003_500 / 4);
    }

    #[test]
    fn every_finite_bucket_boundary_is_an_exact_exclusive_edge() {
        // The three samples around each finite bound: one below stays,
        // the bound itself and one above roll over — no off-by-one on
        // any of the 15 edges.
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().take(BUCKET_COUNT - 1).enumerate() {
            assert_eq!(bucket_index(bound - 1), i, "below bound {i}");
            assert_eq!(bucket_index(bound), i + 1, "at bound {i}");
            assert_eq!(bucket_index(bound + 1), i + 1, "above bound {i}");
        }
    }

    #[test]
    fn record_completed_splits_wait_and_execute() {
        let m = Metrics::default();
        m.record_completed(OpKind::Encaps, 1_500, 900);
        let r = m.snapshot(&config(1), 0);
        let total = r.op(OpKind::Encaps).unwrap();
        let wait = r.op_queue_wait(OpKind::Encaps).unwrap();
        let exec = r.op_execute(OpKind::Encaps).unwrap();
        assert_eq!(total.count, 1);
        assert_eq!(total.total_ns, 2_400, "total is the sum of the halves");
        assert_eq!(wait.total_ns, 1_500);
        assert_eq!(exec.total_ns, 900);
        // Each half lands in its own bucket; the sum in a third.
        assert_eq!(wait.counts[1], 1, "1.5µs → bucket 1");
        assert_eq!(exec.counts[0], 1, "900ns → bucket 0");
        assert_eq!(total.counts[2], 1, "2.4µs → bucket 2");
        // The untouched ops stay empty on every side.
        assert_eq!(r.op_queue_wait(OpKind::Decaps).unwrap().count, 0);
        assert_eq!(r.op_execute(OpKind::Decaps).unwrap().count, 0);
    }

    #[test]
    fn split_sum_saturates_instead_of_wrapping() {
        let m = Metrics::default();
        m.record_completed(OpKind::Keygen, u64::MAX, 1);
        let r = m.snapshot(&config(1), 0);
        assert_eq!(r.op(OpKind::Keygen).unwrap().total_ns, u64::MAX);
        assert_eq!(r.op(OpKind::Keygen).unwrap().max_ns, u64::MAX);
        // The saturated report loads; its u64::MAX fields clamp to
        // i64::MAX instead of serializing as -1.
        let clamped = i64::MAX as u64;
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.op(OpKind::Keygen).unwrap().total_ns, clamped);
        assert_eq!(back.op(OpKind::Keygen).unwrap().max_ns, clamped);
    }

    #[test]
    fn engine_labels_come_from_the_config_and_survive_json() {
        let r = Metrics::default().snapshot(&config(3), 0);
        assert_eq!(r.engines, ["ct", "ct", "ct"], "one label per worker");
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.engines, r.engines);
        assert!(r.format_summary().contains("engines=ct,ct,ct"));
    }

    #[test]
    fn json_bucket_edges_match_prometheus_le_labels_exactly() {
        let m = Metrics::default();
        // Samples planted exactly on edges exercise the exclusive-upper
        // convention end to end.
        m.record_completed(OpKind::Encaps, 1_000, 999);
        let r = m.snapshot(&config(1), 0);
        let json = r.to_json_value();
        let edges = json
            .get("service")
            .and_then(|service| service.get("bucket_bounds_ns"))
            .and_then(Value::as_array)
            .expect("bucket_bounds_ns array");
        assert_eq!(edges.len(), BUCKET_COUNT);
        for (i, edge) in edges.iter().enumerate() {
            let serialized = match edge {
                Value::Int(v) => v.to_string(),
                Value::Str(s) => s.clone(),
                other => panic!("edge {i} has unexpected type: {other:?}"),
            };
            assert_eq!(
                serialized,
                bucket_edge_label(i),
                "JSON edge {i} must serialize identically to the Prometheus le label"
            );
            if i < BUCKET_COUNT - 1 {
                assert_eq!(serialized, BUCKET_BOUNDS_NS[i].to_string());
            } else {
                assert_eq!(
                    serialized, "+Inf",
                    "overflow edge is +Inf, never a clamped integer"
                );
            }
        }
        // The u64::MAX bound must never leak into JSON as a number.
        let text = r.to_json_string();
        assert!(
            !text.contains(&i64::MAX.to_string()),
            "clamped i64::MAX edge leaked"
        );
        assert!(
            !text.contains(&u64::MAX.to_string()),
            "u64::MAX edge leaked"
        );
        assert!(text.contains("\"+Inf\""));
    }

    #[test]
    fn steal_counters_survive_json_and_summary() {
        let m = Metrics::default();
        m.record_steal_attempts(5);
        m.record_steal_hit(3);
        m.record_steal_hit(1);
        let r = m.snapshot(&config(2), 0);
        assert_eq!(r.steal_attempts, 5);
        assert_eq!(r.steal_hits, 2);
        assert_eq!(r.stolen_jobs, 4);
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let summary = r.format_summary();
        assert!(
            summary.contains("steals[attempts=5 hits=2 moved=4]"),
            "{summary}"
        );
    }

    #[test]
    fn matrix_cache_counters_survive_json_and_summary() {
        let m = Metrics::default();
        m.record_matrix_lookups(0, 1);
        m.record_matrix_lookups(1, 0);
        m.record_matrix_lookups(1, 0);
        m.record_matrix_lookups(0, 0);
        let r = m.snapshot(&config(2), 0);
        assert_eq!((r.matrix_cache_hits, r.matrix_cache_misses), (2, 1));
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let summary = r.format_summary();
        assert!(
            summary.contains("matrix_cache[hits=2 misses=1]"),
            "{summary}"
        );
    }

    #[test]
    fn op_labels_roundtrip() {
        for op in OpKind::ALL {
            assert_eq!(OpKind::from_label(op.label()), Some(op));
        }
        assert_eq!(OpKind::from_label("nonsense"), None);
        assert_eq!(OpKind::from_label("matvec"), None, "a removed op");
    }
}
