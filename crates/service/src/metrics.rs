//! Lock-free service instrumentation: atomic counters, fixed-bucket
//! latency histograms, and the [`ServiceReport`] JSON snapshot.
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
use std::sync::Mutex;

use saber_testkit::json::Value;

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

/// The four operations the service serves and meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// KEM key generation.
    Keygen,
    /// KEM encapsulation.
    Encaps,
    /// KEM decapsulation.
    Decaps,
    /// Raw matrix–vector product `A·s`.
    MatVec,
}

impl OpKind {
    /// Every operation, in report order.
    pub const ALL: [OpKind; 4] = [OpKind::Keygen, OpKind::Encaps, OpKind::Decaps, OpKind::MatVec];

    /// Stable label used in JSON reports and test assertions.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Keygen => "keygen",
            OpKind::Encaps => "encaps",
            OpKind::Decaps => "decaps",
            OpKind::MatVec => "matvec",
        }
    }

    /// Inverse of [`label`](Self::label).
    #[must_use]
    pub fn from_label(label: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|op| op.label() == label)
    }

    fn index(self) -> usize {
        match self {
            OpKind::Keygen => 0,
            OpKind::Encaps => 1,
            OpKind::Decaps => 2,
            OpKind::MatVec => 3,
        }
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

    /// An upper bound on the `q`-quantile latency in nanoseconds
    /// (`q` in `[0, 1]`), resolved to bucket granularity: the edge of
    /// the first bucket whose cumulative count reaches `ceil(q·count)`.
    /// Samples landing in the overflow bucket report `max_ns` (the only
    /// finite upper bound we hold for them). Returns 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) with a floor of 1 sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let bound = BUCKET_BOUNDS_NS[i];
                return if bound == u64::MAX { self.max_ns } else { bound };
            }
        }
        self.max_ns
    }

    /// Accumulates another snapshot into this one (bucket-wise sums,
    /// max of maxes) — used to aggregate per-op histograms into one
    /// distribution, e.g. the soak's overall queue-wait quantiles.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
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
    ops: [LatencyHistogram; 4],
    queue_wait: [LatencyHistogram; 4],
    execute: [LatencyHistogram; 4],
    // The one mutex in the registry: engine labels are recorded once per
    // worker at startup (and after a panic rebuild), never on the job
    // hot path, so a lock is fine here where it would not be above.
    engines: Mutex<Vec<String>>,
}

impl Metrics {
    /// A job was admitted to the queue; `depth` is the queue depth
    /// including it (feeds the high-water gauge).
    pub fn record_submitted(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth as u64, Ordering::Relaxed);
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

    /// A worker shard came up on the named engine. Called once per
    /// worker at pool startup.
    pub fn record_engine(&self, label: &str) {
        self.engines
            .lock()
            .expect("engine label lock")
            .push(label.to_string());
    }

    /// Current completed-jobs count (cheap progress gauge).
    #[must_use]
    pub fn completed_count(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Snapshots every counter and histogram into a [`ServiceReport`].
    #[must_use]
    pub fn snapshot(&self, workers: usize, queue_capacity: usize, queue_depth: usize) -> ServiceReport {
        // Sorted so the report is deterministic regardless of worker
        // startup order (workers race to record their labels).
        let mut engines = self.engines.lock().expect("engine label lock").clone();
        engines.sort_unstable();
        ServiceReport {
            engines,
            workers: workers as u64,
            queue_capacity: queue_capacity as u64,
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
            ops: OpKind::ALL
                .into_iter()
                .map(|op| (op, self.ops[op.index()].snapshot()))
                .collect(),
            queue_wait: OpKind::ALL
                .into_iter()
                .map(|op| (op, self.queue_wait[op.index()].snapshot()))
                .collect(),
            execute: OpKind::ALL
                .into_iter()
                .map(|op| (op, self.execute[op.index()].snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time view of the service's counters and latency
/// histograms — the JSON artifact the service exposes (README shows a
/// sample).
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
    /// Engine label of each worker shard (sorted; one entry per worker
    /// startup).
    pub engines: Vec<String>,
    /// Per-operation end-to-end (enqueue→completion) latency
    /// histograms, in [`OpKind::ALL`] order.
    pub ops: Vec<(OpKind, HistogramSnapshot)>,
    /// Per-operation queue-wait (enqueue→dequeue) histograms.
    pub queue_wait: Vec<(OpKind, HistogramSnapshot)>,
    /// Per-operation execution (dequeue→completion) histograms.
    pub execute: Vec<(OpKind, HistogramSnapshot)>,
}

impl ServiceReport {
    /// The end-to-end snapshot for one operation, if recorded.
    #[must_use]
    pub fn op(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        self.ops.iter().find(|(k, _)| *k == op).map(|(_, h)| h)
    }

    /// The queue-wait half of one operation's latency, if recorded.
    #[must_use]
    pub fn op_queue_wait(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        self.queue_wait.iter().find(|(k, _)| *k == op).map(|(_, h)| h)
    }

    /// The execution half of one operation's latency, if recorded.
    #[must_use]
    pub fn op_execute(&self, op: OpKind) -> Option<&HistogramSnapshot> {
        self.execute.iter().find(|(k, _)| *k == op).map(|(_, h)| h)
    }

    /// Serializes into the in-tree JSON document model.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let int = |v: u64| Value::Int(v as i64);
        let histogram_fields = |h: &HistogramSnapshot| {
            vec![
                ("count".to_string(), int(h.count)),
                ("total_ns".to_string(), int(h.total_ns)),
                ("max_ns".to_string(), int(h.max_ns)),
                ("mean_ns".to_string(), int(h.mean_ns())),
                (
                    "buckets".to_string(),
                    Value::Array(h.counts.iter().map(|&c| int(c)).collect()),
                ),
            ]
        };
        let split = |op: OpKind, side: &[(OpKind, HistogramSnapshot)]| {
            let h = side
                .iter()
                .find(|(k, _)| *k == op)
                .map(|(_, h)| h.clone())
                .unwrap_or_default();
            Value::Object(histogram_fields(&h))
        };
        let ops = self
            .ops
            .iter()
            .map(|(op, h)| {
                let mut fields = vec![("op".to_string(), Value::Str(op.label().into()))];
                fields.extend(histogram_fields(h));
                fields.push(("queue_wait".to_string(), split(*op, &self.queue_wait)));
                fields.push(("execute".to_string(), split(*op, &self.execute)));
                Value::Object(fields)
            })
            .collect();
        Value::Object(vec![
            ("report".into(), Value::Str("saber-service".into())),
            ("workers".into(), int(self.workers)),
            ("queue_capacity".into(), int(self.queue_capacity)),
            ("queue_depth".into(), int(self.queue_depth)),
            ("submitted".into(), int(self.submitted)),
            ("completed".into(), int(self.completed)),
            ("rejected".into(), int(self.rejected)),
            ("failed".into(), int(self.failed)),
            ("worker_panics".into(), int(self.worker_panics)),
            ("queue_high_water".into(), int(self.queue_high_water)),
            ("steal_attempts".into(), int(self.steal_attempts)),
            ("steal_hits".into(), int(self.steal_hits)),
            ("stolen_jobs".into(), int(self.stolen_jobs)),
            ("matrix_cache_hits".into(), int(self.matrix_cache_hits)),
            ("matrix_cache_misses".into(), int(self.matrix_cache_misses)),
            (
                "engines".into(),
                Value::Array(
                    self.engines
                        .iter()
                        .map(|label| Value::Str(label.clone()))
                        .collect(),
                ),
            ),
            (
                // The 15 finite edges as integers; the overflow bucket
                // as the string "+Inf" — identical to the Prometheus
                // `le` labels (see `bucket_edge_label`). The old
                // encoding clamped u64::MAX to i64::MAX here, which
                // disagreed with the exposition's `+Inf` edge.
                "bucket_bounds_ns".into(),
                Value::Array(
                    BUCKET_BOUNDS_NS
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| {
                            if b == u64::MAX {
                                Value::Str(bucket_edge_label(i))
                            } else {
                                int(b)
                            }
                        })
                        .collect(),
                ),
            ),
            ("ops".into(), Value::Array(ops)),
        ])
    }

    /// Serializes as a pretty-printed JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        saber_testkit::json::write(&self.to_json_value())
    }

    /// Reconstructs a report from its JSON document form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json_value(value: &Value) -> Result<ServiceReport, String> {
        if value.str_field("report")? != "saber-service" {
            return Err("not a saber-service report".into());
        }
        let int = |key: &str| -> Result<u64, String> {
            let v = value.int_field(key)?;
            u64::try_from(v).map_err(|_| format!("field {key:?} is negative"))
        };
        fn histogram_from(entry: &Value) -> Result<HistogramSnapshot, String> {
            let buckets = entry
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or("missing buckets array")?;
            if buckets.len() != BUCKET_COUNT {
                return Err(format!("expected {BUCKET_COUNT} buckets, got {}", buckets.len()));
            }
            let mut counts = [0u64; BUCKET_COUNT];
            for (out, b) in counts.iter_mut().zip(buckets) {
                *out = b
                    .as_int()
                    .and_then(|v| u64::try_from(v).ok())
                    .ok_or("bucket count must be a non-negative integer")?;
            }
            let field = |key: &str| -> Result<u64, String> {
                let v = entry.int_field(key)?;
                u64::try_from(v).map_err(|_| format!("field {key:?} is negative"))
            };
            Ok(HistogramSnapshot {
                counts,
                count: field("count")?,
                total_ns: field("total_ns")?,
                max_ns: field("max_ns")?,
            })
        }
        let mut engines = Vec::new();
        for entry in value
            .get("engines")
            .and_then(Value::as_array)
            .ok_or("missing engines array")?
        {
            engines.push(
                entry
                    .as_str()
                    .ok_or("engine label must be a string")?
                    .to_string(),
            );
        }
        let mut ops = Vec::new();
        let mut queue_wait = Vec::new();
        let mut execute = Vec::new();
        for entry in value
            .get("ops")
            .and_then(Value::as_array)
            .ok_or("missing ops array")?
        {
            let op = OpKind::from_label(entry.str_field("op")?)
                .ok_or_else(|| format!("unknown op label {:?}", entry.str_field("op")))?;
            ops.push((op, histogram_from(entry)?));
            queue_wait.push((
                op,
                histogram_from(entry.get("queue_wait").ok_or("missing queue_wait histogram")?)?,
            ));
            execute.push((
                op,
                histogram_from(entry.get("execute").ok_or("missing execute histogram")?)?,
            ));
        }
        Ok(ServiceReport {
            workers: int("workers")?,
            queue_capacity: int("queue_capacity")?,
            queue_depth: int("queue_depth")?,
            submitted: int("submitted")?,
            completed: int("completed")?,
            rejected: int("rejected")?,
            failed: int("failed")?,
            worker_panics: int("worker_panics")?,
            queue_high_water: int("queue_high_water")?,
            steal_attempts: int("steal_attempts")?,
            steal_hits: int("steal_hits")?,
            stolen_jobs: int("stolen_jobs")?,
            matrix_cache_hits: int("matrix_cache_hits")?,
            matrix_cache_misses: int("matrix_cache_misses")?,
            engines,
            ops,
            queue_wait,
            execute,
        })
    }

    /// Parses a report from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a message describing the parse or schema failure.
    pub fn from_json_str(text: &str) -> Result<ServiceReport, String> {
        let value = saber_testkit::json::parse(text).map_err(|e| e.to_string())?;
        ServiceReport::from_json_value(&value)
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
                let wait = self.op_queue_wait(*op).map_or(0, HistogramSnapshot::mean_ns);
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
        let r = m.snapshot(1, 4, 0);
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
        let r = m.snapshot(1, 4, 0);
        assert_eq!(r.op(OpKind::Keygen).unwrap().total_ns, u64::MAX);
        assert_eq!(r.op(OpKind::Keygen).unwrap().max_ns, u64::MAX);
    }

    #[test]
    fn engine_labels_are_recorded_sorted_and_survive_json() {
        let m = Metrics::default();
        m.record_engine("toom");
        m.record_engine("cached");
        m.record_engine("cached");
        let r = m.snapshot(3, 8, 0);
        assert_eq!(r.engines, ["cached", "cached", "toom"], "sorted snapshot");
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.engines, r.engines);
        assert!(r.format_summary().contains("engines=cached,cached,toom"));
    }

    #[test]
    fn json_bucket_edges_match_prometheus_le_labels_exactly() {
        let m = Metrics::default();
        // Samples planted exactly on edges exercise the exclusive-upper
        // convention end to end.
        m.record_completed(OpKind::Encaps, 1_000, 999);
        let r = m.snapshot(1, 4, 0);
        let json = r.to_json_value();
        let edges = json
            .get("bucket_bounds_ns")
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
                assert_eq!(serialized, "+Inf", "overflow edge is +Inf, never a clamped integer");
            }
        }
        // The u64::MAX bound must never leak into JSON as a number.
        let text = r.to_json_string();
        assert!(!text.contains(&i64::MAX.to_string()), "clamped i64::MAX edge leaked");
        assert!(!text.contains(&u64::MAX.to_string()), "u64::MAX edge leaked");
        assert!(text.contains("\"+Inf\""));
    }

    #[test]
    fn steal_counters_survive_json_and_summary() {
        let m = Metrics::default();
        m.record_steal_attempts(5);
        m.record_steal_hit(3);
        m.record_steal_hit(1);
        let r = m.snapshot(2, 8, 0);
        assert_eq!(r.steal_attempts, 5);
        assert_eq!(r.steal_hits, 2);
        assert_eq!(r.stolen_jobs, 4);
        let back = ServiceReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back, r);
        let summary = r.format_summary();
        assert!(summary.contains("steals[attempts=5 hits=2 moved=4]"), "{summary}");
    }

    #[test]
    fn matrix_cache_counters_survive_json_and_summary() {
        let m = Metrics::default();
        m.record_matrix_lookups(0, 1);
        m.record_matrix_lookups(1, 0);
        m.record_matrix_lookups(1, 0);
        m.record_matrix_lookups(0, 0);
        let r = m.snapshot(2, 8, 0);
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
    fn quantile_walks_cumulative_buckets() {
        let h = LatencyHistogram::default();
        // 99 samples in bucket 0 (<1µs), one slow sample in bucket 3.
        for _ in 0..99 {
            h.record(500);
        }
        h.record(5_000);
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), BUCKET_BOUNDS_NS[0], "p50 in the fast bucket");
        assert_eq!(s.quantile_ns(0.99), BUCKET_BOUNDS_NS[0], "rank 99 of 100 still fast");
        assert_eq!(s.quantile_ns(1.0), BUCKET_BOUNDS_NS[3], "max lands in 4–8µs bucket");
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.99), 0, "empty → 0");
    }

    #[test]
    fn quantile_overflow_bucket_reports_max() {
        let h = LatencyHistogram::default();
        h.record(20_000_000);
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.99), 20_000_000, "overflow bucket → max_ns");
    }

    #[test]
    fn merge_sums_buckets_and_keeps_max() {
        let a = LatencyHistogram::default();
        a.record(500);
        let b = LatencyHistogram::default();
        b.record(1_500);
        b.record(20_000_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.total_ns, 500 + 1_500 + 20_000_000);
        assert_eq!(merged.max_ns, 20_000_000);
        assert_eq!(merged.counts[0], 1);
        assert_eq!(merged.counts[1], 1);
        assert_eq!(merged.counts[BUCKET_COUNT - 1], 1);
    }

    #[test]
    fn op_labels_roundtrip() {
        for op in OpKind::ALL {
            assert_eq!(OpKind::from_label(op.label()), Some(op));
        }
        assert_eq!(OpKind::from_label("nonsense"), None);
    }
}
