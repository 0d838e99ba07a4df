//! The service's metrics document: the one versioned JSON form of a
//! [`ServiceReport`], and its Prometheus text exposition.
//!
//! A [`ServiceReport`] holds the service's counters, its wait/exec
//! histograms and the flight recorder's status ([`FlightStatus`]) as of
//! one point in time. It is serialized two ways from the same data:
//!
//! * **JSON** ([`ServiceReport::to_json_string`] /
//!   [`ServiceReport::from_json_str`]) — the `saber-metrics` document:
//!   a `schema_version` field, a `service` section and a `flight`
//!   section. The round-trip is lossless; this is the machine-readable
//!   archive format. The codec's integers are `i64`, so a `u64` count
//!   above `i64::MAX` is written as `i64::MAX`;
//! * **Prometheus text exposition** ([`ServiceReport::to_prometheus`])
//!   — the scrape format a network front end would serve at
//!   `/metrics`, linted by [`lint_prometheus`].
//!
//! Histogram edges come from one function, [`bucket_edge_label`]: the
//! Prometheus `le` labels and the JSON `bucket_bounds_ns` array
//! serialize every edge identically (15 decimal bounds + `"+Inf"`), and
//! the exposition uses **cumulative** bucket counts as the `le`
//! semantics require.
//!
//! Versioning: [`SCHEMA_VERSION`] is 3 (version 2 added the steal
//! counters, version 3 the matrix-cache hit/miss counters). The reader
//! refuses a document with a different version rather than guessing —
//! additive fields bump the version, and a reader for version N refuses
//! N+1 documents instead of silently dropping sections. Removed fields
//! keep the version. Within a version, keys the reader does not know
//! are ignored, and so is an op entry for a removed operation (the raw
//! `matvec` job). So version 3 documents written while the engine
//! auto-tuner, the degrade overload policy, the trace counter section,
//! the SoC section or the mat-vec job kind existed still load; the
//! tuner's section, the policy's admission counter, `counters`, `soc`,
//! the `matvec` op entry and the service section's
//! `"report": "saber-service"` tag (left from when that section was a
//! document of its own) are dropped. Every op the reader knows must
//! appear exactly once. A reader from before a removal refuses the
//! newer document and names the field it lacks, so it cannot misread
//! it.

use saber_testkit::json::Value;

use crate::metrics::{
    bucket_edge_label, HistogramSnapshot, OpKind, ServiceReport, BUCKET_BOUNDS_NS, BUCKET_COUNT,
};
use crate::obs;

/// Version of the metrics document schema.
pub const SCHEMA_VERSION: i64 = 3;

/// Op labels of removed operations: an entry under one of them is
/// dropped on read (see the module docs).
const REMOVED_OPS: [&str; 1] = ["matvec"];

/// Flight-recorder status at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightStatus {
    /// Whether the recorder is armed.
    pub enabled: bool,
    /// Entries ever recorded process-wide (including overwritten ones).
    pub recorded_total: u64,
    /// Dumps emitted since process start (any trigger).
    pub dump_count: u64,
    /// Panics the service panic hook dumped for.
    pub panic_dumps: u64,
    /// Per-thread ring capacity.
    pub capacity: u64,
}

impl FlightStatus {
    /// Reads the live recorder state.
    #[must_use]
    pub fn capture() -> Self {
        FlightStatus {
            enabled: saber_trace::flight::enabled(),
            recorded_total: saber_trace::flight::recorded_total(),
            dump_count: saber_trace::flight::dump_count(),
            panic_dumps: obs::panic_dump_count(),
            capacity: saber_trace::flight::CAPACITY as u64,
        }
    }
}

/// Encodes a `u64` count as a JSON integer. The codec's integers are
/// `i64`, so a count above `i64::MAX` saturates to `i64::MAX` rather
/// than wrapping negative (which the reader would refuse).
fn json_u64(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Reads a non-negative integer field of a JSON object.
fn json_field_u64(entry: &Value, key: &str) -> Result<u64, String> {
    let v = entry.int_field(key)?;
    u64::try_from(v).map_err(|_| format!("field {key:?} is negative"))
}

fn histogram_from(entry: &Value) -> Result<HistogramSnapshot, String> {
    let buckets = entry
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("missing buckets array")?;
    if buckets.len() != BUCKET_COUNT {
        return Err(format!(
            "expected {BUCKET_COUNT} buckets, got {}",
            buckets.len()
        ));
    }
    let mut counts = [0u64; BUCKET_COUNT];
    for (out, b) in counts.iter_mut().zip(buckets) {
        *out = b
            .as_int()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or("bucket count must be a non-negative integer")?;
    }
    Ok(HistogramSnapshot {
        counts,
        count: json_field_u64(entry, "count")?,
        total_ns: json_field_u64(entry, "total_ns")?,
        max_ns: json_field_u64(entry, "max_ns")?,
    })
}

impl ServiceReport {
    /// Serializes into the in-tree JSON document model: the
    /// `saber-metrics` document at [`SCHEMA_VERSION`].
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let int = json_u64;
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
        let side = |h: Option<&HistogramSnapshot>| {
            Value::Object(histogram_fields(&h.cloned().unwrap_or_default()))
        };
        let ops = self
            .ops
            .iter()
            .map(|(op, h)| {
                let mut fields = vec![("op".to_string(), Value::Str(op.label().into()))];
                fields.extend(histogram_fields(h));
                fields.push(("queue_wait".to_string(), side(self.op_queue_wait(*op))));
                fields.push(("execute".to_string(), side(self.op_execute(*op))));
                Value::Object(fields)
            })
            .collect();
        let service = Value::Object(vec![
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
                // `le` labels (see `bucket_edge_label`).
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
        ]);
        Value::Object(vec![
            ("snapshot".into(), Value::Str("saber-metrics".into())),
            ("schema_version".into(), Value::Int(SCHEMA_VERSION)),
            ("service".into(), service),
            (
                "flight".into(),
                Value::Object(vec![
                    ("enabled".into(), Value::Bool(self.flight.enabled)),
                    ("recorded_total".into(), int(self.flight.recorded_total)),
                    ("dump_count".into(), int(self.flight.dump_count)),
                    ("panic_dumps".into(), int(self.flight.panic_dumps)),
                    ("capacity".into(), int(self.flight.capacity)),
                ]),
            ),
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
    /// Returns a message naming the first missing, mistyped, unknown or
    /// repeated field, or the unsupported schema version.
    pub fn from_json_value(value: &Value) -> Result<ServiceReport, String> {
        if value.str_field("snapshot")? != "saber-metrics" {
            return Err("not a saber-metrics snapshot".into());
        }
        let version = value.int_field("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported snapshot schema version {version} (this reader supports \
                 {SCHEMA_VERSION}); refusing to guess at unknown sections"
            ));
        }
        let service = value.get("service").ok_or("missing service section")?;
        let flight = value.get("flight").ok_or("missing flight section")?;
        let int = |key: &str| json_field_u64(service, key);

        let mut engines = Vec::new();
        for entry in service
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

        // Every known op exactly once; removed ops are skipped.
        let (mut ops, mut queue_wait, mut execute) = (Vec::new(), Vec::new(), Vec::new());
        let listed = |ops: &[(OpKind, HistogramSnapshot)], op| ops.iter().any(|(k, _)| *k == op);
        for entry in service
            .get("ops")
            .and_then(Value::as_array)
            .ok_or("missing ops array")?
        {
            let label = entry.str_field("op")?;
            if REMOVED_OPS.contains(&label) {
                continue;
            }
            let op =
                OpKind::from_label(label).ok_or_else(|| format!("unknown op label {label:?}"))?;
            if listed(&ops, op) {
                return Err(format!("op {label:?} is listed twice"));
            }
            let side = |key: &str| entry.get(key).ok_or(format!("missing {key} histogram"));
            ops.push((op, histogram_from(entry)?));
            queue_wait.push((op, histogram_from(side("queue_wait")?)?));
            execute.push((op, histogram_from(side("execute")?)?));
        }
        if let Some(op) = OpKind::ALL.into_iter().find(|&op| !listed(&ops, op)) {
            return Err(format!("op {:?} is missing", op.label()));
        }

        let Some(&Value::Bool(enabled)) = flight.get("enabled") else {
            return Err("flight.enabled must be a boolean".into());
        };
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
            flight: FlightStatus {
                enabled,
                recorded_total: json_field_u64(flight, "recorded_total")?,
                dump_count: json_field_u64(flight, "dump_count")?,
                panic_dumps: json_field_u64(flight, "panic_dumps")?,
                capacity: json_field_u64(flight, "capacity")?,
            },
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

    /// Renders the report in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, counter/gauge samples, and
    /// cumulative histograms whose `le` edges are exactly the JSON
    /// document's `bucket_bounds_ns` labels.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };

        let _ = writeln!(
            out,
            "# HELP saber_snapshot_info Snapshot document metadata."
        );
        let _ = writeln!(out, "# TYPE saber_snapshot_info gauge");
        let _ = writeln!(
            out,
            "saber_snapshot_info{{schema_version=\"{SCHEMA_VERSION}\"}} 1"
        );

        gauge(
            &mut out,
            "saber_workers",
            "Worker threads in the pool.",
            self.workers,
        );
        gauge(
            &mut out,
            "saber_queue_capacity",
            "Configured queue capacity.",
            self.queue_capacity,
        );
        gauge(
            &mut out,
            "saber_queue_depth",
            "Queue depth at snapshot time.",
            self.queue_depth,
        );
        gauge(
            &mut out,
            "saber_queue_high_water",
            "Highest queue depth observed at submit time.",
            self.queue_high_water,
        );
        counter(
            &mut out,
            "saber_jobs_submitted_total",
            "Jobs admitted to the queue.",
            self.submitted,
        );
        counter(
            &mut out,
            "saber_jobs_completed_total",
            "Jobs completed successfully.",
            self.completed,
        );
        counter(
            &mut out,
            "saber_jobs_rejected_total",
            "Submissions rejected by backpressure.",
            self.rejected,
        );
        counter(
            &mut out,
            "saber_jobs_failed_total",
            "Jobs that failed (worker panic while executing).",
            self.failed,
        );
        counter(
            &mut out,
            "saber_worker_panics_total",
            "Worker panics contained by the pool.",
            self.worker_panics,
        );
        counter(
            &mut out,
            "saber_steal_attempts_total",
            "Victim scans run by workers looking for stealable work.",
            self.steal_attempts,
        );
        counter(
            &mut out,
            "saber_steal_hits_total",
            "Successful steals (scans that migrated at least one job).",
            self.steal_hits,
        );
        counter(
            &mut out,
            "saber_stolen_jobs_total",
            "Jobs migrated between worker deques by stealing.",
            self.stolen_jobs,
        );
        counter(
            &mut out,
            "saber_matrix_cache_hits_total",
            "Encaps/decaps matrix lookups answered by a worker's cache.",
            self.matrix_cache_hits,
        );
        counter(
            &mut out,
            "saber_matrix_cache_misses_total",
            "Encaps/decaps matrix lookups that expanded the matrix.",
            self.matrix_cache_misses,
        );

        if !self.engines.is_empty() {
            let _ = writeln!(out, "# HELP saber_engine_shards Worker shards per engine.");
            let _ = writeln!(out, "# TYPE saber_engine_shards gauge");
            let mut seen: Vec<(String, u64)> = Vec::new();
            for label in &self.engines {
                match seen.iter_mut().find(|(l, _)| l == label) {
                    Some((_, n)) => *n += 1,
                    None => seen.push((label.clone(), 1)),
                }
            }
            for (label, n) in seen {
                let _ = writeln!(
                    out,
                    "saber_engine_shards{{engine=\"{}\"}} {n}",
                    escape_label(&label)
                );
            }
        }

        // The three latency histogram families, with cumulative buckets.
        for (family, help, side) in [
            (
                "saber_op_latency_ns",
                "End-to-end (enqueue to completion) latency.",
                &self.ops,
            ),
            (
                "saber_queue_wait_ns",
                "Queue-wait (enqueue to dequeue) latency.",
                &self.queue_wait,
            ),
            (
                "saber_execute_ns",
                "Execution (dequeue to completion) latency.",
                &self.execute,
            ),
        ] {
            let _ = writeln!(out, "# HELP {family} {help}");
            let _ = writeln!(out, "# TYPE {family} histogram");
            for (op, h) in side.iter() {
                let op = escape_label(op.label());
                let mut cumulative = 0u64;
                for i in 0..BUCKET_COUNT {
                    // Saturating: a loaded document's counts may sum
                    // past u64.
                    cumulative = cumulative.saturating_add(h.counts[i]);
                    let _ = writeln!(
                        out,
                        "{family}_bucket{{op=\"{op}\",le=\"{}\"}} {cumulative}",
                        bucket_edge_label(i)
                    );
                }
                let _ = writeln!(out, "{family}_sum{{op=\"{op}\"}} {}", h.total_ns);
                let _ = writeln!(out, "{family}_count{{op=\"{op}\"}} {}", h.count);
            }
        }

        counter(
            &mut out,
            "saber_flight_recorded_total",
            "Flight-recorder entries ever recorded.",
            self.flight.recorded_total,
        );
        counter(
            &mut out,
            "saber_flight_dumps_total",
            "Flight-recorder dumps emitted.",
            self.flight.dump_count,
        );
        counter(
            &mut out,
            "saber_panic_dumps_total",
            "Panics the service panic hook dumped for.",
            self.flight.panic_dumps,
        );
        gauge(
            &mut out,
            "saber_flight_enabled",
            "Whether the flight recorder is armed.",
            u64::from(self.flight.enabled),
        );
        gauge(
            &mut out,
            "saber_flight_capacity",
            "Flight-recorder ring capacity per thread.",
            self.flight.capacity,
        );

        out
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Structurally lints a Prometheus text exposition:
///
/// * every line is a `# HELP`/`# TYPE` comment or a sample;
/// * sample metric names are valid (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and
///   covered by a preceding `# TYPE` (histogram samples via their
///   `_bucket`/`_sum`/`_count` suffixes);
/// * no metric gets two `# TYPE` lines;
/// * every histogram series has buckets whose finite `le` edges
///   strictly increase, ending in one `le="+Inf"` bucket; its bucket
///   and `_count` samples are non-negative integers, the buckets
///   cumulative (non-decreasing); and it has a `_count` equal to the
///   `+Inf` bucket.
///
/// # Errors
///
/// Returns a message naming the first offending line or series.
#[allow(clippy::too_many_lines)]
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // metric name → declared type
    let mut types: Vec<(String, String)> = Vec::new();
    // (histogram family, full label set minus le) → bucket series state
    #[derive(Default)]
    struct Series {
        last_le: Option<u64>,
        last_cumulative: u64,
        inf: Option<u64>,
        count: Option<u64>,
    }
    let mut series: Vec<(String, Series)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let tail = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if name.is_empty() || tail.is_empty() {
                        return Err(format!("line {n}: HELP needs a metric name and text"));
                    }
                }
                "TYPE" => {
                    if !valid_name(name) {
                        return Err(format!("line {n}: invalid metric name {name:?}"));
                    }
                    if !matches!(
                        tail,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {tail:?}"));
                    }
                    if types.iter().any(|(m, _)| m == name) {
                        return Err(format!("line {n}: duplicate TYPE for {name}"));
                    }
                    types.push((name.to_string(), tail.to_string()));
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {n}: comments must start with '# '"));
        }
        // Sample line: name[{labels}] value
        let (name_and_labels, value_text) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample needs a value"))?;
        if value_text.parse::<f64>().is_err() {
            return Err(format!("line {n}: unparseable sample value {value_text:?}"));
        }
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unclosed label set"))?;
                (name, Some(labels))
            }
            None => (name_and_labels, None),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: invalid metric name {name:?}"));
        }
        // Resolve the declaring family: exact, or histogram suffixes.
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = name.strip_suffix(suffix)?;
            types
                .iter()
                .find(|(m, t)| m == base && t == "histogram")
                .map(|_| (base, *suffix))
        });
        let declared = types.iter().any(|(m, _)| m == name);
        if family.is_none() && !declared {
            return Err(format!("line {n}: sample {name} has no preceding # TYPE"));
        }

        if let Some((base, suffix)) = family {
            let labels = labels.unwrap_or("");
            // Split off the `le` label; the remainder keys the series.
            let mut le: Option<String> = None;
            let mut rest_labels: Vec<&str> = Vec::new();
            for part in labels.split(',').filter(|p| !p.is_empty()) {
                if let Some(v) = part.strip_prefix("le=\"") {
                    le = Some(
                        v.strip_suffix('"')
                            .ok_or_else(|| format!("line {n}: malformed le label"))?
                            .to_string(),
                    );
                } else {
                    rest_labels.push(part);
                }
            }
            let key = format!("{base}{{{}}}", rest_labels.join(","));
            let idx = match series.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    series.push((key.clone(), Series::default()));
                    series.len() - 1
                }
            };
            let state = &mut series[idx].1;
            // Bucket and count samples are counts of observations.
            let count = || {
                value_text.parse::<u64>().map_err(|_| {
                    format!("line {n}: {name} must be a non-negative integer, not {value_text:?}")
                })
            };
            match suffix {
                "_bucket" => {
                    let le = le.ok_or_else(|| format!("line {n}: bucket sample without le"))?;
                    let v = count()?;
                    if state.inf.is_some() {
                        return Err(format!(
                            "line {n}: histogram series {key} has a bucket after its +Inf bucket"
                        ));
                    }
                    if v < state.last_cumulative {
                        return Err(format!(
                            "line {n}: histogram series {key} is not cumulative \
                             ({v} < {})",
                            state.last_cumulative
                        ));
                    }
                    state.last_cumulative = v;
                    if le == "+Inf" {
                        state.inf = Some(v);
                    } else {
                        let edge = le
                            .parse::<u64>()
                            .map_err(|_| format!("line {n}: non-numeric finite le {le:?}"))?;
                        if let Some(last) = state.last_le.filter(|&last| edge <= last) {
                            return Err(format!(
                                "line {n}: histogram series {key} has le {edge} after le {last}"
                            ));
                        }
                        state.last_le = Some(edge);
                    }
                }
                "_count" => state.count = Some(count()?),
                _ => {} // _sum: any numeric value is fine
            }
        }
    }
    for (key, state) in &series {
        let inf = state
            .inf
            .ok_or_else(|| format!("histogram series {key} is missing its +Inf bucket"))?;
        let count = state
            .count
            .ok_or_else(|| format!("histogram series {key} is missing its _count"))?;
        if count != inf {
            return Err(format!(
                "histogram series {key}: _count {count} != +Inf bucket {inf}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::service::ServiceConfig;
    use saber_testkit::Rng;

    fn sample_report() -> ServiceReport {
        let m = Metrics::default();
        m.record_completed(OpKind::Encaps, 1_000, 2_500);
        m.record_completed(OpKind::Decaps, 20_000_000, 999);
        let config = ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        };
        m.snapshot(&config, 1)
    }

    /// The `service` section of a serialized report, as an object.
    fn service_section(doc: &mut Value) -> &mut Vec<(String, Value)> {
        let Value::Object(fields) = doc else {
            panic!("a report serializes to an object");
        };
        match fields.iter_mut().find(|(k, _)| k == "service") {
            Some((_, Value::Object(section))) => section,
            _ => panic!("a report carries its service section as an object"),
        }
    }

    /// The `ops` array of a `service` section.
    fn ops_entries(section: &mut [(String, Value)]) -> &mut Vec<Value> {
        match section.iter_mut().find(|(k, _)| k == "ops") {
            Some((_, Value::Array(ops))) => ops,
            _ => panic!("the service section lists its ops in an array"),
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = ServiceReport::from_json_str(&text).expect("roundtrip parses");
        assert_eq!(back, report);
    }

    #[test]
    fn unknown_schema_version_is_refused() {
        let report = sample_report();
        let text = report
            .to_json_string()
            .replace("\"schema_version\": 3", "\"schema_version\": 4");
        let err = ServiceReport::from_json_str(&text).unwrap_err();
        assert!(
            err.contains("unsupported snapshot schema version 4"),
            "{err}"
        );
        // Version 2 documents predate the matrix-cache counters.
        let text = report
            .to_json_string()
            .replace("\"schema_version\": 3", "\"schema_version\": 2");
        let err = ServiceReport::from_json_str(&text).unwrap_err();
        assert!(
            err.contains("unsupported snapshot schema version 2"),
            "{err}"
        );
    }

    #[test]
    fn duplicated_or_missing_op_entries_are_refused() {
        let report = sample_report();
        let edited = |edit: fn(&mut Vec<Value>)| {
            let mut doc = report.to_json_value();
            edit(ops_entries(service_section(&mut doc)));
            ServiceReport::from_json_str(&saber_testkit::json::write(&doc))
        };
        let twice = edited(|ops| ops.push(ops[OpKind::Encaps.index()].clone())).unwrap_err();
        assert!(twice.contains("\"encaps\" is listed twice"), "{twice}");
        let missing = edited(|ops| {
            ops.remove(OpKind::Encaps.index());
        })
        .unwrap_err();
        assert!(missing.contains("\"encaps\" is missing"), "{missing}");
        let unknown = edited(|ops| {
            let Value::Object(fields) = &mut ops[0] else {
                panic!("an op entry is an object");
            };
            fields[0].1 = Value::Str("verify".into());
        })
        .unwrap_err();
        assert!(unknown.contains("unknown op label \"verify\""), "{unknown}");
    }

    #[test]
    fn v3_snapshots_from_the_auto_tuner_era_still_load() {
        // Written the way version 3 snapshots were written before these
        // fields went: the trace-counter totals between `service` and
        // `flight`; the engine auto-tuner's decision and the SoC
        // co-simulation summary after `flight`; the degrade overload
        // policy's admission counter in the service section after
        // `stolen_jobs`; and, from when the service section was a
        // report document of its own and served raw mat-vec jobs, its
        // `report` tag first and a recorded `matvec` entry last in its
        // `ops`. Each pair is the removed field's JSON text and the
        // text it put in the Prometheus exposition.
        const REMOVED: [(&str, &str); 6] = [
            ("\"counters\"", "saber_trace_counter_total"),
            ("\"autotune\"", "autotune"),
            ("\"soc\"", "saber_soc_"),
            ("\"degraded_admissions\"", "degraded_admissions"),
            ("\"report\": \"saber-service\"", "saber-service"),
            ("\"op\": \"matvec\"", "matvec"),
        ];
        let section =
            |text: &str| saber_testkit::json::parse(text).expect("the removed section parses");
        let counters = section(r#"{"hs1.bucket_hits": 41, "panic.dump": 2}"#);
        let autotune = section(
            r#"{"chosen": "ct", "samples": [
                {"engine": "cached", "total_nanos": 9130412},
                {"engine": "swar", "total_nanos": 3904417},
                {"engine": "toom", "total_nanos": 2417780},
                {"engine": "ntt", "total_nanos": 2955030},
                {"engine": "ct", "total_nanos": 1186902}
            ]}"#,
        );
        let soc = section(
            r#"{"makespan": 395, "contended_cycles": 19, "read_grants": 72,
                "write_grants": 104, "components": [
                {"name": "keccak-xof-dma", "busy_cycles": 150, "stall_cycles": 12},
                {"name": "hs1-512-matvec", "busy_cycles": 248, "stall_cycles": 30}
            ]}"#,
        );
        let report = sample_report();
        let mut doc = report.to_json_value();
        let service = service_section(&mut doc);
        let stolen = service
            .iter()
            .position(|(k, _)| k == "stolen_jobs")
            .expect("stolen_jobs counter");
        service.insert(stolen + 1, ("degraded_admissions".into(), Value::Int(6)));
        service.insert(0, ("report".into(), Value::Str("saber-service".into())));
        let ops = ops_entries(service);
        let mut matvec = ops[OpKind::Decaps.index()].clone();
        let Value::Object(fields) = &mut matvec else {
            panic!("an op entry is an object");
        };
        fields[0].1 = Value::Str("matvec".into());
        ops.push(matvec);
        let Value::Object(fields) = &mut doc else {
            panic!("a report serializes to an object");
        };
        let flight = fields
            .iter()
            .position(|(k, _)| k == "flight")
            .expect("flight section");
        fields.insert(flight, ("counters".into(), counters));
        fields.push(("autotune".into(), autotune));
        fields.push(("soc".into(), soc));
        let old = saber_testkit::json::write(&doc);

        let back = ServiceReport::from_json_str(&old).expect("a v3 document loads");
        assert_eq!(back, report);
        let rewritten = back.to_json_string();
        let exposition = back.to_prometheus();
        lint_prometheus(&exposition).expect("the reloaded report lints clean");
        for (json, exposed) in REMOVED {
            assert!(old.contains(json), "{old}");
            assert!(!rewritten.contains(json), "{rewritten}");
            assert!(!exposition.contains(exposed), "{exposition}");
        }
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_an_abort() {
        let text = "[".repeat(100_000);
        assert!(ServiceReport::from_json_str(&text).is_err());
    }

    /// The reader on `text`; it may refuse it, but it may not panic.
    fn read(text: &str, what: &str) -> bool {
        std::panic::catch_unwind(|| ServiceReport::from_json_str(text).is_ok())
            .unwrap_or_else(|_| panic!("the reader panicked on {what}: {text:?}"))
    }

    #[test]
    fn truncated_and_mutated_documents_are_refused_not_panicked_on() {
        // Structural bytes and digits reach the grammar's edge cases
        // (signs, exponents, escapes, overflow) more often than uniform
        // ASCII does; half the mutations draw from here.
        const ALPHABET: &[u8] = b"{}[]:,\"\\-+.0123456789eEnul ";
        let doc = sample_report().to_json_string();
        let mut rng = Rng::new(0x5ABE_2026);
        assert!(doc.is_ascii(), "ASCII mutations keep the document UTF-8");
        // Every proper prefix of the object is incomplete.
        for len in 0..doc.trim_end().len() {
            let prefix = &doc[..len];
            assert!(
                !read(prefix, &format!("the {len}-byte prefix")),
                "prefix of {len} bytes accepted"
            );
        }
        for case in 0..4_000 {
            let mut bytes = doc.clone().into_bytes();
            let at = rng.range_usize(0, bytes.len() - 1);
            bytes[at] = if rng.next_u32() & 1 == 0 {
                ALPHABET[rng.range_usize(0, ALPHABET.len() - 1)]
            } else {
                rng.range_u16(0, 0x7f) as u8
            };
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            read(&text, &format!("mutation {case} (byte {at})"));
        }
    }

    #[test]
    fn prometheus_exposition_lints_clean_and_is_cumulative() {
        let text = sample_report().to_prometheus();
        lint_prometheus(&text).expect("exposition lints clean");
        // Cumulative le semantics: the +Inf bucket equals the count.
        assert!(text.contains("saber_op_latency_ns_bucket{op=\"decaps\",le=\"+Inf\"} 1"));
        assert!(text.contains("saber_op_latency_ns_count{op=\"decaps\"} 1"));
        // The 20ms decaps sample is only in the overflow bucket: every
        // finite le for decaps reads 0.
        assert!(text.contains("saber_op_latency_ns_bucket{op=\"decaps\",le=\"16384000\"} 0"));
        // The encaps 3.5µs end-to-end sample is cumulative from le=4000.
        assert!(text.contains("saber_op_latency_ns_bucket{op=\"encaps\",le=\"2000\"} 0"));
        assert!(text.contains("saber_op_latency_ns_bucket{op=\"encaps\",le=\"4000\"} 1"));
        assert!(text.contains("saber_op_latency_ns_bucket{op=\"encaps\",le=\"8000\"} 1"));
        assert!(text.contains("saber_engine_shards{engine=\"ct\"} 2"));
        // A loaded document may hold counts that sum past u64: the
        // cumulative buckets saturate instead of overflowing.
        let mut huge = sample_report();
        huge.ops[OpKind::Keygen.index()].1.counts = [i64::MAX as u64; BUCKET_COUNT];
        let top = format!("{{op=\"keygen\",le=\"+Inf\"}} {}", u64::MAX);
        assert!(huge.to_prometheus().contains(&top));
    }

    #[test]
    fn lint_catches_structural_faults() {
        assert!(lint_prometheus("bad metric\n").is_err(), "space in name");
        assert!(
            lint_prometheus("saber_x 1\n").is_err(),
            "sample without TYPE"
        );
        assert!(
            lint_prometheus("# TYPE m wibble\nm 1\n").is_err(),
            "unknown type"
        );
        assert!(
            lint_prometheus("# TYPE m gauge\n# TYPE m gauge\nm 1\n").is_err(),
            "duplicate TYPE"
        );
        // Each histogram below has exactly one fault.
        for (fault, series) in [
            (
                "non-cumulative",
                "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
            ),
            ("missing +Inf", "h_bucket{le=\"1\"} 5\nh_count 5\n"),
            ("count mismatch", "h_bucket{le=\"+Inf\"} 3\nh_count 4\n"),
            (
                "+Inf before a finite bucket",
                "h_bucket{le=\"+Inf\"} 3\nh_bucket{le=\"1\"} 3\nh_count 3\n",
            ),
            (
                "decreasing le",
                "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
            ),
            (
                "missing _count",
                "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n",
            ),
            (
                "negative bucket",
                "h_bucket{le=\"1\"} -5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
            ),
            (
                "fractional +Inf bucket",
                "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3.7\nh_count 3\n",
            ),
        ] {
            let text = format!("# TYPE h histogram\n{series}");
            assert!(lint_prometheus(&text).is_err(), "{fault}: {text}");
        }
        let good = "# HELP h help text\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\n\
                    h_bucket{le=\"+Inf\"} 3\n\
                    h_sum 99\n\
                    h_count 3\n";
        lint_prometheus(good).expect("well-formed histogram lints clean");
    }

    #[test]
    fn flight_status_captures_live_state() {
        let status = FlightStatus::capture();
        assert_eq!(status.capacity, saber_trace::flight::CAPACITY as u64);
    }
}
