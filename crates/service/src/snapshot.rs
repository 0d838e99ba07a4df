//! The unified metrics snapshot registry: one versioned document
//! merging every observability surface the workspace has grown.
//!
//! Each layer already produces its own artifact — [`ServiceReport`]
//! counters and wait/exec histograms, `saber_trace` counter probes, the
//! SoC co-simulation fingerprint. A [`MetricsSnapshot`] is the umbrella: a single
//! point-in-time document with a `schema_version` field, serialized two
//! ways from the same data:
//!
//! * **JSON** ([`MetricsSnapshot::to_json_string`] /
//!   [`MetricsSnapshot::from_json_str`]) — lossless round-trip, the
//!   machine-readable archive format;
//! * **Prometheus text exposition**
//!   ([`MetricsSnapshot::to_prometheus`]) — the scrape format a future
//!   network service would serve at `/metrics` (ROADMAP item 1), linted
//!   by [`lint_prometheus`].
//!
//! Histogram edges are shared with the JSON report via
//! [`bucket_edge_label`]: the Prometheus `le` labels and the JSON
//! `bucket_bounds_ns` array serialize every edge identically (15
//! decimal bounds + `"+Inf"`), and the exposition uses **cumulative**
//! bucket counts as the `le` semantics require.
//!
//! Versioning: `SCHEMA_VERSION` is 3 (version 2 added the service
//! report's steal counters, version 3 its matrix-cache hit/miss
//! counters). Parsers reject documents with a different version rather
//! than guessing — additive fields bump the version, and a reader for
//! version N refuses N+1 documents instead of silently dropping
//! sections. Removed fields keep the version. Within a version, keys the
//! reader does not know are ignored, so version 3 documents written
//! while the engine auto-tuner or the degrade overload policy existed
//! still load; the tuner's section and the policy's admission counter
//! are dropped. A reader from before a removal refuses the newer
//! document and names the field it lacks, so it cannot misread it.

use saber_testkit::json::Value;

use crate::metrics::{bucket_edge_label, ServiceReport, BUCKET_COUNT};
use crate::obs;

/// Version of the snapshot document schema.
pub const SCHEMA_VERSION: i64 = 3;

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

/// One co-simulated component's cycle totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocComponentStats {
    /// Component name (e.g. `"keccak-xof-dma"`).
    pub name: String,
    /// Ticks doing useful work.
    pub busy_cycles: u64,
    /// Ticks stalled on the bus or a peer.
    pub stall_cycles: u64,
}

/// A plain-data summary of one SoC co-simulation run (the service crate
/// does not depend on `saber-soc`; the workspace root converts a
/// `Fingerprint` into this shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocSection {
    /// One past the last serviced base cycle.
    pub makespan: u64,
    /// Bus cycles with more than one eligible read contender.
    pub contended_cycles: u64,
    /// Read grants issued by the arbiter.
    pub read_grants: u64,
    /// Write grants issued by the arbiter.
    pub write_grants: u64,
    /// Per-component totals, in component-id order.
    pub components: Vec<SocComponentStats>,
}

/// The unified snapshot: every observability surface in one versioned
/// document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Document schema version ([`SCHEMA_VERSION`]).
    pub schema_version: i64,
    /// The service's counters and latency histograms.
    pub service: ServiceReport,
    /// Aggregated `saber_trace` counter totals, sorted by name.
    pub counters: Vec<(String, i64)>,
    /// Flight-recorder status.
    pub flight: FlightStatus,
    /// SoC co-simulation summary, when a probed run is attached.
    pub soc: Option<SocSection>,
}

impl MetricsSnapshot {
    /// A snapshot of `service` plus the live flight-recorder state; add
    /// the optional sections with the `with_*` builders.
    #[must_use]
    pub fn new(service: ServiceReport) -> Self {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            service,
            counters: Vec::new(),
            flight: FlightStatus::capture(),
            soc: None,
        }
    }

    /// Attaches aggregated trace-counter totals (sorted by name for
    /// deterministic output).
    #[must_use]
    pub fn with_counters(mut self, mut counters: Vec<(String, i64)>) -> Self {
        counters.sort();
        self.counters = counters;
        self
    }

    /// Attaches a SoC co-simulation summary.
    #[must_use]
    pub fn with_soc(mut self, soc: SocSection) -> Self {
        self.soc = Some(soc);
        self
    }

    /// Serializes into the in-tree JSON document model.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let mut fields = vec![
            ("snapshot".into(), Value::Str("saber-metrics".into())),
            ("schema_version".into(), Value::Int(self.schema_version)),
            ("service".into(), self.service.to_json_value()),
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(name, v)| (name.clone(), Value::Int(*v)))
                        .collect(),
                ),
            ),
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
        ];
        if let Some(soc) = &self.soc {
            fields.push((
                "soc".into(),
                Value::Object(vec![
                    ("makespan".into(), int(soc.makespan)),
                    ("contended_cycles".into(), int(soc.contended_cycles)),
                    ("read_grants".into(), int(soc.read_grants)),
                    ("write_grants".into(), int(soc.write_grants)),
                    (
                        "components".into(),
                        Value::Array(
                            soc.components
                                .iter()
                                .map(|c| {
                                    Value::Object(vec![
                                        ("name".into(), Value::Str(c.name.clone())),
                                        ("busy_cycles".into(), int(c.busy_cycles)),
                                        ("stall_cycles".into(), int(c.stall_cycles)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Value::Object(fields)
    }

    /// Serializes as a pretty-printed JSON string.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        saber_testkit::json::write(&self.to_json_value())
    }

    /// Reconstructs a snapshot from its JSON document form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field, or
    /// the unsupported schema version.
    pub fn from_json_value(value: &Value) -> Result<MetricsSnapshot, String> {
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
        let uint = |entry: &Value, key: &str| -> Result<u64, String> {
            let v = entry.int_field(key)?;
            u64::try_from(v).map_err(|_| format!("field {key:?} is negative"))
        };
        let service =
            ServiceReport::from_json_value(value.get("service").ok_or("missing service section")?)?;
        let mut counters = Vec::new();
        match value.get("counters") {
            Some(Value::Object(entries)) => {
                for (name, v) in entries {
                    counters.push((
                        name.clone(),
                        v.as_int().ok_or("counter value must be an integer")?,
                    ));
                }
            }
            _ => return Err("missing counters object".into()),
        }
        let flight_value = value.get("flight").ok_or("missing flight section")?;
        let enabled = match flight_value.get("enabled") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("flight.enabled must be a boolean".into()),
        };
        let flight = FlightStatus {
            enabled,
            recorded_total: uint(flight_value, "recorded_total")?,
            dump_count: uint(flight_value, "dump_count")?,
            panic_dumps: uint(flight_value, "panic_dumps")?,
            capacity: uint(flight_value, "capacity")?,
        };
        let soc = match value.get("soc") {
            None => None,
            Some(section) => {
                let mut components = Vec::new();
                for entry in section
                    .get("components")
                    .and_then(Value::as_array)
                    .ok_or("missing soc components array")?
                {
                    components.push(SocComponentStats {
                        name: entry.str_field("name")?.to_string(),
                        busy_cycles: uint(entry, "busy_cycles")?,
                        stall_cycles: uint(entry, "stall_cycles")?,
                    });
                }
                Some(SocSection {
                    makespan: uint(section, "makespan")?,
                    contended_cycles: uint(section, "contended_cycles")?,
                    read_grants: uint(section, "read_grants")?,
                    write_grants: uint(section, "write_grants")?,
                    components,
                })
            }
        };
        Ok(MetricsSnapshot {
            schema_version: version,
            service,
            counters,
            flight,
            soc,
        })
    }

    /// Parses a snapshot from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a message describing the parse or schema failure.
    pub fn from_json_str(text: &str) -> Result<MetricsSnapshot, String> {
        let value = saber_testkit::json::parse(text).map_err(|e| e.to_string())?;
        MetricsSnapshot::from_json_value(&value)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, counter/gauge samples, and
    /// cumulative histograms whose `le` edges are exactly the JSON
    /// report's `bucket_bounds_ns` labels.
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

        let _ = writeln!(out, "# HELP saber_snapshot_info Snapshot document metadata.");
        let _ = writeln!(out, "# TYPE saber_snapshot_info gauge");
        let _ = writeln!(
            out,
            "saber_snapshot_info{{schema_version=\"{}\"}} 1",
            self.schema_version
        );

        let s = &self.service;
        gauge(&mut out, "saber_workers", "Worker threads in the pool.", s.workers);
        gauge(
            &mut out,
            "saber_queue_capacity",
            "Configured queue capacity.",
            s.queue_capacity,
        );
        gauge(
            &mut out,
            "saber_queue_depth",
            "Queue depth at snapshot time.",
            s.queue_depth,
        );
        gauge(
            &mut out,
            "saber_queue_high_water",
            "Highest queue depth observed at submit time.",
            s.queue_high_water,
        );
        counter(
            &mut out,
            "saber_jobs_submitted_total",
            "Jobs admitted to the queue.",
            s.submitted,
        );
        counter(
            &mut out,
            "saber_jobs_completed_total",
            "Jobs completed successfully.",
            s.completed,
        );
        counter(
            &mut out,
            "saber_jobs_rejected_total",
            "Submissions rejected by backpressure.",
            s.rejected,
        );
        counter(
            &mut out,
            "saber_jobs_failed_total",
            "Jobs that failed (worker panic while executing).",
            s.failed,
        );
        counter(
            &mut out,
            "saber_worker_panics_total",
            "Worker panics contained by the pool.",
            s.worker_panics,
        );
        counter(
            &mut out,
            "saber_steal_attempts_total",
            "Victim scans run by workers looking for stealable work.",
            s.steal_attempts,
        );
        counter(
            &mut out,
            "saber_steal_hits_total",
            "Successful steals (scans that migrated at least one job).",
            s.steal_hits,
        );
        counter(
            &mut out,
            "saber_stolen_jobs_total",
            "Jobs migrated between worker deques by stealing.",
            s.stolen_jobs,
        );
        counter(
            &mut out,
            "saber_matrix_cache_hits_total",
            "Encaps/decaps matrix lookups answered by a worker's cache.",
            s.matrix_cache_hits,
        );
        counter(
            &mut out,
            "saber_matrix_cache_misses_total",
            "Encaps/decaps matrix lookups that expanded the matrix.",
            s.matrix_cache_misses,
        );

        if !s.engines.is_empty() {
            let _ = writeln!(out, "# HELP saber_engine_shards Worker shards per engine.");
            let _ = writeln!(out, "# TYPE saber_engine_shards gauge");
            let mut seen: Vec<(String, u64)> = Vec::new();
            for label in &s.engines {
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
                &s.ops,
            ),
            (
                "saber_queue_wait_ns",
                "Queue-wait (enqueue to dequeue) latency.",
                &s.queue_wait,
            ),
            (
                "saber_execute_ns",
                "Execution (dequeue to completion) latency.",
                &s.execute,
            ),
        ] {
            let _ = writeln!(out, "# HELP {family} {help}");
            let _ = writeln!(out, "# TYPE {family} histogram");
            for (op, h) in side.iter() {
                let op = escape_label(op.label());
                let mut cumulative = 0u64;
                for i in 0..BUCKET_COUNT {
                    cumulative += h.counts[i];
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

        if !self.counters.is_empty() {
            let _ = writeln!(
                out,
                "# HELP saber_trace_counter_total Aggregated saber_trace counter totals."
            );
            let _ = writeln!(out, "# TYPE saber_trace_counter_total counter");
            for (name, v) in &self.counters {
                let _ = writeln!(
                    out,
                    "saber_trace_counter_total{{name=\"{}\"}} {v}",
                    escape_label(name)
                );
            }
        }

        if let Some(soc) = &self.soc {
            gauge(
                &mut out,
                "saber_soc_makespan_cycles",
                "Co-simulation makespan in base cycles.",
                soc.makespan,
            );
            gauge(
                &mut out,
                "saber_soc_contended_cycles",
                "Bus cycles with more than one read contender.",
                soc.contended_cycles,
            );
            gauge(
                &mut out,
                "saber_soc_read_grants",
                "Read grants issued by the arbiter.",
                soc.read_grants,
            );
            gauge(
                &mut out,
                "saber_soc_write_grants",
                "Write grants issued by the arbiter.",
                soc.write_grants,
            );
            let _ = writeln!(
                out,
                "# HELP saber_soc_component_busy_cycles Busy cycles per co-simulated component."
            );
            let _ = writeln!(out, "# TYPE saber_soc_component_busy_cycles gauge");
            for c in &soc.components {
                let _ = writeln!(
                    out,
                    "saber_soc_component_busy_cycles{{component=\"{}\"}} {}",
                    escape_label(&c.name),
                    c.busy_cycles
                );
            }
            let _ = writeln!(
                out,
                "# HELP saber_soc_component_stall_cycles Stall cycles per co-simulated component."
            );
            let _ = writeln!(out, "# TYPE saber_soc_component_stall_cycles gauge");
            for c in &soc.components {
                let _ = writeln!(
                    out,
                    "saber_soc_component_stall_cycles{{component=\"{}\"}} {}",
                    escape_label(&c.name),
                    c.stall_cycles
                );
            }
        }
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
/// * every histogram series has cumulative, non-decreasing buckets, a
///   final `le="+Inf"` bucket, and a `_count` equal to it.
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
    struct Series {
        last_cumulative: u64,
        saw_inf: bool,
        inf_value: u64,
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
                    if !matches!(tail, "counter" | "gauge" | "histogram" | "summary" | "untyped")
                    {
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
        let value: f64 = value_text
            .parse()
            .map_err(|_| format!("line {n}: unparseable sample value {value_text:?}"))?;
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
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
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
                    series.push((
                        key.clone(),
                        Series {
                            last_cumulative: 0,
                            saw_inf: false,
                            inf_value: 0,
                            count: None,
                        },
                    ));
                    series.len() - 1
                }
            };
            let state = &mut series[idx].1;
            match suffix {
                "_bucket" => {
                    let le = le.ok_or_else(|| format!("line {n}: bucket sample without le"))?;
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    let v = value as u64;
                    if v < state.last_cumulative {
                        return Err(format!(
                            "line {n}: histogram series {key} is not cumulative \
                             ({v} < {})",
                            state.last_cumulative
                        ));
                    }
                    state.last_cumulative = v;
                    if le == "+Inf" {
                        state.saw_inf = true;
                        state.inf_value = v;
                    } else if le.parse::<u64>().is_err() {
                        return Err(format!("line {n}: non-numeric finite le {le:?}"));
                    }
                }
                "_count" => {
                    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                    let v = value as u64;
                    state.count = Some(v);
                }
                _ => {} // _sum: any numeric value is fine
            }
        }
    }
    for (key, state) in &series {
        if !state.saw_inf {
            return Err(format!("histogram series {key} is missing its +Inf bucket"));
        }
        if let Some(count) = state.count {
            if count != state.inf_value {
                return Err(format!(
                    "histogram series {key}: _count {count} != +Inf bucket {}",
                    state.inf_value
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metrics, OpKind};

    fn sample_snapshot() -> MetricsSnapshot {
        let m = Metrics::default();
        m.record_engine("cached");
        m.record_completed(OpKind::Encaps, 1_000, 2_500);
        m.record_completed(OpKind::Decaps, 20_000_000, 999);
        MetricsSnapshot::new(m.snapshot(2, 8, 1))
            .with_counters(vec![
                ("panic.dump".into(), 2),
                ("hs1.bucket_hits".into(), 41),
            ])
            .with_soc(SocSection {
                makespan: 395,
                contended_cycles: 19,
                read_grants: 72,
                write_grants: 104,
                components: vec![
                    SocComponentStats {
                        name: "keccak-xof-dma".into(),
                        busy_cycles: 150,
                        stall_cycles: 12,
                    },
                    SocComponentStats {
                        name: "hs1-512-matvec".into(),
                        busy_cycles: 248,
                        stall_cycles: 30,
                    },
                ],
            })
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).expect("roundtrip parses");
        assert_eq!(back, snap);
        // Counters came back sorted (with_counters sorted them going in).
        assert_eq!(back.counters[0].0, "hs1.bucket_hits");
    }

    #[test]
    fn unknown_schema_version_is_refused() {
        let snap = sample_snapshot();
        let text = snap.to_json_string().replace(
            "\"schema_version\": 3",
            "\"schema_version\": 4",
        );
        let err = MetricsSnapshot::from_json_str(&text).unwrap_err();
        assert!(err.contains("unsupported snapshot schema version 4"), "{err}");
        // Version 2 documents predate the matrix-cache counters.
        let text = snap.to_json_string().replace(
            "\"schema_version\": 3",
            "\"schema_version\": 2",
        );
        let err = MetricsSnapshot::from_json_str(&text).unwrap_err();
        assert!(err.contains("unsupported snapshot schema version 2"), "{err}");
    }

    #[test]
    fn v3_snapshots_from_the_auto_tuner_era_still_load() {
        // Written the way version 3 snapshots were written while the
        // engine auto-tuner and the degrade overload policy existed: the
        // tuner's decision as an object between `flight` and `soc`, and
        // the policy's admission counter in the service report after
        // `stolen_jobs`, under these keys.
        const REMOVED_SECTION: &str = "autotune";
        const REMOVED_COUNTER: &str = "degraded_admissions";
        let snap = sample_snapshot();
        let section = saber_testkit::json::parse(
            r#"{"chosen": "ct", "samples": [
                {"engine": "cached", "total_nanos": 9130412},
                {"engine": "swar", "total_nanos": 3904417},
                {"engine": "toom", "total_nanos": 2417780},
                {"engine": "ntt", "total_nanos": 2955030},
                {"engine": "ct", "total_nanos": 1186902}
            ]}"#,
        )
        .expect("the removed section parses");
        let Value::Object(mut fields) = snap.to_json_value() else {
            panic!("a snapshot serializes to an object");
        };
        let Some((_, Value::Object(report))) = fields.iter_mut().find(|(k, _)| k == "service")
        else {
            panic!("a snapshot carries the service report as an object");
        };
        let stolen = report
            .iter()
            .position(|(k, _)| k == "stolen_jobs")
            .expect("stolen_jobs counter");
        report.insert(stolen + 1, (REMOVED_COUNTER.into(), Value::Int(6)));
        let soc = fields.iter().position(|(k, _)| k == "soc").expect("soc section");
        fields.insert(soc, (REMOVED_SECTION.into(), section));
        let old = saber_testkit::json::write(&Value::Object(fields));

        let back = MetricsSnapshot::from_json_str(&old).expect("a v3 document loads");
        assert_eq!(back, snap);
        let rewritten = back.to_json_string();
        let exposition = back.to_prometheus();
        for removed in [REMOVED_SECTION, REMOVED_COUNTER] {
            assert!(old.contains(&format!("\"{removed}\"")));
            assert!(!rewritten.contains(removed), "{rewritten}");
            assert!(!exposition.contains(removed), "{exposition}");
        }
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_an_abort() {
        let text = "[".repeat(100_000);
        assert!(MetricsSnapshot::from_json_str(&text).is_err());
        assert!(ServiceReport::from_json_str(&text).is_err());
    }

    #[test]
    fn prometheus_exposition_lints_clean_and_is_cumulative() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
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
        assert!(text.contains("saber_soc_component_busy_cycles{component=\"keccak-xof-dma\"} 150"));
        assert!(text.contains("saber_trace_counter_total{name=\"panic.dump\"} 2"));
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
        let non_cumulative = "# TYPE h histogram\n\
                              h_bucket{le=\"1\"} 5\n\
                              h_bucket{le=\"+Inf\"} 3\n";
        assert!(lint_prometheus(non_cumulative).is_err(), "non-cumulative");
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n";
        assert!(lint_prometheus(no_inf).is_err(), "missing +Inf");
        let count_mismatch = "# TYPE h histogram\n\
                              h_bucket{le=\"+Inf\"} 3\n\
                              h_count 4\n";
        assert!(lint_prometheus(count_mismatch).is_err(), "count mismatch");
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
