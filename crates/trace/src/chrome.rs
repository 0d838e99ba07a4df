//! Chrome trace-event export: turns captured wall-clock [`Trace`]s and
//! cycle-domain [`CycleTimeline`]s into one JSON document loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! # Layout
//!
//! The export uses the *JSON object format* of the trace-event spec:
//! `{"traceEvents": [...], "displayTimeUnit": "ns", "otherData": {...}}`.
//! Process lanes separate the two time domains:
//!
//! - **pid 1** is the wall-clock domain. Timestamps are emitted as raw
//!   **nanoseconds** since the trace epoch (the viewer nominally labels
//!   ticks as microseconds; treating 1 tick = 1 ns keeps full resolution
//!   with the integer-only codec, and is declared in `otherData`).
//!   Every recording thread gets its own tid lane with a
//!   `thread_name` metadata event.
//! - **pid 2, 3, …** are cycle-model lanes, one per timeline, where
//!   **1 tick = 1 simulated cycle**. Phases become complete (`"X"`)
//!   events carrying `ops` and `units` in `args`; timeline counters
//!   become `"C"` counter samples at the end of the run.
//!
//! Everything flows through `saber_testkit::json` — the same codec the
//! golden KATs and `ServiceReport` snapshots use — so the emitted file
//! is integers-and-strings only and diffs cleanly.
//!
//! [`validate`] is the schema check CI runs against emitted documents:
//! it re-parses structure (required keys, phase-specific fields,
//! non-negative timestamps) without needing a browser.

use crate::cycle::CycleTimeline;
use crate::span::{EventKind, Trace};
use saber_testkit::json::Value;

/// The wall-clock process lane.
const WALL_PID: i64 = 1;
/// First pid used for cycle-model lanes.
const CYCLE_PID_BASE: i64 = 2;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn metadata(name: &str, pid: i64, tid: i64, label: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("ts", Value::Int(0)),
        ("pid", Value::Int(pid)),
        ("tid", Value::Int(tid)),
        ("args", obj(vec![("name", Value::Str(label.to_string()))])),
    ])
}

fn wall_events(trace: &Trace, out: &mut Vec<Value>) {
    out.push(metadata(
        "process_name",
        WALL_PID,
        0,
        "wall-clock (1 tick = 1 ns)",
    ));
    let mut tids: Vec<u64> = trace.events().iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        out.push(metadata(
            "thread_name",
            WALL_PID,
            i64::try_from(*tid).unwrap_or(i64::MAX),
            &format!("thread-{tid}"),
        ));
    }
    for event in trace.events() {
        let base = |ph: &str, ts: u64| {
            vec![
                ("name", Value::Str(event.name.to_string())),
                ("cat", Value::Str(event.category.to_string())),
                ("ph", Value::Str(ph.to_string())),
                ("ts", int(ts)),
                ("pid", Value::Int(WALL_PID)),
                ("tid", int(event.tid)),
            ]
        };
        out.push(match event.kind {
            EventKind::Span { start_ns, dur_ns } => {
                let mut fields = base("X", start_ns);
                fields.push(("dur", int(dur_ns)));
                fields.push(("args", obj(vec![("depth", int(u64::from(event.depth)))])));
                obj(fields)
            }
            EventKind::Instant { ts_ns } => {
                let mut fields = base("i", ts_ns);
                fields.push(("s", Value::Str("t".to_string())));
                obj(fields)
            }
            EventKind::Counter { ts_ns, value } => {
                let mut fields = base("C", ts_ns);
                fields.push(("args", obj(vec![(event.name, Value::Int(value))])));
                obj(fields)
            }
        });
    }
}

fn cycle_events(index: usize, timeline: &CycleTimeline, out: &mut Vec<Value>) {
    let pid = CYCLE_PID_BASE + i64::try_from(index).unwrap_or(i64::MAX - CYCLE_PID_BASE);
    out.push(metadata(
        "process_name",
        pid,
        0,
        &format!(
            "cycles: {} ({} units, 1 tick = 1 cycle)",
            timeline.track(),
            timeline.units()
        ),
    ));
    out.push(metadata("thread_name", pid, 1, "phases"));
    for phase in timeline.phases() {
        out.push(obj(vec![
            ("name", Value::Str(phase.name.to_owned())),
            ("cat", Value::Str("cycles".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", int(phase.start_cycle)),
            ("dur", int(phase.cycles())),
            ("pid", Value::Int(pid)),
            ("tid", Value::Int(1)),
            (
                "args",
                obj(vec![
                    ("ops", int(phase.ops)),
                    ("units", int(timeline.units())),
                ]),
            ),
        ]));
    }
    for (name, value) in timeline.counters() {
        out.push(obj(vec![
            ("name", Value::Str(name.clone())),
            ("cat", Value::Str("cycles".to_string())),
            ("ph", Value::Str("C".to_string())),
            ("ts", int(timeline.total_cycles())),
            ("pid", Value::Int(pid)),
            ("tid", Value::Int(1)),
            ("args", obj(vec![(name.as_str(), int(*value))])),
        ]));
    }
}

/// Builds the Chrome trace-event document for a wall-clock trace and/or
/// any number of cycle-model timelines.
#[must_use]
pub fn export(trace: Option<&Trace>, timelines: &[CycleTimeline]) -> Value {
    let mut events = Vec::new();
    if let Some(trace) = trace {
        wall_events(trace, &mut events);
    }
    for (i, timeline) in timelines.iter().enumerate() {
        cycle_events(i, timeline, &mut events);
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
        (
            "otherData",
            obj(vec![
                ("generator", Value::Str("saber-trace".to_string())),
                (
                    "wall_clock_unit",
                    Value::Str("1 tick = 1 nanosecond since trace epoch (pid 1)".to_string()),
                ),
                (
                    "cycle_unit",
                    Value::Str("1 tick = 1 simulated cycle (pid >= 2)".to_string()),
                ),
            ]),
        ),
    ])
}

/// Serializes [`export`]'s document with the shared testkit codec — the
/// exact bytes to write to a `.json` file for Perfetto.
#[must_use]
pub fn export_string(trace: Option<&Trace>, timelines: &[CycleTimeline]) -> String {
    saber_testkit::json::write(&export(trace, timelines))
}

fn check_event(i: usize, event: &Value) -> Result<(), String> {
    let fail = |msg: &str| Err(format!("traceEvents[{i}]: {msg}"));
    if !matches!(event, Value::Object(_)) {
        return fail("not an object");
    }
    event
        .str_field("name")
        .map_err(|e| format!("traceEvents[{i}]: {e}"))?;
    let ph = event
        .str_field("ph")
        .map_err(|e| format!("traceEvents[{i}]: {e}"))?
        .to_string();
    for key in ["ts", "pid", "tid"] {
        let v = event
            .int_field(key)
            .map_err(|e| format!("traceEvents[{i}]: {e}"))?;
        if v < 0 {
            return fail(&format!("negative {key}"));
        }
    }
    match ph.as_str() {
        "X" => {
            event
                .str_field("cat")
                .map_err(|e| format!("traceEvents[{i}]: {e}"))?;
            let dur = event
                .int_field("dur")
                .map_err(|e| format!("traceEvents[{i}]: {e}"))?;
            if dur < 0 {
                return fail("negative dur");
            }
        }
        "i" => {
            if event.get("s").and_then(Value::as_str).is_none() {
                return fail("instant event missing scope field \"s\"");
            }
        }
        "C" => match event.get("args") {
            Some(Value::Object(entries))
                if !entries.is_empty() && entries.iter().all(|(_, v)| v.as_int().is_some()) => {}
            _ => return fail("counter event needs integer args"),
        },
        "M" => {
            let name = event.str_field("name").expect("checked above");
            if name != "process_name" && name != "thread_name" {
                return fail("unknown metadata event name");
            }
            if event
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .is_none()
            {
                return fail("metadata event needs args.name string");
            }
        }
        other => return fail(&format!("unsupported phase {other:?}")),
    }
    Ok(())
}

/// Validates a document against the subset of the Chrome trace-event
/// schema this crate emits. This is the check `tools/ci.sh` runs on the
/// output of the `trace_profile` example.
///
/// # Errors
///
/// Returns a message naming the first offending event or field.
pub fn validate(doc: &Value) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    doc.str_field("displayTimeUnit")?;
    for (i, event) in events.iter().enumerate() {
        check_event(i, event)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use saber_testkit::json;

    fn sample_timeline() -> CycleTimeline {
        let mut t = CycleTimeline::new("hs2", 128);
        t.push_phase("secret_load", 17, 0);
        t.push_phase("issue", 128, 128 * 512);
        t.push_phase("pipeline_drain", 3, 0);
        t.add_counter("dsp_count", 128);
        t
    }

    #[test]
    fn export_roundtrips_through_codec_and_validates() {
        let session = span::start();
        {
            let _g = span::span("test", "outer");
            span::counter("test", "hits", 3);
            span::instant_event("test", "mark");
        }
        let trace = session.finish();
        let text = export_string(Some(&trace), &[sample_timeline()]);
        let doc = json::parse(&text).expect("exporter emits codec-parseable JSON");
        validate(&doc).expect("exporter output validates against its own schema");
    }

    #[test]
    fn pathological_names_survive_export_and_reparse() {
        // Names containing every JSON-hostile character class: quotes,
        // backslashes, newline/tab control characters and non-ASCII.
        // They reach the exporter through both channels — wall-clock
        // events (where counter names additionally become *keys* of the
        // `args` object) and cycle timelines (arbitrary `String` names).
        // The emitted document must stay codec-parseable, schema-valid,
        // and lossless: the exact names come back out of the re-parse.
        const WEIRD: &str = "q\"uote \\slash\nnew\tline é λ ♞";
        const WEIRD_CAT: &str = "cat\"\\\n";
        let session = span::start();
        {
            let _g = span::span(WEIRD_CAT, WEIRD);
            span::counter(WEIRD_CAT, WEIRD, 7);
            span::instant_event(WEIRD_CAT, WEIRD);
        }
        let trace = session.finish();
        let mut timeline = CycleTimeline::new(WEIRD, 4);
        timeline.push_phase(WEIRD, 3, 1);
        timeline.add_counter(WEIRD, 9);

        let text = export_string(Some(&trace), &[timeline]);
        let doc = json::parse(&text).expect("pathological names must still emit valid JSON");
        validate(&doc).expect("pathological names must stay schema-valid");

        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let named = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some(WEIRD))
            .count();
        assert!(
            named >= 4,
            "span + instant + counter + phase must round-trip the name; saw {named}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(Value::as_str) == Some(WEIRD_CAT)),
            "category strings must round-trip too"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("args").is_some_and(|a| a.get(WEIRD).is_some())),
            "counter names must survive as args object keys"
        );
    }

    #[test]
    fn cycle_lanes_carry_phase_ops() {
        let doc = export(None, &[sample_timeline()]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let issue = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("issue"))
            .expect("issue phase exported");
        assert_eq!(issue.int_field("ts").unwrap(), 17);
        assert_eq!(issue.int_field("dur").unwrap(), 128);
        assert_eq!(
            issue.get("args").unwrap().int_field("ops").unwrap(),
            128 * 512
        );
        assert!(
            issue.int_field("pid").unwrap() >= CYCLE_PID_BASE,
            "cycle lanes live on their own pid"
        );
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&json::parse("{}").unwrap()).is_err());
        assert!(
            validate(&json::parse(r#"{"traceEvents": [], "displayTimeUnit": "ns"}"#).unwrap())
                .is_err(),
            "empty traces are rejected"
        );
        let missing_dur = r#"{
          "traceEvents": [
            {"name": "x", "cat": "c", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
          ],
          "displayTimeUnit": "ns"
        }"#;
        let err = validate(&json::parse(missing_dur).unwrap()).unwrap_err();
        assert!(err.contains("dur"), "error names the missing field: {err}");
        let bad_phase = r#"{
          "traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}
          ],
          "displayTimeUnit": "ns"
        }"#;
        assert!(validate(&json::parse(bad_phase).unwrap()).is_err());
    }

    #[test]
    fn empty_export_has_metadata_only_for_present_sources() {
        let doc = export(None, &[]);
        assert!(
            validate(&doc).is_err(),
            "no sources means no events, which the CI check refuses"
        );
    }
}
