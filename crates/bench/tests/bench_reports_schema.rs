//! Schema validation for the committed `BENCH_*.json` artifacts.
//!
//! The bench reports are the repo's measured-performance trajectory:
//! each bench target rewrites its report in place, and CI commits the
//! result. A malformed or stale report (hand-edited, truncated by a
//! crashed bench, or drifted from the writer's schema) would poison
//! every later comparison, so `tools/ci.sh bench_reports` runs this
//! test: every artifact must parse with the in-tree JSON codec, carry
//! its expected `bench` tag, and type-check field-by-field against the
//! writer's schema. The trace-occupancy report additionally pins the
//! golden cycle totals (341/213/216/152/18928) — the same family of
//! constants the cycle-model KATs and the SoC VCD consistency tests
//! lock, so a report regenerated from a perturbed model fails here even
//! if it is syntactically perfect.

use std::path::Path;

use saber_testkit::json::{parse, Value};

/// Field type expectations, matching what each bench writer emits.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Int,
    /// Any finite number (integer or float).
    Num,
}

struct Schema {
    file: &'static str,
    bench_tag: &'static str,
    /// Required non-entry top-level fields.
    top: &'static [(&'static str, Kind)],
    /// Required fields of every element of `entries`.
    entry: &'static [(&'static str, Kind)],
}

const SCHEMAS: &[Schema] = &[
    Schema {
        file: "BENCH_timing.json",
        bench_tag: "timing_leakage",
        top: &[],
        entry: &[
            ("target", Kind::Str),
            ("role", Kind::Str),
            ("verdict", Kind::Str),
            ("t_stat", Kind::Num),
            ("samples", Kind::Int),
            ("cropped", Kind::Int),
        ],
    },
    Schema {
        file: "BENCH_trace.json",
        bench_tag: "trace_occupancy",
        top: &[
            ("disabled_probe_ns", Kind::Num),
            ("enabled_probe_ns", Kind::Num),
        ],
        entry: &[
            ("arch", Kind::Str),
            ("units", Kind::Int),
            ("total_cycles", Kind::Int),
            ("steady_phase", Kind::Str),
            ("steady_cycles", Kind::Int),
            ("occupancy", Kind::Num),
            ("utilization", Kind::Num),
            ("stall_cycles", Kind::Int),
            ("ops_total", Kind::Int),
        ],
    },
];

fn check_field(owner: &Value, name: &str, kind: Kind, ctx: &str) {
    let field = owner
        .get(name)
        .unwrap_or_else(|| panic!("{ctx}: missing field {name:?}"));
    match kind {
        Kind::Str => {
            assert!(
                field.as_str().is_some_and(|s| !s.is_empty()),
                "{ctx}: field {name:?} must be a non-empty string"
            );
        }
        Kind::Int => {
            assert!(
                field.as_int().is_some(),
                "{ctx}: field {name:?} must be an integer"
            );
        }
        Kind::Num => {
            let v = field
                .as_number()
                .unwrap_or_else(|| panic!("{ctx}: field {name:?} must be a number"));
            assert!(v.is_finite(), "{ctx}: field {name:?} must be finite, got {v}");
        }
    }
}

fn load(file: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{file}: missing bench report ({e}); run `cargo bench`"));
    parse(&text).unwrap_or_else(|e| panic!("{file}: malformed JSON: {e}"))
}

#[test]
fn every_committed_bench_report_matches_its_schema() {
    for schema in SCHEMAS {
        let doc = load(schema.file);
        let ctx = schema.file;
        assert_eq!(
            doc.str_field("bench").unwrap_or_else(|e| panic!("{ctx}: {e}")),
            schema.bench_tag,
            "{ctx}: wrong bench tag"
        );
        for (name, kind) in schema.top {
            check_field(&doc, name, *kind, ctx);
        }
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{ctx}: missing entries array"));
        assert!(!entries.is_empty(), "{ctx}: entries must be non-empty");
        for (i, entry) in entries.iter().enumerate() {
            let ctx = format!("{ctx} entry {i}");
            for (name, kind) in schema.entry {
                check_field(entry, name, *kind, &ctx);
            }
        }
    }
}

#[test]
fn timing_report_verdicts_are_pass_or_leak() {
    let doc = load("BENCH_timing.json");
    for entry in doc.get("entries").and_then(Value::as_array).expect("entries") {
        let verdict = entry.str_field("verdict").expect("verdict");
        assert!(
            matches!(verdict, "pass" | "leak"),
            "unknown timing verdict {verdict:?}"
        );
    }
}

/// The trace-occupancy report carries the paper's golden cycle totals;
/// a regenerated report from a perturbed cycle model fails here even if
/// its schema is intact (same family of constants as the cycle KATs and
/// the SoC VCD consistency tests).
#[test]
fn trace_report_pins_the_golden_cycle_totals() {
    const GOLDEN: &[(&str, i64)] = &[
        ("baseline-256", 341),
        ("baseline-512", 213),
        ("hs1-256", 341),
        ("hs1-512", 213),
        ("hs2-128", 216),
        ("hs2-256", 152),
        ("lw-4", 18928),
    ];
    let doc = load("BENCH_trace.json");
    let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
    for (arch, cycles) in GOLDEN {
        let entry = entries
            .iter()
            .find(|e| e.str_field("arch").ok() == Some(arch))
            .unwrap_or_else(|| panic!("trace report lost arch {arch:?}"));
        assert_eq!(
            entry.int_field("total_cycles").expect("total_cycles"),
            *cycles,
            "{arch}: golden cycle total drifted"
        );
    }
}
