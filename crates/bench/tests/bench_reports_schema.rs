//! Schema validation for the committed `BENCH_timing.json`, the
//! constant-time record the `timing_leakage` bench writes. It must parse
//! with the in-tree JSON codec, carry its `bench` tag, and type-check
//! field by field against the writer's schema
//! (`saber_bench::tables::TimingReport::to_json`), so a hand-edited or
//! truncated record fails here instead of misleading a later reader.

use std::path::Path;

use saber_testkit::json::{parse, Value};

/// Field type expectations, matching what the writer emits.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Int,
    /// Any finite number (integer or float).
    Num,
}

const FILE: &str = "BENCH_timing.json";
const BENCH_TAG: &str = "timing_leakage";

/// Required fields of every element of `entries`.
const ENTRY: &[(&str, Kind)] = &[
    ("target", Kind::Str),
    ("role", Kind::Str),
    ("verdict", Kind::Str),
    ("t_stat", Kind::Num),
    ("samples", Kind::Int),
    ("cropped", Kind::Int),
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
            assert!(
                v.is_finite(),
                "{ctx}: field {name:?} must be finite, got {v}"
            );
        }
    }
}

fn load() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{FILE}: missing bench report ({e}); run `cargo bench`"));
    parse(&text).unwrap_or_else(|e| panic!("{FILE}: malformed JSON: {e}"))
}

#[test]
fn every_committed_bench_report_matches_its_schema() {
    let doc = load();
    assert_eq!(
        doc.str_field("bench")
            .unwrap_or_else(|e| panic!("{FILE}: {e}")),
        BENCH_TAG,
        "{FILE}: wrong bench tag"
    );
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{FILE}: missing entries array"));
    assert!(!entries.is_empty(), "{FILE}: entries must be non-empty");
    for (i, entry) in entries.iter().enumerate() {
        let ctx = format!("{FILE} entry {i}");
        for (name, kind) in ENTRY {
            check_field(entry, name, *kind, &ctx);
        }
    }
}

#[test]
fn timing_report_verdicts_are_pass_or_leak() {
    let doc = load();
    for entry in doc
        .get("entries")
        .and_then(Value::as_array)
        .expect("entries")
    {
        let verdict = entry.str_field("verdict").expect("verdict");
        assert!(
            matches!(verdict, "pass" | "leak"),
            "unknown timing verdict {verdict:?}"
        );
    }
}
