//! Replay the checked-in golden KAT files against the live
//! implementation.
//!
//! These tests read `crates/verify/kats/*.json` from the repository —
//! frozen answers, not self-consistency. If one fails after an
//! intentional change to byte framing, regenerate via
//! `tools/gen_golden_kats.sh` and review the diff as part of the change.
//!
//! The last test feeds truncated and mutated copies of each file through
//! the JSON parser and the matching verifier, which must replay or
//! refuse them, never panic.

use saber_testkit::json::{self, Value};
use saber_testkit::Rng;
use saber_verify::kat;

#[test]
fn ring_multiplication_kats_replay() {
    let doc = kat::load("ring_mul").expect("checked-in KAT file");
    let checked = kat::verify_ring(&doc).expect("frozen ring products must replay");
    assert_eq!(checked, 12, "4 vectors × 3 secret bounds");
}

#[test]
fn keccak_kats_replay() {
    let doc = kat::load("keccak").expect("checked-in KAT file");
    let checked = kat::verify_keccak(&doc).expect("hashlib-derived digests must replay");
    assert!(checked >= 16, "got only {checked} keccak vectors");
}

#[test]
fn pke_kats_replay() {
    let doc = kat::load("pke").expect("checked-in KAT file");
    let checked = kat::verify_pke(&doc).expect("frozen PKE transcripts must replay");
    assert_eq!(checked, 3, "one vector per parameter set");
}

#[test]
fn kem_roundtrip_kats_replay() {
    let doc = kat::load("kem_roundtrip").expect("checked-in KAT file");
    let checked = kat::verify_kem(&doc).expect("frozen KEM transcripts must replay");
    assert_eq!(checked, 6, "two vectors per parameter set");
}

#[test]
fn cycle_total_kats_replay() {
    let doc = kat::load("cycle_totals").expect("checked-in KAT file");
    let checked = kat::verify_cycles(&doc).expect("frozen cycle totals must replay");
    assert_eq!(
        checked,
        kat::CYCLE_MODELS.len(),
        "every paper-quoted model is pinned"
    );
}

#[test]
fn checked_in_rust_vectors_match_the_generator() {
    // The files on disk must be exactly what `gen-kats` writes today —
    // this catches a forgotten regeneration after a deliberate framing
    // change (the generator and the frozen file disagreeing is always a
    // red flag, whichever of the two is right).
    for (stem, generated) in [
        ("ring_mul", kat::gen_ring()),
        ("pke", kat::gen_pke()),
        ("kem_roundtrip", kat::gen_kem()),
        ("cycle_totals", kat::gen_cycles()),
    ] {
        let on_disk = kat::load(stem).expect("checked-in KAT file");
        assert_eq!(
            on_disk, generated,
            "{stem}.json drifted from gen-kats output; \
             rerun tools/gen_golden_kats.sh and review the diff"
        );
    }
}

/// A `verify_*` replay.
type Verifier = fn(&Value) -> Result<usize, String>;

/// Every committed KAT file with the verifier that replays it.
const FILES: [(&str, Verifier); 5] = [
    ("ring_mul", kat::verify_ring),
    ("keccak", kat::verify_keccak),
    ("pke", kat::verify_pke),
    ("kem_roundtrip", kat::verify_kem),
    ("cycle_totals", kat::verify_cycles),
];

/// Field-level mutations per file: 2,000 in release, 400 in debug, where
/// one mutated KEM transcript replays in about 10 ms.
const MUTATIONS: usize = if cfg!(debug_assertions) { 400 } else { 2_000 };

/// Characters the string edits splice in: hex digits of both cases
/// (most edits keep a field decodable, so the replay reaches the
/// arithmetic), a non-hex letter, a two-byte character, a quote, a
/// backslash and a control character (escaped by the writer).
const SPLICE: [char; 12] = [
    '0', '1', '7', '9', 'a', 'c', 'F', 'g', 'é', '"', '\\', '\u{1}',
];

/// Parses `text` and replays it: true if both accept it. Either may
/// refuse it; neither may panic.
fn replays(text: &str, verify: Verifier, what: &str) -> bool {
    std::panic::catch_unwind(|| {
        json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|doc| verify(&doc))
            .is_ok()
    })
    .unwrap_or_else(|_| panic!("{what}: the parser or the verifier panicked"))
}

/// Applies one seeded edit to the value of one entry of `object` and
/// says which.
fn mutate_entry(rng: &mut Rng, object: &mut Vec<(String, Value)>) -> String {
    let at = rng.range_usize(0, object.len() - 1);
    let key = object[at].0.clone();
    match rng.range_usize(0, 5) {
        0 => {
            object.remove(at);
            format!("removed {key:?}")
        }
        1 => {
            object[at].0.push('_');
            format!("renamed {key:?}")
        }
        2 => {
            object[at].1 = match rng.range_usize(0, 5) {
                0 => Value::Null,
                1 => Value::Bool(true),
                2 => Value::Float(0.5),
                3 => Value::Str(String::new()),
                4 => Value::Array(Vec::new()),
                _ => Value::Object(Vec::new()),
            };
            format!("retyped {key:?}")
        }
        _ => match &mut object[at].1 {
            Value::Str(text) => {
                let mut chars: Vec<char> = text.chars().collect();
                let pos = rng.range_usize(0, chars.len());
                let splice = SPLICE[rng.range_usize(0, SPLICE.len() - 1)];
                match rng.range_usize(0, 2) {
                    0 => chars.truncate(pos),
                    1 => chars.insert(pos, splice),
                    _ if pos < chars.len() => chars[pos] = splice,
                    _ => chars.push(splice),
                }
                *text = chars.into_iter().collect();
                format!("edited {key:?} at char {pos}")
            }
            Value::Int(n) => {
                *n = [
                    0,
                    -1,
                    i64::MIN,
                    i64::MAX,
                    n.wrapping_add(1),
                    n.wrapping_sub(1),
                ][rng.range_usize(0, 5)];
                format!("set {key:?} to {n}")
            }
            other => {
                *other = Value::Int(1);
                format!("replaced {key:?} with 1")
            }
        },
    }
}

#[test]
fn truncated_and_mutated_kat_files_are_refused_not_panicked_on() {
    let mut rng = Rng::new(0x4B41_5446); // "KATF"
    for (stem, verify) in FILES {
        let path = kat::kats_dir().join(format!("{stem}.json"));
        let text = std::fs::read_to_string(&path).expect("checked-in KAT file");
        // Every line-boundary prefix short of the whole file leaves the
        // document open.
        for (end, _) in text.match_indices('\n') {
            let accepted = replays(&text[..end], verify, &format!("{stem}: {end}-byte prefix"));
            assert_eq!(
                accepted,
                end == text.trim_end().len(),
                "{stem}: {end}-byte prefix"
            );
        }

        // One-vector documents keep each replay to a single transcript.
        let Value::Object(mut doc) = json::parse(&text).expect("checked-in KAT file") else {
            panic!("{stem}: not an object");
        };
        let vectors = doc
            .iter_mut()
            .find(|(key, _)| key == "vectors")
            .and_then(|(_, value)| match value {
                Value::Array(vectors) => Some(vectors),
                _ => None,
            })
            .expect("a vectors array");
        vectors.truncate(1);
        let single = Value::Object(doc);
        assert!(replays(&json::write(&single), verify, stem));

        for case in 0..MUTATIONS {
            let mut doc = single.clone();
            let Value::Object(top) = &mut doc else {
                unreachable!()
            };
            // One edit in eight lands on the envelope, the rest on the
            // vector's own fields.
            let edit = if rng.range_usize(0, 7) == 0 {
                mutate_entry(&mut rng, top)
            } else {
                let vector = top
                    .iter_mut()
                    .find_map(|(key, value)| match (key.as_str(), value) {
                        ("vectors", Value::Array(vectors)) => vectors.first_mut(),
                        _ => None,
                    })
                    .expect("one vector");
                let Value::Object(fields) = vector else {
                    unreachable!()
                };
                mutate_entry(&mut rng, fields)
            };
            replays(
                &json::write(&doc),
                verify,
                &format!("{stem}: mutation {case} ({edit})"),
            );
        }
    }
}
