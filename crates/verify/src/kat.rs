//! The golden known-answer framework: generate and replay the frozen
//! JSON vectors under `crates/verify/kats/`.
//!
//! Provenance is two-tiered and recorded in each file's `source` field:
//!
//! * `keccak.json` is produced by `tools/gen_keccak_json_kats.py` from
//!   CPython's `hashlib` — an **independent** implementation, so it
//!   anchors our sponge against the outside world.
//! * `ring_mul.json`, `pke.json` and `kem_roundtrip.json` are produced
//!   by the `gen-kats` binary from the workspace's own schoolbook path.
//!   They are **frozen regression anchors**: the byte framing of keys
//!   and ciphertexts is workspace-specific (no external implementation
//!   emits it), so their value is pinning today's verified answers
//!   against tomorrow's refactors.
//!
//! Each `verify_*` function returns the number of vectors checked, so a
//! truncated or empty file fails loudly instead of passing vacuously.

use std::path::PathBuf;

use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber_hw::keccak_core::{sponge_on_core, KeccakCore};
use saber_hw::CycleReport;
use saber_keccak::{Sha3_256, Sha3_512, Shake128, Shake256};
use saber_kem::{kem, serialize, ALL_PARAMS};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::packing;
use saber_ring::{schoolbook, PolyQ, SecretPoly, EPS_Q, N};
use saber_testkit::{hex, Rng};

use crate::corpus;
use saber_testkit::json::Value;

/// Root seed for the Rust-generated vector families.
const KAT_SEED: u64 = 0x4B41_5453; // "KATS"

/// Bytes of one packed 13-bit polynomial (a ring vector's `public` and
/// `product`).
const POLY_Q_BYTES: usize = N * EPS_Q as usize / 8;

/// The checked-in KAT directory (`crates/verify/kats`).
#[must_use]
pub fn kats_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("kats")
}

/// Loads and parses one KAT file by stem (e.g. `"ring_mul"`).
///
/// # Errors
///
/// Returns a message naming the file on IO or parse failure.
pub fn load(stem: &str) -> Result<Value, String> {
    let path = kats_dir().join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    saber_testkit::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn hex_field(doc: &Value, key: &str) -> Result<Vec<u8>, String> {
    hex::decode(doc.str_field(key)?).map_err(|e| format!("field {key:?}: {e}"))
}

fn vectors_of<'a>(doc: &'a Value, file: &str) -> Result<&'a [Value], String> {
    let vectors = doc
        .get("vectors")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{file}: missing \"vectors\" array"))?;
    if vectors.is_empty() {
        return Err(format!("{file}: vector list is empty"));
    }
    Ok(vectors)
}

// --- ring multiplication -------------------------------------------------

/// Generates the ring-multiplication vectors: four corpus cases per
/// secret bound (5, 4, 3 — the three parameter sets), products computed
/// by the schoolbook oracle.
#[must_use]
pub fn gen_ring() -> Value {
    let mut vectors = Vec::new();
    for bound in [5i8, 4, 3] {
        let mut rng = Rng::new(KAT_SEED ^ u64::from(bound as u8));
        for index in 0..4 {
            let case = corpus::generate(&mut rng, index, bound);
            let product = schoolbook::mul_asym(&case.public, &case.secret);
            vectors.push(obj(vec![
                ("bound", Value::Int(i64::from(bound))),
                ("kind", s(case.kind.label())),
                (
                    "public",
                    s(hex::encode(&packing::poly_to_bytes(&case.public))),
                ),
                ("secret", s(hex::encode(&case.secret.to_nibbles()))),
                ("product", s(hex::encode(&packing::poly_to_bytes(&product)))),
            ]));
        }
    }
    obj(vec![
        ("name", s("ring_mul")),
        (
            "source",
            s("saber-verify gen-kats (schoolbook oracle, frozen)"),
        ),
        ("vectors", Value::Array(vectors)),
    ])
}

/// Replays the ring-multiplication vectors.
///
/// # Errors
///
/// Returns the first mismatching vector's description.
pub fn verify_ring(doc: &Value) -> Result<usize, String> {
    let vectors = vectors_of(doc, "ring_mul")?;
    for (i, vector) in vectors.iter().enumerate() {
        let public = hex_field(vector, "public")?;
        if public.len() != POLY_Q_BYTES {
            return Err(format!("vector {i}: public is not {POLY_Q_BYTES} bytes"));
        }
        let public: PolyQ = packing::poly_from_bytes(&public);
        let nibbles: [u8; N] = hex_field(vector, "secret")?
            .try_into()
            .map_err(|_| format!("vector {i}: secret is not {N} nibbles"))?;
        let secret =
            SecretPoly::from_nibbles(&nibbles).map_err(|e| format!("vector {i}: {e:?}"))?;
        let expected = hex_field(vector, "product")?;
        let got = packing::poly_to_bytes(&schoolbook::mul_asym(&public, &secret));
        if got != expected {
            return Err(format!(
                "ring vector {i} ({}) product mismatch",
                vector.str_field("kind").unwrap_or("?")
            ));
        }
    }
    Ok(vectors.len())
}

// --- keccak --------------------------------------------------------------

/// Replays the hashlib-derived keccak vectors.
///
/// # Errors
///
/// Returns the first mismatching vector's description.
pub fn verify_keccak(doc: &Value) -> Result<usize, String> {
    let vectors = vectors_of(doc, "keccak")?;
    for (i, vector) in vectors.iter().enumerate() {
        let alg = vector.str_field("alg")?;
        let msg = hex_field(vector, "msg")?;
        let expected = hex_field(vector, "digest")?;
        let got: Vec<u8> = match alg {
            "sha3-256" => Sha3_256::digest(&msg).to_vec(),
            "sha3-512" => Sha3_512::digest(&msg).to_vec(),
            "shake128" => Shake128::xof(&msg, expected.len()),
            "shake256" => Shake256::xof(&msg, expected.len()),
            other => return Err(format!("keccak vector {i}: unknown alg {other:?}")),
        };
        if got != expected {
            return Err(format!(
                "keccak vector {i} ({alg}, {} bytes) mismatch",
                msg.len()
            ));
        }
    }
    Ok(vectors.len())
}

// --- PKE -----------------------------------------------------------------

/// Generates the IND-CPA vectors: one deterministic
/// keygen/encrypt/decrypt transcript per parameter set.
#[must_use]
pub fn gen_pke() -> Value {
    let mut rng = Rng::new(KAT_SEED ^ 0x0050_4B45); // "PKE"
    let mut backend = SchoolbookMultiplier;
    let mut vectors = Vec::new();
    for params in &ALL_PARAMS {
        let seed_a = rng.bytes32();
        let seed_s = rng.bytes32();
        let msg = rng.bytes32();
        let coins = rng.bytes32();
        let (pk, sk) = saber_kem::pke::keygen(params, seed_a, &seed_s, &mut backend);
        let ct = saber_kem::pke::encrypt(&pk, &msg, &coins, &mut backend);
        assert_eq!(
            saber_kem::pke::decrypt(&sk, &ct, &mut backend),
            msg,
            "generator self-check: decrypt must invert encrypt"
        );
        vectors.push(obj(vec![
            ("set", s(params.name)),
            ("seed_a", s(hex::encode(&seed_a))),
            ("seed_s", s(hex::encode(&seed_s))),
            ("msg", s(hex::encode(&msg))),
            ("coins", s(hex::encode(&coins))),
            ("pk", s(hex::encode(&serialize::public_key_to_bytes(&pk)))),
            (
                "ct",
                s(hex::encode(&serialize::ciphertext_to_bytes(&ct, params))),
            ),
        ]));
    }
    obj(vec![
        ("name", s("pke")),
        (
            "source",
            s("saber-verify gen-kats (schoolbook backend, frozen)"),
        ),
        ("vectors", Value::Array(vectors)),
    ])
}

/// Replays the IND-CPA vectors: regenerates keys from the stored seeds,
/// re-encrypts, and decrypts the stored ciphertext.
///
/// # Errors
///
/// Returns the first mismatching vector's description.
pub fn verify_pke(doc: &Value) -> Result<usize, String> {
    let vectors = vectors_of(doc, "pke")?;
    let mut backend = SchoolbookMultiplier;
    for (i, vector) in vectors.iter().enumerate() {
        let set = vector.str_field("set")?;
        let params = ALL_PARAMS
            .iter()
            .find(|p| p.name == set)
            .ok_or_else(|| format!("pke vector {i}: unknown set {set:?}"))?;
        let to32 = |key: &str| -> Result<[u8; 32], String> {
            hex_field(vector, key)?
                .try_into()
                .map_err(|_| format!("pke vector {i}: {key} is not 32 bytes"))
        };
        let (seed_a, seed_s, msg, coins) = (
            to32("seed_a")?,
            to32("seed_s")?,
            to32("msg")?,
            to32("coins")?,
        );
        let (pk, sk) = saber_kem::pke::keygen(params, seed_a, &seed_s, &mut backend);
        if serialize::public_key_to_bytes(&pk) != hex_field(vector, "pk")? {
            return Err(format!("pke vector {i} ({set}): public key drifted"));
        }
        let ct = saber_kem::pke::encrypt(&pk, &msg, &coins, &mut backend);
        let ct_bytes = serialize::ciphertext_to_bytes(&ct, params);
        if ct_bytes != hex_field(vector, "ct")? {
            return Err(format!("pke vector {i} ({set}): ciphertext drifted"));
        }
        let ct_decoded = serialize::ciphertext_from_bytes(&ct_bytes, params)
            .map_err(|e| format!("pke vector {i} ({set}): {e:?}"))?;
        if saber_kem::pke::decrypt(&sk, &ct_decoded, &mut backend) != msg {
            return Err(format!("pke vector {i} ({set}): decryption mismatch"));
        }
    }
    Ok(vectors.len())
}

// --- KEM -----------------------------------------------------------------

/// Generates the full KEM round-trip vectors: two transcripts per
/// parameter set (keygen seed + encapsulation entropy → serialized
/// keys, ciphertext and shared secret).
#[must_use]
pub fn gen_kem() -> Value {
    let mut rng = Rng::new(KAT_SEED ^ 0x004B_454D); // "KEM"
    let mut backend = SchoolbookMultiplier;
    let mut vectors = Vec::new();
    for params in &ALL_PARAMS {
        for _ in 0..2 {
            let keygen_seed = rng.bytes32();
            let entropy = rng.bytes32();
            let (pk, sk) = kem::keygen(params, &keygen_seed, &mut backend);
            let (ct, ss) = kem::encaps(&pk, &entropy, &mut backend);
            assert_eq!(
                kem::decaps(&sk, &ct, &mut backend).as_bytes(),
                ss.as_bytes(),
                "generator self-check: decaps must agree with encaps"
            );
            vectors.push(obj(vec![
                ("set", s(params.name)),
                ("keygen_seed", s(hex::encode(&keygen_seed))),
                ("entropy", s(hex::encode(&entropy))),
                ("pk", s(hex::encode(&serialize::public_key_to_bytes(&pk)))),
                ("sk", s(hex::encode(&serialize::secret_key_to_bytes(&sk)))),
                (
                    "ct",
                    s(hex::encode(&serialize::ciphertext_to_bytes(&ct, params))),
                ),
                ("ss", s(hex::encode(ss.as_bytes()))),
            ]));
        }
    }
    obj(vec![
        ("name", s("kem_roundtrip")),
        (
            "source",
            s("saber-verify gen-kats (schoolbook backend, frozen)"),
        ),
        ("vectors", Value::Array(vectors)),
    ])
}

/// Replays the KEM vectors: regenerates the key pair, checks both
/// serializations, re-encapsulates, and decapsulates through a secret
/// key deserialized from the stored bytes.
///
/// # Errors
///
/// Returns the first mismatching vector's description.
pub fn verify_kem(doc: &Value) -> Result<usize, String> {
    let vectors = vectors_of(doc, "kem_roundtrip")?;
    let mut backend = SchoolbookMultiplier;
    for (i, vector) in vectors.iter().enumerate() {
        let set = vector.str_field("set")?;
        let params = ALL_PARAMS
            .iter()
            .find(|p| p.name == set)
            .ok_or_else(|| format!("kem vector {i}: unknown set {set:?}"))?;
        let to32 = |key: &str| -> Result<[u8; 32], String> {
            hex_field(vector, key)?
                .try_into()
                .map_err(|_| format!("kem vector {i}: {key} is not 32 bytes"))
        };
        let (pk, sk) = kem::keygen(params, &to32("keygen_seed")?, &mut backend);
        if serialize::public_key_to_bytes(&pk) != hex_field(vector, "pk")? {
            return Err(format!("kem vector {i} ({set}): public key drifted"));
        }
        let sk_bytes = serialize::secret_key_to_bytes(&sk);
        if sk_bytes != hex_field(vector, "sk")? {
            return Err(format!("kem vector {i} ({set}): secret key drifted"));
        }
        let (ct, ss) = kem::encaps(&pk, &to32("entropy")?, &mut backend);
        if serialize::ciphertext_to_bytes(&ct, params) != hex_field(vector, "ct")? {
            return Err(format!("kem vector {i} ({set}): ciphertext drifted"));
        }
        if ss.as_bytes().as_slice() != hex_field(vector, "ss")? {
            return Err(format!("kem vector {i} ({set}): shared secret drifted"));
        }
        // Decapsulate through the frozen serialized secret key, so the
        // vector also pins the secret-key byte framing end to end.
        let sk_decoded = serialize::secret_key_from_bytes(&sk_bytes, params)
            .map_err(|e| format!("kem vector {i} ({set}): {e:?}"))?;
        if kem::decaps(&sk_decoded, &ct, &mut backend).as_bytes() != ss.as_bytes() {
            return Err(format!("kem vector {i} ({set}): decapsulation mismatch"));
        }
    }
    Ok(vectors.len())
}

// --- cycle totals --------------------------------------------------------

/// Every cycle model the workspace quotes against the paper, with the
/// DAC 2021 Table-style totals the frozen file is expected to pin:
/// `(model, compute cycles, total cycles)`.
///
/// These constants are *documentation*, asserted by [`gen_cycles`] as a
/// self-check — the KAT file itself is produced by running the live
/// models, so a silent drift in any model shows up as a generator
/// failure, not a quietly regenerated file.
pub const CYCLE_MODELS: [(&str, u64, u64); 9] = [
    // Baseline [10] and HS-I at 256 MACs: N·N/256 = 256 compute cycles,
    // 341 with the 17 + 14 + 54 load/drain overhead.
    ("baseline-256", 256, 341),
    ("hs1-256", 256, 341),
    // The 512-MAC high-speed variants halve compute: 128 + 85 = 213.
    ("baseline-512", 128, 213),
    ("hs1-512", 128, 213),
    // HS-II DSP-packed: 131 cycles on one bank, 67 on two.
    ("hs2-128", 131, 216),
    ("hs2-256", 67, 152),
    // Lightweight 4-MAC: 16 384 compute, 18 928 with BRAM traffic.
    ("lw-4", 16_384, 18_928),
    // Keccak-f[1600] core: one round per cycle.
    ("keccak-permutation", 24, 24),
    // SHAKE-128 of a 32-byte seed into 416 bytes: 3 permutations plus
    // 73 one-word bus transfers (21 absorbed, 52 squeezed reads).
    ("keccak-shake128-416", 72, 145),
];

/// Deterministic operands for the cycle measurements. Totals are
/// data-independent (the gate below would catch a model whose timing
/// became data-dependent), so one fixed pair suffices.
fn cycle_operands() -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| ((i as u16).wrapping_mul(0x1359) ^ 0x0a5a) & 0x1fff),
        SecretPoly::from_fn(|i| (((i as u32 * 7 + 3) % 9) as i8) - 4),
    )
}

/// One multiplication on `hw`, measured by its own Table-1 report.
fn multiply_cycles(mut hw: impl HwMultiplier, a: &PolyQ, s: &SecretPoly) -> CycleReport {
    let _ = hw.multiply(a, s);
    hw.report().cycles
}

/// Runs the named cycle model to completion and returns
/// `(compute cycles, total cycles)` from its own [`CycleReport`].
///
/// # Errors
///
/// Returns a message for an unknown model name.
pub fn measured_cycles(model: &str) -> Result<(u64, u64), String> {
    let (a, s) = cycle_operands();
    let report = match model {
        "baseline-256" => multiply_cycles(BaselineMultiplier::new(256), &a, &s),
        "hs1-256" => multiply_cycles(CentralizedMultiplier::new(256), &a, &s),
        "baseline-512" => multiply_cycles(BaselineMultiplier::new(512), &a, &s),
        "hs1-512" => multiply_cycles(CentralizedMultiplier::new(512), &a, &s),
        "hs2-128" => multiply_cycles(DspPackedMultiplier::with_dsps(128), &a, &s),
        "hs2-256" => multiply_cycles(DspPackedMultiplier::with_dsps(256), &a, &s),
        "lw-4" => multiply_cycles(LightweightMultiplier::new(), &a, &s),
        "keccak-permutation" => {
            let mut core = KeccakCore::new();
            core.start_permutation();
            let rounds = core.run_to_completion();
            CycleReport {
                compute_cycles: rounds,
                memory_overhead_cycles: 0,
            }
        }
        "keccak-shake128-416" => {
            let mut core = KeccakCore::new();
            core.start_permutation();
            core.run_to_completion();
            let permutation_cycles = core.cycles();
            let (_, total) = sponge_on_core(&[0x5a; 32], 416, 168, 0x1f);
            // 416 bytes at rate 168 needs 3 permutations; the rest of
            // the cycles are one-word bus transfers.
            CycleReport {
                compute_cycles: 3 * permutation_cycles,
                memory_overhead_cycles: total - 3 * permutation_cycles,
            }
        }
        other => return Err(format!("unknown cycle model {other:?}")),
    };
    Ok((report.compute_cycles, report.total()))
}

/// Generates the cycle-total vectors by running every live model.
///
/// # Panics
///
/// Panics if any live model disagrees with the paper-reconciled
/// [`CYCLE_MODELS`] constants — regeneration must never launder a
/// timing regression into the frozen file.
#[must_use]
pub fn gen_cycles() -> Value {
    let vectors = CYCLE_MODELS
        .iter()
        .map(|&(model, compute, total)| {
            let (measured_compute, measured_total) =
                measured_cycles(model).expect("CYCLE_MODELS names are exhaustive");
            assert_eq!(
                (measured_compute, measured_total),
                (compute, total),
                "generator self-check: {model} drifted from its paper-reconciled total"
            );
            obj(vec![
                ("model", s(model)),
                ("compute_cycles", Value::Int(compute as i64)),
                ("total_cycles", Value::Int(total as i64)),
            ])
        })
        .collect();
    obj(vec![
        ("name", s("cycle_totals")),
        (
            "source",
            s("saber-verify gen-kats (live cycle models, reconciled with DAC 2021 tables)"),
        ),
        ("vectors", Value::Array(vectors)),
    ])
}

/// Replays the cycle-total vectors: re-runs every model live and
/// compares both counts against the frozen file.
///
/// # Errors
///
/// Returns the first mismatching model with both cycle pairs.
pub fn verify_cycles(doc: &Value) -> Result<usize, String> {
    let vectors = vectors_of(doc, "cycle_totals")?;
    for (i, vector) in vectors.iter().enumerate() {
        let model = vector.str_field("model")?;
        let frozen_compute = vector.int_field("compute_cycles")?;
        let frozen_total = vector.int_field("total_cycles")?;
        let (compute, total) =
            measured_cycles(model).map_err(|e| format!("cycle vector {i}: {e}"))?;
        if (compute as i64, total as i64) != (frozen_compute, frozen_total) {
            return Err(format!(
                "cycle vector {i} ({model}): measured {compute}+{} = {total}, \
                 frozen file says {frozen_compute} compute / {frozen_total} total",
                total - compute
            ));
        }
    }
    Ok(vectors.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ring_vectors_replay() {
        let doc = gen_ring();
        assert_eq!(verify_ring(&doc).unwrap(), 12);
    }

    #[test]
    fn generation_is_deterministic() {
        use saber_testkit::json::write;
        assert_eq!(write(&gen_ring()), write(&gen_ring()));
        assert_eq!(write(&gen_kem()), write(&gen_kem()));
        assert_eq!(write(&gen_cycles()), write(&gen_cycles()));
    }

    #[test]
    fn generated_cycle_vectors_replay() {
        let doc = gen_cycles();
        assert_eq!(verify_cycles(&doc).unwrap(), CYCLE_MODELS.len());
    }

    #[test]
    fn cycle_verification_rejects_a_drifted_total() {
        let mut doc = gen_cycles();
        if let Value::Object(entries) = &mut doc {
            if let Some((_, Value::Array(vectors))) =
                entries.iter_mut().find(|(k, _)| k == "vectors")
            {
                if let Value::Object(fields) = &mut vectors[0] {
                    for (k, v) in fields.iter_mut() {
                        if k == "total_cycles" {
                            *v = Value::Int(342);
                        }
                    }
                }
            }
        }
        assert!(verify_cycles(&doc).unwrap_err().contains("baseline-256"));
    }

    #[test]
    fn verification_rejects_a_corrupted_vector() {
        let mut doc = gen_ring();
        if let Value::Object(entries) = &mut doc {
            if let Some((_, Value::Array(vectors))) =
                entries.iter_mut().find(|(k, _)| k == "vectors")
            {
                if let Value::Object(fields) = &mut vectors[0] {
                    for (k, v) in fields.iter_mut() {
                        if k == "product" {
                            *v = Value::Str("00".repeat(416));
                        }
                    }
                }
            }
        }
        assert!(verify_ring(&doc).unwrap_err().contains("vector 0"));
    }

    #[test]
    fn empty_vector_lists_fail_loudly() {
        let doc = obj(vec![("vectors", Value::Array(vec![]))]);
        assert!(verify_ring(&doc).unwrap_err().contains("empty"));
    }
}
