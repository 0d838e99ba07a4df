//! Per-layer metrics of the software path for the traced run: the
//! public functions of `keccak`, `ring` and `kem` timed directly on one
//! thread, on the workload's own keys, with the shipped engine, plus
//! the check that each KEM operation's children add up to it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use saber_keccak::{keccak_f1600, Sha3_256};
use saber_kem::cost::{decaps_cost, encaps_cost, keygen_cost, CostModel};
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::{SaberParams, SABER};
use saber_kem::serialize::public_key_to_bytes;
use saber_kem::{decaps, encaps, keygen, pke, Ciphertext, KemSecretKey, PublicKey};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};

use crate::kem::shipped_engine;
use crate::stats::median;
use crate::Outcome;

/// One key of a workload with an input of each kind.
pub struct Case {
    /// Parameter set of the key.
    pub params: &'static SaberParams,
    /// Key-generation seed.
    pub seed: [u8; 32],
    /// Encapsulation entropy (also used as a secret-expansion seed).
    pub entropy: [u8; 32],
    /// The public key.
    pub pk: PublicKey,
    /// The secret key.
    pub sk: KemSecretKey,
    /// A ciphertext under `pk`.
    pub ct: Ciphertext,
}

/// Median nanoseconds per call of `f(i)`, `i` cycling over `0..cases`:
/// batches of about 2 ms, repeated until `budget` is spent (five at
/// least).
pub fn per_call_ns<R>(budget: Duration, cases: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let mut batch = |reps: usize| {
        let t = Instant::now();
        for _ in 0..reps {
            for i in 0..cases {
                black_box(f(i));
            }
        }
        t.elapsed()
    };
    let first = batch(1).as_nanos().max(1);
    let reps = (2_000_000 / first).clamp(1, 100_000) as usize;
    let stop = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || (Instant::now() < stop && samples.len() < 10_000) {
        samples.push(batch(reps).as_nanos() as f64 / (reps * cases) as f64);
    }
    median(&samples)
}

/// Forwards to an engine and adds up the time spent multiplying.
struct Timed<'e> {
    inner: &'e mut dyn PolyMultiplier,
    ns: u128,
}

impl PolyMultiplier for Timed<'_> {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let t = Instant::now();
        let product = self.inner.multiply(public, secret);
        self.ns += t.elapsed().as_nanos();
        product
    }

    fn multiply_batch(&mut self, ops: &[(&PolyQ, &SecretPoly)]) -> Vec<PolyQ> {
        let t = Instant::now();
        let products = self.inner.multiply_batch(ops);
        self.ns += t.elapsed().as_nanos();
        products
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Share of KEM time spent inside the engine's multiply calls, over
/// keygen, encaps and decaps of every case.
fn mult_share(cases: &[Case], engine: &mut dyn PolyMultiplier, budget: Duration) -> f64 {
    let mut timed = Timed {
        inner: engine,
        ns: 0,
    };
    let mut total = 0u128;
    let stop = Instant::now() + budget;
    loop {
        for c in cases {
            let t = Instant::now();
            black_box(keygen(c.params, &c.seed, &mut timed));
            black_box(encaps(&c.pk, &c.entropy, &mut timed));
            black_box(decaps(&c.sk, &c.ct, &mut timed));
            total += t.elapsed().as_nanos();
        }
        if Instant::now() >= stop {
            return timed.ns as f64 / total as f64;
        }
    }
}

/// Times the software layers on `cases`, spending about `budget` per
/// metric, and prints how the KEM operations reconcile with their parts.
pub fn software(cases: &[Case], budget: Duration, out: &mut Outcome) {
    let n = cases.len();
    let mut engine = shipped_engine();
    let pks: Vec<Vec<u8>> = cases.iter().map(|c| public_key_to_bytes(&c.pk)).collect();
    let matrices: Vec<_> = cases
        .iter()
        .map(|c| gen_matrix(&c.pk.seed_a, c.params))
        .collect();
    let secrets: Vec<_> = cases
        .iter()
        .map(|c| gen_secret(&c.entropy, c.params))
        .collect();
    let wides: Vec<Vec<PolyQ>> = cases
        .iter()
        .map(|c| c.pk.b.iter().map(|b| b.embed_to::<13>()).collect())
        .collect();
    // The rank·(rank + 1) products of one encryption, as pke::encrypt
    // batches them.
    let batches: Vec<Vec<(&PolyQ, &SecretPoly)>> = (0..n)
        .map(|i| {
            let rank = cases[i].params.rank;
            let mut ops = Vec::with_capacity(rank * (rank + 1));
            for col in 0..rank {
                for row in 0..rank {
                    ops.push((matrices[i].entry(row, col), &secrets[i][col]));
                }
                ops.push((&wides[i][col], &secrets[i][col]));
            }
            ops
        })
        .collect();
    let mut state = [0u64; 25];
    for (lane, chunk) in state.iter_mut().zip(cases[0].seed.chunks(8)) {
        *lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }

    let us = |ns: f64| ns / 1e3;
    let f1600_ns = per_call_ns(budget, 1, |_| keccak_f1600(black_box(&mut state)));
    let sha3_pk = us(per_call_ns(budget, n, |i| Sha3_256::digest(&pks[i])));
    let expand_matrix = us(per_call_ns(budget, n, |i| {
        gen_matrix(&cases[i].pk.seed_a, cases[i].params)
    }));
    let expand_secret = us(per_call_ns(budget, n, |i| {
        gen_secret(&cases[i].entropy, cases[i].params)
    }));
    let encrypt = us(per_call_ns(budget, n, |i| {
        let c = &cases[i];
        pke::encrypt(&c.pk, &c.entropy, &c.seed, engine.as_mut())
    }));
    let decrypt = us(per_call_ns(budget, n, |i| {
        pke::decrypt(cases[i].sk.cpa(), &cases[i].ct, engine.as_mut())
    }));
    let kg = us(per_call_ns(budget, n, |i| {
        keygen(cases[i].params, &cases[i].seed, engine.as_mut())
    }));
    let enc = us(per_call_ns(budget, n, |i| {
        encaps(&cases[i].pk, &cases[i].entropy, engine.as_mut())
    }));
    let dec = us(per_call_ns(budget, n, |i| {
        decaps(&cases[i].sk, &cases[i].ct, engine.as_mut())
    }));
    let mul = us(per_call_ns(budget, n, |i| {
        engine.multiply(matrices[i].entry(0, 0), &secrets[i][0])
    }));
    let mul_batch = us(per_call_ns(budget, n, |i| {
        engine.multiply_batch(&batches[i])
    }));
    let matvec = us(per_call_ns(budget, n, |i| {
        matrices[i].mul_vec(&secrets[i], engine.as_mut())
    }));
    let share = mult_share(cases, engine.as_mut(), budget);

    out.metric("keccak.f1600_ns", f1600_ns, "ns");
    out.metric("keccak.sha3_pk_us", sha3_pk, "us");
    out.metric("kem.expand_matrix_us", expand_matrix, "us");
    out.metric("kem.expand_secret_us", expand_secret, "us");
    out.metric("kem.pke_encrypt_us", encrypt, "us");
    out.metric("kem.pke_decrypt_us", decrypt, "us");
    out.metric("kem.keygen_us", kg, "us");
    out.metric("kem.encaps_us", enc, "us");
    out.metric("kem.decaps_us", dec, "us");
    out.metric("kem.mult_share", share, "frac");
    out.metric("ring.mul_us", mul, "us");
    out.metric("ring.mul_batch_us", mul_batch, "us");
    out.metric("ring.matvec_us", matvec, "us");

    println!(
        "software ladder, µs per call on the {} engine over {n} keys; the parts are direct calls \
         one layer down, the rest is hashing, packing and rounding that is not timed on its own; \
         tolerance: the parts make 60-110 % of the whole (each side is a separate median)",
        engine.name()
    );
    let reconcile = |whole_name: &str, whole: f64, parts_name: &str, parts: f64| {
        let pct = 100.0 * parts / whole;
        let verdict = if (60.0..=110.0).contains(&pct) {
            "ok"
        } else {
            "OUTSIDE TOLERANCE"
        };
        println!(
            "  {whole_name:<11} {whole:>9.2} | {parts_name} = {parts:.2} ({pct:.1} %) {verdict}"
        );
    };
    reconcile(
        "kem.keygen",
        kg,
        "expand_matrix + expand_secret + matvec + sha3_pk",
        expand_matrix + expand_secret + matvec + sha3_pk,
    );
    reconcile(
        "kem.encaps",
        enc,
        "sha3_pk + pke_encrypt",
        sha3_pk + encrypt,
    );
    reconcile(
        "kem.decaps",
        dec,
        "pke_decrypt + pke_encrypt",
        decrypt + encrypt,
    );
    reconcile(
        "pke.encrypt",
        encrypt,
        "expand_matrix + expand_secret + mul_batch",
        expand_matrix + expand_secret + mul_batch,
    );
    let model = CostModel::high_speed();
    let ops = [
        keygen_cost(&SABER, &model),
        encaps_cost(&SABER, &model),
        decaps_cost(&SABER, &model),
    ];
    let total: u64 = ops.iter().map(|c| c.total()).sum();
    let modelled: f64 = ops
        .iter()
        .map(|c| c.multiplication_share() * c.total() as f64)
        .sum::<f64>()
        / total as f64;
    println!(
        "multiplication share of a KEM round trip: measured {share:.3} (host time inside the \
         engine's multiply calls) | kem::cost model {modelled:.3} (256-MAC coprocessor cycles, \
         Saber) | paper §1: up to 0.56"
    );
}
