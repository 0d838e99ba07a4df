//! **Engine derby** — every hot-path engine raced head to head on
//! identical batched workloads.
//!
//! For every parameter set (LightSaber / Saber / FireSaber) and every
//! batch size in {1, 4, 16, 64}, each engine in [`EngineKind::ALL`]
//! multiplies the same `B` public polynomials against one shared
//! secret through its `multiply_batch` path — the shape where the
//! batched engines amortize their per-secret precomputation (bucket
//! builds, Toom evaluation points, forward NTT of `s`) across the
//! batch. The KEM's mat-vec and inner products do not produce it:
//! they make one `inner_product` call per output, over pairs that hold
//! different secrets.
//!
//! Emits `BENCH_derby.json` via
//! [`DerbyReport`](saber_bench::tables::DerbyReport): per-cell
//! winners and every engine's speedup against the `cached` baseline —
//! the numbers the README "Engines" table quotes. Also runs the
//! startup auto-tuner once and prints its per-candidate timings, so a
//! derby run shows what `SABER_ENGINE=auto` would have picked on this
//! host.

use saber_bench::microbench::{black_box, Criterion};
use saber_bench::tables::DerbyReport;
use saber_kem::params::ALL_PARAMS;
use saber_ring::{autotune, EngineKind, PolyQ, SecretPoly};

/// Batch sizes raced, from the single-product degenerate case (no
/// amortization possible) to a full 64-product burst.
const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Seed for the workload stream (distinct from the auto-tuner's so the
/// derby is not measuring the calibration workload itself).
const SEED: u64 = 0x5ABE_DE4B;

/// xorshift64* — the same generator the auto-tuner uses.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn workload(bound: i8, batch: usize, state: &mut u64) -> (Vec<PolyQ>, SecretPoly) {
    let publics = (0..batch)
        .map(|_| PolyQ::from_fn(|_| (next(state) & 0x1fff) as u16))
        .collect();
    let span = u64::from(2 * bound as u8 + 1);
    let secret = SecretPoly::from_fn(|_| ((next(state) % span) as i8) - bound);
    (publics, secret)
}

fn main() {
    println!("\n=== Engine derby: cached vs swar vs toom vs ntt vs ct, batched hot path ===\n");

    let mut criterion = Criterion::default().configure_from_args();
    let mut report = DerbyReport::default();

    for params in &ALL_PARAMS {
        let mut state = SEED | 1;
        let mut group = criterion.benchmark_group(format!("engine_derby/{}", params.name));
        for batch in BATCHES {
            let (publics, secret) = workload(params.secret_bound(), batch, &mut state);
            let ops: Vec<(&PolyQ, &SecretPoly)> =
                publics.iter().map(|p| (p, &secret)).collect();
            for kind in EngineKind::ALL {
                group.bench_function(format!("{}_b{batch}", kind.label()), |b| {
                    let mut shard = kind.build();
                    b.iter(|| black_box(shard.multiply_batch(black_box(&ops))));
                });
            }
        }
        group.finish();
        // Harvest this set's cells: ids look like
        // `engine_derby/Saber/toom_b16`; per-batch-call means divide
        // down to per-product so cells compare across batch sizes.
        for (id, m) in criterion.results() {
            let Some(rest) = id.strip_prefix(&format!("engine_derby/{}/", params.name)) else {
                continue;
            };
            for kind in EngineKind::ALL {
                for batch in BATCHES {
                    if rest == format!("{}_b{batch}", kind.label()) {
                        let per_product = m.mean.as_nanos() as f64 / batch as f64;
                        report.push(params.name, batch, kind.label(), per_product);
                    }
                }
            }
        }
    }

    println!("\n{}", report.format_text());

    // What would SABER_ENGINE=auto have picked here? Run the startup
    // calibration once and show its per-candidate totals.
    let calibration = autotune::calibrate();
    println!("auto-tuner verdict: {}", calibration.chosen.label());
    for sample in &calibration.samples {
        println!(
            "  {:<8} {:>12} ns total on the calibration workload",
            sample.engine.label(),
            sample.total_nanos
        );
    }

    let json = report.to_json();
    let path = "BENCH_derby.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }

    criterion.final_summary();
}
