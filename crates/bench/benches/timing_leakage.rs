//! **Timing derby** — the dudect-style leakage detector
//! (`saber-timing`) run over every hot-path engine, the KEM pipelines
//! on the constant-time engine, and the two planted timing mutants,
//! plus the ct engine's throughput cost against the cached baseline.
//!
//! Roles:
//!
//! - `negative-control`: `SABER_ENGINE=ct` targets and the secret
//!   sampler — the constant-time scan, the KEM built on it, and
//!   `gen_secret` must show |t| under the gate threshold.
//! - `positive-control`: the `saber_core::fault::TimingFault` mutants —
//!   bit-exact products with secret-dependent timing that the detector
//!   must flag, or a passing gate proves nothing.
//! - `survey`: the variable-time engines (cached/swar/toom/ntt). Their
//!   t-statistics are informative — zero-skip caches and sign branches
//!   *should* light up here — and never fail the report.
//!
//! Emits `BENCH_timing.json` via
//! [`TimingReport`](saber_bench::tables::TimingReport); the README
//! "Constant time" section quotes its overhead number.

use saber_bench::microbench::{black_box, Criterion};
use saber_bench::tables::TimingReport;
use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_kem::params::LIGHT_SABER;
use saber_ring::{EngineKind, PolyQ, SecretPoly};
use saber_testkit::Rng;
use saber_timing::{
    detect, DecapsTarget, EncapsTarget, LeakReport, MulTarget, SamplerTarget, TimingConfig, Verdict,
};
use saber_trace::MonotonicClock;

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::Leak => "leak",
        Verdict::Inconclusive => "inconclusive",
    }
}

fn record(report: &mut TimingReport, target: &str, role: &str, run: &LeakReport) {
    println!(
        "{target:<28} {role:<18} {:<14} t = {:+8.2}  ({} samples, {} cropped)",
        verdict_label(run.verdict),
        run.t_stat,
        run.samples_collected,
        run.cropped
    );
    report.push(
        target,
        role,
        verdict_label(run.verdict),
        run.t_stat,
        run.samples_collected,
        run.cropped,
    );
}

fn main() {
    println!("\n=== Timing derby: fixed-vs-random leakage per engine, ct overhead ===\n");
    let cfg = TimingConfig::from_env();
    println!(
        "budget {} samples, |t| gate {}, seed {:#x}\n",
        cfg.samples, cfg.threshold, cfg.seed
    );

    let mut report = TimingReport::default();

    // Per-engine t-statistics. Only the ct engine is a control; the
    // variable-time engines are surveyed for the table.
    for kind in EngineKind::ALL {
        let role = if kind == EngineKind::Ct {
            "negative-control"
        } else {
            "survey"
        };
        let mut target = MulTarget::engine(kind);
        let run = detect(&mut target, &cfg, &mut MonotonicClock);
        record(&mut report, &format!("mul/{}", kind.label()), role, &run);
    }

    // Full KEM pipelines on the ct engine (quarter budget: one decaps
    // is ~20 multiplies plus hashing).
    let mut kem_cfg = TimingConfig {
        min_leak_samples: (cfg.samples / 8).clamp(32, cfg.samples.max(1)),
        min_kept: cfg.samples / 8,
        ..cfg
    };
    kem_cfg.samples /= 4;
    let mut rng = Rng::new(cfg.seed ^ 0xDECA);
    let mut decaps = DecapsTarget::new(EngineKind::Ct, &LIGHT_SABER, 8, &mut rng);
    let run = detect(&mut decaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/decaps-ct", "negative-control", &run);
    let mut rng = Rng::new(cfg.seed ^ 0xE9CA);
    let mut encaps = EncapsTarget::new(EngineKind::Ct, &LIGHT_SABER, &mut rng);
    let run = detect(&mut encaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/encaps-ct", "negative-control", &run);

    // The secret sampler at four times the multiply budget, as in the
    // CI timing gate.
    let sampler_cfg = TimingConfig {
        seed: cfg.seed,
        threshold: cfg.threshold,
        crop_percentile: cfg.crop_percentile,
        ..TimingConfig::with_samples(4 * cfg.samples)
    };
    let mut rng = Rng::new(cfg.seed ^ 0x5A3B);
    let mut sampler = SamplerTarget::new(&LIGHT_SABER, &mut rng);
    let run = detect(&mut sampler, &sampler_cfg, &mut MonotonicClock);
    record(&mut report, "kem/gen-secret", "negative-control", &run);

    // Planted mutants: the detector's positive controls.
    for fault in TimingFault::ALL {
        let mutant = TimingLeakMultiplier::new(fault);
        let mut target = MulTarget::from_backend(Box::new(mutant), 5);
        let run = detect(&mut target, &cfg, &mut MonotonicClock);
        let label = match fault {
            TimingFault::CtScanEarlyExit => "mutant/ct-scan-early-exit",
            TimingFault::SwarRowSelectBranch => "mutant/swar-row-select",
        };
        record(&mut report, label, "positive-control", &run);
    }

    // Throughput cost of constant time: single-product latency, ct vs
    // the cached baseline, on a shared dense workload.
    let mut criterion = Criterion::default().configure_from_args();
    let mut state = cfg.seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let a = PolyQ::from_fn(|_| (next() & 0x1fff) as u16);
    let s = SecretPoly::from_fn(|_| ((next() % 11) as i8) - 5);
    let mut group = criterion.benchmark_group("timing_cost");
    for kind in [EngineKind::Ct, EngineKind::Cached] {
        group.bench_function(kind.label(), |b| {
            let mut shard = kind.build();
            b.iter(|| black_box(shard.multiply(black_box(&a), black_box(&s))));
        });
    }
    group.finish();
    for (id, m) in criterion.results() {
        let ns = m.mean.as_nanos() as f64;
        match id.as_str() {
            "timing_cost/ct" => report.ct_ns_per_product = ns,
            "timing_cost/cached" => report.cached_ns_per_product = ns,
            _ => {}
        }
    }

    println!("\n{}", report.format_text());
    assert!(
        report.controls_hold(),
        "timing derby controls misbehaved — see the table above"
    );

    let json = report.to_json();
    let path = "BENCH_timing.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }

    criterion.final_summary();
}
