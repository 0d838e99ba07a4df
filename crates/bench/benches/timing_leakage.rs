//! **Timing leakage** — the dudect-style leakage detector
//! (`saber-timing`) run over the constant-time engine, the KEM
//! pipelines and the secret sampler built on it, and the two planted
//! timing mutants.
//!
//! Roles:
//!
//! - `negative-control`: the constant-time scan, the KEM built on it,
//!   and `gen_secret` must show |t| under the gate threshold.
//! - `positive-control`: the `saber_core::fault::TimingFault` mutants —
//!   bit-exact products with secret-dependent timing that the detector
//!   must flag, or a passing gate proves nothing.
//!
//! Emits `BENCH_timing.json` via
//! [`TimingReport`](saber_bench::tables::TimingReport).

use saber_bench::tables::TimingReport;
use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_kem::params::LIGHT_SABER;
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
    println!("\n=== Timing leakage: fixed-vs-random on the ct engine and its controls ===\n");
    let cfg = TimingConfig::standard();
    println!(
        "budget {} samples, |t| gate {}, seed {:#x}\n",
        cfg.samples, cfg.threshold, cfg.seed
    );

    let mut report = TimingReport::default();

    let mut target = MulTarget::ct();
    let run = detect(&mut target, &cfg, &mut MonotonicClock);
    record(&mut report, "mul/ct", "negative-control", &run);

    // Full KEM pipelines on the ct engine (quarter budget: one decaps
    // is ~20 multiplies plus hashing).
    let mut kem_cfg = TimingConfig {
        min_leak_samples: (cfg.samples / 8).clamp(32, cfg.samples.max(1)),
        min_kept: cfg.samples / 8,
        ..cfg
    };
    kem_cfg.samples /= 4;
    let mut rng = Rng::new(cfg.seed ^ 0xDECA);
    let mut decaps = DecapsTarget::new(&LIGHT_SABER, 8, &mut rng);
    let run = detect(&mut decaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/decaps-ct", "negative-control", &run);
    let mut rng = Rng::new(cfg.seed ^ 0xE9CA);
    let mut encaps = EncapsTarget::new(&LIGHT_SABER, &mut rng);
    let run = detect(&mut encaps, &kem_cfg, &mut MonotonicClock);
    record(&mut report, "kem/encaps-ct", "negative-control", &run);

    // The secret sampler at four times the multiply budget, as in the
    // timing gate.
    let sampler_cfg = TimingConfig::with_samples(4 * cfg.samples);
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
            TimingFault::CtSignBranch => "mutant/ct-sign-branch",
        };
        record(&mut report, label, "positive-control", &run);
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
}
