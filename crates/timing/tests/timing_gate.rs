//! The timing-leakage gate.
//!
//! Two halves, and both matter:
//!
//! - **Negative control**: the engine that ships (the constant-time
//!   `saber_ring::ct::CtSchoolbookMultiplier`) must show |t| under the
//!   threshold on fixed-vs-random secret classes — for the raw
//!   multiply, for the secret sampler, and for the full KEM pipelines
//!   built on them. The engine runs the AVX2 copy of its kernel where
//!   the host has it, so the raw multiply is also gated on the portable
//!   copy, through `PortableCt`.
//! - **Positive controls**: the two planted timing mutants
//!   (`saber_core::fault::TimingFault`) compute bit-exact products with
//!   secret-dependent timing; the detector must flag both within the
//!   sample budget. A leakage gate that has never caught a planted leak
//!   proves nothing by passing.
//!
//! Every test runs at [`TimingConfig::standard`]'s budget (400 samples
//! in debug, 2,000 in release) from its one seed, so a failure reruns
//! with the identical measurement schedule.

use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_ring::{ct, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;
use saber_timing::{
    detect, DecapsTarget, EncapsTarget, MulTarget, SamplerTarget, TimingConfig, Verdict,
};
use saber_trace::MonotonicClock;

/// The portable copy of the ct kernel as a backend.
struct PortableCt;

impl PolyMultiplier for PortableCt {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        ct::portable::inner_product(&[(public, secret)])
    }

    fn inner_product(&mut self, pairs: &[(&PolyQ, &SecretPoly)]) -> PolyQ {
        ct::portable::inner_product(pairs)
    }

    fn name(&self) -> &str {
        "ct portable kernel"
    }
}

#[test]
fn ct_engine_is_timing_clean_on_fixed_vs_random_secrets() {
    let cfg = TimingConfig::standard();
    let mut target = MulTarget::ct();
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "constant-time engine failed the leakage gate: {report}"
    );
}

#[test]
fn portable_ct_kernel_is_timing_clean_on_fixed_vs_random_secrets() {
    let cfg = TimingConfig::standard();
    let mut target = MulTarget::from_backend(Box::new(PortableCt), 5);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "portable ct kernel failed the leakage gate: {report}"
    );
}

#[test]
fn ct_scan_early_exit_mutant_is_flagged_within_budget() {
    let cfg = TimingConfig::standard();
    let mutant = TimingLeakMultiplier::new(TimingFault::CtScanEarlyExit);
    let mut target = MulTarget::from_backend(Box::new(mutant), 5);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert!(
        report.is_leak(),
        "planted early-exit leak went undetected: {report}"
    );
    assert!(report.samples_collected <= cfg.samples);
}

#[test]
fn ct_sign_branch_mutant_is_flagged_within_budget() {
    let cfg = TimingConfig::standard();
    let mutant = TimingLeakMultiplier::new(TimingFault::CtSignBranch);
    let mut target = MulTarget::from_backend(Box::new(mutant), 5);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert!(
        report.is_leak(),
        "planted sign-branch leak went undetected: {report}"
    );
    assert!(report.samples_collected <= cfg.samples);
}

#[test]
fn kem_decaps_on_the_ct_engine_is_timing_clean() {
    // Full decapsulations are ~20 multiplies plus hashing, so a quarter
    // of the multiply budget keeps the wall-clock comparable.
    let mut cfg = TimingConfig::standard();
    cfg = TimingConfig {
        min_leak_samples: (cfg.samples / 8).clamp(32, cfg.samples.max(1)),
        min_kept: cfg.samples / 8,
        ..cfg
    };
    cfg.samples /= 4;
    let mut rng = Rng::new(cfg.seed ^ 0xDECA);
    let mut target = DecapsTarget::new(&saber_kem::LIGHT_SABER, 8, &mut rng);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "ct-engine decaps failed the leakage gate: {report}"
    );
}

#[test]
fn kem_encaps_on_the_ct_engine_is_timing_clean() {
    let mut cfg = TimingConfig::standard();
    cfg = TimingConfig {
        min_leak_samples: (cfg.samples / 8).clamp(32, cfg.samples.max(1)),
        min_kept: cfg.samples / 8,
        ..cfg
    };
    cfg.samples /= 4;
    let mut rng = Rng::new(cfg.seed ^ 0xE9CA);
    let mut target = EncapsTarget::new(&saber_kem::LIGHT_SABER, &mut rng);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "ct-engine encaps failed the leakage gate: {report}"
    );
}

#[test]
fn secret_sampler_is_timing_clean_on_fixed_vs_random_seeds() {
    // A per-coefficient sign branch in the range check made fresh
    // secrets about 2 µs slower than a repeated one and was flagged
    // within 512–1,408 samples. Four times the multiply budget keeps a
    // wide margin over that, and one expansion costs only microseconds.
    let cfg = TimingConfig::with_samples(4 * TimingConfig::standard().samples);
    let mut rng = Rng::new(cfg.seed ^ 0x5A3B);
    let mut target = SamplerTarget::new(&saber_kem::LIGHT_SABER, &mut rng);
    let report = detect(&mut target, &cfg, &mut MonotonicClock);
    assert_eq!(
        report.verdict,
        Verdict::Pass,
        "secret sampler failed the leakage gate: {report}"
    );
}
