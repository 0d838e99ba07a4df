//! `saber-timing`: a dudect-style statistical timing-leakage detector
//! for the hot-path multiplier and the full KEM.
//!
//! The workspace models the paper's *power* side channel
//! (`saber-core::leakage`); this crate gives the *timing* side channel
//! the same first-class treatment, as a test subsystem. The method is
//! dudect (Reparaz, Balasch, Verbauwhede, DATE 2017) — leakage
//! detection, not proof:
//!
//! 1. **Two classes of secret input**: a fixed secret vs a fresh random
//!    secret per sample, with all public inputs randomized in both
//!    classes ([`targets`]).
//! 2. **Interleaved measurement**: the class of each sample is drawn
//!    per-sample from a seeded generator, so slow environmental drift
//!    hits both classes equally ([`harness::detect`]).
//! 3. **Percentile cropping**: the heavy right tail of wall-clock noise
//!    is cut at a class-blind pooled percentile ([`stats::crop_cutoff`]).
//! 4. **Welch's t-test**: if the two classes' cropped timing
//!    distributions have distinguishable means, timing depends on the
//!    secret ([`stats::welch_t`]).
//!
//! Time is read through `saber_trace::clock::Clock`, so the entire
//! statistics pipeline is testable with scripted fake clocks — the
//! harness's own test suite drives a virtual-time target through
//! [`harness::detect`] and asserts verdicts exactly.
//!
//! The gate (`crates/timing/tests/timing_gate.rs`): the constant-time
//! engine `saber_ring::ct::CtSchoolbookMultiplier` must **pass**
//! (|t| under the threshold), and the two planted positive controls in
//! `saber_core::fault::TimingFault` — bit-exact multipliers with
//! secret-dependent timing — must be **flagged** within the sample
//! budget. A detector that has never caught a planted leak proves
//! nothing by passing.
//!
//! Reproducibility: every run derives from one seed,
//! [`DEFAULT_TIMING_SEED`], at a budget fixed per build profile
//! ([`TimingConfig::standard`]).
//!
//! # Example
//!
//! ```
//! use saber_timing::{detect, MulTarget, TimingConfig, Verdict};
//! use saber_trace::MonotonicClock;
//!
//! let mut cfg = TimingConfig::with_samples(64); // doc-sized budget
//! cfg.min_kept = usize::MAX;                    // force Inconclusive
//! let mut target = MulTarget::ct();
//! let report = detect(&mut target, &cfg, &mut MonotonicClock);
//! assert_eq!(report.verdict, Verdict::Inconclusive);
//! assert_eq!(report.samples_collected, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod stats;
pub mod targets;

pub use harness::{
    analyze, detect, Analysis, Class, LeakReport, TimingConfig, TimingTarget, Verdict,
    DEFAULT_TIMING_SEED,
};
pub use stats::{crop_cutoff, welch_t, Welford};
pub use targets::{DecapsTarget, EncapsTarget, MulTarget, SamplerTarget};
