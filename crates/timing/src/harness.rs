//! The dudect-style measurement loop: interleaved fixed-vs-random
//! sampling, windowed analysis, early exit, and a budget-floored
//! verdict.
//!
//! Protocol per sample:
//!
//! 1. draw the class (fixed or random) from the seeded generator — the
//!    *interleaved measurement order* that keeps slow drift (thermal
//!    throttling, frequency scaling) from masquerading as a class
//!    difference, since both classes sample every epoch of the run;
//! 2. let the target build its input **outside** the timed region
//!    ([`TimingTarget::prepare`]);
//! 3. read the [`Clock`], run [`TimingTarget::execute`], read again.
//!
//! After every window of samples the full set is re-analyzed
//! ([`analyze`]): pool both classes, crop above the percentile cutoff,
//! fold the survivors through per-class Welford accumulators, and take
//! Welch's t. A |t| beyond the threshold with enough samples collected
//! ends the run early with [`Verdict::Leak`]; otherwise the verdict
//! falls out at the end of the budget — [`Verdict::Inconclusive`] if
//! cropping left fewer than the configured floor of measurements (a
//! pass that never really measured is not a pass).

use saber_testkit::Rng;
use saber_trace::clock::Clock;

use crate::stats::{crop_cutoff, welch_t, Welford};

/// The two dudect measurement classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Every sample uses the same, fixed secret input.
    Fixed,
    /// Every sample draws a fresh random secret input.
    Random,
}

/// Something the detector can time: a backend plus the recipe for its
/// per-class inputs.
///
/// `prepare` runs outside the timed region — input construction
/// (drawing random secrets, cloning operands) must not pollute the
/// measurement. `execute` is the timed region; implementations should
/// pass their output through [`std::hint::black_box`] so the work is
/// not optimized away.
pub trait TimingTarget {
    /// One prepared measurement input.
    type Input;

    /// Builds the input for one sample of `class` (untimed).
    fn prepare(&mut self, class: Class, rng: &mut Rng) -> Self::Input;

    /// The timed region.
    fn execute(&mut self, input: &Self::Input);
}

/// Detector configuration. Reproducible by construction: every random
/// choice (class sequence, random-class secrets) derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Root seed for the class sequence and random-class inputs.
    pub seed: u64,
    /// Total measurement budget.
    pub samples: usize,
    /// Untimed warm-up iterations before the first measurement.
    pub warmup: usize,
    /// Samples between analysis passes (and `timing.*` counter
    /// emissions).
    pub window: usize,
    /// Class-blind pooled percentile kept by cropping, in `(0, 1]`.
    pub crop_percentile: f64,
    /// |t| gate. Generous by design: CI machines are noisy neighbors,
    /// and the planted positive controls score |t| in the hundreds while
    /// honest constant-time code stays in low single digits.
    pub threshold: f64,
    /// Minimum *collected* samples before an early leak verdict — one
    /// unlucky first window must not end the run.
    pub min_leak_samples: usize,
    /// Minimum *kept* (post-crop) measurements for a Pass to count; with
    /// fewer the verdict is [`Verdict::Inconclusive`].
    pub min_kept: usize,
}

/// Default seed for the timing harness (`0x5ABE` + "TI").
pub const DEFAULT_TIMING_SEED: u64 = 0x5ABE_7100;

impl TimingConfig {
    /// A config scaled to `samples` total measurements, with the derived
    /// floors (`min_leak_samples`, `min_kept`) kept proportionate.
    #[must_use]
    pub fn with_samples(samples: usize) -> Self {
        Self {
            seed: DEFAULT_TIMING_SEED,
            samples,
            warmup: 32,
            window: 128,
            crop_percentile: 0.9,
            threshold: 10.0,
            min_leak_samples: (samples / 4).clamp(64, 512),
            min_kept: samples / 2,
        }
    }

    /// The standard budget: 2,000 samples in release, 400 in debug
    /// (`cargo test -q` runs every gate un-optimized; the statistics
    /// stay sound at the smaller budget, the wall-clock stays bounded).
    #[must_use]
    pub fn standard() -> Self {
        Self::with_samples(if cfg!(debug_assertions) { 400 } else { 2000 })
    }
}

/// The detector's conclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// |t| stayed under the threshold across the full budget with
    /// enough kept measurements.
    Pass,
    /// |t| crossed the threshold: timing depends on the secret class.
    Leak,
    /// The budget ran out before enough measurements survived cropping
    /// — no claim either way.
    Inconclusive,
}

/// What one detector run measured.
#[derive(Debug, Clone)]
pub struct LeakReport {
    /// The conclusion.
    pub verdict: Verdict,
    /// Welch's t over the final (cropped) sample set; fixed minus
    /// random, so a *positive* sign means the fixed class ran slower.
    pub t_stat: f64,
    /// The |t| gate the run used.
    pub threshold: f64,
    /// Total timed samples collected (≤ the budget; less on early
    /// exit).
    pub samples_collected: usize,
    /// Post-crop survivors in the fixed class.
    pub kept_fixed: usize,
    /// Post-crop survivors in the random class.
    pub kept_random: usize,
    /// Samples discarded by the final crop.
    pub cropped: usize,
    /// Mean duration of kept fixed-class samples, nanoseconds.
    pub mean_fixed_ns: f64,
    /// Mean duration of kept random-class samples, nanoseconds.
    pub mean_random_ns: f64,
    /// Analysis windows run.
    pub windows: usize,
}

impl LeakReport {
    /// True if the run concluded the timing leaks.
    #[must_use]
    pub fn is_leak(&self) -> bool {
        self.verdict == Verdict::Leak
    }
}

impl std::fmt::Display for LeakReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: |t|={:.2} (gate {:.1}), {} samples ({} fixed + {} random kept, {} cropped), \
             mean fixed {:.0} ns vs random {:.0} ns over {} windows",
            self.verdict,
            self.t_stat.abs(),
            self.threshold,
            self.samples_collected,
            self.kept_fixed,
            self.kept_random,
            self.cropped,
            self.mean_fixed_ns,
            self.mean_random_ns,
            self.windows
        )
    }
}

/// One analysis pass over the collected samples (pure: no clock, no
/// target — the piece fake-clock tests pin down exactly).
#[derive(Debug, Clone, Copy)]
pub struct Analysis {
    /// Welch's t (fixed minus random) over the cropped set.
    pub t_stat: f64,
    /// Post-crop fixed-class survivors.
    pub kept_fixed: usize,
    /// Post-crop random-class survivors.
    pub kept_random: usize,
    /// Samples above the cutoff, discarded from both classes.
    pub cropped: usize,
    /// Mean kept fixed-class duration (ns).
    pub mean_fixed_ns: f64,
    /// Mean kept random-class duration (ns).
    pub mean_random_ns: f64,
}

/// Crops the pooled samples at `cfg.crop_percentile` and computes
/// Welch's t between the surviving classes.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn analyze(samples: &[(Class, u64)], cfg: &TimingConfig) -> Analysis {
    let pool: Vec<u64> = samples.iter().map(|&(_, d)| d).collect();
    let cutoff = crop_cutoff(&pool, cfg.crop_percentile);
    let mut fixed = Welford::new();
    let mut random = Welford::new();
    let mut cropped = 0usize;
    for &(class, d) in samples {
        if d > cutoff {
            cropped += 1;
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let x = d as f64;
        match class {
            Class::Fixed => fixed.push(x),
            Class::Random => random.push(x),
        }
    }
    Analysis {
        t_stat: welch_t(&fixed, &random),
        kept_fixed: usize::try_from(fixed.count()).unwrap_or(usize::MAX),
        kept_random: usize::try_from(random.count()).unwrap_or(usize::MAX),
        cropped,
        mean_fixed_ns: fixed.mean(),
        mean_random_ns: random.mean(),
    }
}

/// Runs the detector: interleaved sampling through `clock`, windowed
/// [`analyze`] passes with `timing.*` trace counters, early exit on a
/// confirmed leak, budget-floored verdict.
pub fn detect<T: TimingTarget>(
    target: &mut T,
    cfg: &TimingConfig,
    clock: &mut dyn Clock,
) -> LeakReport {
    let mut rng = Rng::new(cfg.seed);
    // Warm-up, alternating classes so both sides pay their first-touch
    // costs before measurement begins.
    for i in 0..cfg.warmup {
        let class = if i % 2 == 0 {
            Class::Fixed
        } else {
            Class::Random
        };
        let input = target.prepare(class, &mut rng);
        target.execute(&input);
    }

    let mut samples: Vec<(Class, u64)> = Vec::with_capacity(cfg.samples);
    let mut windows = 0usize;
    let mut last = None;
    while samples.len() < cfg.samples {
        let budget = cfg.window.min(cfg.samples - samples.len());
        for _ in 0..budget {
            // Interleaved order: the class of each sample is drawn
            // per-sample, not in blocks.
            let class = if rng.next_u64() & 1 == 0 {
                Class::Fixed
            } else {
                Class::Random
            };
            let input = target.prepare(class, &mut rng);
            let start = clock.now_ns();
            target.execute(&input);
            let end = clock.now_ns();
            samples.push((class, end.saturating_sub(start)));
        }
        windows += 1;
        let analysis = analyze(&samples, cfg);
        emit_window_counters(budget, &analysis);
        last = Some(analysis);
        if analysis.t_stat.abs() > cfg.threshold && samples.len() >= cfg.min_leak_samples {
            return finish(Verdict::Leak, analysis, samples.len(), windows, cfg);
        }
    }
    let analysis = last.unwrap_or_else(|| analyze(&samples, cfg));
    let verdict = if analysis.kept_fixed + analysis.kept_random < cfg.min_kept {
        Verdict::Inconclusive
    } else if analysis.t_stat.abs() > cfg.threshold {
        Verdict::Leak
    } else {
        Verdict::Pass
    };
    finish(verdict, analysis, samples.len(), windows, cfg)
}

fn emit_window_counters(collected_this_window: usize, analysis: &Analysis) {
    #[allow(clippy::cast_possible_wrap)]
    saber_trace::counter("timing", "timing.samples", collected_this_window as i64);
    #[allow(clippy::cast_possible_wrap)]
    saber_trace::counter("timing", "timing.cropped", analysis.cropped as i64);
    // Milli-t magnitude: counters are integers, and |t| keeps the lane
    // readable (the sign is in the report, not the trace).
    #[allow(clippy::cast_possible_truncation)]
    saber_trace::counter(
        "timing",
        "timing.t_stat_milli",
        (analysis.t_stat.abs() * 1000.0).min(1e15) as i64,
    );
}

fn finish(
    verdict: Verdict,
    analysis: Analysis,
    samples_collected: usize,
    windows: usize,
    cfg: &TimingConfig,
) -> LeakReport {
    LeakReport {
        verdict,
        t_stat: analysis.t_stat,
        threshold: cfg.threshold,
        samples_collected,
        kept_fixed: analysis.kept_fixed,
        kept_random: analysis.kept_random,
        cropped: analysis.cropped,
        mean_fixed_ns: analysis.mean_fixed_ns,
        mean_random_ns: analysis.mean_random_ns,
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_sane() {
        let cfg = TimingConfig::standard();
        assert!(cfg.samples >= 400);
        assert!(cfg.min_kept <= cfg.samples);
        assert!(cfg.min_leak_samples <= cfg.samples);
        assert!(cfg.crop_percentile > 0.0 && cfg.crop_percentile <= 1.0);
        assert!(cfg.threshold > 0.0);
    }

    #[test]
    fn analyze_crops_class_blind() {
        // 10 samples, crop at the 50th percentile value: the cutoff
        // comes from the pooled sort, not per-class.
        let cfg = TimingConfig {
            crop_percentile: 0.5,
            ..TimingConfig::with_samples(10)
        };
        let samples: Vec<(Class, u64)> = (1..=10u64)
            .map(|d| {
                let class = if d % 2 == 0 {
                    Class::Fixed
                } else {
                    Class::Random
                };
                (class, d)
            })
            .collect();
        let a = analyze(&samples, &cfg);
        // Sorted pool 1..=10, cutoff index floor(9*0.5)=4 → value 5:
        // keep {1..5} (3 random, 2 fixed), crop {6..10}.
        assert_eq!(a.cropped, 5);
        assert_eq!(a.kept_fixed, 2);
        assert_eq!(a.kept_random, 3);
        assert!((a.mean_fixed_ns - 3.0).abs() < 1e-12); // {2,4}
        assert!((a.mean_random_ns - 3.0).abs() < 1e-12); // {1,3,5}
    }
}
