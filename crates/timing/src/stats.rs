//! Incremental statistics for the leakage detector: Welford running
//! moments, Welch's unequal-variance t-test, and percentile cropping.
//!
//! The t-test is the dudect recipe (Reparaz, Balasch, Verbauwhede,
//! "Dude, is my code constant time?", DATE 2017): maintain per-class
//! running mean/variance with Welford's update, compute
//!
//! ```text
//!         mean_a − mean_b
//! t = ─────────────────────────
//!     √(var_a/n_a + var_b/n_b)
//! ```
//!
//! and compare |t| against a threshold. Under the null hypothesis
//! ("timing is independent of the secret class") t wanders near zero —
//! |t| > 10 over thousands of samples is overwhelming evidence of a
//! leak, while honest constant-time code stays in low single digits.
//!
//! Cropping: raw wall-clock samples have a heavy right tail (scheduler
//! preemptions, interrupts) that inflates variance and drowns real
//! differences. Dudect's fix, reproduced here, is to pool *both*
//! classes, find a percentile cutoff, and discard samples above it from
//! both classes symmetrically — the cutoff is class-blind, so cropping
//! cannot manufacture a false positive by itself.

/// Welford running mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample in (numerically stable single pass).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        #[allow(clippy::cast_precision_loss)]
        {
            self.mean += delta / self.n as f64;
        }
        self.m2 += delta * (x - self.mean);
    }

    /// Samples accumulated.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 until two samples exist).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

impl FromIterator<f64> for Welford {
    /// Accumulates every sample of the iterator, in order.
    fn from_iter<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut w = Welford::new();
        for x in samples {
            w.push(x);
        }
        w
    }
}

/// Welch's t-statistic between two accumulated classes.
///
/// Degenerate cases are pinned down so the detector never divides by
/// zero: with fewer than two samples in either class the statistic is
/// 0 (no evidence either way); with zero pooled variance it is 0 for
/// equal means and ±[`f64::INFINITY`] for unequal means (a noiseless
/// clock that *always* separates the classes is the strongest possible
/// evidence).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn welch_t(a: &Welford, b: &Welford) -> f64 {
    if a.count() < 2 || b.count() < 2 {
        return 0.0;
    }
    let num = a.mean() - b.mean();
    let denom = (a.variance() / a.count() as f64 + b.variance() / b.count() as f64).sqrt();
    if denom == 0.0 {
        if num == 0.0 {
            0.0
        } else if num > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        num / denom
    }
}

/// Class-blind percentile cutoff over the pooled sample set: returns
/// the duration at `percentile` (0 < p ≤ 1) of the sorted pool. Samples
/// **above** the cutoff are cropped; the value at the cutoff survives,
/// so `percentile = 1.0` keeps everything.
///
/// # Panics
///
/// Panics if `pool` is empty or `percentile` is outside `(0, 1]`.
#[must_use]
pub fn crop_cutoff(pool: &[u64], percentile: f64) -> u64 {
    assert!(!pool.is_empty(), "cannot crop an empty pool");
    assert!(
        percentile > 0.0 && percentile <= 1.0,
        "percentile must be in (0, 1], got {percentile}"
    );
    let mut sorted: Vec<u64> = pool.to_vec();
    sorted.sort_unstable();
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = (((sorted.len() - 1) as f64) * percentile).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_the_two_pass_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Two-pass unbiased variance: Σ(x-mean)² / (n-1) = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welch_t_on_a_known_pair() {
        // Classes {1,2,3} and {2,3,4}: means 2 and 3, variances 1 and 1,
        // t = -1 / sqrt(1/3 + 1/3) = -sqrt(3/2).
        let mut a = Welford::new();
        let mut b = Welford::new();
        for x in [1.0, 2.0, 3.0] {
            a.push(x);
        }
        for x in [2.0, 3.0, 4.0] {
            b.push(x);
        }
        let expected = -(1.5f64).sqrt();
        assert!((welch_t(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn welch_t_degenerate_cases() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        assert_eq!(welch_t(&a, &b), 0.0);
        // Zero variance, equal means → 0.
        for _ in 0..4 {
            a.push(7.0);
            b.push(7.0);
        }
        assert_eq!(welch_t(&a, &b), 0.0);
        // Zero variance, separated means → signed infinity.
        let mut c = Welford::new();
        for _ in 0..4 {
            c.push(9.0);
        }
        assert_eq!(welch_t(&c, &a), f64::INFINITY);
        assert_eq!(welch_t(&a, &c), f64::NEG_INFINITY);
    }

    #[test]
    fn crop_cutoff_is_the_requested_percentile() {
        let pool: Vec<u64> = (1..=100).collect();
        assert_eq!(crop_cutoff(&pool, 1.0), 100);
        assert_eq!(crop_cutoff(&pool, 0.9), 90); // floor((99)*0.9)=89 → value 90
        assert_eq!(crop_cutoff(&pool, 0.5), 50);
        let tiny = [42u64];
        assert_eq!(crop_cutoff(&tiny, 0.1), 42);
    }
}
