//! Latency records and order statistics.
//!
//! Every timing the benchmark reports goes through a [`Histogram`]: a
//! log-linear bucket array (1024 linear sub-buckets per power of two,
//! so no bucket is wider than 0.1 % of the values it holds), sized once
//! at construction. Its memory does not grow with the number of samples
//! a run records, which keeps `rss_mb` independent of how fast the
//! program is.

/// Sub-bucket bits per power of two.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped just below `2^MAX_BITS` ns (about 18 minutes).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (SUB * (1 + (MAX_BITS - SUB_BITS) as u64)) as usize;

/// A fixed-size log-linear histogram of nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    let v = ns.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) - SUB;
    (SUB * (1 + u64::from(shift)) + sub) as usize
}

/// Lowest value and width of bucket `i`.
fn bucket_span(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let sub = i % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds: rank `q·(n−1)`, interpolated
    /// linearly inside the bucket that holds it; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && (below + c) as f64 > rank {
                let (low, width) = bucket_span(i);
                let within = (rank - below as f64 + 0.5) / c as f64;
                return (low + width * within).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// The `q`-quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    /// The highest of p50, p90, p99, p99.9 and p99.99 with at least ten
    /// samples above it, as `(q, samples above)`.
    pub fn deepest_tail(&self) -> (f64, u64) {
        let n = self.count as f64;
        [0.9999, 0.999, 0.99, 0.9, 0.5]
            .into_iter()
            .map(|q| (q, (n * (1.0 - q)).floor() as u64))
            .find(|&(_, above)| above >= 10)
            .unwrap_or((0.5, (n * 0.5).floor() as u64))
    }

    /// One line: sample count, p50, p90, p99 and the deepest percentile
    /// that has ten samples beyond it, each with its sample count.
    pub fn summary(&self) -> String {
        let (q, above) = self.deepest_tail();
        let n = self.count as f64;
        format!(
            "n={} p50={:.4}ms (n>={:.0} beyond) p90={:.4}ms (n>={:.0} beyond) p99={:.4}ms (n>={:.0} beyond) p{}={:.4}ms (n>={above} beyond) max={:.4}ms",
            self.count,
            self.quantile_ms(0.5),
            (n * 0.5).floor(),
            self.quantile_ms(0.9),
            (n * 0.1).floor(),
            self.quantile_ms(0.99),
            (n * 0.01).floor(),
            q * 100.0,
            self.quantile_ms(q),
            self.max as f64 / 1e6
        )
    }
}

/// The `q`-quantile of a small sample (linear interpolation between
/// closest ranks, as `numpy.quantile` does by default); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of a small sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_a_narrow_bucket_that_holds_it() {
        for v in [
            0u64,
            1,
            1023,
            1024,
            1025,
            4096,
            123_456,
            987_654_321,
            (1 << 39) + 7,
        ] {
            let (low, width) = bucket_span(index(v));
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v}: [{low}, +{width})"
            );
            assert!(
                width <= 1.0f64.max(v as f64 / 1024.0),
                "{v}: bucket {width} wide"
            );
        }
    }

    #[test]
    fn quantiles_of_known_data() {
        // 1, 2, …, 10 000 µs, recorded in descending order.
        let mut h = Histogram::default();
        for us in (1..=10_000u64).rev() {
            h.record(us * 1000);
        }
        let exact = |q: f64| (1.0 + q * 9_999.0) * 1000.0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = h.quantile_ns(q);
            assert!(
                (got - exact(q)).abs() / exact(q) < 1e-3,
                "q={q}: {got} vs {}",
                exact(q)
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.deepest_tail(), (0.999, 10));
    }

    #[test]
    fn quantiles_of_constant_data_are_the_constant() {
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(750_000);
        }
        for q in [0.0, 0.5, 0.99] {
            assert!((h.quantile_ns(q) - 750_000.0).abs() / 750_000.0 < 1e-3);
        }
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        (1..=50u64).for_each(|v| a.record(v * 1_000));
        (51..=100u64).for_each(|v| b.record(v * 1_000));
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!((50_000.0..=51_000.0).contains(&a.quantile_ns(0.5)));
    }

    #[test]
    fn small_sample_quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
    }
}
