//! Software mirror of the HS-I multiple-caching schoolbook architecture
//! (§3.1 of the paper).
//!
//! HS-I's insight is that the secret operand takes at most nine distinct
//! values (0, ±1 … ±4 for Saber; ±5 appears for LightSaber), so instead
//! of 256 general multipliers it computes the handful of multiples
//! `{0, a, 2a, 3a, 4a, 5a}` of the broadcast public coefficient once and
//! lets every MAC lane *select* its multiple. The software analogue in
//! [`CachedSchoolbookMultiplier`] transposes the same idea onto a CPU:
//!
//! 1. **Bucket decomposition** — scan the secret once and record, for each
//!    possible value `v ∈ 1..=5` and each sign, the positions where the
//!    secret equals `±v` ([`SecretBuckets`]). Zero coefficients (about one
//!    in nine under the centered binomial) vanish from the work list
//!    entirely — the software version of HS-I's free `0·a` multiple.
//! 2. **Multiple caching** — compute the rows `v·a` for the values that
//!    actually occur: at most `5 × 256` cheap scalar multiplications, the
//!    direct analogue of HS-I's shared shift-and-add block (Algorithm 2).
//! 3. **Bucket scan** — for every recorded position `j`, add (or
//!    subtract) the cached row `v·a` into a `2N`-wide integer accumulator
//!    at offset `j`. Each contribution is one contiguous 256-element
//!    slice addition with no multiplies and no branches, which the
//!    compiler auto-vectorizes; a single negacyclic fold at the end maps
//!    the wide accumulator back into the ring.
//!
//! The batch entry point ([`PolyMultiplier::multiply_batch`]) adds the
//! module-lattice dimension the paper's Table 5 exploits with its
//! secret-resident scheduling: in a rank-`l` matrix–vector product
//! presented as one batch, every secret polynomial is paired with `l`
//! different publics, so the
//! decomposition from step 1 is computed once per *secret* rather than
//! once per *product*.

use crate::modulus::N;
use crate::mul::PolyMultiplier;
use crate::poly::PolyQ;
use crate::secret::{SecretPoly, MAX_SECRET_MAGNITUDE};

/// Number of distinct nonzero secret magnitudes (1 ..= 5).
const VALUES: usize = MAX_SECRET_MAGNITUDE as usize;

/// Per-secret index buckets: the positions holding each signed value.
///
/// This is the reusable product of the decomposition pass. It borrows
/// nothing, so one decomposition can serve many multiplications — the
/// batch path computes it once per distinct secret in the batch.
///
/// # Examples
///
/// ```
/// use saber_ring::cached::SecretBuckets;
/// use saber_ring::SecretPoly;
///
/// let s = SecretPoly::from_fn(|i| match i {
///     0 => 3,
///     1 => -3,
///     _ => 0,
/// });
/// let mut buckets = SecretBuckets::default();
/// buckets.decompose(&s);
/// assert_eq!(buckets.nonzero_count(), 2);
/// assert_eq!(buckets.max_value(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SecretBuckets {
    /// `positive[v - 1]` holds the indices `j` with `s[j] == +v`.
    positive: [Vec<usize>; VALUES],
    /// `negative[v - 1]` holds the indices `j` with `s[j] == -v`.
    negative: [Vec<usize>; VALUES],
    /// Largest magnitude present (0 for the zero secret).
    max_value: usize,
}

impl SecretBuckets {
    /// Scans `secret` and (re)fills the buckets, reusing allocations.
    pub fn decompose(&mut self, secret: &SecretPoly) {
        for bucket in &mut self.positive {
            bucket.clear();
        }
        for bucket in &mut self.negative {
            bucket.clear();
        }
        self.max_value = 0;
        for (j, &c) in secret.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let v = c.unsigned_abs() as usize;
            self.max_value = self.max_value.max(v);
            if c > 0 {
                self.positive[v - 1].push(j);
            } else {
                self.negative[v - 1].push(j);
            }
        }
        saber_trace::counter("ring", "hs1.bucket_build", 1);
    }

    /// Largest magnitude present in the decomposed secret.
    #[must_use]
    pub fn max_value(&self) -> usize {
        self.max_value
    }

    /// How many nonzero coefficients the decomposed secret has — the
    /// number of slice additions the scan pass will perform.
    #[must_use]
    pub fn nonzero_count(&self) -> usize {
        self.positive.iter().chain(self.negative.iter()).map(Vec::len).sum()
    }

    /// Positions `j` where the secret equals `+value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `1..=5`.
    #[must_use]
    pub fn positions_positive(&self, value: usize) -> &[usize] {
        &self.positive[value - 1]
    }

    /// Positions `j` where the secret equals `-value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `1..=5`.
    #[must_use]
    pub fn positions_negative(&self, value: usize) -> &[usize] {
        &self.negative[value - 1]
    }
}

/// Schoolbook multiplier with HS-I-style multiple caching (see the
/// module docs for the three-pass structure).
///
/// The struct owns its accumulator and multiple-cache scratch buffers, so
/// repeated calls perform no heap allocation beyond the returned product.
///
/// # Examples
///
/// ```
/// use saber_ring::cached::CachedSchoolbookMultiplier;
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier};
/// use saber_ring::{PolyQ, SecretPoly};
///
/// let a = PolyQ::from_fn(|i| (31 * i as u16) & 0x1fff);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// let mut cached = CachedSchoolbookMultiplier::new();
/// assert_eq!(cached.multiply(&a, &s), SchoolbookMultiplier.multiply(&a, &s));
/// ```
#[derive(Debug, Clone)]
pub struct CachedSchoolbookMultiplier {
    /// Flat `VALUES × N` cache of the rows `v·a`, `v ∈ 1..=5`.
    multiples: Vec<i64>,
    /// `2N`-wide pre-fold accumulator.
    acc: Vec<i64>,
    /// Decomposition scratch for the single-product path.
    scratch: SecretBuckets,
}

impl Default for CachedSchoolbookMultiplier {
    fn default() -> Self {
        Self::new()
    }
}

impl CachedSchoolbookMultiplier {
    /// Creates a multiplier with preallocated scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            multiples: vec![0i64; VALUES * N],
            acc: vec![0i64; 2 * N],
            scratch: SecretBuckets::default(),
        }
    }

    /// Creates `n` independent multipliers, one per worker thread.
    ///
    /// Each shard owns its own multiple cache, accumulator and
    /// decomposition scratch, so a pool of shards serves concurrent
    /// multiplications with no locking and no sharing — the software
    /// analogue of replicating the paper's datapath once per compute
    /// unit (the design-space knob of §4.2). The multiplier is `Send`
    /// (enforced at compile time below), so shards can move into
    /// `std::thread` workers; the `saber-service` crate pins exactly one
    /// shard per worker.
    #[must_use]
    pub fn shard_pool(n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::new()).collect()
    }

    /// Multiplies `public` by a secret that has already been decomposed
    /// into `buckets` — the amortizable core of the batch path.
    pub fn multiply_decomposed(&mut self, public: &PolyQ, buckets: &SecretBuckets) -> PolyQ {
        self.acc.fill(0);

        // Pass 2: cache the multiples v·a that actually occur.
        for v in 1..=buckets.max_value {
            let row = &mut self.multiples[(v - 1) * N..v * N];
            for (m, &c) in row.iter_mut().zip(public.coeffs().iter()) {
                *m = v as i64 * i64::from(c);
            }
        }

        // Pass 3: bucket scan — one contiguous slice add per nonzero
        // secret coefficient, into the 2N accumulator at offset j.
        for v in 1..=buckets.max_value {
            let row = &self.multiples[(v - 1) * N..v * N];
            for &j in &buckets.positive[v - 1] {
                for (slot, &m) in self.acc[j..j + N].iter_mut().zip(row.iter()) {
                    *slot += m;
                }
            }
            for &j in &buckets.negative[v - 1] {
                for (slot, &m) in self.acc[j..j + N].iter_mut().zip(row.iter()) {
                    *slot -= m;
                }
            }
        }

        // Single negacyclic fold: x^(k) with k ≥ N carries weight −1.
        let mut folded = [0i64; N];
        for (k, out) in folded.iter_mut().enumerate() {
            *out = self.acc[k] - self.acc[k + N];
        }
        PolyQ::from_signed(&folded)
    }
}

impl PolyMultiplier for CachedSchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        // Swap the scratch decomposition out so `multiply_decomposed` can
        // borrow `self` mutably alongside it, then restore it (keeping
        // its allocations warm for the next call).
        let mut buckets = std::mem::take(&mut self.scratch);
        buckets.decompose(secret);
        let product = self.multiply_decomposed(public, &buckets);
        self.scratch = buckets;
        product
    }

    fn multiply_batch(&mut self, ops: &[(&PolyQ, &SecretPoly)]) -> Vec<PolyQ> {
        // Decompose each distinct secret exactly once. Identity is checked
        // by reference first (the mat-vec callers pass the same &SecretPoly
        // for a whole column) and by value as a fallback.
        let mut decomposed: Vec<(&SecretPoly, SecretBuckets)> = Vec::new();
        let mut out = Vec::with_capacity(ops.len());
        for &(public, secret) in ops {
            let index = match decomposed
                .iter()
                .position(|(known, _)| std::ptr::eq(*known, secret) || *known == secret)
            {
                Some(index) => {
                    saber_trace::counter("ring", "hs1.bucket_hit", 1);
                    index
                }
                None => {
                    saber_trace::counter("ring", "hs1.bucket_miss", 1);
                    let mut buckets = SecretBuckets::default();
                    buckets.decompose(secret);
                    decomposed.push((secret, buckets));
                    decomposed.len() - 1
                }
            };
            out.push(self.multiply_decomposed(public, &decomposed[index].1));
        }
        out
    }

    fn name(&self) -> &str {
        "cached-schoolbook HS-I mirror (software)"
    }
}

// Compile-time proof that multiplier state can move across threads:
// the service layer hands one shard to each worker and never shares one.
const _: () = {
    const fn assert_send<T: Send + 'static>() {}
    assert_send::<CachedSchoolbookMultiplier>();
    assert_send::<SecretBuckets>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;

    fn poly(seed: u16) -> PolyQ {
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) ^ (seed << 2))
    }

    fn secret(seed: i8) -> SecretPoly {
        SecretPoly::from_fn(|i| (((i as i16).wrapping_mul(seed as i16 + 3) % 11) - 5) as i8)
    }

    #[test]
    fn matches_schoolbook_oracle() {
        let mut cached = CachedSchoolbookMultiplier::new();
        for seed in [1u16, 77, 1023, 8191] {
            let a = poly(seed);
            let s = secret((seed % 7) as i8);
            assert_eq!(
                cached.multiply(&a, &s),
                schoolbook::mul_asym(&a, &s),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn zero_secret_gives_zero_product() {
        let mut cached = CachedSchoolbookMultiplier::new();
        assert_eq!(
            cached.multiply(&poly(99), &SecretPoly::zero()),
            PolyQ::zero()
        );
    }

    #[test]
    fn monomial_secrets_hit_every_offset() {
        // x^j for boundary offsets exercises the fold at both edges.
        let mut cached = CachedSchoolbookMultiplier::new();
        let a = poly(4242);
        for j in [0usize, 1, 127, 254, 255] {
            for sign in [1i8, -1] {
                let s = SecretPoly::from_fn(|k| if k == j { 5 * sign } else { 0 });
                assert_eq!(
                    cached.multiply(&a, &s),
                    schoolbook::mul_asym(&a, &s),
                    "offset {j}, sign {sign}"
                );
            }
        }
    }

    #[test]
    fn batch_reuses_decomposition_per_secret() {
        let mut cached = CachedSchoolbookMultiplier::new();
        let publics: Vec<PolyQ> = (0..6).map(|k| poly(100 + k)).collect();
        let s0 = secret(1);
        let s1 = secret(2);
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .enumerate()
            .map(|(k, a)| (a, if k % 2 == 0 { &s0 } else { &s1 }))
            .collect();
        let batched = cached.multiply_batch(&ops);
        for (k, (a, s)) in ops.iter().enumerate() {
            assert_eq!(batched[k], schoolbook::mul_asym(a, s), "pair {k}");
        }
    }

    #[test]
    fn batch_counters_record_builds_hits_and_misses() {
        let session = saber_trace::start();
        saber_trace::instant_event("test", "sentinel.cached");
        let mut cached = CachedSchoolbookMultiplier::new();
        let publics: Vec<PolyQ> = (0..6).map(|k| poly(200 + k)).collect();
        let s0 = secret(1);
        let s1 = secret(2);
        let ops: Vec<(&PolyQ, &SecretPoly)> = publics
            .iter()
            .enumerate()
            .map(|(k, a)| (a, if k % 2 == 0 { &s0 } else { &s1 }))
            .collect();
        let _ = cached.multiply_batch(&ops);
        let trace = session.finish();
        // Other tests in this binary run concurrently and may record ring
        // counters of their own while the session is live; restrict the
        // sums to events recorded by this thread.
        let tid = trace
            .events()
            .iter()
            .find(|e| e.name == "sentinel.cached")
            .expect("sentinel recorded")
            .tid;
        let total = |name: &str| -> i64 {
            trace
                .events()
                .iter()
                .filter(|e| e.tid == tid && e.name == name)
                .filter_map(|e| match e.kind {
                    saber_trace::EventKind::Counter { value, .. } => Some(value),
                    _ => None,
                })
                .sum()
        };
        // Two distinct secrets in a six-op batch: two cold decompositions,
        // four dedup hits.
        assert_eq!(total("hs1.bucket_miss"), 2);
        assert_eq!(total("hs1.bucket_build"), 2);
        assert_eq!(total("hs1.bucket_hit"), 4);
    }

    #[test]
    fn scratch_state_does_not_leak_between_calls() {
        // A dense product followed by a sparse one must not inherit stale
        // buckets or accumulator contents.
        let mut cached = CachedSchoolbookMultiplier::new();
        let _ = cached.multiply(&poly(7001), &secret(5));
        let sparse = SecretPoly::from_fn(|k| i8::from(k == 3));
        let a = poly(12);
        assert_eq!(cached.multiply(&a, &sparse), schoolbook::mul_asym(&a, &sparse));
    }

    #[test]
    fn shards_agree_across_threads() {
        // Each shard is an independent multiplier: running the same
        // products on four threads gives the same answers as one shard
        // sequentially (no shared state to race on).
        let a = poly(321);
        let secrets: Vec<SecretPoly> = (0..4).map(|k| secret(k as i8)).collect();
        let expected: Vec<PolyQ> = secrets
            .iter()
            .map(|s| schoolbook::mul_asym(&a, s))
            .collect();
        let shards = CachedSchoolbookMultiplier::shard_pool(4);
        let got: Vec<PolyQ> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .zip(secrets.iter())
                .map(|(mut shard, s)| {
                    let a = &a;
                    scope.spawn(move || shard.multiply(a, s))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn buckets_report_structure() {
        let s = SecretPoly::from_fn(|i| match i {
            0 => 5,
            1 => -5,
            2 => 1,
            _ => 0,
        });
        let mut b = SecretBuckets::default();
        b.decompose(&s);
        assert_eq!(b.max_value(), 5);
        assert_eq!(b.nonzero_count(), 3);
        // Re-decomposition fully resets state.
        b.decompose(&SecretPoly::zero());
        assert_eq!(b.max_value(), 0);
        assert_eq!(b.nonzero_count(), 0);
    }
}
