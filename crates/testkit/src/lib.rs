//! Deterministic randomness and a minimal property-test harness.
//!
//! The build environment for this workspace is fully offline: no
//! crates.io registry is reachable, so `rand`, `proptest` and
//! `criterion` cannot be resolved. This crate replaces the slices of
//! their APIs the workspace actually uses with dependency-free,
//! deterministic equivalents:
//!
//! * [`Rng`] — a SplitMix64 generator with the ranged helpers the tests
//!   need (`u16` coefficients, `i8` secrets, byte arrays);
//! * [`cases`] — the property-test driver: a fixed number of
//!   independently-seeded [`Rng`]s, so every "for random inputs …" test
//!   is reproducible and its failures name the offending case seed;
//! * [`golden`] — committed golden outputs, diffed line by line and
//!   rewritten on request (`SABER_BLESS=1`).
//!
//! Determinism is a feature, not a concession: the same inputs are
//! exercised on every run and on every machine, which is what a
//! regression suite for a cryptographic reproduction wants. Tests that
//! need adversarial rather than random coverage keep their explicit
//! corner-case batteries.
//!
//! # Examples
//!
//! ```
//! use saber_testkit::{cases, Rng};
//!
//! for mut rng in cases(16) {
//!     let a = rng.range_u16(0, 8191);
//!     let b = rng.range_u16(0, 8191);
//!     assert_eq!(
//!         u32::from(a) + u32::from(b),
//!         u32::from(b) + u32::from(a),
//!         "case seed {}",
//!         rng.seed()
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod hex;
pub mod json;

/// A SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush, needs eight bytes of state, and — unlike
/// `rand`'s default engines — is trivially reproducible from a single
/// `u64` printed in a failure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
    seed: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed, seed }
    }

    /// The seed this generator was created from (for failure messages).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u16` in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        assert!(lo <= hi, "empty range");
        let span = u64::from(hi - lo) + 1;
        lo + (self.next_u64() % span) as u16
    }

    /// A uniform `usize` in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as usize
    }

    /// A uniform `i64` in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = lo.abs_diff(hi) + 1;
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform `i8` in `-bound..=bound` (the Saber secret shape).
    ///
    /// # Panics
    ///
    /// Panics if `bound < 0`.
    pub fn secret_coeff(&mut self, bound: i8) -> i8 {
        self.range_i64(-i64::from(bound), i64::from(bound)) as i8
    }

    /// Fills a byte slice with uniform bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// A uniform 32-byte array (the seed shape of every KEM input).
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// XORs 1–4 non-zero bytes into `bytes` at uniform positions: the
    /// seeded corruption of the decoders' hostile-input tests.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty.
    pub fn flip_bytes(&mut self, bytes: &mut [u8]) {
        for _ in 0..self.range_usize(1, 4) {
            let at = self.range_usize(0, bytes.len() - 1);
            bytes[at] ^= self.range_u16(1, 255) as u8;
        }
    }

    /// A uniform byte vector with a length drawn from `0..=max_len`.
    pub fn byte_vec(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.range_usize(0, max_len);
        let mut out = vec![0u8; len];
        self.fill_bytes(&mut out);
        out
    }
}

/// The property-test driver: `n` independently seeded generators.
///
/// Each case's generator is seeded from a golden-ratio stride so cases
/// share no state; a failing assertion should include
/// [`Rng::seed`] to make the case reproducible in isolation.
pub fn cases(n: usize) -> impl Iterator<Item = Rng> {
    (0..n as u64)
        .map(|i| Rng::new(0x0D0C_2021_u64.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_inclusive_and_in_bounds() {
        let mut rng = Rng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_u16(3, 10);
            assert!((3..=10).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 10;
        }
        assert!(saw_lo && saw_hi, "both endpoints must be reachable");
    }

    #[test]
    fn secret_coeffs_cover_the_range() {
        let mut rng = Rng::new(9);
        let mut seen = [false; 11];
        for _ in 0..10_000 {
            let v = rng.secret_coeff(5);
            assert!(v.abs() <= 5);
            seen[(v + 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 11 values must appear");
    }

    #[test]
    fn cases_are_independent() {
        let seeds: Vec<u64> = cases(8).map(|r| r.seed()).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = Rng::new(1);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn bit_balance_is_plausible() {
        // Crude uniformity check: the population count over many words
        // should hover around 32 bits per word.
        let mut rng = Rng::new(3);
        let ones: u32 = (0..1000).map(|_| rng.next_u64().count_ones()).sum();
        let mean = f64::from(ones) / 1000.0;
        assert!((mean - 32.0).abs() < 1.0, "mean population {mean}");
    }
}
