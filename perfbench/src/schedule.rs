//! Seeded input generation. Every input of a run is a pure function of
//! the `--seed` argument, a stream tag and an index, so the same seed
//! gives the same inputs whatever order they are drawn in.

use std::time::Duration;

/// Stream tag of [`spread`].
const SPREAD: u64 = 17;

/// SplitMix64: small, fast and fully determined by its state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, tag, index)`.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Self {
        let a = Rng(seed).next_u64() ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let b = Rng(a).next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng(b)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` is tiny next to 2^64, so the modulo bias
    /// is negligible.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// 32 random bytes.
    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

/// Maps request `id` to one of `n` keys (`n` a power of two). Within
/// each block of `n` consecutive ids every key is drawn exactly once, in
/// a seeded order that changes from block to block, so a key comes back
/// only after about `n` other draws.
pub fn spread(seed: u64, id: u64, n: usize) -> usize {
    assert!(n.is_power_of_two(), "spread needs a power-of-two key count");
    let mask = n as u64 - 1;
    let shift = n.trailing_zeros() / 2 + 1;
    let mut rng = Rng::derive(seed, SPREAD, id / n as u64);
    let mut x = id & mask;
    // Each step (odd multiply, add, xor-shift) is a bijection mod n.
    for _ in 0..3 {
        x = x
            .wrapping_mul(rng.next_u64() | 1)
            .wrapping_add(rng.next_u64())
            & mask;
        x ^= x >> shift;
    }
    x as usize
}

/// Arrival offsets of a Poisson process at `rate_per_s`, measured from
/// the start of a window of length `window` and ending inside it.
pub fn poisson(rng: Rng, rate_per_s: f64, window: Duration) -> impl Iterator<Item = Duration> {
    let mut rng = rng;
    let mean_gap_s = 1.0 / rate_per_s;
    let end_s = window.as_secs_f64();
    let mut t = 0.0;
    std::iter::from_fn(move || {
        t += -rng.unit().ln() * mean_gap_s;
        (t < end_s).then(|| Duration::from_secs_f64(t))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_over_the_arrival_window_matches_the_configured_rate() {
        let window = Duration::from_secs(10);
        for (seed, rate) in [(1, 2000.0), (2, 500.0), (3, 3500.0)] {
            let arrivals: Vec<Duration> = poisson(Rng::derive(seed, 9, 0), rate, window).collect();
            let offered = arrivals.len() as f64 / window.as_secs_f64();
            assert!(
                (offered - rate).abs() / rate < 0.03,
                "offered {offered}/s vs {rate}/s"
            );
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
            assert!(arrivals.iter().all(|&t| t < window));
        }
    }

    #[test]
    fn spread_draws_every_key_once_per_block() {
        for n in [1usize, 4, 1024] {
            for block in 0..3u64 {
                let mut seen = vec![false; n];
                for id in block * n as u64..(block + 1) * n as u64 {
                    let key = spread(7, id, n);
                    assert!(!seen[key], "key {key} drawn twice in block {block} of {n}");
                    seen[key] = true;
                }
            }
        }
    }

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a = Rng::derive(1, 2, 3).bytes32();
        assert_eq!(a, Rng::derive(1, 2, 3).bytes32());
        assert_ne!(a, Rng::derive(1, 2, 4).bytes32());
        assert_ne!(a, Rng::derive(1, 3, 3).bytes32());
        assert_ne!(a, Rng::derive(2, 2, 3).bytes32());
    }
}
