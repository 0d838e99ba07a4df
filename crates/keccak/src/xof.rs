//! SHAKE extendable-output functions (FIPS 202, §6.2).
//!
//! Saber uses SHAKE-128 both to expand the public matrix **A** from a
//! seed and to generate the pseudorandom bytes consumed by the centered
//! binomial sampler, so the XOF interface here is stream-oriented: call
//! [`Shake::read`] as many times as needed.

use crate::sponge::{DomainSuffix, Sponge};

/// Generic SHAKE instance with the given `RATE` in bytes.
///
/// Use the [`Shake128`] / [`Shake256`] aliases.
#[derive(Debug, Clone)]
pub struct Shake<const RATE: usize> {
    sponge: Sponge,
}

/// SHAKE-128: 168-byte rate (security strength 128).
pub type Shake128 = Shake<168>;
/// SHAKE-256: 136-byte rate (security strength 256).
pub type Shake256 = Shake<136>;

impl<const RATE: usize> Shake<RATE> {
    /// Creates an empty XOF.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sponge: Sponge::new(RATE, DomainSuffix::Shake),
        }
    }

    /// Convenience constructor absorbing `seed` immediately.
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut xof = Self::new();
        xof.absorb(seed);
        xof
    }

    /// Absorbs more input. Must precede the first [`read`](Self::read).
    ///
    /// # Panics
    ///
    /// Panics if output has already been read (sponges are one-way).
    pub fn absorb(&mut self, data: &[u8]) {
        self.sponge.absorb(data);
    }

    /// Fills `output` with the next XOF bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use saber_keccak::xof::Shake128;
    ///
    /// let mut xof = Shake128::from_seed(b"matrix seed");
    /// let mut block = [0u8; 64];
    /// xof.read(&mut block); // first 64 bytes
    /// xof.read(&mut block); // next 64 bytes
    /// ```
    pub fn read(&mut self, output: &mut [u8]) {
        self.sponge.squeeze(output);
    }

    /// Reads exactly `N` bytes into a fresh array.
    pub fn read_array<const N: usize>(&mut self) -> [u8; N] {
        self.sponge.squeeze_array::<N>()
    }

    /// One-shot helper: absorb `seed`, squeeze `len` bytes.
    #[must_use]
    pub fn xof(seed: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        Self::from_seed(seed).read(&mut out);
        out
    }
}

impl<const RATE: usize> Default for Shake<RATE> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_read_matches_oneshot() {
        let oneshot = Shake128::xof(b"seed", 100);
        let mut xof = Shake128::from_seed(b"seed");
        let mut inc = vec![0u8; 100];
        for chunk in inc.chunks_mut(13) {
            xof.read(chunk);
        }
        assert_eq!(oneshot, inc);
    }

    #[test]
    fn shake128_and_256_differ() {
        assert_ne!(Shake128::xof(b"s", 32), Shake256::xof(b"s", 32));
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        assert_ne!(Shake128::xof(b"a", 32), Shake128::xof(b"b", 32));
    }

    #[test]
    fn long_output_crosses_many_blocks() {
        // > 8 rate blocks; chunked and one-shot must still agree.
        let n = 168 * 8 + 5;
        let oneshot = Shake256::xof(b"long", n);
        let mut xof = Shake256::from_seed(b"long");
        let mut inc = vec![0u8; n];
        for chunk in inc.chunks_mut(200) {
            xof.read(chunk);
        }
        assert_eq!(oneshot, inc);
    }
}
