//! The Keccak sponge construction (FIPS 202, §4).
//!
//! A [`Sponge`] absorbs an arbitrary-length message into a 1600-bit state
//! at a configurable *rate*, then squeezes an arbitrary number of output
//! bytes. SHA-3 and SHAKE differ only in rate and domain-separation
//! suffix, both captured here.

use crate::permutation::{keccak_f1600, LANES};

/// Domain-separation suffix appended after the message (FIPS 202 §6.1/§6.2).
///
/// The suffix bits are followed by the `pad10*1` padding rule; both are
/// folded into a single byte XORed at the message boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainSuffix {
    /// SHA-3 hash functions: suffix bits `01` → byte `0x06`.
    Sha3,
    /// SHAKE extendable-output functions: suffix bits `1111` → byte `0x1f`.
    Shake,
}

impl DomainSuffix {
    /// The suffix-plus-first-padding-bit byte XORed at the message end.
    #[must_use]
    pub fn padding_byte(self) -> u8 {
        match self {
            DomainSuffix::Sha3 => 0x06,
            DomainSuffix::Shake => 0x1f,
        }
    }
}

/// Sponge phase: absorbing input or squeezing output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Absorbing,
    Squeezing,
}

/// A Keccak-f\[1600\] sponge with byte-granular absorb/squeeze.
///
/// # Examples
///
/// ```
/// use saber_keccak::sponge::{DomainSuffix, Sponge};
///
/// // SHAKE-128 has rate 168; squeeze 32 bytes of output.
/// let mut sponge = Sponge::new(168, DomainSuffix::Shake);
/// sponge.absorb(b"seed bytes");
/// let mut out = [0u8; 32];
/// sponge.squeeze(&mut out);
/// ```
#[derive(Debug, Clone)]
pub struct Sponge {
    state: [u64; LANES],
    /// Rate in bytes (block size); capacity is `200 - rate`.
    rate: usize,
    /// Byte offset within the current rate block.
    offset: usize,
    suffix: DomainSuffix,
    phase: Phase,
}

impl Sponge {
    /// Creates a sponge with the given `rate` in bytes and domain suffix.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero, not a multiple of 8, or ≥ 200 bytes
    /// (the capacity must be positive).
    #[must_use]
    pub fn new(rate: usize, suffix: DomainSuffix) -> Self {
        assert!(rate > 0 && rate < 200, "rate must be in 1..200 bytes");
        assert_eq!(rate % 8, 0, "rate must be lane-aligned (multiple of 8)");
        Self {
            state: [0; LANES],
            rate,
            offset: 0,
            suffix,
            phase: Phase::Absorbing,
        }
    }

    /// Rate (block size) in bytes.
    #[must_use]
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Absorbs `input` into the state, permuting at each full rate block.
    ///
    /// While the block offset is lane-aligned, input moves a whole
    /// little-endian 64-bit lane at a time; the bytes before the first
    /// lane boundary and after the last whole lane go one at a time.
    ///
    /// # Panics
    ///
    /// Panics if called after squeezing has started; a sponge is one-way.
    pub fn absorb(&mut self, mut input: &[u8]) {
        assert_eq!(
            self.phase,
            Phase::Absorbing,
            "cannot absorb after squeezing has started"
        );
        while !input.is_empty() {
            let lanes = self.aligned_lanes(input.len());
            if lanes > 0 {
                let first = self.offset / 8;
                let (head, rest) = input.split_at(8 * lanes);
                for (lane, bytes) in self.state[first..first + lanes]
                    .iter_mut()
                    .zip(head.chunks_exact(8))
                {
                    *lane ^= u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
                }
                self.offset += 8 * lanes;
                input = rest;
            } else {
                self.xor_byte(self.offset, input[0]);
                self.offset += 1;
                input = &input[1..];
            }
            if self.offset == self.rate {
                keccak_f1600(&mut self.state);
                self.offset = 0;
            }
        }
    }

    /// Applies suffix + `pad10*1` padding and switches to the squeeze phase.
    ///
    /// Called automatically by the first [`squeeze`](Self::squeeze);
    /// idempotent thereafter.
    pub fn finalize(&mut self) {
        if self.phase == Phase::Squeezing {
            return;
        }
        self.xor_byte(self.offset, self.suffix.padding_byte());
        self.xor_byte(self.rate - 1, 0x80);
        keccak_f1600(&mut self.state);
        self.offset = 0;
        self.phase = Phase::Squeezing;
    }

    /// Squeezes `output.len()` bytes of sponge output.
    ///
    /// May be called repeatedly; output continues where the previous call
    /// stopped (XOF semantics). Like [`absorb`](Self::absorb), it copies
    /// whole lanes while the block offset is lane-aligned.
    pub fn squeeze(&mut self, mut output: &mut [u8]) {
        self.finalize();
        while !output.is_empty() {
            if self.offset == self.rate {
                keccak_f1600(&mut self.state);
                self.offset = 0;
            }
            let lanes = self.aligned_lanes(output.len());
            let step = if lanes > 0 { 8 * lanes } else { 1 };
            let (head, rest) = std::mem::take(&mut output).split_at_mut(step);
            if lanes > 0 {
                let first = self.offset / 8;
                for (bytes, lane) in head
                    .chunks_exact_mut(8)
                    .zip(&self.state[first..first + lanes])
                {
                    bytes.copy_from_slice(&lane.to_le_bytes());
                }
            } else {
                head[0] = self.read_byte(self.offset);
            }
            self.offset += step;
            output = rest;
        }
    }

    /// Convenience: squeeze exactly `N` bytes into a fresh array.
    pub fn squeeze_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.squeeze(&mut out);
        out
    }

    /// Whole lanes that can move at the current offset with `len` bytes
    /// pending: zero unless the offset is lane-aligned, and never past
    /// the end of the rate block.
    fn aligned_lanes(&self, len: usize) -> usize {
        if self.offset.is_multiple_of(8) {
            ((self.rate - self.offset) / 8).min(len / 8)
        } else {
            0
        }
    }

    fn xor_byte(&mut self, byte_index: usize, value: u8) {
        debug_assert!(byte_index < self.rate);
        let lane = byte_index / 8;
        let shift = (byte_index % 8) * 8;
        self.state[lane] ^= u64::from(value) << shift;
    }

    fn read_byte(&self, byte_index: usize) -> u8 {
        debug_assert!(byte_index < self.rate);
        let lane = byte_index / 8;
        let shift = (byte_index % 8) * 8;
        (self.state[lane] >> shift) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_is_chunking_invariant() {
        // Absorbing a message in one call or byte-by-byte must agree.
        let msg: Vec<u8> = (0..400u16).map(|i| i as u8).collect();
        let mut one = Sponge::new(136, DomainSuffix::Sha3);
        one.absorb(&msg);
        let mut many = Sponge::new(136, DomainSuffix::Sha3);
        for b in &msg {
            many.absorb(std::slice::from_ref(b));
        }
        assert_eq!(one.squeeze_array::<32>(), many.squeeze_array::<32>());
    }

    #[test]
    fn squeeze_is_chunking_invariant() {
        let mut a = Sponge::new(168, DomainSuffix::Shake);
        a.absorb(b"xof");
        let whole = a.squeeze_array::<96>();

        let mut b = Sponge::new(168, DomainSuffix::Shake);
        b.absorb(b"xof");
        let mut parts = [0u8; 96];
        for chunk in parts.chunks_mut(7) {
            b.squeeze(chunk);
        }
        assert_eq!(whole, parts);
    }

    #[test]
    fn different_suffixes_separate_domains() {
        let mut sha = Sponge::new(136, DomainSuffix::Sha3);
        sha.absorb(b"msg");
        let mut shake = Sponge::new(136, DomainSuffix::Shake);
        shake.absorb(b"msg");
        assert_ne!(sha.squeeze_array::<32>(), shake.squeeze_array::<32>());
    }

    #[test]
    #[should_panic(expected = "cannot absorb after squeezing")]
    fn absorb_after_squeeze_panics() {
        let mut s = Sponge::new(136, DomainSuffix::Sha3);
        s.absorb(b"a");
        let _ = s.squeeze_array::<1>();
        s.absorb(b"b");
    }

    #[test]
    #[should_panic(expected = "rate must be lane-aligned")]
    fn unaligned_rate_panics() {
        let _ = Sponge::new(135, DomainSuffix::Sha3);
    }
}
