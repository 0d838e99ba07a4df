//! Property-based tests of the sponge layer: chunking invariance at
//! every rate in use (lane-aligned, unaligned and block-crossing
//! splits), XOF prefix consistency, and domain separation over random
//! inputs.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest).

use saber_keccak::{DomainSuffix, Sha3_256, Sha3_512, Shake128, Shake256, Sponge};
use saber_testkit::{cases, Rng};

const CASES: usize = 48;

/// The three Keccak rates in use: SHA3-512 (72 bytes), SHA3-256 and
/// SHAKE-256 (136), SHAKE-128 (168).
const RATES: [usize; 3] = [72, 136, 168];

/// A random sequence of chunk lengths in `0..=2·rate` (zero-length
/// calls included) that covers exactly `total` bytes.
fn chunk_lengths(rng: &mut Rng, rate: usize, total: usize) -> Vec<usize> {
    let mut lengths = Vec::new();
    let mut left = total;
    while left > 0 {
        let len = rng.range_usize(0, 2 * rate).min(left);
        lengths.push(len);
        left -= len;
    }
    lengths
}

/// Counts which sponge paths the generated splits reached, so the
/// properties cannot pass vacuously: whole-lane moves from a
/// lane-aligned offset, byte moves from an unaligned one, and calls
/// that cross a rate-block boundary.
#[derive(Debug, Default)]
struct SplitCoverage {
    aligned: usize,
    unaligned: usize,
    crossing: usize,
}

impl SplitCoverage {
    fn record(&mut self, rate: usize, start: usize, len: usize) {
        let offset = start % rate;
        if offset.is_multiple_of(8) && len >= 8 {
            self.aligned += 1;
        }
        if !offset.is_multiple_of(8) && len > 0 {
            self.unaligned += 1;
        }
        if offset + len > rate {
            self.crossing += 1;
        }
    }

    fn assert_complete(&self) {
        assert!(
            self.aligned > 0 && self.unaligned > 0 && self.crossing > 0,
            "splits missed a sponge path: {self:?}"
        );
    }
}

fn squeeze_vec(mut sponge: Sponge, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    sponge.squeeze(&mut out);
    out
}

#[test]
fn sponge_absorb_chunking_invariance() {
    // Absorbing in one call, byte by byte (the byte path only), and in
    // random chunks must leave the same state at every rate.
    let mut coverage = SplitCoverage::default();
    for mut rng in cases(CASES) {
        for rate in RATES {
            let msg = rng.byte_vec(5 * rate);
            let mut oneshot = Sponge::new(rate, DomainSuffix::Sha3);
            oneshot.absorb(&msg);
            let mut bytewise = Sponge::new(rate, DomainSuffix::Sha3);
            for byte in &msg {
                bytewise.absorb(std::slice::from_ref(byte));
            }
            let mut split = Sponge::new(rate, DomainSuffix::Sha3);
            let mut at = 0;
            for len in chunk_lengths(&mut rng, rate, msg.len()) {
                coverage.record(rate, at, len);
                split.absorb(&msg[at..at + len]);
                at += len;
            }
            let out_len = 2 * rate + 3;
            let expected = squeeze_vec(oneshot, out_len);
            let case = format!("rate {rate}, {} bytes, case seed {}", msg.len(), rng.seed());
            assert_eq!(squeeze_vec(bytewise, out_len), expected, "bytewise, {case}");
            assert_eq!(squeeze_vec(split, out_len), expected, "chunked, {case}");
        }
    }
    coverage.assert_complete();
}

#[test]
fn shake_output_prefix_property() {
    for mut rng in cases(CASES) {
        let seed = rng.byte_vec(99);
        let short = rng.range_usize(1, 63);
        let long = rng.range_usize(64, 699);
        // An XOF's shorter output must be a prefix of its longer output.
        let short_out = Shake128::xof(&seed, short);
        let long_out = Shake128::xof(&seed, long);
        assert_eq!(
            &short_out[..],
            &long_out[..short],
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn sponge_squeeze_chunking_invariance() {
    // Squeezing in one call, byte by byte, and in random chunks must
    // yield the same stream at every rate.
    let mut coverage = SplitCoverage::default();
    for mut rng in cases(CASES) {
        for rate in RATES {
            let seed = rng.byte_vec(2 * rate);
            let total = rng.range_usize(0, 6 * rate);
            let fresh = || {
                let mut sponge = Sponge::new(rate, DomainSuffix::Shake);
                sponge.absorb(&seed);
                sponge
            };
            let oneshot = squeeze_vec(fresh(), total);
            let mut bytewise = vec![0u8; total];
            let mut sponge = fresh();
            for byte in bytewise.chunks_mut(1) {
                sponge.squeeze(byte);
            }
            let mut chunked = vec![0u8; total];
            let mut sponge = fresh();
            let mut at = 0;
            for len in chunk_lengths(&mut rng, rate, total) {
                coverage.record(rate, at, len);
                sponge.squeeze(&mut chunked[at..at + len]);
                at += len;
            }
            let case = format!("rate {rate}, {total} bytes, case seed {}", rng.seed());
            assert_eq!(bytewise, oneshot, "bytewise, {case}");
            assert_eq!(chunked, oneshot, "chunked, {case}");
        }
    }
    coverage.assert_complete();
}

#[test]
fn distinct_messages_distinct_digests() {
    for mut rng in cases(CASES) {
        let a = rng.byte_vec(127);
        let b = rng.byte_vec(127);
        if a == b {
            continue; // vanishingly rare; the harness has no prop_assume
        }
        assert_ne!(
            Sha3_256::digest(&a),
            Sha3_256::digest(&b),
            "case seed {}",
            rng.seed()
        );
        assert_ne!(
            Sha3_512::digest(&a),
            Sha3_512::digest(&b),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn sha3_256_is_not_a_shake_prefix() {
    // Domain separation between the hash and XOF families.
    for mut rng in cases(CASES) {
        let msg = rng.byte_vec(63);
        let digest = Sha3_256::digest(&msg).to_vec();
        let xof = Shake256::xof(&msg, 32);
        assert_ne!(digest, xof, "case seed {}", rng.seed());
    }
}

#[test]
fn digest_bits_look_uniform() {
    // Crude avalanche check: flipping one input bit flips a
    // substantial number of output bits.
    for mut rng in cases(CASES) {
        let mut msg = rng.byte_vec(63);
        if msg.is_empty() {
            msg.push(rng.range_u16(0, 255) as u8);
        }
        let mut flipped = msg.clone();
        flipped[0] ^= 1;
        let d1 = Sha3_256::digest(&msg);
        let d2 = Sha3_256::digest(&flipped);
        let distance: u32 = d1
            .iter()
            .zip(d2.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        // 256 output bits; expect ~128; demand at least 64.
        assert!(
            distance >= 64,
            "avalanche distance only {distance}, case seed {}",
            rng.seed()
        );
    }
}
