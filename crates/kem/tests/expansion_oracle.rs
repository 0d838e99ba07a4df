//! `gen_matrix` and `gen_secret` against the bit-serial expansion they
//! replaced, kept here as the reference: a reader that serves the
//! SHAKE-128 stream a few bits at a time, 13-bit matrix coefficients,
//! and `β_µ` samples as two `µ/2`-bit popcounts — for all three
//! parameter sets × 64 seeds.

use saber_keccak::Shake128;
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::{SaberParams, ALL_PARAMS};
use saber_ring::{PolyMatrix, PolyQ, SecretPoly, SecretVec};
use saber_testkit::Rng;

/// A bit-granular reader over a SHAKE-128 stream, little-endian first.
struct BitReader {
    xof: Shake128,
    buffer: u64,
    bits: u32,
}

impl BitReader {
    fn new(seed: &[u8; 32], domain: u8) -> Self {
        let mut xof = Shake128::new();
        xof.absorb(seed);
        xof.absorb(&[domain]);
        Self {
            xof,
            buffer: 0,
            bits: 0,
        }
    }

    /// Reads `count ≤ 32` bits.
    fn read(&mut self, count: u32) -> u32 {
        while self.bits < count {
            let mut byte = [0u8; 1];
            self.xof.read(&mut byte);
            self.buffer |= u64::from(byte[0]) << self.bits;
            self.bits += 8;
        }
        let out = (self.buffer & ((1u64 << count) - 1)) as u32;
        self.buffer >>= count;
        self.bits -= count;
        out
    }
}

fn reference_matrix(seed: &[u8; 32], params: &SaberParams) -> PolyMatrix {
    let mut reader = BitReader::new(seed, 0x41);
    let entries = (0..params.rank * params.rank)
        .map(|_| PolyQ::from_fn(|_| reader.read(13) as u16))
        .collect();
    PolyMatrix::from_entries(params.rank, entries)
}

fn reference_secret(seed: &[u8; 32], params: &SaberParams) -> SecretVec {
    let mut reader = BitReader::new(seed, 0x53);
    let half = params.mu / 2;
    let polys = (0..params.rank)
        .map(|_| {
            SecretPoly::from_fn(|_| {
                let a = reader.read(half).count_ones() as i8;
                let b = reader.read(half).count_ones() as i8;
                a - b
            })
        })
        .collect();
    SecretVec::from_polys(polys)
}

fn seeds() -> impl Iterator<Item = [u8; 32]> {
    let mut rng = Rng::new(0xE4A4_D000);
    (0..64).map(move |_| rng.bytes32())
}

#[test]
fn gen_matrix_matches_the_bit_serial_reference() {
    for params in &ALL_PARAMS {
        for seed in seeds() {
            assert_eq!(
                gen_matrix(&seed, params),
                reference_matrix(&seed, params),
                "{} seed {seed:02x?}",
                params.name
            );
        }
    }
}

#[test]
fn gen_secret_matches_the_bit_serial_reference() {
    for params in &ALL_PARAMS {
        for seed in seeds() {
            assert_eq!(
                gen_secret(&seed, params),
                reference_secret(&seed, params),
                "{} seed {seed:02x?}",
                params.name
            );
        }
    }
}

#[test]
fn gen_secret_reaches_both_ends_of_the_range() {
    // The SWAR popcount must produce the extreme samples ±µ/2 (all of
    // one half-field set, none of the other), not only central ones.
    for params in &ALL_PARAMS {
        let bound = params.secret_bound();
        let (mut low, mut high) = (false, false);
        for seed in seeds() {
            for poly in gen_secret(&seed, params).iter() {
                low |= poly.iter().any(|&c| c == -bound);
                high |= poly.iter().any(|&c| c == bound);
            }
        }
        assert!(low && high, "{}: ±{bound} not both sampled", params.name);
    }
}
