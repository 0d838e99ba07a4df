//! Deterministic expansion: the public matrix `A` from a seed, and the
//! centered-binomial secret sampler.
//!
//! Layout note: the byte-to-coefficient ordering here is this
//! workspace's own (documented, deterministic, little-endian bitstream),
//! not the byte-shuffling of the C reference implementation — so official
//! NIST KAT files do not apply. All security-relevant structure (SHAKE-128
//! expansion, uniform mod-q matrix, exact `β_µ` secret distribution) is
//! preserved; see DESIGN.md §2.

use saber_keccak::Shake128;
use saber_ring::{PolyMatrix, PolyQ, SecretPoly, SecretVec, N};

use crate::params::SaberParams;

/// Domain-separation byte appended to the seed when expanding the matrix.
const DOMAIN_MATRIX: u8 = 0x41;
/// Domain-separation byte appended to the seed when sampling secrets.
const DOMAIN_SECRET: u8 = 0x53;

/// A bit-granular reader over a SHAKE-128 stream.
///
/// It squeezes one whole rate block (168 bytes, one permutation) at a
/// time and serves bits from that buffer, so the sponge is entered once
/// per block rather than once per byte.
struct BitReader {
    xof: Shake128,
    block: [u8; Shake128::RATE_BYTES],
    /// Next unread byte of `block`.
    pos: usize,
    buffer: u64,
    bits: u32,
}

impl BitReader {
    fn new(xof: Shake128) -> Self {
        Self {
            xof,
            block: [0; Shake128::RATE_BYTES],
            pos: Shake128::RATE_BYTES,
            buffer: 0,
            bits: 0,
        }
    }

    /// Reads `count ≤ 32` bits, little-endian first.
    fn read(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        while self.bits < count {
            if self.pos == self.block.len() {
                self.xof.read(&mut self.block);
                self.pos = 0;
            }
            self.buffer |= u64::from(self.block[self.pos]) << self.bits;
            self.pos += 1;
            self.bits += 8;
        }
        let out = (self.buffer & ((1u64 << count) - 1)) as u32;
        self.buffer >>= count;
        self.bits -= count;
        out
    }
}

/// Expands the `ℓ×ℓ` public matrix `A` from a 32-byte seed with
/// SHAKE-128.
///
/// Entries are row-major; each polynomial consumes `256·13` bits of XOF
/// output as a little-endian bitstream of 13-bit coefficients.
///
/// # Examples
///
/// ```
/// use saber_kem::{expand::gen_matrix, params::SABER};
///
/// let a = gen_matrix(&[7u8; 32], &SABER);
/// assert_eq!(a.rank(), 3);
/// // Deterministic: the same seed yields the same matrix.
/// assert_eq!(a.entry(0, 0), gen_matrix(&[7u8; 32], &SABER).entry(0, 0));
/// ```
#[must_use]
pub fn gen_matrix(seed: &[u8; 32], params: &SaberParams) -> PolyMatrix {
    let _span = saber_trace::span("kem", "expand.matrix");
    let mut xof = Shake128::new();
    xof.absorb(seed);
    xof.absorb(&[DOMAIN_MATRIX]);
    let mut reader = BitReader::new(xof);
    let rank = params.rank;
    let mut entries = Vec::with_capacity(rank * rank);
    for _ in 0..rank * rank {
        let mut poly = PolyQ::zero();
        for i in 0..N {
            poly.set_coeff(i, reader.read(13) as u16);
        }
        entries.push(poly);
    }
    PolyMatrix::from_entries(rank, entries)
}

/// Samples one `β_µ` coefficient from `µ` stream bits:
/// `popcount(first µ/2) − popcount(last µ/2)`.
fn cbd_coefficient(reader: &mut BitReader, mu: u32) -> i8 {
    let half = mu / 2;
    let a = reader.read(half).count_ones() as i8;
    let b = reader.read(half).count_ones() as i8;
    a - b
}

/// Samples a secret vector of `ℓ` polynomials with `β_µ`-distributed
/// coefficients from a 32-byte seed with SHAKE-128.
///
/// # Examples
///
/// ```
/// use saber_kem::{expand::gen_secret, params::SABER};
///
/// let s = gen_secret(&[3u8; 32], &SABER);
/// assert_eq!(s.len(), 3);
/// assert!(s.iter().all(|p| p.max_magnitude() <= 4));
/// ```
#[must_use]
pub fn gen_secret(seed: &[u8; 32], params: &SaberParams) -> SecretVec {
    let _span = saber_trace::span("kem", "expand.secret");
    let mut xof = Shake128::new();
    xof.absorb(seed);
    xof.absorb(&[DOMAIN_SECRET]);
    let mut reader = BitReader::new(xof);
    let polys = (0..params.rank)
        .map(|_| {
            let mut coeffs = [0i8; N];
            for c in coeffs.iter_mut() {
                *c = cbd_coefficient(&mut reader, params.mu);
            }
            SecretPoly::try_from_coeffs(coeffs)
                .expect("β_µ samples are within the secret range by construction")
        })
        .collect();
    SecretVec::from_polys(polys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ALL_PARAMS, FIRE_SABER, LIGHT_SABER, SABER};

    #[test]
    fn matrix_is_deterministic_and_seed_sensitive() {
        let a1 = gen_matrix(&[1u8; 32], &SABER);
        let a2 = gen_matrix(&[1u8; 32], &SABER);
        let a3 = gen_matrix(&[2u8; 32], &SABER);
        assert_eq!(a1.entry(2, 2), a2.entry(2, 2));
        assert_ne!(a1.entry(0, 0), a3.entry(0, 0));
    }

    #[test]
    fn matrix_and_secret_domains_are_separated() {
        // The same seed must produce unrelated matrix/secret streams.
        let seed = [9u8; 32];
        let a = gen_matrix(&seed, &LIGHT_SABER);
        let s = gen_secret(&seed, &LIGHT_SABER);
        // Compare the first matrix coefficient with the first secret
        // coefficient lifted mod q — equality would hint at domain reuse.
        assert_ne!(i32::from(a.entry(0, 0).coeff(0)), i32::from(s[0].coeff(0)));
    }

    #[test]
    fn secret_bounds_respected_per_param_set() {
        for params in &ALL_PARAMS {
            let s = gen_secret(&[5u8; 32], params);
            for poly in s.iter() {
                assert!(
                    poly.max_magnitude() <= params.secret_bound(),
                    "{}: magnitude {} > {}",
                    params.name,
                    poly.max_magnitude(),
                    params.secret_bound()
                );
            }
        }
    }

    #[test]
    fn secret_distribution_is_roughly_centered() {
        // Mean of β_µ is 0; check the empirical mean over many samples.
        let s = gen_secret(&[11u8; 32], &FIRE_SABER);
        let sum: i64 = s.iter().flat_map(|p| p.iter()).map(|&c| i64::from(c)).sum();
        let count = (FIRE_SABER.rank * N) as i64;
        assert!(
            sum.abs() < count / 4,
            "suspiciously biased secret: sum = {sum} over {count}"
        );
    }

    #[test]
    fn matrix_coefficients_cover_high_range() {
        // Uniform mod-q samples should hit values above q/2 frequently.
        let a = gen_matrix(&[13u8; 32], &LIGHT_SABER);
        let high = (0..N).filter(|&i| a.entry(0, 0).coeff(i) >= 4096).count();
        assert!(high > 64, "only {high} of 256 coefficients above q/2");
    }

    #[test]
    fn bit_reader_is_little_endian_within_bytes() {
        let mut xof = Shake128::from_seed(b"bit order probe");
        let mut first = [0u8; 2];
        xof.read(&mut first);
        let mut reader = BitReader::new(Shake128::from_seed(b"bit order probe"));
        let lo = reader.read(8) as u8;
        let hi = reader.read(8) as u8;
        assert_eq!([lo, hi], first);
    }
}
