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
use saber_ring::{packing, PolyMatrix, PolyQ, PolyVec, SecretPoly, SecretVec, EPS_Q, N};

use crate::kem;
use crate::params::SaberParams;
use crate::pke::PublicKey;

/// Domain-separation byte appended to the seed when expanding the matrix.
const DOMAIN_MATRIX: u8 = 0x41;
/// Domain-separation byte appended to the seed when sampling secrets.
const DOMAIN_SECRET: u8 = 0x53;

/// XOF bytes behind one matrix polynomial: 256 13-bit coefficients.
const MATRIX_POLY_BYTES: usize = N * EPS_Q as usize / 8;

/// Expands the `ℓ×ℓ` public matrix `A` from a 32-byte seed with
/// SHAKE-128.
///
/// Entries are row-major; each polynomial squeezes the next 416 bytes of
/// XOF output and decodes them as a little-endian bitstream of 13-bit
/// coefficients (the layout `saber-coproc`'s `UnpackPoly` reads).
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
    let mut bytes = [0u8; MATRIX_POLY_BYTES];
    let mut coeffs = [0u16; N];
    let entries = (0..params.rank * params.rank)
        .map(|_| {
            xof.read(&mut bytes);
            packing::unpack_bits_into(&bytes, EPS_Q, &mut coeffs);
            PolyQ::from_coeffs(coeffs)
        })
        .collect();
    PolyMatrix::from_entries(params.rank, entries)
}

/// Samples `β_µ` coefficients from `µ`-bit values: each is
/// `popcount(low µ/2 bits) − popcount(high µ/2 bits)`.
///
/// SWAR, branch-free and table-free: the two half-fields of a value go
/// into the two bytes of a `u16` lane, and one byte-wise popcount counts
/// both. Shifts and masks depend only on the public `µ`, so the loop
/// over all 256 lanes vectorizes. No step wraps (a byte counts at most
/// `µ/2 ≤ 8` bits); the `wrapping_*` forms only drop the release
/// profile's overflow checks, which would keep the loop scalar.
fn cbd(values: &[u16; N], mu: u32, coeffs: &mut [i8; N]) {
    let half = mu / 2;
    let field = (1u16 << half) - 1;
    for (c, &v) in coeffs.iter_mut().zip(values) {
        let mut x = (v & field) | ((v >> half) & field) << 8;
        x = x.wrapping_sub((x >> 1) & 0x5555);
        x = (x & 0x3333).wrapping_add((x >> 2) & 0x3333);
        x = x.wrapping_add(x >> 4) & 0x0f0f;
        *c = ((x & 0xff) as i8).wrapping_sub((x >> 8) as i8);
    }
}

/// Samples a secret vector of `ℓ` polynomials with `β_µ`-distributed
/// coefficients from a 32-byte seed with SHAKE-128.
///
/// Each polynomial squeezes the next `256·µ/8` bytes of XOF output and
/// decodes them as 256 `µ`-bit values, whose half-fields are counted
/// with a SWAR popcount.
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
    let mut bytes = [0u8; N * 16 / 8];
    let bytes = &mut bytes[..params.secret_bytes_per_poly()];
    let mut values = [0u16; N];
    let polys = (0..params.rank)
        .map(|_| {
            xof.read(bytes);
            packing::unpack_bits_into(bytes, params.mu, &mut values);
            let mut coeffs = [0i8; N];
            cbd(&values, params.mu, &mut coeffs);
            SecretPoly::try_from_coeffs(coeffs)
                .expect("β_µ samples are within the secret range by construction")
        })
        .collect();
    SecretVec::from_polys(polys)
}

/// A bounded cache of expanded public matrices, keyed by
/// `(seed_A, rank)`, each beside the hash of the last public key it
/// served: one per service worker.
///
/// `A` is a public, pure function of `seed_A` and the rank, so a hit
/// returns exactly what [`gen_matrix`] would, and outputs cannot change.
/// A server decapsulating against its own static key meets the same
/// `seed_A` on every request, so after the first miss each worker's
/// decaps (and encaps against that key) skips the expansion.
///
/// Encapsulation also needs `H(pk) = SHA3-256(pk)` of the whole public
/// key, `seed_A` and `b`. [`matrix_and_hash`](Self::matrix_and_hash)
/// answers both in one lookup: each entry keeps `b` and the hash of the
/// last public key on its matrix that it served, and recomputes the
/// hash only when `b` differs. Two keys that share `seed_A` and rank
/// share the entry and each get their own hash.
///
/// Holds at most [`CAPACITY`](Self::CAPACITY) entries and replaces them
/// round-robin once full. An entry holds `ℓ²` matrix and `ℓ` key
/// polynomials of 512 B each and a 32-byte hash, so the coefficients
/// take at most 8 × (16 + 4) × 512 B = 80 KiB at FireSaber (`ℓ = 4`).
///
/// # Examples
///
/// ```
/// use saber_kem::expand::{gen_matrix, MatrixCache};
/// use saber_kem::params::SABER;
///
/// let mut cache = MatrixCache::new();
/// let seed = [7u8; 32];
/// assert_eq!(*cache.matrix(&seed, &SABER), gen_matrix(&seed, &SABER));
/// assert_eq!(*cache.matrix(&seed, &SABER), gen_matrix(&seed, &SABER));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct MatrixCache {
    entries: Vec<CachedMatrix>,
    /// Slot the next miss replaces once the cache is full.
    next: usize,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CachedMatrix {
    seed: [u8; 32],
    rank: usize,
    matrix: PolyMatrix,
    /// `b` and `H(pk)` of the last public key this entry served through
    /// [`MatrixCache::matrix_and_hash`].
    key: Option<(PolyVec<10>, [u8; 32])>,
}

impl MatrixCache {
    /// Entries held at most.
    pub const CAPACITY: usize = 8;

    /// An empty cache (allocates nothing until the first miss).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            entries: Vec::new(),
            next: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The matrix of `(seed, params.rank)`: cached, or expanded with
    /// [`gen_matrix`] and cached.
    pub fn matrix(&mut self, seed: &[u8; 32], params: &SaberParams) -> &PolyMatrix {
        &self.entry(seed, params).matrix
    }

    /// `pk`'s matrix `A`, as [`matrix`](Self::matrix) returns it, and its
    /// hash `H(pk) = SHA3-256(pk)`, in one lookup. The hash comes from the
    /// entry when its last public key had this same `b`; otherwise it is
    /// computed and kept there, replacing the previous key's.
    pub fn matrix_and_hash(&mut self, pk: &PublicKey) -> (&PolyMatrix, [u8; 32]) {
        let entry = self.entry(&pk.seed_a, &pk.params);
        let hash = match &entry.key {
            Some((b, hash)) if *b == pk.b => *hash,
            _ => {
                let hash = kem::hash_public_key(pk);
                entry.key = Some((pk.b.clone(), hash));
                hash
            }
        };
        (&entry.matrix, hash)
    }

    /// The entry of `(seed, params.rank)`, counted as a hit, or a new one
    /// holding the expanded matrix, counted as a miss.
    fn entry(&mut self, seed: &[u8; 32], params: &SaberParams) -> &mut CachedMatrix {
        let found = self
            .entries
            .iter()
            .position(|e| e.rank == params.rank && e.seed == *seed);
        let slot = if let Some(slot) = found {
            self.hits += 1;
            slot
        } else {
            self.misses += 1;
            let entry = CachedMatrix {
                seed: *seed,
                rank: params.rank,
                matrix: gen_matrix(seed, params),
                key: None,
            };
            if self.entries.len() < Self::CAPACITY {
                self.entries.push(entry);
                self.entries.len() - 1
            } else {
                let slot = self.next;
                self.entries[slot] = entry;
                self.next = (slot + 1) % Self::CAPACITY;
                slot
            }
        };
        &mut self.entries[slot]
    }

    /// Matrices currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no matrix is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that expanded the matrix.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
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
}
