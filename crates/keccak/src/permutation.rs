//! The Keccak-f\[1600\] permutation (FIPS 202, §3).
//!
//! The state is 25 lanes of 64 bits, indexed `state[x + 5 * y]` for
//! column `x` and row `y`. One call to [`keccak_f1600`] applies all 24
//! rounds of θ, ρ, π, χ and ι.
//!
//! The rounds are written once and compiled twice: [`portable`] for the
//! build target, and a copy for AVX2, BMI1 and BMI2 that
//! [`keccak_f1600`] runs where the host has them. [`round`] is the
//! portable one, which the hardware Keccak core steps one cycle at a
//! time.

/// Number of 64-bit lanes in the Keccak-f\[1600\] state.
pub const LANES: usize = 25;

/// Number of rounds in Keccak-f\[1600\] (`12 + 2·ℓ` with `ℓ = 6`).
pub const ROUNDS: usize = 24;

/// Round constants for the ι step (FIPS 202, generated by the LFSR `rc(t)`).
pub const ROUND_CONSTANTS: [u64; ROUNDS] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the ρ step, indexed `[x + 5 * y]`.
///
/// Derived from the triangular-number schedule of FIPS 202 §3.2.2.
pub const RHO_OFFSETS: [u32; LANES] = [
    0, 1, 62, 28, 27, // y = 0
    36, 44, 6, 55, 20, // y = 1
    3, 10, 43, 25, 39, // y = 2
    41, 45, 15, 21, 8, // y = 3
    18, 2, 61, 56, 14, // y = 4
];

/// Applies the full 24-round Keccak-f\[1600\] permutation in place.
///
/// On an x86-64 host with AVX2, BMI1 and BMI2 this runs the same rounds
/// compiled for those features (`andn` for χ, `rorx` for ρ and θ);
/// elsewhere it runs [`portable::keccak_f1600`]. Both give the same
/// state: the features change the instructions, not the arithmetic.
///
/// # Examples
///
/// ```
/// use saber_keccak::permutation::keccak_f1600;
///
/// let mut state = [0u64; 25];
/// keccak_f1600(&mut state);
/// // The all-zero state is not a fixed point of the permutation.
/// assert_ne!(state, [0u64; 25]);
/// ```
pub fn keccak_f1600(state: &mut [u64; LANES]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("bmi1")
        && std::arch::is_x86_feature_detected!("bmi2")
    {
        // SAFETY: `wide` is compiled for AVX2, BMI1 and BMI2, and
        // `is_x86_feature_detected!` has just found all three on this host.
        #[allow(unsafe_code)]
        return unsafe { wide::keccak_f1600(state) };
    }
    portable::keccak_f1600(state);
}

pub use portable::round;

/// The permutation's functions, written once and compiled once per
/// module below; `$feature` is the attribute every function carries.
macro_rules! permutation {
    ($(#[$feature:meta])*) => {
        /// Applies the full 24-round Keccak-f\[1600\] permutation in place.
        $(#[$feature])*
        pub fn keccak_f1600(state: &mut [u64; LANES]) {
            for &rc in ROUND_CONSTANTS.iter() {
                round(state, rc);
            }
        }

        /// Applies a single Keccak round (θ, ρ, π, χ, ι) with round constant `rc`.
        $(#[$feature])*
        pub fn round(state: &mut [u64; LANES], rc: u64) {
            theta(state);
            rho_pi(state);
            chi(state);
            // ι: break the symmetry of the permutation with the round constant.
            state[0] ^= rc;
        }

        /// θ: XOR each bit with the parities of two nearby columns.
        $(#[$feature])*
        fn theta(state: &mut [u64; LANES]) {
            let mut parity = [0u64; 5];
            for x in 0..5 {
                parity[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
            }
            for x in 0..5 {
                let d = parity[(x + 4) % 5] ^ parity[(x + 1) % 5].rotate_left(1);
                for y in 0..5 {
                    state[x + 5 * y] ^= d;
                }
            }
        }

        /// ρ and π combined: rotate each lane, then permute lane positions.
        $(#[$feature])*
        fn rho_pi(state: &mut [u64; LANES]) {
            let mut rotated = [0u64; LANES];
            for x in 0..5 {
                for y in 0..5 {
                    // π maps (x, y) -> (y, 2x + 3y); ρ rotates by the source offset.
                    let src = x + 5 * y;
                    let dst = y + 5 * ((2 * x + 3 * y) % 5);
                    rotated[dst] = state[src].rotate_left(RHO_OFFSETS[src]);
                }
            }
            *state = rotated;
        }

        /// χ: the only non-linear step; each bit is XORed with a function of the
        /// two bits to its right within its row.
        $(#[$feature])*
        fn chi(state: &mut [u64; LANES]) {
            for y in 0..5 {
                let row = [
                    state[5 * y],
                    state[1 + 5 * y],
                    state[2 + 5 * y],
                    state[3 + 5 * y],
                    state[4 + 5 * y],
                ];
                for x in 0..5 {
                    state[x + 5 * y] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
                }
            }
        }
    };
}

/// The permutation for baseline x86-64 and every other target: the code
/// [`keccak_f1600`] runs where the wide copy cannot, and the [`round`]
/// the hardware Keccak core steps one cycle at a time.
pub mod portable {
    use super::{LANES, RHO_OFFSETS, ROUND_CONSTANTS};

    permutation!();
}

/// The same functions compiled for AVX2, BMI1 and BMI2.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{LANES, RHO_OFFSETS, ROUND_CONSTANTS};

    permutation!(#[target_feature(enable = "avx2,bmi1,bmi2")]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_testkit::Rng;

    #[test]
    fn dispatched_permutation_matches_the_portable_one() {
        // On a host with AVX2, BMI1 and BMI2, `keccak_f1600` runs the
        // wide copy; it must leave every state as the portable copy does.
        let agree = |input: [u64; LANES]| {
            let (mut dispatched, mut portable) = (input, input);
            keccak_f1600(&mut dispatched);
            portable::keccak_f1600(&mut portable);
            assert_eq!(dispatched, portable, "input {input:016x?}");
        };
        agree([0; LANES]);
        agree([u64::MAX; LANES]);
        for bit in 0..64 * LANES {
            let mut single = [0; LANES];
            single[bit / 64] = 1 << (bit % 64);
            agree(single);
        }
        let mut rng = Rng::new(0x4B45_4343_4146);
        for _ in 0..10_000 {
            agree(std::array::from_fn(|_| rng.next_u64()));
        }
    }

    #[test]
    fn zero_state_is_not_fixed_point() {
        let mut s = [0u64; LANES];
        keccak_f1600(&mut s);
        assert_ne!(s, [0u64; LANES]);
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut a = [0xdead_beef_u64; LANES];
        let mut b = [0xdead_beef_u64; LANES];
        keccak_f1600(&mut a);
        keccak_f1600(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn rounds_differ() {
        // Applying one round differs from applying two.
        let mut one = [1u64; LANES];
        let mut two = [1u64; LANES];
        round(&mut one, ROUND_CONSTANTS[0]);
        round(&mut two, ROUND_CONSTANTS[0]);
        round(&mut two, ROUND_CONSTANTS[1]);
        assert_ne!(one, two);
    }

    #[test]
    fn rho_offsets_match_fips_generation() {
        // Regenerate the ρ offsets from the (x, y) walk of FIPS 202 §3.2.2
        // and check they match the table.
        let mut computed = [0u32; LANES];
        let (mut x, mut y) = (1usize, 0usize);
        for t in 0..24u32 {
            computed[x + 5 * y] = ((t + 1) * (t + 2) / 2) % 64;
            let (nx, ny) = (y, (2 * x + 3 * y) % 5);
            x = nx;
            y = ny;
        }
        assert_eq!(computed, RHO_OFFSETS);
    }

    #[test]
    fn round_constants_match_lfsr_generation() {
        // FIPS 202 §3.2.5: rc(t) from the LFSR x^8 + x^6 + x^5 + x^4 + 1.
        fn rc_bit(t: usize) -> u64 {
            let mut r: u16 = 1;
            for _ in 0..t {
                r <<= 1;
                if r & 0x100 != 0 {
                    r ^= 0x171;
                }
            }
            (r & 1) as u64
        }
        for (ir, &expect) in ROUND_CONSTANTS.iter().enumerate() {
            let mut rc = 0u64;
            for j in 0..=6 {
                rc |= rc_bit(j + 7 * ir) << ((1usize << j) - 1);
            }
            assert_eq!(rc, expect, "round constant {ir}");
        }
    }
}
