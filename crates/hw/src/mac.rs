//! Multiply-and-accumulate building blocks.
//!
//! Three MAC flavours appear in the paper:
//!
//! * the **baseline MAC** of \[10\] — each MAC owns an Algorithm-2
//!   shift-and-add multiplier ([`shift_add_multiply`]);
//! * the **centralized MAC** of HS-I — the multiples are computed once
//!   per public coefficient ([`multiples`]) and each MAC only selects and
//!   accumulates ([`select_multiple`]);
//! * the **DSP MAC** of HS-II — lives in `saber-core::dsp_packed`, built
//!   on [`crate::dsp::DspBank`].
//!
//! All functions here are *combinational* (pure): sequencing is the
//! architecture's job. Each checks its operands' widths and panics on a
//! violation. These scalar forms are the reference for every MAC in the
//! workspace: LW's four MACs call them directly, while the 256-lane
//! datapaths of the baseline and HS-I (`saber-core::engine`) run the
//! same selection and shift-and-add as branch-free lane loops that test
//! these checks once per cycle, folded over the lanes, and fall back to
//! the functions here to raise a violation on the lane that caused it.

use crate::area::{self, Area};

/// 13-bit coefficient mask.
const MASK13: u32 = (1 << 13) - 1;

/// Largest selector magnitude supported by the shift-and-add multiplier
/// (Algorithm 2 supports `0 ≤ s ≤ 5`, covering LightSaber's ±5).
pub const MAX_MULTIPLE: u8 = 5;

/// Algorithm 2: multiplies a 13-bit coefficient by a small magnitude
/// using shifts and additions only.
///
/// ```text
/// r0 ← 0, r1 ← a, r2 ← a≪1, r3 ← a + (a≪1), r4 ← a≪2, r5 ← a + (a≪2)
/// return r_s
/// ```
///
/// # Panics
///
/// Panics if `a` exceeds 13 bits or `s_mag > 5` (hardware width
/// violations).
///
/// # Examples
///
/// ```
/// use saber_hw::mac::shift_add_multiply;
///
/// assert_eq!(shift_add_multiply(100, 3), 300);
/// assert_eq!(shift_add_multiply(8191, 4), (8191 * 4) % 8192);
/// ```
#[must_use]
#[inline]
pub fn shift_add_multiply(a: u16, s_mag: u8) -> u16 {
    assert!(u32::from(a) <= MASK13, "operand exceeds 13 bits");
    assert!(s_mag <= MAX_MULTIPLE, "selector exceeds Algorithm 2 range");
    let a = u32::from(a);
    let r = match s_mag {
        0 => 0,
        1 => a,
        2 => a << 1,
        3 => a + (a << 1),
        4 => a << 2,
        5 => a + (a << 2),
        _ => unreachable!(),
    };
    (r & MASK13) as u16
}

/// The HS-I centralized precomputation: all multiples `{0·a .. 5·a}` of
/// one public coefficient, computed once and broadcast to every MAC.
#[must_use]
#[inline]
pub fn multiples(a: u16) -> [u16; 6] {
    [
        shift_add_multiply(a, 0),
        shift_add_multiply(a, 1),
        shift_add_multiply(a, 2),
        shift_add_multiply(a, 3),
        shift_add_multiply(a, 4),
        shift_add_multiply(a, 5),
    ]
}

/// The HS-I per-MAC residue: select the right multiple by |s| and add or
/// subtract it from the accumulator depending on the sign of `s`.
///
/// The sign acts as a mask, not a branch (the add/subtract unit of the
/// MAC), and the range check reads the magnitude, so the host's control
/// flow does not follow the secret's sign either.
///
/// # Panics
///
/// Panics if `|s| > 5` or the accumulator exceeds 13 bits.
#[must_use]
#[inline]
pub fn select_multiple(multiples: &[u16; 6], s: i8, acc: u16) -> u16 {
    let magnitude = s.unsigned_abs();
    assert!(magnitude <= MAX_MULTIPLE, "selector exceeds range");
    assert!(u32::from(acc) <= MASK13, "accumulator exceeds 13 bits");
    let m = u32::from(multiples[usize::from(magnitude)]);
    accumulate_signed(acc, m, s)
}

/// A baseline MAC step: multiply inside the MAC (Algorithm 2), then
/// accumulate — the \[10\] structure.
#[must_use]
#[inline]
pub fn baseline_mac(a: u16, s: i8, acc: u16) -> u16 {
    let product = u32::from(shift_add_multiply(a, s.unsigned_abs()));
    accumulate_signed(acc, product, s)
}

/// `acc ± m mod 2^13`, with the sign of `s` choosing between them.
///
/// `neg` is all ones when `s < 0`, and `(m ^ neg) − neg` is then `−m`;
/// the wrapping arithmetic is exact mod 2^13 because 2^13 divides 2^32.
#[inline]
fn accumulate_signed(acc: u16, m: u32, s: i8) -> u16 {
    let neg = (i32::from(s) >> 7) as u32;
    let term = (m ^ neg).wrapping_sub(neg);
    (u32::from(acc).wrapping_add(term) & MASK13) as u16
}

/// Area of a baseline MAC (its own shift-add multiplier + accumulator
/// adder/subtractor).
#[must_use]
pub fn baseline_mac_area() -> Area {
    area::shift_add_multiplier(13) + area::adder(13)
}

/// Area of a centralized (HS-I) MAC: selector mux + accumulator adder.
#[must_use]
pub fn centralized_mac_area() -> Area {
    area::multiple_selector(13) + area::adder(13)
}

/// Area of the single shared multiple-generator of HS-I.
#[must_use]
pub fn multiple_generator_area() -> Area {
    // a≪1 / a≪2 are wiring; 3a and 5a need one adder each.
    area::adder(14) + area::adder(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_shift_add_matches_integer_multiply() {
        // All 8192 × 6 combinations — the oracle for every MAC in the
        // workspace.
        for a in 0u16..8192 {
            for s in 0u8..=5 {
                assert_eq!(
                    shift_add_multiply(a, s),
                    ((u32::from(a) * u32::from(s)) & MASK13) as u16,
                    "a = {a}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn multiples_are_consistent() {
        for a in [0u16, 1, 4096, 8191] {
            let m = multiples(a);
            for (s, &v) in m.iter().enumerate() {
                assert_eq!(v, shift_add_multiply(a, s as u8));
            }
        }
    }

    #[test]
    fn centralized_equals_baseline_mac() {
        // The HS-I claim: centralization does not change the computation.
        // Every 13-bit public coefficient, every selector and the
        // accumulator's boundary values, against the integer reference
        // `acc + s·a mod 2^13` as well.
        for a in 0u16..8192 {
            let m = multiples(a);
            for s in -5i8..=5 {
                for acc in [0u16, 1, 4095, 4096, 8191] {
                    let expected =
                        (i32::from(acc) + i32::from(s) * i32::from(a)).rem_euclid(8192) as u16;
                    let centralized = select_multiple(&m, s, acc);
                    assert_eq!(centralized, expected, "a = {a}, s = {s}, acc = {acc}");
                    assert_eq!(
                        centralized,
                        baseline_mac(a, s, acc),
                        "a = {a}, s = {s}, acc = {acc}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "selector exceeds range")]
    fn select_multiple_rejects_a_wide_selector() {
        let _ = select_multiple(&multiples(1), -6, 0);
    }

    #[test]
    #[should_panic(expected = "accumulator exceeds 13 bits")]
    fn select_multiple_rejects_a_wide_accumulator() {
        let _ = select_multiple(&multiples(1), 1, 8192);
    }

    #[test]
    fn negative_selectors_subtract() {
        assert_eq!(baseline_mac(10, -2, 100), 80);
        assert_eq!(baseline_mac(10, -2, 0), (8192 - 20) as u16);
    }

    #[test]
    fn centralized_mac_is_smaller_than_baseline_mac() {
        assert!(centralized_mac_area().luts < baseline_mac_area().luts);
    }

    #[test]
    #[should_panic(expected = "exceeds Algorithm 2 range")]
    fn selector_range_enforced() {
        let _ = shift_add_multiply(1, 6);
    }

    #[test]
    #[should_panic(expected = "exceeds 13 bits")]
    fn operand_width_enforced() {
        let _ = shift_add_multiply(8192, 1);
    }
}
