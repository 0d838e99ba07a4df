//! Constant-time multiplier: Toom-4 in wrapping `u16` lanes over a
//! register-blocked schoolbook, with a secret-independent scan order and
//! memory access pattern.
//!
//! The shortcuts that make a software multiplier fast tend to depend on
//! the *secret* operand: scanning only the positions that hold each
//! nonzero secret value makes the work proportional to the secret's
//! support, and a separate path for negative coefficients makes it
//! depend on the sign pattern. [`CtSchoolbookMultiplier`] takes neither,
//! and is still the fastest multiplier in the workspace and the one
//! hot-path engine (README "Engines").
//!
//! # The kernel
//!
//! Each operand splits into four [`LIMB`]-coefficient limbs,
//! `a = a_0 + y·a_1 + y²·a_2 + y³·a_3` with `y = x^64`, and the limb
//! polynomials are evaluated at the seven points {0, 1, −1, 2, −2, 3, ∞}
//! of [`toom`](crate::toom), the multiplier of the original Saber
//! submission. A product becomes seven 64 × 64 limb products
//! `W_i = a(t_i)·s(t_i)`. Multiply-accumulates per 256 × 256 product:
//!
//! | kernel | MACs |
//! |---|---|
//! | schoolbook | 65,536 (256²) |
//! | one Karatsuba level | 49,152 (3 · 128²) |
//! | Toom-4 (this engine) | 28,672 (7 · 64²) |
//!
//! Each limb product is a register-blocked schoolbook ([`mac_block`]):
//! one pass takes [`BLOCK`] secret lanes and runs once over the
//! [`WINDOW`] arena lanes they touch, so every arena lane is loaded and
//! stored once per `BLOCK` MACs. The public limb is padded with
//! `BLOCK − 1` zeros on each side ([`PADDED`]), so every shifted read is
//! a fixed in-bounds slice.
//!
//! [`PolyMultiplier::inner_product`] accumulates the seven limb products
//! of every pair in seven stack arenas, then interpolates the degree-6
//! limb product and folds `x^256 ≡ −1` once per output, not once per
//! product ("lazy interpolation"). [`PolyMultiplier::multiply`] is the
//! same code run on one pair. The public operand is evaluated per call,
//! not cached: evaluating both operands costs about 8 % of a rank-3 inner
//! product, against about 87 % for its 21 limb products and 5 % for the
//! interpolation and fold.
//!
//! # Exactness
//!
//! Every lane is a wrapping `u16`. The evaluations, the MACs, the
//! interpolation's sums and the fold are `+`, `−` or `×` mod 2^16, so
//! each arena holds its exact integer sum mod 2^16. Evaluated operands
//! need no bound: `a(3)` of an all-`0x1fff` public wraps, and the wrap is
//! harmless, because the evaluation is a ring homomorphism mod 2^16.
//!
//! Interpolation is the one step that divides. Row `k` of `toom`'s exact
//! rational inverse gives limb-product coefficient `c_k = Σ_i inv_ki·W_i`.
//! Its integer form is `n_k = D_k · inv_k`, with the row's least common
//! denominator `D_k = 2^e_k · o_k` and `o_k` odd, so
//! `Σ_i n_ki·W_i = D_k · c_k` over ℤ. Odd `o_k` is invertible mod 2^16,
//! so each output lane computes
//!
//! `((Σ_i n_ki·W_i) · o_k⁻¹ mod 2^16) >> e_k  =  c_k mod 2^(16 − e_k)`,
//!
//! with `o_k⁻¹` folded into the row's weights at compile time.
//!
//! For these points D = 1, 60, 24, 24, 24, 120, 1 and e = 0, 2, 3, 3, 3,
//! 3, 0 (`INTERPOLATION`), so every output is exact mod 2^13 = q. That
//! is all [`PolyQ`] keeps, and more than `inner_product_mod_p` needs
//! (mod 2^10). The division by 8 spends exactly the 3 bits that
//! q = 2^13 leaves spare in a 16-bit lane: the paper's HS-I observation
//! (§3.1: narrow MAC registers make the mod-q reduction free), one step
//! further.
//!
//! Lazy interpolation stays exact: interpolation is linear over ℤ, so
//! `D_k` divides `Σ_i n_ki·W_i` for the sum of ℓ pairs' evaluated
//! products as it does for one, and the arenas hold that sum exactly mod
//! 2^16. The `wrapping_*` operations carry no overflow check even under
//! `overflow-checks = true`, so LLVM vectorizes [`mac_block`] into 8-lane
//! SSE2 `pmullw`/`paddw` on baseline x86-64.
//!
//! # Secret independence
//!
//! The trip count of every loop, and every address read or written, is
//! a function of `N`, [`BLOCK`] and the number of pairs alone, all of
//! which are public: each pair is split, evaluated and scanned block by
//! block in the same order whatever its values. Evaluation and
//! interpolation are fixed sequences of additions, multiplications by
//! constants and shifts by constants. There is no branch on a secret, no
//! early exit or zero skip, and no secret-indexed table; secret lanes
//! enter only as multiplicands of `wrapping_mul` and as addends of
//! `wrapping_add`, and the evaluated operands stay private to this
//! module. The residual assumption, standard for this style of
//! hardening, is that the CPU's integer multiply has operand-independent
//! latency (true of every mainstream 64-bit core; see DESIGN.md §14 for
//! the threat model). The `saber-timing` crate's dudect-style harness is
//! the *measured* check on that assumption: this engine is the one
//! backend expected to pass the fixed-vs-random leakage gate.

use crate::modulus::{EPS_Q, N};
use crate::mul::PolyMultiplier;
use crate::poly::PolyQ;
use crate::secret::SecretPoly;
use crate::toom::{FINITE_POINTS, LIMBS, POINTS};

// Interpolation divides by up to 2^3, so the u16 lanes are exact only
// mod 2^(16 − 3), and q must divide that: the 3 is the bits the division
// by 8 spends.
const _: () = assert!(EPS_Q + 3 <= 16);

/// Secret lanes per pass of the blocked schoolbook, chosen by paired
/// measurement against 2 and 8.
pub const BLOCK: usize = 4;

/// Coefficients per limb: Toom-4 splits each operand into four.
pub const LIMB: usize = N / LIMBS;

/// Arena lanes one [`mac_block`] pass writes: a limb shifted by up to
/// `BLOCK − 1`.
pub const WINDOW: usize = LIMB + BLOCK - 1;

/// Length of a public limb padded with `BLOCK − 1` zeros on each side.
pub const PADDED: usize = LIMB + 2 * (BLOCK - 1);

/// Lanes of a limb-product arena: `2·LIMB − 1` are written, the last
/// stays zero.
const ARENA: usize = 2 * LIMB;

const _: () = assert!(LIMB.is_multiple_of(BLOCK));

/// Row `i` weighs the four limbs for evaluation point `i`: the powers
/// `t^0 .. t^3` of `toom`'s finite points mod 2^16, then ∞, which reads
/// the leading limb.
const EVALUATION: [[u16; LIMBS]; POINTS] = {
    let mut rows = [[0u16; LIMBS]; POINTS];
    let mut i = 0;
    while i < POINTS - 1 {
        let mut power: i128 = 1;
        let mut j = 0;
        while j < LIMBS {
            // Truncation keeps the low 16 bits: reduction mod 2^16.
            rows[i][j] = power as u16;
            power *= FINITE_POINTS[i];
            j += 1;
        }
        i += 1;
    }
    rows[POINTS - 1][LIMBS - 1] = 1;
    rows
};

/// Row `k` of the integer interpolation: `num` is `n_k`, and
/// `D_k = 2^shift · odd` (module doc, "Exactness").
struct Row {
    num: [i16; POINTS],
    odd: u16,
    shift: u32,
}

/// `toom`'s exact rational inverse with each row scaled by its least
/// common denominator; the `interpolation_rows_rebuild_from_toom` test
/// derives every entry from that inverse.
#[rustfmt::skip]
const INTERPOLATION: [Row; POINTS] = [
    Row { num: [1, 0, 0, 0, 0, 0, 0], odd: 1, shift: 0 },
    Row { num: [-20, 60, -30, -15, 3, 2, -720], odd: 15, shift: 2 },
    Row { num: [-30, 16, 16, -1, -1, 0, 96], odd: 3, shift: 3 },
    Row { num: [10, -14, -1, 7, -1, -1, 360], odd: 3, shift: 3 },
    Row { num: [6, -4, -4, 1, 1, 0, -120], odd: 3, shift: 3 },
    Row { num: [-10, 10, 5, -5, -1, 1, -360], odd: 15, shift: 3 },
    Row { num: [0, 0, 0, 0, 0, 0, 1], odd: 1, shift: 0 },
];

/// The inverse of an odd `o` mod 2^16 by Newton's iteration: `o·o ≡ 1
/// (mod 8)` gives 3 correct low bits, and each step doubles them.
const fn inverse_mod_2_16(odd: u16) -> u16 {
    let mut inv = odd;
    let mut correct_bits = 3;
    while correct_bits < 16 {
        inv = inv.wrapping_mul(2u16.wrapping_sub(odd.wrapping_mul(inv)));
        correct_bits *= 2;
    }
    inv
}

/// `n_k · o_k⁻¹ mod 2^16` per row: one multiply per term does the sum
/// and the odd division together.
const WEIGHTS: [[u16; POINTS]; POINTS] = {
    let mut weights = [[0u16; POINTS]; POINTS];
    let mut k = 0;
    while k < POINTS {
        let inv = inverse_mod_2_16(INTERPOLATION[k].odd);
        let mut i = 0;
        while i < POINTS {
            // `as` sign-extends: -1 becomes 0xffff ≡ -1 (mod 2^16).
            weights[k][i] = (INTERPOLATION[k].num[i] as u16).wrapping_mul(inv);
            i += 1;
        }
        k += 1;
    }
    weights
};

/// Constant-time Toom-4-over-blocked-schoolbook backend, the hot-path
/// engine.
///
/// # Examples
///
/// ```
/// use saber_ring::mul::{PolyMultiplier, SchoolbookMultiplier};
/// use saber_ring::{CtSchoolbookMultiplier, PolyQ, SecretPoly};
///
/// let a = PolyQ::from_fn(|i| (i as u16 * 31) & 0x1fff);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// let mut ct = CtSchoolbookMultiplier::new();
/// let mut oracle = SchoolbookMultiplier;
/// let product = oracle.multiply(&a, &s);
/// assert_eq!(ct.multiply(&a, &s), product);
/// assert_eq!(ct.inner_product(&[(&a, &s), (&a, &s)]), &product + &product);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtSchoolbookMultiplier;

impl CtSchoolbookMultiplier {
    /// A fresh engine. It holds no state: the arenas live on the stack
    /// of each call.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

/// One pass of the blocked scan:
/// `window[m] += Σ_t padded[BLOCK − 1 − t + m] · secrets[t]` in wrapping
/// `u16` lanes, for `BLOCK` secret lanes (sign-extended to 16 bits).
///
/// Each window lane is loaded and stored once per `BLOCK` MACs. For the
/// block of secret lanes `j .. j + BLOCK` of a limb product, the window
/// is the arena's lanes `j .. j + WINDOW`. It is public so that timing
/// mutants can reuse the shipped kernel verbatim.
#[inline]
pub fn mac_block(window: &mut [u16; WINDOW], padded: &[u16; PADDED], secrets: &[u16; BLOCK]) {
    let rows: [&[u16; WINDOW]; BLOCK] = std::array::from_fn(|t| {
        padded[BLOCK - 1 - t..][..WINDOW]
            .try_into()
            .expect("WINDOW lanes")
    });
    for (m, slot) in window.iter_mut().enumerate() {
        let mut acc = *slot;
        for (row, &s) in rows.iter().zip(secrets) {
            acc = acc.wrapping_add(row[m].wrapping_mul(s));
        }
        *slot = acc;
    }
}

/// Adds the limb product `padded · secrets` into `arena`, one
/// [`mac_block`] pass per block of secret lanes.
fn limb_product(arena: &mut [u16; ARENA], padded: &[u16; PADDED], secrets: &[u16; LIMB]) {
    for (j, block) in secrets.chunks_exact(BLOCK).enumerate() {
        let start = j * BLOCK;
        let window = (&mut arena[start..start + WINDOW])
            .try_into()
            .expect("WINDOW lanes");
        mac_block(window, padded, block.try_into().expect("BLOCK lanes"));
    }
}

/// Evaluates the four limbs of `coeffs` at the seven points into lanes
/// `offset .. offset + LIMB` of the rows of `out`; the other lanes are
/// left as they are.
fn evaluate<const LANES: usize>(
    coeffs: &[u16; N],
    out: &mut [[u16; LANES]; POINTS],
    offset: usize,
) {
    for i in 0..LIMB {
        let limbs: [u16; LIMBS] = std::array::from_fn(|j| coeffs[j * LIMB + i]);
        for (row, weights) in out.iter_mut().zip(&EVALUATION) {
            row[offset + i] = dot(weights, &limbs);
        }
    }
}

/// `Σ weights[i]·lanes[i]` mod 2^16. Called lane by lane with a row of a
/// constant table, so the compiler folds the row's zero and unit weights
/// away and vectorizes across lanes.
fn dot<const L: usize>(weights: &[u16; L], lanes: &[u16; L]) -> u16 {
    weights
        .iter()
        .zip(lanes)
        .fold(0, |acc, (&w, &v)| acc.wrapping_add(w.wrapping_mul(v)))
}

/// The seven limb-product sums of one inner product, `Σ a(t_i)·s(t_i)`
/// over its pairs, one arena per evaluation point.
struct Arenas([[u16; ARENA]; POINTS]);

impl Arenas {
    fn new() -> Self {
        Self([[0; ARENA]; POINTS])
    }

    /// Evaluates one pair at the seven points and adds its limb products.
    fn accumulate(&mut self, public: &PolyQ, secret: &SecretPoly) {
        let mut publics = [[0u16; PADDED]; POINTS];
        let mut secrets = [[0u16; LIMB]; POINTS];
        evaluate(public.coeffs(), &mut publics, BLOCK - 1);
        // `as` sign-extends: -1 becomes 0xffff ≡ -1 (mod 2^16).
        evaluate(&secret.coeffs().map(|c| c as u16), &mut secrets, 0);
        for ((arena, padded), secrets) in self.0.iter_mut().zip(&publics).zip(&secrets) {
            limb_product(arena, padded, secrets);
        }
    }

    /// Interpolation and negacyclic fold. Row `k` turns the arenas into
    /// limb-product coefficient `c_k` mod 2^(16 − e_k), which lands at
    /// `x^(64·k)` of the unreduced 511-coefficient product; `x^N ≡ −1`
    /// then folds lanes `N..` onto `0..N` with a minus sign.
    fn interpolate_fold(&self) -> PolyQ {
        let mut coeffs = [[0u16; ARENA]; POINTS];
        for m in 0..ARENA {
            let products: [u16; POINTS] = std::array::from_fn(|i| self.0[i][m]);
            for ((c, weights), row) in coeffs.iter_mut().zip(&WEIGHTS).zip(&INTERPOLATION) {
                c[m] = dot(weights, &products) >> row.shift;
            }
        }
        let mut full = [0u16; 2 * N];
        for (k, c) in coeffs.iter().enumerate() {
            for (slot, &v) in full[k * LIMB..].iter_mut().zip(c) {
                *slot = slot.wrapping_add(v);
            }
        }
        let (low, high) = full.split_at(N);
        PolyQ::from_fn(|k| low[k].wrapping_sub(high[k]))
    }
}

impl PolyMultiplier for CtSchoolbookMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        self.inner_product(&[(public, secret)])
    }

    // multiply_batch: the trait default (a plain map over `multiply`)
    // is already secret-independent — no override.

    fn inner_product(&mut self, pairs: &[(&PolyQ, &SecretPoly)]) -> PolyQ {
        let mut arenas = Arenas::new();
        for (public, secret) in pairs {
            arenas.accumulate(public, secret);
        }
        arenas.interpolate_fold()
    }

    fn name(&self) -> &str {
        "ct-schoolbook constant-time (software)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::SchoolbookMultiplier;
    use crate::toom::{gcd, interpolation_matrix};
    use saber_testkit::Rng;

    #[test]
    fn interpolation_rows_rebuild_from_toom() {
        for (k, (inverse, row)) in interpolation_matrix()
            .iter()
            .zip(&INTERPOLATION)
            .enumerate()
        {
            let lcd = inverse.iter().fold(1i128, |d, f| {
                d / gcd(d.unsigned_abs(), f.den.unsigned_abs()) as i128 * f.den
            });
            let num: Vec<i128> = inverse.iter().map(|f| f.num * (lcd / f.den)).collect();
            let shift = lcd.trailing_zeros();
            let expected: Vec<i128> = row.num.iter().map(|&n| i128::from(n)).collect();
            assert_eq!(num, expected, "n_{k}");
            assert_eq!(lcd >> shift, i128::from(row.odd), "o_{k}");
            assert_eq!(shift, row.shift, "e_{k}");
            assert!(row.shift <= 3, "row {k} spends more than the 3 spare bits");
            let inv = inverse_mod_2_16(row.odd);
            assert_eq!(row.odd.wrapping_mul(inv), 1, "o_{k}⁻¹");
        }
    }

    #[test]
    fn matches_the_schoolbook_oracle_on_random_operands() {
        let mut rng = Rng::new(0x5ABE_C701);
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        for _ in 0..24 {
            let a = PolyQ::from_fn(|_| (rng.next_u32() & 0x1fff) as u16);
            let s = SecretPoly::from_fn(|_| rng.secret_coeff(5));
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
    }

    #[test]
    fn zero_secret_yields_zero_product() {
        let mut ct = CtSchoolbookMultiplier::new();
        let a = PolyQ::from_fn(|i| (i as u16) & 0x1fff);
        let product = ct.multiply(&a, &SecretPoly::zero());
        assert_eq!(product, PolyQ::zero());
    }

    #[test]
    fn extreme_magnitude_secrets_stay_exact() {
        // All-(+5) and all-(-5) secrets maximize the accumulator bound.
        let mut ct = CtSchoolbookMultiplier::new();
        let mut oracle = SchoolbookMultiplier;
        let a = PolyQ::from_fn(|_| 0x1fff);
        for mag in [5i8, -5] {
            let s = SecretPoly::from_fn(|_| mag);
            assert_eq!(ct.multiply(&a, &s), oracle.multiply(&a, &s));
        }
    }

    #[test]
    fn mac_block_reads_shifted_padded_lanes() {
        // A unit secret in lane t copies the limb, shifted by t, into the
        // window.
        let mut padded = [0u16; PADDED];
        for (i, lane) in padded[BLOCK - 1..][..LIMB].iter_mut().enumerate() {
            *lane = i as u16 + 1;
        }
        for t in 0..BLOCK {
            let mut secrets = [0u16; BLOCK];
            secrets[t] = 1;
            let mut window = [0u16; WINDOW];
            mac_block(&mut window, &padded, &secrets);
            for (m, &lane) in window.iter().enumerate() {
                let expected = if (t..t + LIMB).contains(&m) {
                    (m - t) as u16 + 1
                } else {
                    0
                };
                assert_eq!(lane, expected, "lane {m}, secret lane {t}");
            }
        }
    }
}
