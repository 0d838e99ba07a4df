//! Seeded-fault mutants of the cycle-accurate datapaths, for
//! verification *sensitivity* testing.
//!
//! A differential test layer is only trustworthy if it demonstrably
//! fails when the hardware is wrong. This module provides a catalogue of
//! single-point faults — each one a realistic bug in an HS-I, HS-II or
//! LW datapath — and a [`FaultyMultiplier`] that runs the affected
//! dataflow with exactly that fault seeded. The `saber-verify`
//! differential fuzzer is required (and CI-gated) to detect **every**
//! variant: a mutation-style check proving the test corpus exercises the
//! sign handling, the negacyclic wrap, the HS-II carry/borrow correction
//! network and the DSP pipeline alignment, rather than merely passing on
//! easy inputs.
//!
//! The mutants replay the *functional* dataflow of their parent
//! architecture (same operand walk, same packing, same correction
//! network) with one deviation; cycle accounting is not simulated — a
//! seeded fault is about computing the wrong product, not the wrong
//! cycle count.
//!
//! # Examples
//!
//! ```
//! use saber_core::fault::{Fault, FaultyMultiplier};
//! use saber_ring::{schoolbook, PolyMultiplier, PolyQ, SecretPoly};
//!
//! let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(181) & 0x1fff);
//! let s = SecretPoly::from_fn(|i| (((i * 3) % 9) as i8) - 4);
//! let mut mutant = FaultyMultiplier::new(Fault::HsIMuxSelectFlip);
//! assert_ne!(mutant.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
//! ```

use saber_hw::mac::multiples;
use saber_ring::{ct, PolyMultiplier, PolyQ, SecretPoly, N};

use crate::dsp_packed::{self, pack, SignPlan, MAX_PACKED_MAGNITUDE, PACK_SHIFT};
use crate::engine::rotated;

const MASK13: u32 = (1 << 13) - 1;
const MASK15: i64 = (1 << 15) - 1;

/// The catalogue of seeded single-point faults.
///
/// Each variant corresponds to one plausible RTL defect in the paper's
/// architectures; together they cover every subtle correctness mechanism
/// the models rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// HS-I: the multiple-select line's LSB is inverted, so every MAC
    /// reads the neighbouring multiple (`|s| ⊕ 1`) from the broadcast
    /// bus.
    HsIMuxSelectFlip,
    /// HS-I: the rotating secret buffer forgets the negacyclic negation
    /// when a coefficient wraps past `x^255` (`x^256 = +1` instead of
    /// `−1`).
    HsIRotationSignDropped,
    /// HS-II: the §3.2 third-field correction is removed entirely — the
    /// LSB check against `a1[0] & s1[0]` never repairs the carry/borrow
    /// out of the 16-bit middle sum.
    HsIICarryFixDropped,
    /// HS-II: only the correction the paper's *text* spells out is kept
    /// (the carry subtract-one); the borrow repairs for negated-`a0`
    /// operand pairs are missing.
    HsIIBorrowRepairDropped,
    /// HS-II: the in-flight metadata ring is skewed by one slot, pairing
    /// each DSP result with the side-band signals of the *next* issue
    /// cycle (a pipeline-depth mismatch between datapath and control).
    HsIIPipelineSkew,
    /// LW: the block-pass wrap comparator is gone, so contributions that
    /// wrap past `x^255` are accumulated with the wrong (positive) sign.
    LwWrapSignDropped,
    /// LW: the secret sign line into the MAC is stuck at *add* — every
    /// selected multiple is accumulated with positive sign.
    LwSecretSignIgnored,
}

impl Fault {
    /// Every fault in the catalogue (the sensitivity gate iterates this).
    pub const ALL: [Fault; 7] = [
        Fault::HsIMuxSelectFlip,
        Fault::HsIRotationSignDropped,
        Fault::HsIICarryFixDropped,
        Fault::HsIIBorrowRepairDropped,
        Fault::HsIIPipelineSkew,
        Fault::LwWrapSignDropped,
        Fault::LwSecretSignIgnored,
    ];

    /// Largest secret magnitude the faulted datapath accepts: the HS-II
    /// mutants inherit the 15-bit packing budget (|s| ≤ 4), everything
    /// else supports the full LightSaber range.
    #[must_use]
    pub fn secret_bound(self) -> i8 {
        match self {
            Fault::HsIICarryFixDropped
            | Fault::HsIIBorrowRepairDropped
            | Fault::HsIIPipelineSkew => MAX_PACKED_MAGNITUDE,
            _ => 5,
        }
    }

    /// Short human-readable label (used in mutant names and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fault::HsIMuxSelectFlip => "HS-I mux-select flip",
            Fault::HsIRotationSignDropped => "HS-I rotation sign dropped",
            Fault::HsIICarryFixDropped => "HS-II carry fix dropped",
            Fault::HsIIBorrowRepairDropped => "HS-II borrow repair dropped",
            Fault::HsIIPipelineSkew => "HS-II pipeline skew",
            Fault::LwWrapSignDropped => "LW wrap sign dropped",
            Fault::LwSecretSignIgnored => "LW secret sign ignored",
        }
    }
}

/// A multiplier backend running its parent datapath with one seeded
/// [`Fault`].
#[derive(Debug, Clone)]
pub struct FaultyMultiplier {
    fault: Fault,
    name: String,
}

impl FaultyMultiplier {
    /// Creates the mutant for `fault`.
    #[must_use]
    pub fn new(fault: Fault) -> Self {
        Self {
            fault,
            name: format!("mutant: {}", fault.label()),
        }
    }

    /// The seeded fault.
    #[must_use]
    pub fn fault(&self) -> Fault {
        self.fault
    }
}

impl PolyMultiplier for FaultyMultiplier {
    /// # Panics
    ///
    /// The HS-II mutants panic, like their parent, on secrets with
    /// |s| > 4 (see [`Fault::secret_bound`]).
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        match self.fault {
            Fault::HsIMuxSelectFlip => hs1_mux_select_flip(public, secret),
            Fault::HsIRotationSignDropped => hs1_rotation_sign_dropped(public, secret),
            Fault::HsIICarryFixDropped => hs2_with_unpack(public, secret, unpack_no_correction),
            Fault::HsIIBorrowRepairDropped => hs2_with_unpack(public, secret, |p, plan, info| {
                dsp_packed::unpack_paper_text_only(p, plan, info.a1_lsb, info.s1_mag_lsb)
            }),
            Fault::HsIIPipelineSkew => hs2_pipeline_skew(public, secret),
            Fault::LwWrapSignDropped => lw_wrap_sign_dropped(public, secret),
            Fault::LwSecretSignIgnored => lw_secret_sign_ignored(public, secret),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The catalogue of seeded *timing* faults: mutants that compute the
/// **correct** product with secret-dependent execution time.
///
/// These are the positive controls for the `saber-timing` leakage
/// harness, playing the role [`Fault`] plays for the differential
/// fuzzer: a statistical timing gate is only trustworthy if it
/// demonstrably fires when a backend's timing *does* depend on the
/// secret. Because every output is bit-exact, the differential fuzzer
/// is blind to these by construction — only the fixed-vs-random timing
/// test can catch them, which is exactly what the CI `timing_gate`
/// asserts. They are deliberately a separate enum from [`Fault`]:
/// the sensitivity gate requires every [`Fault`] to change some
/// product, and these never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingFault {
    /// The shipped constant-time kernel (the u16-lane block pass of
    /// `saber_ring::ct`, called verbatim) with its uniformity removed:
    /// blocks of all-zero secret lanes skip their accumulation pass (a
    /// "harmless-looking" optimization that makes runtime proportional
    /// to the secret's support — the exact leak
    /// `saber_ring::ct::CtSchoolbookMultiplier` exists to avoid).
    CtScanEarlyExit,
    /// The same shipped kernel with a sign branch: a block of secret
    /// lanes holding a negative coefficient takes a second accumulation
    /// pass for the negative magnitudes, which is then subtracted —
    /// runtime depends on the secret's sign pattern, not its support
    /// (the data-dependent branch an HS-II-style sign split invites).
    CtSignBranch,
}

impl TimingFault {
    /// Every timing fault (the `timing_gate` iterates this).
    pub const ALL: [TimingFault; 2] = [TimingFault::CtScanEarlyExit, TimingFault::CtSignBranch];

    /// Short human-readable label (used in mutant names and reports).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TimingFault::CtScanEarlyExit => "ct scan early-exit on zero",
            TimingFault::CtSignBranch => "ct sign branch",
        }
    }
}

/// A multiplier backend that computes correct products with one seeded
/// [`TimingFault`] — secret-dependent timing, bit-exact output.
#[derive(Debug, Clone)]
pub struct TimingLeakMultiplier {
    fault: TimingFault,
    name: String,
}

impl TimingLeakMultiplier {
    /// Creates the timing mutant for `fault`.
    #[must_use]
    pub fn new(fault: TimingFault) -> Self {
        Self {
            fault,
            name: format!("timing mutant: {}", fault.label()),
        }
    }

    /// The seeded timing fault.
    #[must_use]
    pub fn fault(&self) -> TimingFault {
        self.fault
    }
}

impl PolyMultiplier for TimingLeakMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        match self.fault {
            TimingFault::CtScanEarlyExit => ct_scan_early_exit(public, secret),
            TimingFault::CtSignBranch => ct_sign_branch(public, secret),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The shipped ct kernel ([`saber_ring::ct::mac_block`], called
/// verbatim) run as a plain blocked schoolbook — each public limb times
/// the whole secret, into one `2N` arena, then the negacyclic fold.
/// `pass` accumulates one block of secret lanes into its window; the
/// timing mutants differ only in it.
fn blocked_schoolbook<F>(public: &PolyQ, secret: &SecretPoly, mut pass: F) -> PolyQ
where
    F: FnMut(&mut [u16; ct::WINDOW], &[u16; ct::PADDED], &[i8]),
{
    let mut acc = [0u16; 2 * N];
    for (i, limb) in public.coeffs().chunks_exact(ct::LIMB).enumerate() {
        let mut padded = [0u16; ct::PADDED];
        padded[ct::BLOCK - 1..][..ct::LIMB].copy_from_slice(limb);
        for (j, block) in secret.coeffs().chunks_exact(ct::BLOCK).enumerate() {
            let start = i * ct::LIMB + j * ct::BLOCK;
            let window = (&mut acc[start..start + ct::WINDOW])
                .try_into()
                .expect("WINDOW lanes");
            pass(window, &padded, block);
        }
    }
    let (low, high) = acc.split_at(N);
    PolyQ::from_fn(|k| low[k].wrapping_sub(high[k]))
}

/// The blocked schoolbook with a secret-dependent early exit: a block
/// whose secret lanes are all zero contributes nothing, so skipping it
/// is *functionally* free — and makes runtime proportional to the
/// secret's support.
fn ct_scan_early_exit(public: &PolyQ, secret: &SecretPoly) -> PolyQ {
    blocked_schoolbook(public, secret, |window, padded, block| {
        if block.iter().all(|&c| c == 0) {
            return; // the planted leak: work ∝ nonzero blocks
        }
        // `as` sign-extends, as in the engine.
        let lanes: [u16; ct::BLOCK] = std::array::from_fn(|t| block[t] as u16);
        ct::mac_block(window, padded, &lanes);
    })
}

/// The blocked schoolbook with a sign branch: every block first
/// accumulates its positive lanes, and a block holding a negative lane
/// takes a second pass — the negative magnitudes into a scratch window,
/// which is then subtracted. The result is exact; the runtime depends on
/// the secret's sign pattern.
fn ct_sign_branch(public: &PolyQ, secret: &SecretPoly) -> PolyQ {
    blocked_schoolbook(public, secret, |window, padded, block| {
        let positive: [u16; ct::BLOCK] =
            std::array::from_fn(|t| u16::from(block[t].max(0).unsigned_abs()));
        ct::mac_block(window, padded, &positive);
        if block.iter().any(|&c| c < 0) {
            // The planted leak: only blocks with a negative lane pay this pass.
            let negative: [u16; ct::BLOCK] =
                std::array::from_fn(|t| u16::from(block[t].min(0).unsigned_abs()));
            let mut scratch = [0u16; ct::WINDOW];
            ct::mac_block(&mut scratch, padded, &negative);
            for (slot, &v) in window.iter_mut().zip(&scratch) {
                *slot = slot.wrapping_sub(v);
            }
        }
    })
}

fn add13(slot: &mut u16, value: u32, negate: bool) {
    let v = if negate {
        0u32.wrapping_sub(value)
    } else {
        value
    };
    *slot = (u32::from(*slot).wrapping_add(v) & MASK13) as u16;
}

/// HS-I dataflow with the select LSB inverted: lane `j` reads
/// `multiples[|s| ⊕ 1]` but keeps the correct sign.
fn hs1_mux_select_flip(a: &PolyQ, s: &SecretPoly) -> PolyQ {
    let mut acc = [0u16; N];
    for i in 0..N {
        let m = multiples(a.coeff(i));
        for (j, slot) in acc.iter_mut().enumerate() {
            let sel = rotated(s, i, j);
            let value = u32::from(m[(sel.unsigned_abs() ^ 1) as usize]);
            add13(slot, value, sel < 0);
        }
    }
    PolyQ::from_coeffs(acc)
}

/// HS-I dataflow where the rotating secret buffer re-enters coefficients
/// *un*-negated past the wrap (`x^256 = +1`).
fn hs1_rotation_sign_dropped(a: &PolyQ, s: &SecretPoly) -> PolyQ {
    let mut acc = [0u16; N];
    for i in 0..N {
        let m = multiples(a.coeff(i));
        for (j, slot) in acc.iter_mut().enumerate() {
            let t = (j + 2 * N - (i % (2 * N))) % (2 * N);
            // Fault: both halves of the rotation group read positively.
            let sel = if t < N { s.coeff(t) } else { s.coeff(t - N) };
            let value = u32::from(m[sel.unsigned_abs() as usize]);
            add13(slot, value, sel < 0);
        }
    }
    PolyQ::from_coeffs(acc)
}

/// Side-band metadata of one packed HS-II operation (mirror of the
/// parent's in-flight record).
#[derive(Clone, Copy)]
struct PackedInfo {
    a0_is_zero: bool,
    s0_mag_is_zero: bool,
    a1_lsb: u16,
    s1_mag_lsb: u16,
}

/// The §3.2 unpack with the third-field LSB correction removed entirely
/// (the borrow repair on the middle field is kept — this isolates the
/// carry fix).
fn unpack_no_correction(p: i64, plan: SignPlan, info: PackedInfo) -> dsp_packed::UnpackedProducts {
    let r0 = (p & MASK15) as u32;
    let mut r1 = ((p >> PACK_SHIFT) & MASK15) as u32;
    let r2 = ((p >> (2 * PACK_SHIFT)) & i64::from(MASK13)) as u32;
    if plan.invert_a0 && !info.a0_is_zero && !info.s0_mag_is_zero {
        r1 = (r1 + 1) & MASK15 as u32;
    }
    let fix_sign = |v: u32, negate: bool| -> u16 {
        let v = v & MASK13;
        if negate {
            (0u32.wrapping_sub(v) & MASK13) as u16
        } else {
            v as u16
        }
    };
    dsp_packed::UnpackedProducts {
        low: fix_sign(r0, plan.negate_outer),
        mid: fix_sign(r1, plan.negate_mid),
        high: fix_sign(r2, plan.negate_outer),
    }
}

/// Replays the HS-II packed dataflow (same operand walk as the parent's
/// single-bank schedule) with `unpack` swapped for a faulted variant.
fn hs2_with_unpack<F>(a: &PolyQ, s: &SecretPoly, unpack: F) -> PolyQ
where
    F: Fn(i64, SignPlan, PackedInfo) -> dsp_packed::UnpackedProducts,
{
    assert!(
        s.max_magnitude() <= MAX_PACKED_MAGNITUDE,
        "HS-II packing requires |s| ≤ 4"
    );
    let mut acc = [0u16; N];
    let mut outer = 0usize;
    while outer < N {
        let a0 = a.coeff(outer);
        let a1 = a.coeff(outer + 1);
        for k in 0..N / 2 {
            let j = 2 * k + 1;
            let s1 = rotated(s, outer, j);
            let s0 = rotated(s, outer, j - 1);
            let (pa, ps, plan) = pack(a0, a1, s0, s1);
            let p = dsp_product(pa, ps);
            let info = PackedInfo {
                a0_is_zero: a0 == 0,
                s0_mag_is_zero: s0 == 0,
                a1_lsb: a1 & 1,
                s1_mag_lsb: u16::from(s1.unsigned_abs()) & 1,
            };
            let products = unpack(p, plan, info);
            accumulate_packed(&mut acc, j, products);
        }
        outer += 2;
    }
    PolyQ::from_coeffs(acc)
}

/// HS-II with the metadata ring skewed one slot: the DSP result of issue
/// `t` is unpacked with the side-band signals of issue `t + 1` (the last
/// issue's result is dropped, as a real one-slot skew would).
fn hs2_pipeline_skew(a: &PolyQ, s: &SecretPoly) -> PolyQ {
    assert!(
        s.max_magnitude() <= MAX_PACKED_MAGNITUDE,
        "HS-II packing requires |s| ≤ 4"
    );
    let units = N / 2;
    let mut acc = [0u16; N];
    let mut prev: Vec<Option<i64>> = vec![None; units];
    let mut outer = 0usize;
    while outer < N {
        let a0 = a.coeff(outer);
        let a1 = a.coeff(outer + 1);
        for (k, prev_slot) in prev.iter_mut().enumerate() {
            let j = 2 * k + 1;
            let s1 = rotated(s, outer, j);
            let s0 = rotated(s, outer, j - 1);
            let (pa, ps, plan) = pack(a0, a1, s0, s1);
            let p_now = dsp_product(pa, ps);
            // Fault: this issue's metadata meets the previous issue's
            // product emerging from the pipeline.
            if let Some(p_old) = prev_slot.replace(p_now) {
                let products = dsp_packed::unpack(
                    p_old,
                    plan,
                    a0 == 0,
                    s0 == 0,
                    a1 & 1,
                    u16::from(s1.unsigned_abs()) & 1,
                );
                accumulate_packed(&mut acc, j, products);
            }
        }
        outer += 2;
    }
    PolyQ::from_coeffs(acc)
}

/// What the DSP computes for one packed pair: the 26×17 unsigned product
/// plus the small-multiplier C-port contribution.
fn dsp_product(packed_a: i64, packed_s: i64) -> i64 {
    let (a_lo, s_lo, c) = dsp_packed::split_for_dsp(packed_a, packed_s);
    a_lo * s_lo + c
}

/// Routes the three unpacked fields into the accumulator exactly as the
/// parent does (odd position `j`, neighbours `j ± 1`, negacyclic fold at
/// the top).
fn accumulate_packed(acc: &mut [u16; N], j: usize, products: dsp_packed::UnpackedProducts) {
    add13(&mut acc[j], u32::from(products.mid), false);
    add13(&mut acc[j - 1], u32::from(products.low), false);
    if j + 1 < N {
        add13(&mut acc[j + 1], u32::from(products.high), false);
    } else {
        add13(&mut acc[0], u32::from(products.high), true);
    }
}

/// LW dataflow with the wrap comparator removed: selectors past the wrap
/// keep their positive sign.
fn lw_wrap_sign_dropped(a: &PolyQ, s: &SecretPoly) -> PolyQ {
    let mut acc = [0u16; N];
    for i in 0..N {
        let m = multiples(a.coeff(i));
        for k in 0..N {
            let pos = (i + k) % N;
            // Fault: `wraps` is never consulted.
            let sel = s.coeff(k);
            let value = u32::from(m[sel.unsigned_abs() as usize]);
            add13(&mut acc[pos], value, sel < 0);
        }
    }
    PolyQ::from_coeffs(acc)
}

/// LW dataflow with the MAC's add/sub line stuck at *add*.
fn lw_secret_sign_ignored(a: &PolyQ, s: &SecretPoly) -> PolyQ {
    let mut acc = [0u16; N];
    for i in 0..N {
        let m = multiples(a.coeff(i));
        for k in 0..N {
            let pos = (i + k) % N;
            let sel = s.coeff(k);
            let value = u32::from(m[sel.unsigned_abs() as usize]);
            add13(&mut acc[pos], value, false);
        }
    }
    PolyQ::from_coeffs(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_ring::schoolbook;

    fn operands(bound: i8) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(4099) & 0x1fff),
            SecretPoly::from_fn(|i| {
                let span = 2 * bound as usize + 1;
                (((i * 7) % span) as i8) - bound
            }),
        )
    }

    #[test]
    fn every_fault_changes_some_product() {
        for fault in Fault::ALL {
            let (a, s) = operands(fault.secret_bound().min(4));
            let mut mutant = FaultyMultiplier::new(fault);
            assert_ne!(
                mutant.multiply(&a, &s),
                schoolbook::mul_asym(&a, &s),
                "fault {fault:?} must corrupt the dense mixed-sign product"
            );
        }
    }

    #[test]
    fn faults_are_single_point_not_total() {
        // A zero secret annihilates most datapaths: the mutants must
        // still compute zero (they are single-point faults, not noise).
        let a = PolyQ::from_fn(|i| i as u16);
        let zero = SecretPoly::zero();
        for fault in [
            Fault::HsIRotationSignDropped,
            Fault::HsIICarryFixDropped,
            Fault::HsIIBorrowRepairDropped,
            Fault::LwWrapSignDropped,
            Fault::LwSecretSignIgnored,
        ] {
            let mut mutant = FaultyMultiplier::new(fault);
            assert_eq!(
                mutant.multiply(&a, &zero),
                PolyQ::zero(),
                "fault {fault:?} must be inert on the zero secret"
            );
        }
    }

    #[test]
    fn carry_fix_mutant_agrees_until_a_carry_or_borrow_occurs() {
        // Same-sign secrets never invert a0 (no borrows) and small
        // magnitudes never overflow the middle field (no carries): the
        // faulted unpack is indistinguishable there, which is exactly
        // why the corpus needs max-magnitude and sign-boundary cases.
        let (a0, a1, s0, s1) = (6u16, 5u16, 2i8, 3i8);
        let (pa, ps, plan) = pack(a0, a1, s0, s1);
        let p = dsp_product(pa, ps);
        let info = PackedInfo {
            a0_is_zero: false,
            s0_mag_is_zero: false,
            a1_lsb: a1 & 1,
            s1_mag_lsb: u16::from(s1.unsigned_abs()) & 1,
        };
        assert_eq!(
            unpack_no_correction(p, plan, info),
            dsp_packed::expected_products(a0, a1, s0, s1)
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<String> = Fault::ALL
            .iter()
            .map(|&f| FaultyMultiplier::new(f).name().to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Fault::ALL.len());
    }

    #[test]
    fn secret_bounds_follow_the_parent() {
        assert_eq!(Fault::HsIICarryFixDropped.secret_bound(), 4);
        assert_eq!(Fault::HsIMuxSelectFlip.secret_bound(), 5);
    }

    #[test]
    fn timing_mutants_compute_correct_products() {
        // The defining property: bit-exact output, so only a *timing*
        // test can tell these from an honest backend. Sweep dense
        // mixed-sign, all-positive, sparse, and zero secrets.
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(4099) & 0x1fff);
        let secrets = [
            SecretPoly::from_fn(|i| (((i * 7) % 11) as i8) - 5),
            SecretPoly::from_fn(|i| ((i * 3) % 6) as i8),
            SecretPoly::from_fn(|i| if i % 37 == 0 { -4 } else { 0 }),
            SecretPoly::zero(),
        ];
        for fault in TimingFault::ALL {
            let mut mutant = TimingLeakMultiplier::new(fault);
            for s in &secrets {
                assert_eq!(
                    mutant.multiply(&a, s),
                    schoolbook::mul_asym(&a, s),
                    "timing fault {fault:?} must stay bit-exact"
                );
            }
        }
    }

    #[test]
    fn timing_mutant_names_are_distinct() {
        let mut names: Vec<String> = TimingFault::ALL
            .into_iter()
            .map(|f| TimingLeakMultiplier::new(f).name().to_string())
            .collect();
        names.extend(
            Fault::ALL
                .into_iter()
                .map(|f| FaultyMultiplier::new(f).name().to_string()),
        );
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "mutant names must be unique");
    }
}
