//! Seeded-fault mutants of the cycle-accurate datapaths, for
//! verification *sensitivity* testing.
//!
//! A differential test layer is only trustworthy if it demonstrably
//! fails when the hardware is wrong. This module provides a catalogue of
//! single-point faults — each one a realistic bug in an HS-I, HS-II or
//! LW datapath — and a [`FaultyMultiplier`] that runs the affected
//! model with exactly that fault seeded. The `saber-verify`
//! differential fuzzer is required (and CI-gated) to detect **every**
//! variant: a mutation-style check proving the test corpus exercises the
//! sign handling, the negacyclic wrap, the HS-II carry/borrow correction
//! network and the DSP pipeline alignment, rather than merely passing on
//! easy inputs.
//!
//! The mutants are the shipped models, not copies of them: HS-I 256
//! (`engine::simulate`), one-bank HS-II (`dsp_packed::simulate`) and LW
//! (`lightweight::simulate`) each take a compile-time defect parameter,
//! `Fault as u8` for a mutant and `NO_DEFECT` for the shipped
//! multipliers, and the seeded code is the shipped code everywhere but
//! at the defect. A mutant runs its model's whole cycle schedule: a
//! seeded fault computes the wrong product in the right number of
//! cycles.
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

use saber_hw::CycleReport;
use saber_ring::ct::{self, portable as kernel};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, N};
use saber_trace::CycleTimeline;

use crate::dsp_packed::{self, MAX_PACKED_MAGNITUDE};
use crate::engine::{self, MacStyle};
use crate::lightweight;

/// The defect parameter of the shipped models: no fault seeded. A
/// mutant passes its [`Fault`] as `u8` instead.
pub(crate) const NO_DEFECT: u8 = u8::MAX;

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
}

impl PolyMultiplier for FaultyMultiplier {
    /// # Panics
    ///
    /// The HS-II mutants panic, like their parent, on secrets with
    /// |s| > 4 (see [`Fault::secret_bound`]).
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        run_seeded(self.fault, public, secret).0
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A seeded model run: the product, cycle report and timeline.
type SeededRun = (PolyQ, CycleReport, CycleTimeline);

/// Runs the model `fault` lives in — HS-I 256, HS-II on one bank, or
/// LW — with `fault` seeded.
fn run_seeded(fault: Fault, public: &PolyQ, secret: &SecretPoly) -> SeededRun {
    use Fault::*;
    fn hs_i<const DEFECT: u8>(a: &PolyQ, s: &SecretPoly) -> SeededRun {
        let (product, cycles, _, timeline) =
            engine::simulate_seeded::<DEFECT>(a, s, 256, MacStyle::Centralized);
        (product, cycles, timeline)
    }
    fn hs_ii<const DEFECT: u8>(a: &PolyQ, s: &SecretPoly) -> SeededRun {
        dsp_packed::simulate::<DEFECT>(a, s, 1)
    }
    fn lw<const DEFECT: u8>(a: &PolyQ, s: &SecretPoly) -> SeededRun {
        let (product, cycles, _, timeline) = lightweight::simulate::<DEFECT>(a, s);
        (product, cycles, timeline)
    }
    match fault {
        HsIMuxSelectFlip => hs_i::<{ HsIMuxSelectFlip as u8 }>(public, secret),
        HsIRotationSignDropped => hs_i::<{ HsIRotationSignDropped as u8 }>(public, secret),
        HsIICarryFixDropped => hs_ii::<{ HsIICarryFixDropped as u8 }>(public, secret),
        HsIIBorrowRepairDropped => hs_ii::<{ HsIIBorrowRepairDropped as u8 }>(public, secret),
        HsIIPipelineSkew => hs_ii::<{ HsIIPipelineSkew as u8 }>(public, secret),
        LwWrapSignDropped => lw::<{ LwWrapSignDropped as u8 }>(public, secret),
        LwSecretSignIgnored => lw::<{ LwSecretSignIgnored as u8 }>(public, secret),
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
    /// The shipped constant-time kernel (the u16-lane band pass of
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

/// The shipped ct kernel's pass ([`saber_ring::ct::portable::mac_band`],
/// called verbatim) run as a plain output-stationary schoolbook — each
/// public limb times the whole secret, one block of secret lanes at a
/// time, into one `2N` arena, then the negacyclic fold. `pass`
/// accumulates one block of secret lanes into its band of windows; the
/// timing mutants differ only in it.
fn blocked_schoolbook<F>(public: &PolyQ, secret: &SecretPoly, mut pass: F) -> PolyQ
where
    F: FnMut(&mut kernel::Band, &kernel::Padded, &[i8]),
{
    let mut acc = [0u16; 2 * N];
    for (i, limb) in public.coeffs().chunks_exact(ct::LIMB).enumerate() {
        let mut padded: kernel::Padded = [0; _];
        padded[kernel::LANES - 1..][..ct::LIMB].copy_from_slice(limb);
        for (j, block) in secret.coeffs().chunks_exact(kernel::LANES).enumerate() {
            let start = i * ct::LIMB + j * kernel::LANES;
            let band = (&mut acc[start..][..kernel::BAND * kernel::LANES])
                .try_into()
                .expect("BAND windows");
            pass(band, &padded, block);
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
    blocked_schoolbook(public, secret, |band, padded, block| {
        if block.iter().all(|&c| c == 0) {
            return; // the planted leak: work ∝ nonzero blocks
        }
        // `as` sign-extends, as in the engine.
        let lanes: kernel::Window = std::array::from_fn(|t| block[t] as u16);
        kernel::mac_band(band, padded, &lanes);
    })
}

/// The blocked schoolbook with a sign branch: every block first
/// accumulates its positive lanes, and a block holding a negative lane
/// takes a second pass — the negative magnitudes into a scratch band,
/// which is then subtracted. The result is exact; the runtime depends on
/// the secret's sign pattern.
fn ct_sign_branch(public: &PolyQ, secret: &SecretPoly) -> PolyQ {
    blocked_schoolbook(public, secret, |band, padded, block| {
        let positive: kernel::Window =
            std::array::from_fn(|t| u16::from(block[t].max(0).unsigned_abs()));
        kernel::mac_band(band, padded, &positive);
        if block.iter().any(|&c| c < 0) {
            // The planted leak: only blocks with a negative lane pay this pass.
            let negative: kernel::Window =
                std::array::from_fn(|t| u16::from(block[t].min(0).unsigned_abs()));
            let mut scratch: kernel::Band = [0; _];
            kernel::mac_band(&mut scratch, padded, &negative);
            for (slot, &v) in band.iter_mut().zip(&scratch) {
                *slot = slot.wrapping_sub(v);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier};
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
        let (pa, ps, plan) = dsp_packed::pack(a0, a1, s0, s1);
        let (a_lo, s_lo, c) = dsp_packed::split_for_dsp(pa, ps);
        let (a1_lsb, s1_lsb) = (a1 & 1, u16::from(s1.unsigned_abs()) & 1);
        let unpack = dsp_packed::unpack_seeded::<{ Fault::HsIICarryFixDropped as u8 }>;
        assert_eq!(
            unpack(a_lo * s_lo + c, plan, false, false, a1_lsb, s1_lsb),
            dsp_packed::expected_products(a0, a1, s0, s1)
        );
    }

    /// A seeded fault changes the product, never the schedule: each
    /// mutant's cycle report and timeline (track, phases, counters)
    /// equal its shipped model's on the same operands.
    #[test]
    fn every_mutant_runs_the_shipped_schedule() {
        for fault in Fault::ALL {
            let (a, s) = operands(fault.secret_bound().min(4));
            let (_, cycles, timeline) = run_seeded(fault, &a, &s);
            let mut shipped: Box<dyn HwMultiplier> = match fault {
                Fault::HsIMuxSelectFlip | Fault::HsIRotationSignDropped => {
                    Box::new(CentralizedMultiplier::new(256))
                }
                Fault::HsIICarryFixDropped
                | Fault::HsIIBorrowRepairDropped
                | Fault::HsIIPipelineSkew => Box::new(DspPackedMultiplier::new()),
                Fault::LwWrapSignDropped | Fault::LwSecretSignIgnored => {
                    Box::new(LightweightMultiplier::new())
                }
            };
            let _ = shipped.multiply(&a, &s);
            assert_eq!(cycles, shipped.report().cycles, "{fault:?}");
            assert_eq!(Some(&timeline), shipped.timeline(), "{fault:?}");
        }
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
