//! **HS-II**: the DSP-packed multiplier (§3.2, Fig. 3).
//!
//! One Ultrascale+ DSP slice computes **four** coefficient-wise
//! multiplications per cycle by packing two public and two secret
//! coefficients per operand:
//!
//! ```text
//! A = ±a0 + a1·2^15   (28 bits)      S = |s0| + |s1|·2^15   (18 bits)
//! A·S = a0s0 + (a0s1 + a1s0)·2^15 + a1s1·2^30
//! ```
//!
//! The middle field is *the sum* `a0s1 + a1s0`, which is exactly what the
//! unrolled schoolbook accumulator needs. Three sub-problems are solved
//! as in the paper:
//!
//! 1. **Signs** — if `sign(s0) ≠ sign(s1)`, `a0` is negated before
//!    packing so the two middle terms stay coherent; after unpacking the
//!    middle field is negated when `s0 < 0` and the outer fields when
//!    `s1 < 0` (§3.2, verified here for all four sign cases —
//!    exhaustively, in tests).
//! 2. **DSP width** — `A` is 28 bits but the unsigned DSP multiplier is
//!    only 26×17, so `A = a + a'·2^26`, `S = s + s'·2^17`; the DSP
//!    computes `a·s + C` where the LUT-based *small multiplier* provides
//!    `C = (a'·s)·2^26 + (a·s')·2^17`; `a'·s'` affects only bits ≥ 43 and
//!    is never needed.
//! 3. **Field overflow** — the 16-bit middle sum can carry into the
//!    third field; the paper repairs it by checking the LSB of the third
//!    field against `a1[0] & s1[0]` and subtracting one on mismatch.
//!    The author's version does not spell out the two *borrow* cases
//!    (negative low/middle fields when `a0` was negated); our model
//!    completes the correction network — borrows are deterministic
//!    functions of the sign plan, and the LSB repair direction flips with
//!    `invert_a0` — and verifies the whole datapath exhaustively over
//!    signs and boundary magnitudes.
//!
//! 128 DSP-MAC units sit at the odd accumulator positions; even
//! positions receive the low/high fields of their two neighbours, which
//! is why those accumulator coefficients need three-way adders. The
//! multiplier finishes in 128 issue cycles + 3 DSP pipeline stages = 131
//! cycles (Table 1).
//!
//! **Range restriction**: packing at width 15 requires |s| ≤ 4
//! (`8191·4 < 2^15`), i.e. Saber and FireSaber. LightSaber's ±5 would
//! overflow the field; [`DspPackedMultiplier`] rejects such secrets (the
//! paper targets the Saber set).

use saber_hw::area::{self, Area};
use saber_hw::dsp::{DspBank, A_UNSIGNED_WIDTH, B_UNSIGNED_WIDTH};
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, CycleReport};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, N};

use crate::engine::negacyclic_extension;
use crate::fault::{Fault, NO_DEFECT};
use crate::report::{ArchitectureReport, HwMultiplier};

/// Packing offset: coefficient pairs are packed 15 bits apart.
pub const PACK_SHIFT: u32 = 15;

/// Largest secret magnitude the 15-bit packing supports.
pub const MAX_PACKED_MAGNITUDE: i8 = 4;

const MASK13: u32 = (1 << 13) - 1;
const MASK15: i64 = (1 << 15) - 1;

/// The sign-handling decisions for one packed pair (the blue blocks of
/// Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignPlan {
    /// Negate `a0` before packing (signs of `s0`, `s1` differ).
    pub invert_a0: bool,
    /// Negate the unpacked middle field (`s0 < 0`).
    pub negate_mid: bool,
    /// Negate the unpacked outer fields (`s1 < 0`).
    pub negate_outer: bool,
}

impl SignPlan {
    /// Derives the plan from the two secret coefficients.
    #[must_use]
    pub fn for_secrets(s0: i8, s1: i8) -> Self {
        Self {
            invert_a0: (s0 < 0) != (s1 < 0),
            negate_mid: s0 < 0,
            negate_outer: s1 < 0,
        }
    }
}

/// The three 13-bit results of one packed DSP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnpackedProducts {
    /// `a0·s0 mod 2^13` — routed to accumulator position `j − 1`.
    pub low: u16,
    /// `(a0·s1 + a1·s0) mod 2^13` — accumulator position `j`.
    pub mid: u16,
    /// `a1·s1 mod 2^13` — accumulator position `j + 1`.
    pub high: u16,
}

/// Splits the packed 28-bit `A` and 18-bit `S` into DSP-legal operands
/// and the small-multiplier C-port contribution.
///
/// Returns `(a_lo, s_lo, c)` such that `a_lo·s_lo + c = A·S − a'·s'·2^43`.
#[must_use]
#[inline]
pub fn split_for_dsp(packed_a: i64, packed_s: i64) -> (i64, i64, i64) {
    let a_lo = packed_a & ((1 << A_UNSIGNED_WIDTH) - 1); // unsigned 26 bits
    let a_hi = packed_a >> A_UNSIGNED_WIDTH; // signed 2 bits (−2..=1)
    let s_lo = packed_s & ((1 << B_UNSIGNED_WIDTH) - 1); // unsigned 17 bits
    let s_hi = packed_s >> B_UNSIGNED_WIDTH; // 1 bit
                                             // A ∈ (−2^13, 2^28): the top field is 2 magnitude bits plus a sign
                                             // that only appears when a1 = 0 and a0 was negated.
    debug_assert!(
        (-1..=3).contains(&a_hi),
        "a' out of its 2-bit-plus-sign range"
    );
    debug_assert!((0..=1).contains(&s_hi), "s' must fit 1 bit");
    // The "small multiplier": a 4:1 mux for a'·s_lo and a 2:1 mux for
    // a_lo·s', combined by one adder and fed to the DSP's C port.
    let c = ((a_hi * s_lo) << A_UNSIGNED_WIDTH) // a'·s·2^26
        + ((a_lo * s_hi) << B_UNSIGNED_WIDTH); // + a·s'·2^17
    (a_lo, s_lo, c)
}

/// Packs the operands, returning `(A, S, plan)`.
///
/// # Panics
///
/// Panics if `a0`/`a1` exceed 13 bits or |s| > 4 (the §3.2 packing
/// budget).
#[must_use]
#[inline]
pub fn pack(a0: u16, a1: u16, s0: i8, s1: i8) -> (i64, i64, SignPlan) {
    assert!(
        u32::from(a0) <= MASK13 && u32::from(a1) <= MASK13,
        "operand exceeds 13 bits"
    );
    // The magnitudes, not `abs`, so the check does not branch on the
    // secret's sign (and −128 is rejected like any other wide value).
    let max = MAX_PACKED_MAGNITUDE.unsigned_abs();
    assert!(
        s0.unsigned_abs() <= max && s1.unsigned_abs() <= max,
        "secret magnitude exceeds the 15-bit packing budget (|s| ≤ 4)"
    );
    pack_in_range(a0, a1, s0, s1)
}

/// [`pack`] on operands already checked against its bounds.
#[inline(always)]
fn pack_in_range(a0: u16, a1: u16, s0: i8, s1: i8) -> (i64, i64, SignPlan) {
    let plan = SignPlan::for_secrets(s0, s1);
    // The ±a0 packer is a conditional negate driven by the sign plan:
    // `invert` is all ones when a0 is negated, and `(a0 ^ invert) −
    // invert` is then `−a0`.
    let invert = -i64::from(plan.invert_a0);
    let a0_signed = (i64::from(a0) ^ invert) - invert;
    let packed_a = a0_signed + (i64::from(a1) << PACK_SHIFT);
    let packed_s = i64::from(s0.unsigned_abs()) + (i64::from(s1.unsigned_abs()) << PACK_SHIFT);
    (packed_a, packed_s, plan)
}

/// Unpacks the 48-bit DSP output into the three corrected, sign-fixed
/// 13-bit products.
///
/// `a0_zero`, `s0_mag`, and the LSBs of `a1`/`|s1|` are the side-band
/// signals the correction network taps (all cheap wires in hardware).
///
/// The correction network is combinational: every repair is computed
/// from masks, with no branch on the secret's signs.
#[must_use]
#[inline]
pub fn unpack(
    p: i64,
    plan: SignPlan,
    a0_is_zero: bool,
    s0_mag_is_zero: bool,
    a1_lsb: u16,
    s1_mag_lsb: u16,
) -> UnpackedProducts {
    unpack_seeded::<NO_DEFECT>(p, plan, a0_is_zero, s0_mag_is_zero, a1_lsb, s1_mag_lsb)
}

/// [`unpack`] with the correction network seeded with `DEFECT`: a
/// [`Fault`] as `u8`, or [`NO_DEFECT`]. `HsIICarryFixDropped` leaves the
/// third field unrepaired; `HsIIBorrowRepairDropped` is the network the
/// paper's text spells out, with no borrow repair and a fixed −1 step.
#[inline]
pub(crate) fn unpack_seeded<const DEFECT: u8>(
    p: i64,
    plan: SignPlan,
    a0_is_zero: bool,
    s0_mag_is_zero: bool,
    a1_lsb: u16,
    s1_mag_lsb: u16,
) -> UnpackedProducts {
    let repairs_borrows = DEFECT != Fault::HsIIBorrowRepairDropped as u8;
    let repairs_carries = DEFECT != Fault::HsIICarryFixDropped as u8;
    let r0 = (p & MASK15) as u32;
    let r1 = ((p >> PACK_SHIFT) & MASK15) as u32;
    let r2 = ((p >> (2 * PACK_SHIFT)) & i64::from(MASK13)) as u32;

    // Borrow repair: the low field a0·s0 is negative exactly when a0 was
    // negated and neither operand is zero; its borrow stole 1 from the
    // middle field.
    let borrow = u32::from(repairs_borrows & plan.invert_a0 & !a0_is_zero & !s0_mag_is_zero);
    let r1 = (r1 + borrow) & MASK15 as u32;
    // Carry/borrow repair on the third field via the paper's LSB check:
    // the true LSB of a1·|s1| is a1[0] & s1[0]. Coherent middle sums can
    // only carry (+1 → subtract one, as the paper says); sign-mixed
    // middles can only borrow (−1 → add one). The step is +1 or
    // 2^32 − 1, and adding the latter is a decrement mod 2^13: r2 = 0
    // wraps to q − 1 under the mask (the field is a residue mod
    // q = 2^13, not a count).
    let expected_lsb = u32::from(a1_lsb & s1_mag_lsb & 1);
    let mismatch = 0u32.wrapping_sub(((r2 & 1) ^ expected_lsb) & u32::from(repairs_carries));
    let step = (u32::from(repairs_borrows & plan.invert_a0) << 1).wrapping_sub(1);
    let r2 = r2.wrapping_add(mismatch & step) & MASK13;

    UnpackedProducts {
        low: negate_if(r0, plan.negate_outer),
        mid: negate_if(r1, plan.negate_mid),
        high: negate_if(r2, plan.negate_outer),
    }
}

/// `±v mod 2^13`, negated when `negate` — by mask, not by branch.
/// Negation mod 2^13: `(v ^ m) − m` with `m` all ones is `0 − v`, which
/// wraps in u32, and the mask reduces `2^32 − v` to `2^13 − v` because
/// 2^13 | 2^32.
#[inline]
fn negate_if(v: u32, negate: bool) -> u16 {
    let m = 0u32.wrapping_sub(u32::from(negate));
    (((v & MASK13) ^ m).wrapping_sub(m) & MASK13) as u16
}

/// Ablation variant: unpacking with **only** the correction the paper's
/// text spells out (the LSB-checked *subtract-one* on the third field),
/// without the borrow repairs for negated-`a0` operands.
///
/// Exists to quantify the §3.2 correction network: the ablation bench
/// counts how many operand combinations this version gets wrong (mixed
/// sign pairs with borrows across the packed fields), demonstrating that
/// the fabricated RTL necessarily contains the full network even though
/// the author's version only describes the carry case. It is [`unpack`]
/// as the `HsIIBorrowRepairDropped` mutant runs it.
#[must_use]
pub fn unpack_paper_text_only(
    p: i64,
    plan: SignPlan,
    a1_lsb: u16,
    s1_mag_lsb: u16,
) -> UnpackedProducts {
    // The zero taps feed only the borrow repair this network leaves out.
    unpack_seeded::<{ Fault::HsIIBorrowRepairDropped as u8 }>(
        p, plan, false, false, a1_lsb, s1_mag_lsb,
    )
}

/// Reference for the packed datapath: what the three fields *should* be.
#[must_use]
pub fn expected_products(a0: u16, a1: u16, s0: i8, s1: i8) -> UnpackedProducts {
    let m13 = |v: i64| (v.rem_euclid(1 << 13)) as u16;
    UnpackedProducts {
        low: m13(i64::from(a0) * i64::from(s0)),
        mid: m13(i64::from(a0) * i64::from(s1) + i64::from(a1) * i64::from(s0)),
        high: m13(i64::from(a1) * i64::from(s1)),
    }
}

/// Side-band bits of one unit's in-flight operation, carried down the
/// pipeline beside its DSP operands: the unit's [`SignPlan`] and the
/// zero and LSB taps of its secret pair's magnitudes. The public pair's
/// taps are shared by the whole bank ([`PublicTaps`]).
const INVERT_A0: u8 = 1;
const NEGATE_MID: u8 = 1 << 1;
const NEGATE_OUTER: u8 = 1 << 2;
const S0_MAG_ZERO: u8 = 1 << 3;
const S1_MAG_LSB: u8 = 1 << 4;

/// The side-band taps of one bank's broadcast public pair `(a0, a1)`
/// for one in-flight batch.
#[derive(Debug, Clone, Copy, Default)]
struct PublicTaps {
    a0_is_zero: bool,
    a1_lsb: u16,
}

/// The HS-II multiplier: 128 DSP-MAC units, 131-cycle multiplication.
///
/// # Examples
///
/// ```
/// use saber_core::dsp_packed::DspPackedMultiplier;
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = DspPackedMultiplier::new();
/// let a = PolyQ::from_fn(|i| (i * 31) as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// assert_eq!(hw.report().cycles.compute_cycles, 131);
/// assert_eq!(hw.report().area.dsps, 128);
/// ```
#[derive(Debug, Clone)]
pub struct DspPackedMultiplier {
    banks: usize,
    last_cycles: CycleReport,
    last_timeline: Option<saber_trace::CycleTimeline>,
    activity: Activity,
}

/// Number of DSP-MAC units per bank (one unit per odd accumulator
/// position).
pub const DSP_COUNT: usize = 128;

/// DSP pipeline depth (A/B → M → P registers).
pub const DSP_LATENCY: usize = 3;

impl DspPackedMultiplier {
    /// Creates the paper's 128-DSP architecture (one bank).
    #[must_use]
    pub fn new() -> Self {
        Self::with_dsps(128)
    }

    /// Creates the architecture with 128 or 256 DSPs. §3.2 sketches the
    /// 256-DSP point ("it could compute 1,024 coefficient-wise
    /// multiplication per cycle and thus compute a full multiplication
    /// in 64 cycles. However, that would require a fairly high area
    /// consumption"): two banks of 128 units, the second processing the
    /// next outer-index pair against the once-more-shifted secret.
    ///
    /// # Panics
    ///
    /// Panics unless `dsps` is 128 or 256.
    #[must_use]
    pub fn with_dsps(dsps: usize) -> Self {
        assert!(dsps == 128 || dsps == 256, "HS-II supports 128 or 256 DSPs");
        Self {
            banks: dsps / DSP_COUNT,
            last_cycles: CycleReport::default(),
            last_timeline: None,
            activity: Activity::default(),
        }
    }

    /// Modeled area (inventory in the module docs' terms): per unit, the
    /// `a0` sign inverter, the small multiplier + C combiner, the
    /// correction network, the odd-position add/sub and the shared
    /// even-position three-way adder — plus the DSP slice itself.
    #[must_use]
    pub fn area(&self) -> Area {
        let per_unit = area::conditional_negate(13)           // ±a0 packer
            + area::mux(4, 17) + area::mux(2, 26) + area::adder(28) // small mult → C
            + area::adder(13)                                  // correction incr/decr
            + area::adder(13)                                  // odd acc add/sub
            + area::adder3(13)                                 // even acc 3-way
            + Area::dsp()
            // Pipeline registers: packed A and S, the C port value, and
            // three stages of side-band metadata.
            + area::register(28) + area::register(18) + area::register(44)
            + area::register(24);
        per_unit * (DSP_COUNT * self.banks) as u32 + crate::engine::control_overhead()
    }
}

impl Default for DspPackedMultiplier {
    fn default() -> Self {
        Self::new()
    }
}

/// Cycle-accurate run of the HS-II datapath on `banks` banks of
/// [`DSP_COUNT`] units: the secret load and public preload, the core
/// loop (`N / (2·banks)` issue cycles, then [`DSP_LATENCY`] cycles in
/// which the pipeline drains), and the writeback drain. Returns the
/// product, the core-loop cycle report and the per-phase timeline.
///
/// All `DSP_COUNT · banks` slices are one [`DspBank`] on one clock.
/// Each core cycle packs every unit's operands ([`pack_bank`]), issues
/// them to the bank in one call, runs the bank's clock edge and, on
/// retire cycles, unpacks and accumulates every result that edge
/// brought out ([`retire_bank`]). Each of those passes tests its checks
/// once, folded over the bank's lanes.
///
/// The rotating secret buffer is modelled as a logical rotation (a
/// window of the negacyclic extension), so no per-cycle clone/shift of
/// the secret is needed; the side-band ring holds `DSP_LATENCY` batches,
/// one entry per unit each, overwritten in place every issue cycle. The
/// accumulator is kept as its even and odd positions, so that a unit's
/// three fields land on three contiguous runs, and interleaved into the
/// product at the end.
///
/// `DEFECT` is a [`Fault`] as `u8`, or [`NO_DEFECT`]. The correction
/// faults live in [`unpack_seeded`]; `HsIIPipelineSkew` retires each
/// batch with the side-band bits and [`PublicTaps`] of the batch issued
/// after it, and skips the last batch, whose partner was never issued.
///
/// # Panics
///
/// Panics unless `banks` is 1 or 2, or if the secret contains a
/// coefficient of magnitude 5 (LightSaber); the 15-bit packing of §3.2
/// requires |s| ≤ 4.
pub(crate) fn simulate<const DEFECT: u8>(
    public: &PolyQ,
    secret: &SecretPoly,
    banks: usize,
) -> (PolyQ, CycleReport, saber_trace::CycleTimeline) {
    assert!(banks == 1 || banks == 2, "HS-II supports 1 or 2 DSP banks");
    assert!(
        secret.max_magnitude() <= MAX_PACKED_MAGNITUDE,
        "HS-II packing requires |s| ≤ 4 (Saber/FireSaber); got {}",
        secret.max_magnitude()
    );
    let units = DSP_COUNT * banks;
    let skew = usize::from(DEFECT == Fault::HsIIPipelineSkew as u8);
    let ext = negacyclic_extension::<NO_DEFECT>(secret);
    let mut dsps = DspBank::new(units, DSP_LATENCY);
    // The operands presented to the bank's A, B and C ports this cycle.
    let mut ports = vec![0i64; 3 * units];
    let mut sideband = vec![0u8; DSP_LATENCY * units];
    let mut taps = [PublicTaps::default(); 2 * DSP_LATENCY];
    let mut even = [0u16; DSP_COUNT];
    let mut odd = [0u16; DSP_COUNT];
    let mut timeline = saber_trace::CycleTimeline::new(
        if banks == 1 { "hs2-128" } else { "hs2-256" },
        units as u64,
    );
    timeline.push_phase("secret_load", 17, 0);
    timeline.push_phase("public_preload", 14, 0);

    let issue_cycles = N / (2 * banks);
    let core_cycles = issue_cycles + DSP_LATENCY;
    for cycle in 0..core_cycles {
        let issuing = cycle < issue_cycles;
        if issuing {
            // The outer index pair (2t, 2t + 1) of this issue cycle.
            let outer = 2 * banks * cycle;
            let slot = cycle % DSP_LATENCY;
            let (a, rest) = ports.split_at_mut(units);
            let (b, c) = rest.split_at_mut(units);
            let batch = &mut sideband[slot * units..][..units];
            for (bank, (((a, b), c), side)) in a
                .chunks_exact_mut(DSP_COUNT)
                .zip(b.chunks_exact_mut(DSP_COUNT))
                .zip(c.chunks_exact_mut(DSP_COUNT))
                .zip(batch.chunks_exact_mut(DSP_COUNT))
                .enumerate()
            {
                // Bank `b` handles outer pair (outer + 2b) against the
                // secret shifted by x^(outer + 2b).
                let rot = outer + 2 * bank;
                let (a0, a1) = (public.coeff(rot), public.coeff(rot + 1));
                let lanes: &[i8; N] = ext[N - rot..2 * N - rot]
                    .try_into()
                    .expect("a rotation window holds N lanes");
                pack_bank(a0, a1, lanes, a, b, c, side);
                taps[slot * 2 + bank] = PublicTaps {
                    a0_is_zero: a0 == 0,
                    a1_lsb: a1 & 1,
                };
            }
            let (a, rest) = ports.split_at(units);
            let (b, c) = rest.split_at(units);
            dsps.issue(a, b, c)
                .expect("split operands fit the DSP ports by construction");
        }
        // Clock edge; results emerge DSP_LATENCY edges after issue, so
        // this cycle's edge retires the batch issued in cycle
        // `cycle + 1 − DSP_LATENCY`, if there was one.
        dsps.tick();
        let retiring = (cycle + 1)
            .checked_sub(DSP_LATENCY)
            .filter(|&issued_at| issued_at + skew < issue_cycles);
        if let Some(issued_at) = retiring {
            let slot = (issued_at + skew) % DSP_LATENCY;
            let p = dsps.output().expect("a result emerges every retire cycle");
            let batch = &sideband[slot * units..][..units];
            // Entry `unit` came from slice `unit`: unit k of its bank.
            for (bank, (p, side)) in p
                .chunks_exact(DSP_COUNT)
                .zip(batch.chunks_exact(DSP_COUNT))
                .enumerate()
            {
                retire_bank::<DEFECT>(p, side, taps[slot * 2 + bank], &mut even, &mut odd);
            }
        }
        if issuing {
            // Each DSP accepted one packed operation computing four
            // coefficient products (low, two middles, high).
            timeline.push_phase("issue", 1, 4 * units as u64);
        } else {
            timeline.push_phase("pipeline_drain", 1, 0);
        }
    }

    timeline.push_phase("writeback_drain", 54, 0);
    timeline.add_counter("dsp_issues", issue_cycles as u64 * units as u64);
    let report = CycleReport {
        compute_cycles: core_cycles as u64,
        // Same memory phases as the other high-speed designs.
        memory_overhead_cycles: 17 + 14 + 54,
    };
    debug_assert!(timeline.reconciles_with(report.total()));
    let product = PolyQ::from_fn(|j| if j % 2 == 0 { even[j / 2] } else { odd[j / 2] });
    (product, report, timeline)
}

/// Packs one bank's units for the broadcast outer pair `(a0, a1)`: unit
/// `k` sits at odd position `j = 2k + 1` and reads lanes `2k` and
/// `2k + 1` of the rotated secret `lanes` (`s0 = (σ·x)[j]`), and its
/// split operands and side-band bits go to entry `k` of `a`, `b`, `c`
/// and `sideband`.
///
/// [`pack`]'s checks (`a0, a1 < 2^13`, `|s| ≤ 4`) are folded over the
/// bank and tested once, before any operand is formed; a rejected batch
/// re-runs `pack` unit by unit to panic at the first offending unit.
fn pack_bank(
    a0: u16,
    a1: u16,
    lanes: &[i8; N],
    a: &mut [i64],
    b: &mut [i64],
    c: &mut [i64],
    sideband: &mut [u8],
) {
    let magnitudes = lanes.iter().fold(0u8, |max, s| max.max(s.unsigned_abs()));
    if u32::from(a0.max(a1)) > MASK13 || magnitudes > MAX_PACKED_MAGNITUDE.unsigned_abs() {
        // Rejected input only: locating the offender may branch.
        for pair in lanes.chunks_exact(2) {
            let _ = pack(a0, a1, pair[0], pair[1]);
        }
        unreachable!("pack accepted every unit of a rejected batch");
    }
    for ((((pair, a), b), c), side) in lanes.chunks_exact(2).zip(a).zip(b).zip(c).zip(sideband) {
        let (s0, s1) = (pair[0], pair[1]);
        let (packed_a, packed_s, plan) = pack_in_range(a0, a1, s0, s1);
        (*a, *b, *c) = split_for_dsp(packed_a, packed_s);
        *side = (u8::from(plan.invert_a0) * INVERT_A0)
            | (u8::from(plan.negate_mid) * NEGATE_MID)
            | (u8::from(plan.negate_outer) * NEGATE_OUTER)
            | (u8::from(s0 == 0) * S0_MAG_ZERO)
            | ((s1.unsigned_abs() & 1) * S1_MAG_LSB);
    }
}

/// Unpacks one bank's retiring results and accumulates them: unit `k`'s
/// middle field goes to odd position `2k + 1`, its low field to even
/// position `2k` and its high field to even position `2k + 2`, where
/// unit 127's position 256 folds to `−acc[0]` (negacyclic wrap).
///
/// The correction network ([`unpack`]) and the 13-bit adds are masks,
/// not branches, so the pass has no branch per unit.
#[inline(never)]
fn retire_bank<const DEFECT: u8>(
    p: &[i64],
    sideband: &[u8],
    taps: PublicTaps,
    even: &mut [u16; DSP_COUNT],
    odd: &mut [u16; DSP_COUNT],
) {
    let mut high = [0u16; DSP_COUNT];
    for ((((&p, &side), even), odd), high) in p
        .iter()
        .zip(sideband)
        .zip(even.iter_mut())
        .zip(odd.iter_mut())
        .zip(&mut high)
    {
        let plan = SignPlan {
            invert_a0: side & INVERT_A0 != 0,
            negate_mid: side & NEGATE_MID != 0,
            negate_outer: side & NEGATE_OUTER != 0,
        };
        let products = unpack_seeded::<DEFECT>(
            p,
            plan,
            taps.a0_is_zero,
            side & S0_MAG_ZERO != 0,
            taps.a1_lsb,
            u16::from(side & S1_MAG_LSB != 0),
        );
        *odd = add13(*odd, products.mid);
        *even = add13(*even, products.low);
        *high = products.high;
    }
    let wrapped = high[DSP_COUNT - 1];
    for (even, &high) in even[1..].iter_mut().zip(&high) {
        *even = add13(*even, high);
    }
    // Negacyclic wrap: position 256 folds to −acc[0].
    even[0] = add13(even[0], 0u16.wrapping_sub(wrapped));
}

impl PolyMultiplier for DspPackedMultiplier {
    /// # Panics
    ///
    /// Panics if the secret contains a coefficient of magnitude 5
    /// (LightSaber); the 15-bit packing of §3.2 requires |s| ≤ 4.
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let (product, cycles, timeline) = simulate::<NO_DEFECT>(public, secret, self.banks);

        let area = self.area();
        self.last_cycles = cycles;
        self.last_timeline = Some(timeline);
        self.activity = self.activity.merge(Activity {
            cycles: self.last_cycles.total(),
            bram_reads: 16 + 52,
            bram_writes: 52,
            io_words: 16 + 52 + 52,
            active_luts: u64::from(area.luts),
            active_ffs: u64::from(area.ffs),
            dsp_ops: (N as u64 / 2) * DSP_COUNT as u64, // total ops independent of banking
        });
        product
    }

    fn name(&self) -> &str {
        if self.banks == 1 {
            "HS-II (128 DSP)"
        } else {
            "HS-II (256 DSP)"
        }
    }
}

/// `slot + value mod 2^13`; the `u16` sum wraps, and the mask reduces
/// it exactly because 2^13 divides 2^16 (so a wrapped negation
/// `0 − v` adds `−v`).
#[inline(always)]
fn add13(slot: u16, value: u16) -> u16 {
    slot.wrapping_add(value) & MASK13 as u16
}

impl HwMultiplier for DspPackedMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: if self.banks == 1 {
                "HS-II"
            } else {
                "HS-II 256"
            }
            .into(),
            fpga: Fpga::UltrascalePlus,
            cycles: self.last_cycles,
            area: self.area(),
            // The LUT path around the DSP (small multiplier + correction)
            // is short; the DSP itself is pipelined.
            critical_path: CriticalPath { logic_levels: 5 },
            activity: Some(self.activity),
        }
    }

    fn timeline(&self) -> Option<&saber_trace::CycleTimeline> {
        self.last_timeline.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_ring::schoolbook;

    #[test]
    fn packing_identity_all_sign_cases() {
        // Exhaustive over signs and boundary magnitudes; dense grid over
        // the public operands.
        let a_values = [0u16, 1, 2, 4095, 4096, 8190, 8191, 5461, 2730];
        for &a0 in &a_values {
            for &a1 in &a_values {
                for s0 in -4i8..=4 {
                    for s1 in -4i8..=4 {
                        let (pa, ps, plan) = pack(a0, a1, s0, s1);
                        let (a_lo, s_lo, c) = split_for_dsp(pa, ps);
                        let p = a_lo * s_lo + c;
                        let got = unpack(
                            p,
                            plan,
                            a0 == 0,
                            s0 == 0,
                            a1 & 1,
                            u16::from(s1.unsigned_abs()) & 1,
                        );
                        assert_eq!(
                            got,
                            expected_products(a0, a1, s0, s1),
                            "a0={a0} a1={a1} s0={s0} s1={s1}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn middle_overflow_case_is_repaired() {
        // Force the 16-bit middle sum: a0·s1 + a1·s0 = 2·8191·4 > 2^15.
        let got = {
            let (pa, ps, plan) = pack(8191, 8191, 4, 4);
            let (a_lo, s_lo, c) = split_for_dsp(pa, ps);
            unpack(a_lo * s_lo + c, plan, false, false, 8191 & 1, 4 & 1)
        };
        assert_eq!(got, expected_products(8191, 8191, 4, 4));
    }

    #[test]
    fn borrow_cases_are_repaired() {
        // Mixed signs with a0 large: the low field goes negative.
        for (s0, s1) in [(3i8, -4i8), (-4, 3), (4, -1), (-1, 4)] {
            let got = {
                let (pa, ps, plan) = pack(8191, 1, s0, s1);
                let (a_lo, s_lo, c) = split_for_dsp(pa, ps);
                unpack(
                    a_lo * s_lo + c,
                    plan,
                    false,
                    s0 == 0,
                    1 & 1,
                    u16::from(s1.unsigned_abs()) & 1,
                )
            };
            assert_eq!(got, expected_products(8191, 1, s0, s1), "s0={s0} s1={s1}");
        }
    }

    #[test]
    fn full_multiplier_matches_schoolbook() {
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(397) & 0x1fff);
        let s = SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4);
        let mut hw = DspPackedMultiplier::new();
        assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    /// Both bank counts against schoolbook: seeded random operands, and
    /// saturated ones (every public coefficient 8191, secrets at ±4 in
    /// every sign pattern of neighbouring lanes, where the middle sums
    /// overflow their field and the borrows fire).
    #[test]
    fn both_bank_counts_match_schoolbook_on_random_and_saturated_operands() {
        let mut cases = Vec::new();
        for mut rng in saber_testkit::cases(8) {
            let a = PolyQ::from_fn(|_| rng.range_i64(0, 8191) as u16);
            let s = SecretPoly::from_fn(|_| rng.range_i64(-4, 4) as i8);
            cases.push((a, s));
        }
        let full = PolyQ::from_fn(|_| 8191);
        for pattern in 0..4usize {
            let s = SecretPoly::from_fn(|i| {
                let negative = (pattern >> (i % 2)) & 1 == 1;
                if negative {
                    -4
                } else {
                    4
                }
            });
            cases.push((full.clone(), s));
        }
        cases.push((full.clone(), SecretPoly::from_fn(|i| [4, -4, 0, 3][i % 4])));
        for (a, s) in &cases {
            let expected = schoolbook::mul_asym(a, s);
            for dsps in [128, 256] {
                let mut hw = DspPackedMultiplier::with_dsps(dsps);
                assert_eq!(hw.multiply(a, s), expected, "{dsps} DSPs");
            }
        }
    }

    /// `pack`'s magnitude check, folded over a bank, still panics with
    /// its message when one unit mid-bank carries a 5.
    #[test]
    #[should_panic(expected = "exceeds the 15-bit packing budget")]
    fn pack_bank_rejects_a_wide_secret_mid_bank() {
        let mut lanes = [1i8; N];
        lanes[155] = -5; // unit 77's s1
        let mut ports = [[0i64; DSP_COUNT]; 3];
        let mut sideband = [0u8; DSP_COUNT];
        let [a, b, c] = &mut ports;
        pack_bank(17, 42, &lanes, a, b, c, &mut sideband);
    }

    #[test]
    fn cycle_count_is_131() {
        // Table 1: "131 … the slight difference [vs 128] being due to the
        // pipelining inside the DSPs".
        let a = PolyQ::from_fn(|i| i as u16);
        let s = SecretPoly::from_fn(|_| 1);
        let mut hw = DspPackedMultiplier::new();
        let _ = hw.multiply(&a, &s);
        assert_eq!(hw.report().cycles.compute_cycles, 131);
    }

    #[test]
    fn area_tracks_table1() {
        // Table 1: 15,625 LUT / 14,136 FF / 128 DSP (±10 %).
        let area = DspPackedMultiplier::new().area();
        assert_eq!(area.dsps, 128);
        assert!(
            (area.luts as f64 - 15_625.0).abs() / 15_625.0 < 0.10,
            "LUTs = {}",
            area.luts
        );
        assert!(
            (area.ffs as f64 - 14_136.0).abs() / 14_136.0 < 0.10,
            "FFs = {}",
            area.ffs
        );
    }

    #[test]
    fn lut_reduction_vs_baseline_512() {
        // §5.2: −46 % LUTs vs the [10] 512-MAC multiplier.
        let hs2 = DspPackedMultiplier::new().area().luts as f64;
        let base = crate::baseline::BaselineMultiplier::new(512).area().luts as f64;
        let reduction = 1.0 - hs2 / base;
        assert!(
            (reduction - 0.46).abs() < 0.10,
            "modeled reduction = {reduction:.2}"
        );
    }

    #[test]
    fn four_mults_per_dsp_per_cycle() {
        // §3.2 headline: 1,024 coefficient multiplications per cycle with
        // 256 DSPs ⇒ 4 per DSP. Our 128 DSPs × 128 cycles × 4 = 65,536 =
        // every (i, j) pair exactly once.
        let per_cycle = 4 * DSP_COUNT;
        assert_eq!(per_cycle * (N / 2), N * N);
    }

    #[test]
    #[should_panic(expected = "|s| ≤ 4")]
    fn lightsaber_secret_rejected() {
        let a = PolyQ::zero();
        let s = SecretPoly::from_fn(|i| if i == 0 { 5 } else { 0 });
        let _ = DspPackedMultiplier::new().multiply(&a, &s);
    }

    #[test]
    fn zero_operands() {
        let mut hw = DspPackedMultiplier::new();
        assert_eq!(
            hw.multiply(&PolyQ::zero(), &SecretPoly::zero()),
            PolyQ::zero()
        );
    }

    #[test]
    fn two_banks_reach_67_cycles() {
        // §4.2 of §3.2's sketch: 256 DSPs ⇒ 64 issue cycles (+3 pipeline).
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(91) & 0x1fff);
        let s = SecretPoly::from_fn(|i| (((i * 3) % 9) as i8) - 4);
        let mut hw = DspPackedMultiplier::with_dsps(256);
        assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
        assert_eq!(hw.report().cycles.compute_cycles, 67);
        assert_eq!(hw.report().area.dsps, 256);
        // Roughly double the single-bank LUTs ("fairly high area").
        let one_bank = DspPackedMultiplier::new().area().luts as f64;
        assert!(hw.area().luts as f64 / one_bank > 1.8);
    }

    #[test]
    fn banked_and_single_agree() {
        let a = PolyQ::from_fn(|i| (8191 - i) as u16);
        let s = SecretPoly::from_fn(|i| (((i * 7) % 9) as i8) - 4);
        let mut one = DspPackedMultiplier::with_dsps(128);
        let mut two = DspPackedMultiplier::with_dsps(256);
        assert_eq!(one.multiply(&a, &s), two.multiply(&a, &s));
    }

    #[test]
    #[should_panic(expected = "128 or 256")]
    fn bad_dsp_count_rejected() {
        let _ = DspPackedMultiplier::with_dsps(64);
    }

    /// Full exhaustive sweep of the packed datapath over every `a0`
    /// value, all sign/magnitude pairs and a grid of `a1` values —
    /// ~5.3 M cases. Run with:
    /// `cargo test -p saber-core --release -- --ignored exhaustive`
    #[test]
    #[ignore = "long-running exhaustive sweep; run explicitly in release"]
    fn exhaustive_packing_sweep() {
        for a0 in 0u16..8192 {
            for a1 in (0u16..8192).step_by(1024).chain([8191]) {
                for s0 in -4i8..=4 {
                    for s1 in -4i8..=4 {
                        let (pa, ps, plan) = pack(a0, a1, s0, s1);
                        let (a_lo, s_lo, c) = split_for_dsp(pa, ps);
                        let got = unpack(
                            a_lo * s_lo + c,
                            plan,
                            a0 == 0,
                            s0 == 0,
                            a1 & 1,
                            u16::from(s1.unsigned_abs()) & 1,
                        );
                        assert_eq!(
                            got,
                            expected_products(a0, a1, s0, s1),
                            "a0={a0} a1={a1} s0={s0} s1={s1}"
                        );
                    }
                }
            }
        }
    }
}
