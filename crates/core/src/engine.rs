//! The shared cycle-accurate engine of the parallel schoolbook
//! architectures (Fig. 1 and Fig. 2 of the paper).
//!
//! The baseline \[10\] multiplier and the HS-I centralized multiplier
//! compute *identical* schedules — HS-I only moves the coefficient
//! multiplier out of the MACs — so both are thin wrappers around this
//! engine, differing in their per-cycle dataflow (`MacStyle`) and their
//! area inventory.
//!
//! ## Schedule
//!
//! With `U ∈ {1, 2}` outer-loop iterations unrolled per cycle
//! (256 or 512 MACs):
//!
//! 1. **secret load** — 16 words over the 64-bit port (+1 read latency);
//! 2. **public preload** — the first 13 words fill the 676-bit streaming
//!    buffer (+1 latency); the remaining 39 words stream during compute
//!    using the otherwise idle read port (the Fig. 1 multiplexer trick);
//! 3. **compute** — `256 / U` cycles; each cycle all MACs update the
//!    accumulator and the secret buffer rotates by `x^U`;
//! 4. **drain** — the 3 328-bit accumulator is written back as 52 words
//!    (+2 cycles of result/write registers).
//!
//! Table 1 of the paper quotes phase 3 only (the accumulator stays
//! resident between the multiplications of an inner product); the
//! [`saber_hw::CycleReport`] carries both numbers.

use saber_hw::mac::{baseline_mac, multiples, select_multiple, MAX_MULTIPLE};
use saber_hw::{Activity, Area, CycleReport};
use saber_ring::{PolyQ, SecretPoly, N};
use saber_trace::CycleTimeline;

use crate::fault::{Fault, NO_DEFECT};

/// Where the coefficient multiplier lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacStyle {
    /// Every MAC owns an Algorithm-2 shift-and-add multiplier (\[10\]).
    PerMac,
    /// One shared multiple generator per public coefficient; MACs only
    /// select (HS-I, §3.1).
    Centralized,
}

/// Secret burst: 16 words over the 64-bit port + 1 read latency.
const SECRET_LOAD_CYCLES: u64 = 16 + 1;
/// Public preload: 13 words fill the 676-bit buffer + 1 latency.
const PUBLIC_PRELOAD_CYCLES: u64 = 13 + 1;
/// Drain: 52 result words + 2 cycles of result/write registers.
const DRAIN_CYCLES: u64 = 52 + 2;

/// Cycle-accurate run of the parallel schoolbook datapath.
///
/// Returns the product, the Table-1 cycle split, the activity record,
/// and the per-phase [`CycleTimeline`] built *during* the simulation
/// loop (evidence, not a re-derivation): `secret_load` /
/// `public_preload` / `compute` / `drain`, with every compute cycle
/// issuing one MAC per unit so `occupancy("compute")` is exactly 1.
///
/// # Panics
///
/// Panics if `macs` is not 256, 512 or 1024 (§3.1: "by instantiating
/// more MAC units in parallel one can reduce the cycle count further").
pub fn simulate(
    a: &PolyQ,
    s: &SecretPoly,
    macs: usize,
    style: MacStyle,
) -> (PolyQ, CycleReport, Activity, CycleTimeline) {
    simulate_seeded::<NO_DEFECT>(a, s, macs, style)
}

/// [`simulate`] with the compute kernel seeded with `DEFECT`: a
/// [`Fault`] as `u8`, or [`NO_DEFECT`].
pub(crate) fn simulate_seeded<const DEFECT: u8>(
    a: &PolyQ,
    s: &SecretPoly,
    macs: usize,
    style: MacStyle,
) -> (PolyQ, CycleReport, Activity, CycleTimeline) {
    let track = match style {
        MacStyle::PerMac => format!("baseline-{macs}"),
        MacStyle::Centralized => format!("hs1-{macs}"),
    };
    let mut kernel = ComputeKernel::new_seeded::<DEFECT>(a, s, macs, style);
    let mut timeline = CycleTimeline::new(track, macs as u64);
    timeline.push_phase("secret_load", SECRET_LOAD_CYCLES, 0);
    timeline.push_phase("public_preload", PUBLIC_PRELOAD_CYCLES, 0);
    let mut compute_cycles = 0u64;
    while !kernel.is_done() {
        kernel.step_seeded::<DEFECT>();
        compute_cycles += 1;
        // Every MAC retires one coefficient product this cycle.
        timeline.push_phase("compute", 1, macs as u64);
    }
    timeline.push_phase("drain", DRAIN_CYCLES, 0);
    // 39 of the 52 public words stream during compute using the
    // otherwise idle read port.
    timeline.add_counter("streamed_words", 52 - 13);

    let secret_words = 16u64; // SecretPoly over the 64-bit port
    let public_words = 52u64; // 256 × 13-bit coefficients
    let drain_words = public_words;
    let report = CycleReport {
        compute_cycles,
        memory_overhead_cycles: SECRET_LOAD_CYCLES + PUBLIC_PRELOAD_CYCLES + DRAIN_CYCLES,
    };
    let activity = Activity {
        cycles: report.total(),
        bram_reads: secret_words + public_words,
        bram_writes: drain_words,
        // Streamed words are already counted in `public_words`.
        io_words: secret_words + public_words + drain_words,
        active_luts: 0, // filled in by the architecture wrapper
        active_ffs: 0,
        dsp_ops: 0,
    };
    debug_assert!(timeline.reconciles_with(report.total()));
    (kernel.product(), report, activity, timeline)
}

/// The compute phase of the parallel schoolbook engine as a resumable
/// kernel: one call to [`step`](Self::step) performs exactly one compute
/// cycle (all MACs update, the secret view rotates by `x^U`).
///
/// [`simulate`] drives it for the standalone architectures;
/// `saber-soc`'s co-simulated multiplier component drives it directly,
/// with the operand loads and drains replaced by shared-bus traffic.
#[derive(Debug, Clone)]
pub struct ComputeKernel {
    a: PolyQ,
    /// The secret's negacyclic extension (see [`negacyclic_extension`]).
    ext: [i8; 2 * N],
    style: MacStyle,
    unroll: usize,
    acc: [u16; N],
    i: usize,
}

impl ComputeKernel {
    /// Captures the operands and the datapath shape.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is not 256, 512 or 1024.
    #[must_use]
    pub fn new(a: &PolyQ, s: &SecretPoly, macs: usize, style: MacStyle) -> Self {
        Self::new_seeded::<NO_DEFECT>(a, s, macs, style)
    }

    /// [`new`](Self::new) for a kernel seeded with `DEFECT`, which every
    /// [`step_seeded`](Self::step_seeded) call on it must pass too.
    pub(crate) fn new_seeded<const DEFECT: u8>(
        a: &PolyQ,
        s: &SecretPoly,
        macs: usize,
        style: MacStyle,
    ) -> Self {
        assert!(
            matches!(macs, 256 | 512 | 1024),
            "engine supports 256, 512 or 1024 MACs"
        );
        Self {
            a: a.clone(),
            ext: negacyclic_extension::<DEFECT>(s),
            style,
            unroll: macs / N,
            acc: [0u16; N],
            i: 0,
        }
    }

    /// True once every coefficient product has been accumulated.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.i >= N
    }

    /// Performs one compute cycle; returns `true` while work remains
    /// (a call on a finished kernel is a no-op returning `false`).
    ///
    /// The accumulator is an explicit register; the rotating secret
    /// buffer is modelled as a *logical* rotation — the `N` lanes of the
    /// secret rotated by `x^r` are one contiguous window of the
    /// negacyclic extension built at construction — so the simulation
    /// clones and copies nothing per cycle. The RTL's physical rotation
    /// and this window read identical values (a unit test checks every
    /// window against a lane-by-lane reference).
    ///
    /// Each unrolled public coefficient updates all `N` MACs in one call
    /// to the style's lane function (`centralized_lanes` or
    /// `baseline_lanes`), whose range checks are folded across the lanes
    /// and tested once.
    ///
    /// # Panics
    ///
    /// As [`select_multiple`] (HS-I) or [`baseline_mac`] (baseline) on
    /// the first lane whose operands they reject.
    pub fn step(&mut self) -> bool {
        self.step_seeded::<NO_DEFECT>()
    }

    /// [`step`](Self::step) on a kernel built by
    /// [`new_seeded`](Self::new_seeded) with the same `DEFECT`.
    pub(crate) fn step_seeded<const DEFECT: u8>(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        for r in self.i..self.i + self.unroll {
            let lanes: &[i8; N] = self.ext[N - r..2 * N - r]
                .try_into()
                .expect("a rotation window holds N lanes");
            match self.style {
                // One shared multiple set per unrolled public coefficient.
                MacStyle::Centralized => {
                    centralized_lanes::<DEFECT>(&multiples(self.a.coeff(r)), lanes, &mut self.acc);
                }
                MacStyle::PerMac => baseline_lanes(self.a.coeff(r), lanes, &mut self.acc),
            }
        }
        self.i += self.unroll;
        !self.is_done()
    }

    /// The accumulator contents as a polynomial (the product once
    /// [`is_done`](Self::is_done)).
    #[must_use]
    pub fn product(&self) -> PolyQ {
        PolyQ::from_coeffs(self.acc)
    }
}

/// 13-bit coefficient mask.
const MASK13: u16 = (1 << 13) - 1;

/// HS-I's `N` selector MACs in one compute cycle: lane `j` selects
/// `m[|sel[j]|]` from the broadcast multiple set and adds it to, or
/// subtracts it from, `acc[j]`.
///
/// The lane body is [`select_lane`], the AND-OR form of the mux that
/// [`select_multiple`] reads as a table lookup. The range checks of
/// `select_multiple` (`|s| ≤ 5`, `acc < 2^13`) are folded across the
/// lanes into a maximum and an OR and tested once, before any lane is
/// written, so neither loop has a branch and LLVM vectorizes both; out
/// of line, the update compiles to packed compares, ANDs, ORs and adds
/// (`tools/ci.sh build` audits the adds). Only a rejected cycle takes
/// the scalar path, which updates the lanes before the offending one
/// and panics there, as the lane-by-lane loop did.
///
/// # Panics
///
/// With `select_multiple`'s message on the first lane where
/// `|sel[j]| > 5` or `acc[j] ≥ 2^13`.
#[inline(never)]
fn centralized_lanes<const DEFECT: u8>(m: &[u16; 6], sel: &[i8; N], acc: &mut [u16; N]) {
    let mut magnitudes = 0u8;
    let mut accumulators = 0u16;
    for (&slot, &s) in acc.iter().zip(sel) {
        magnitudes = magnitudes.max(s.unsigned_abs());
        accumulators |= slot;
    }
    if magnitudes > MAX_MULTIPLE || accumulators > MASK13 {
        // Rejected input only: locating the offender may branch.
        for (slot, &s) in acc.iter_mut().zip(sel) {
            *slot = select_multiple(m, s, *slot);
        }
        unreachable!("select_multiple accepted every lane of a rejected cycle");
    }
    for (slot, &s) in acc.iter_mut().zip(sel) {
        *slot = select_lane::<DEFECT>(m, s, *slot);
    }
}

/// The baseline's `N` MACs in one compute cycle: every lane multiplies
/// the broadcast public coefficient `a` by `|sel[j]|` in its own
/// Algorithm 2 shift-and-add unit and accumulates the signed product.
///
/// The lane body is [`shift_add_lane`]. As in [`centralized_lanes`],
/// the checks of [`baseline_mac`] (`a < 2^13`, `|s| ≤ 5`) are folded and
/// tested once per call before any lane is written, and a rejected
/// cycle re-runs `baseline_mac` lane by lane to panic at the first
/// offending lane.
///
/// # Panics
///
/// With `baseline_mac`'s message if `a ≥ 2^13` or on the first lane
/// where `|sel[j]| > 5`.
#[inline(never)]
fn baseline_lanes(a: u16, sel: &[i8; N], acc: &mut [u16; N]) {
    let magnitudes = sel.iter().fold(0u8, |max, s| max.max(s.unsigned_abs()));
    if a > MASK13 || magnitudes > MAX_MULTIPLE {
        // Rejected input only: locating the offender may branch.
        for (slot, &s) in acc.iter_mut().zip(sel) {
            *slot = baseline_mac(a, s, *slot);
        }
        unreachable!("baseline_mac accepted every lane of a rejected cycle");
    }
    for (slot, &s) in acc.iter_mut().zip(sel) {
        *slot = shift_add_lane(a, s, *slot);
    }
}

/// One HS-I MAC on operands [`centralized_lanes`] has range-checked: an
/// AND-OR mux over the six multiples (each input gated by an equality
/// mask on `|s|`), then the sign-masked add or subtract.
#[inline(always)]
fn select_lane<const DEFECT: u8>(m: &[u16; 6], s: i8, acc: u16) -> u16 {
    // `HsIMuxSelectFlip` inverts the select line's LSB (`|s| ⊕ 1`).
    let flip = u16::from(DEFECT == Fault::HsIMuxSelectFlip as u8);
    let magnitude = u16::from(s.unsigned_abs()) ^ flip;
    let mut chosen = 0u16;
    for (k, &multiple) in (0u16..).zip(m) {
        chosen |= multiple & 0u16.wrapping_sub(u16::from(magnitude == k));
    }
    accumulate_signed(acc, chosen, s)
}

/// One baseline MAC on operands [`baseline_lanes`] has range-checked:
/// Algorithm 2's shift-and-add, `a`, `a ≪ 1` and `a ≪ 2` each gated by
/// one bit of `|s|` (so `r3 = a + (a ≪ 1)` and `r5 = a + (a ≪ 2)`), then
/// the sign-masked add or subtract.
#[inline(always)]
fn shift_add_lane(a: u16, s: i8, acc: u16) -> u16 {
    let magnitude = u16::from(s.unsigned_abs());
    let bit = |k: u32| 0u16.wrapping_sub((magnitude >> k) & 1);
    let product = (a & bit(0))
        .wrapping_add((a << 1) & bit(1))
        .wrapping_add((a << 2) & bit(2));
    accumulate_signed(acc, product, s)
}

/// `acc ± m mod 2^13` in `u16` lanes, subtracting when `s < 0`: `neg`
/// is all ones for a negative selector and `(m ^ neg) − neg` is then
/// `−m`; the wrapping arithmetic is exact mod 2^13 because 2^13
/// divides 2^16.
#[inline(always)]
fn accumulate_signed(acc: u16, m: u16, s: i8) -> u16 {
    let neg = (i16::from(s) >> 15) as u16;
    acc.wrapping_add((m ^ neg).wrapping_sub(neg)) & MASK13
}

/// The secret's negacyclic extension `[−s, s]`, built once per
/// multiplication: for `0 ≤ r ≤ N`, lane `j` of the rotated secret
/// `x^r · s` is `ext[N + j − r]`, so all `N` lanes of one rotation are
/// the contiguous window `ext[N − r..2N − r]` — what the hardware's
/// physically rotating secret buffer holds after `r` shifts.
///
/// A buffer seeded with `HsIRotationSignDropped` re-enters wrapped
/// coefficients un-negated and builds `[s, s]`.
pub(crate) fn negacyclic_extension<const DEFECT: u8>(s: &SecretPoly) -> [i8; 2 * N] {
    let sign_dropped = DEFECT == Fault::HsIRotationSignDropped as u8;
    let mut ext = [0i8; 2 * N];
    let (wrapped, direct) = ext.split_at_mut(N);
    for ((w, d), &c) in wrapped.iter_mut().zip(direct).zip(s.coeffs()) {
        // Negacyclic wrap: x^256 = −1.
        *w = if sign_dropped { c } else { -c };
        *d = c;
    }
    ext
}

/// Flip-flop inventory shared by both parallel architectures: the
/// 3 328-bit accumulator, the 1 024-bit secret buffer and the 676-bit
/// streaming public buffer (§2.2), plus the calibration residual for
/// control state observed on the \[10\] re-implementation.
#[must_use]
pub fn shared_buffer_ffs() -> Area {
    Area::ffs(3_328 + 1_024 + 676)
}

/// Control overhead (FSM, counters, address generators) calibrated
/// against the re-implemented \[10\] numbers in Table 1.
#[must_use]
pub fn control_overhead() -> Area {
    Area::logic(301, 122)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_ring::schoolbook;

    fn operands(seed: u16) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) ^ (seed << 3)),
            SecretPoly::from_fn(|i| ((((i as u32 + 3) * seed as u32) % 11) as i8) - 5),
        )
    }

    /// Coefficient `j` of the rotated secret `x^r · s`, one lane at a
    /// time: the rotation group has order `2N` (`x^256 = −1`,
    /// `x^512 = 1`), so indices that wrap past the top re-enter negated.
    /// The reference the extension's windows are tested against.
    fn rotated(s: &SecretPoly, r: usize, j: usize) -> i8 {
        let t = (j + 2 * N - (r % (2 * N))) % (2 * N);
        if t < N {
            s.coeff(t)
        } else {
            // Negacyclic wrap: x^256 = −1.
            -s.coeff(t - N)
        }
    }

    #[test]
    fn negacyclic_extension_windows_equal_rotated_lanes() {
        let s = SecretPoly::from_fn(|i| ((((i as u32 + 1) * 37) % 11) as i8) - 5);
        let ext = negacyclic_extension::<NO_DEFECT>(&s);
        for r in 0..=N {
            let window = &ext[N - r..2 * N - r];
            for (j, &lane) in window.iter().enumerate() {
                assert_eq!(lane, rotated(&s, r, j), "r = {r}, j = {j}");
            }
        }
    }

    /// Every lane of a call against its scalar MAC: every 13-bit public
    /// coefficient, every selector in −5..=5 (each lane's selector is
    /// `lane mod 11 − 5`, so every selector sits on 23 or 24 lanes) and
    /// the accumulator values {0, 1, 0x1000, 0x1fff}.
    #[test]
    fn lane_functions_equal_their_scalar_macs_exhaustively() {
        let sel: [i8; N] = std::array::from_fn(|j| (j % 11) as i8 - 5);
        for a in 0u16..1 << 13 {
            let m = multiples(a);
            for start in [0u16, 1, 0x1000, 0x1fff] {
                let mut centralized = [start; N];
                centralized_lanes::<NO_DEFECT>(&m, &sel, &mut centralized);
                let mut baseline = [start; N];
                baseline_lanes(a, &sel, &mut baseline);
                for (j, &s) in sel.iter().enumerate() {
                    assert_eq!(
                        centralized[j],
                        select_multiple(&m, s, start),
                        "HS-I: a = {a}, s = {s}, acc = {start}"
                    );
                    assert_eq!(
                        baseline[j],
                        baseline_mac(a, s, start),
                        "baseline: a = {a}, s = {s}, acc = {start}"
                    );
                }
            }
        }
    }

    /// Runs `f` on `acc` and returns its panic message and what it left
    /// in `acc`.
    fn panic_and_state(mut acc: [u16; N], f: impl FnOnce(&mut [u16; N])) -> (String, [u16; N]) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut acc)));
        let payload = caught.expect_err("the call must panic");
        let message = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic payload");
        (message, acc)
    }

    /// A violation planted mid-cycle raises the scalar MAC's message and
    /// leaves the lanes before it updated and the rest untouched, as
    /// the lane-by-lane loop did.
    #[test]
    fn planted_violations_mid_cycle_panic_as_the_scalar_macs_do() {
        let m = multiples(1234);
        let legal: [i8; N] = std::array::from_fn(|j| (j % 9) as i8 - 4);
        let start: [u16; N] = std::array::from_fn(|j| (j as u16 * 37) & 0x1fff);
        let lane_by_lane = |sel: [i8; N], mac: &dyn Fn(i8, u16) -> u16| {
            panic_and_state(start, |acc| {
                for (slot, &s) in acc.iter_mut().zip(&sel) {
                    *slot = mac(s, *slot);
                }
            })
        };

        let mut sel = legal;
        sel[137] = -6;
        let got = panic_and_state(start, |acc| centralized_lanes::<NO_DEFECT>(&m, &sel, acc));
        assert_eq!(got.0, "selector exceeds range");
        assert_eq!(
            got,
            lane_by_lane(sel, &|s, acc| select_multiple(&m, s, acc))
        );
        assert_eq!(got.1[137..], start[137..]);
        assert_ne!(got.1[..137], start[..137]);

        let got = panic_and_state(start, |acc| baseline_lanes(1234, &sel, acc));
        assert_eq!(got.0, "selector exceeds Algorithm 2 range");
        assert_eq!(got, lane_by_lane(sel, &|s, acc| baseline_mac(1234, s, acc)));

        let mut wide = start;
        wide[200] = 1 << 13;
        let got = panic_and_state(wide, |acc| centralized_lanes::<NO_DEFECT>(&m, &legal, acc));
        assert_eq!(got.0, "accumulator exceeds 13 bits");
        let reference = panic_and_state(wide, |acc| {
            for (slot, &s) in acc.iter_mut().zip(&legal) {
                *slot = select_multiple(&m, s, *slot);
            }
        });
        assert_eq!(got, reference);

        let got = panic_and_state(start, |acc| baseline_lanes(1 << 13, &legal, acc));
        assert_eq!(got, (String::from("operand exceeds 13 bits"), start));
    }

    #[test]
    fn engine_matches_schoolbook_all_configs() {
        let (a, s) = operands(421);
        let expected = schoolbook::mul_asym(&a, &s);
        for macs in [256usize, 512] {
            for style in [MacStyle::PerMac, MacStyle::Centralized] {
                let (product, _, _, _) = simulate(&a, &s, macs, style);
                assert_eq!(product, expected, "macs = {macs}, style = {style:?}");
            }
        }
    }

    #[test]
    fn cycle_counts_match_table1() {
        let (a, s) = operands(7);
        let (_, r256, _, _) = simulate(&a, &s, 256, MacStyle::Centralized);
        assert_eq!(r256.compute_cycles, 256);
        let (_, r512, _, _) = simulate(&a, &s, 512, MacStyle::Centralized);
        assert_eq!(r512.compute_cycles, 128);
        // §4.1: "the high-speed implementation with 512 multipliers
        // requires 128 cycles for the pure multiplication, or 213 cycles
        // with the memory overhead (39%)".
        assert_eq!(r512.total(), 213);
        assert!((r512.overhead_ratio() - 0.39).abs() < 0.01);
    }

    #[test]
    fn timeline_reconciles_phase_breakdown_with_totals() {
        let (a, s) = operands(55);
        for (macs, compute) in [(256usize, 256u64), (512, 128)] {
            let (_, report, _, timeline) = simulate(&a, &s, macs, MacStyle::Centralized);
            assert!(timeline.reconciles_with(report.total()));
            assert_eq!(timeline.cycles_in("compute"), compute);
            assert_eq!(timeline.cycles_in("secret_load"), 17);
            assert_eq!(timeline.cycles_in("public_preload"), 14);
            assert_eq!(timeline.cycles_in("drain"), 54);
            // Full occupancy: one MAC per unit per compute cycle, and
            // exactly the N² coefficient products overall.
            assert!((timeline.occupancy("compute") - 1.0).abs() < 1e-12);
            assert_eq!(timeline.ops_total(), (N * N) as u64);
            assert_eq!(timeline.stall_cycles(), report.memory_overhead_cycles);
            assert_eq!(timeline.counter("streamed_words"), 39);
        }
    }

    #[test]
    fn unrolled_and_rolled_agree() {
        let (a, s) = operands(1009);
        let (p1, _, _, _) = simulate(&a, &s, 256, MacStyle::PerMac);
        let (p2, _, _, _) = simulate(&a, &s, 512, MacStyle::PerMac);
        assert_eq!(p1, p2);
    }

    #[test]
    fn lightsaber_magnitude_5_supported() {
        let a = PolyQ::from_fn(|_| 8191);
        let s = SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 });
        let (product, _, _, _) = simulate(&a, &s, 512, MacStyle::Centralized);
        assert_eq!(product, schoolbook::mul_asym(&a, &s));
    }

    #[test]
    #[should_panic(expected = "256, 512 or 1024")]
    fn bad_mac_count_panics() {
        let (a, s) = operands(1);
        let _ = simulate(&a, &s, 128, MacStyle::PerMac);
    }

    #[test]
    fn scaling_to_1024_macs_quarters_the_cycles() {
        // §3.1: "using 512 coefficient multipliers instead of 256, it is
        // possible reduce the cycle count of schoolbook multiplication by
        // a factor of two" — and the argument extends to 1024.
        let (a, s) = operands(333);
        let (product, cycles, _, _) = simulate(&a, &s, 1024, MacStyle::Centralized);
        assert_eq!(product, schoolbook::mul_asym(&a, &s));
        assert_eq!(cycles.compute_cycles, 64);
    }
}
