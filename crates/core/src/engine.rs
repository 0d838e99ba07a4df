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

use saber_hw::mac::{baseline_mac, multiples, select_multiple};
use saber_hw::{Activity, Area, CycleReport};
use saber_ring::{PolyQ, SecretPoly, N};
use saber_trace::CycleTimeline;

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
    let track = match style {
        MacStyle::PerMac => format!("baseline-{macs}"),
        MacStyle::Centralized => format!("hs1-{macs}"),
    };
    let mut kernel = ComputeKernel::new(a, s, macs, style);
    let mut timeline = CycleTimeline::new(track, macs as u64);
    timeline.push_phase("secret_load", SECRET_LOAD_CYCLES, 0);
    timeline.push_phase("public_preload", PUBLIC_PRELOAD_CYCLES, 0);
    let mut compute_cycles = 0u64;
    while !kernel.is_done() {
        kernel.step();
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
        assert!(
            matches!(macs, 256 | 512 | 1024),
            "engine supports 256, 512 or 1024 MACs"
        );
        Self {
            a: a.clone(),
            ext: negacyclic_extension(s),
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
    /// clones and copies nothing per cycle. The RTL's physical rotation,
    /// this window and the lane-by-lane `rotated` read identical
    /// values.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        for r in self.i..self.i + self.unroll {
            let lanes = &self.ext[N - r..2 * N - r];
            match self.style {
                MacStyle::Centralized => {
                    // One shared multiple set per unrolled public
                    // coefficient.
                    let m = multiples(self.a.coeff(r));
                    for (slot, &sel) in self.acc.iter_mut().zip(lanes) {
                        *slot = select_multiple(&m, sel, *slot);
                    }
                }
                MacStyle::PerMac => {
                    let ai = self.a.coeff(r);
                    for (slot, &sel) in self.acc.iter_mut().zip(lanes) {
                        *slot = baseline_mac(ai, sel, *slot);
                    }
                }
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

/// Coefficient `j` of the rotated secret `x^r · s` — what the hardware's
/// physically rotating secret buffer holds in lane `j` after `r` shifts.
///
/// The rotation group has order `2N` (`x^256 = −1`, `x^512 = 1`): indices
/// that wrap past the top re-enter negated. This lane-by-lane form is the
/// reference the fault mutants replay; the simulators read the same
/// values from [`negacyclic_extension`].
#[inline]
pub(crate) fn rotated(s: &SecretPoly, r: usize, j: usize) -> i8 {
    let t = (j + 2 * N - (r % (2 * N))) % (2 * N);
    if t < N {
        s.coeff(t)
    } else {
        // Negacyclic wrap: x^256 = −1.
        -s.coeff(t - N)
    }
}

/// The secret's negacyclic extension `[−s, s]`, built once per
/// multiplication: for `0 ≤ r ≤ N`, lane `j` of the rotated secret
/// `x^r · s` is `ext[N + j − r]`, so all `N` lanes of one rotation are
/// the contiguous window `ext[N − r..2N − r]` — the values [`rotated`]
/// computes one lane at a time.
pub(crate) fn negacyclic_extension(s: &SecretPoly) -> [i8; 2 * N] {
    let mut ext = [0i8; 2 * N];
    let (wrapped, direct) = ext.split_at_mut(N);
    for ((w, d), &c) in wrapped.iter_mut().zip(direct).zip(s.coeffs()) {
        // Negacyclic wrap: x^256 = −1.
        *w = -c;
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

    #[test]
    fn negacyclic_extension_windows_equal_rotated_lanes() {
        let s = SecretPoly::from_fn(|i| ((((i as u32 + 1) * 37) % 11) as i8) - 5);
        let ext = negacyclic_extension(&s);
        for r in 0..=N {
            let window = &ext[N - r..2 * N - r];
            for (j, &lane) in window.iter().enumerate() {
                assert_eq!(lane, rotated(&s, r, j), "r = {r}, j = {j}");
            }
        }
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
