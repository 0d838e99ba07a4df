//! **Extension (not in the paper): a stall-free lightweight schedule.**
//!
//! The §4.1 lightweight multiplier saturates both BRAM ports with the
//! accumulator stream (1 read + 1 write every cycle), so every public
//! word load must pause the datapath — that is where its ~2.5–3 k cycles
//! of memory overhead come from.
//!
//! This module explores the schedule in the paper's §4.2 spirit but one
//! step further: **swap the loop order**. Instead of consuming one
//! public coefficient per 4 cycles against all 16 resident secret
//! coefficients, run 64 *passes* (16 blocks × 4 groups of 4 secret
//! coefficients) in which the public polynomial streams one coefficient
//! per cycle and the 4-MAC window *slides* along the accumulator:
//!
//! * each accumulator position is touched in 4 consecutive cycles of a
//!   pass, so a 64-bit accumulator word completes only every 4th cycle —
//!   the ports are now ~50 % idle and every public load overlaps with
//!   computation (zero stalls);
//! * the public polynomial is re-streamed once per pass (64× instead of
//!   16×, quadrupling public-stream reads), but the accumulator is now
//!   read once per *word* instead of once per *cycle* — so total BRAM
//!   traffic actually **drops** (≈7.4 k vs ≈17.3 k reads), which the
//!   activity-based power model prices as lower BRAM/IO power;
//! * the costs are a second in-flight accumulator word (64 extra FFs)
//!   and a second address generator.
//!
//! Result (tests below): identical products, the same 16 384 compute
//! cycles, memory overhead down from ~2.5 k to a few hundred cycles, and
//! lower memory power — the §4.1 schedule is dominated at the price of
//! ~70 extra flip-flops. A worked example of the area/performance/power
//! methodology the paper proposes, applied to a new design point.

use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, Area, Bram, CycleReport};
use saber_ring::{packing, PolyMultiplier, PolyQ, SecretPoly, N};

use crate::fault::NO_DEFECT;
use crate::lightweight::{
    acc_word_addr, block_operands, bram_activity, decode_secret_word, mac_word,
    LightweightMultiplier, ACC_BASE, ACC_WORDS, PUB_BASE, PUB_WORDS, SEC_BASE,
};
use crate::report::{ArchitectureReport, HwMultiplier};

/// The sliding-window lightweight multiplier (extension).
///
/// # Examples
///
/// ```
/// use saber_core::lightweight_sliding::SlidingLightweightMultiplier;
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = SlidingLightweightMultiplier::new();
/// let a = PolyQ::from_fn(|i| (i * 3) as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// assert!(hw.report().cycles.total() < 17_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlidingLightweightMultiplier {
    last_cycles: CycleReport,
    activity: Activity,
}

impl SlidingLightweightMultiplier {
    /// Creates the architecture.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Area: the §4.1 datapath plus a second accumulator window word (the
    /// slide holds up to two partial words), 6 more control bits and a
    /// second address generator (40 LUTs) for the rotated pass pattern.
    #[must_use]
    pub fn area(&self) -> Area {
        let second_window = saber_hw::area::register(64 + 6);
        LightweightMultiplier::new().area() + second_window + Area::luts(40)
    }

    fn simulate(&self, a: &PolyQ, s: &SecretPoly) -> (PolyQ, CycleReport, Activity) {
        let mut mem = Bram::new(ACC_BASE + ACC_WORDS);
        mem.preload(PUB_BASE, &packing::poly13_to_words(a));
        mem.preload(SEC_BASE, &packing::secret_to_words(s));

        let mut acc = [0u64; ACC_WORDS];
        let mut compute_cycles = 0u64;
        let mut stalls = 0u64;

        for block in 0..16usize {
            // Secret block load: 2 cycles, once per block (resident for
            // all four passes).
            mem.issue_read(SEC_BASE + block).expect("port free");
            mem.tick();
            let secret_word = mem.read_data().expect("secret arrives");
            mem.tick();
            let groups = block_operands(&decode_secret_word(secret_word), &acc, a.coeffs());

            for (group, &operands) in groups.iter().enumerate() {
                // Pass prologue: prime the public buffer (2 words) and
                // the first accumulator window.
                let mut pub_loaded = 2usize;
                let mut buffer_bits: i64 = 128;
                mem.issue_read(PUB_BASE).expect("port free");
                mem.tick();
                mem.issue_read(PUB_BASE + 1).expect("port free");
                mem.issue_write(ACC_BASE, 0).expect("write free"); // touch
                mem.tick();

                for i in 0..N {
                    // One public coefficient consumed per cycle.
                    buffer_bits -= 13;
                    if buffer_bits < 0 {
                        // Would underflow: a stall the schedule failed to
                        // hide (must never happen — asserted below).
                        stalls += 1;
                        buffer_bits += 13;
                    }

                    // Port arbitration for this cycle: accumulator read
                    // every 4th cycle, otherwise stream the next public
                    // word if the buffer has room.
                    if i % 4 == 0 {
                        let window = acc_word_addr(block, i / 4 + group);
                        mem.issue_read(window).expect("read port free");
                    } else if 128 - buffer_bits >= 64 && pub_loaded < PUB_WORDS {
                        mem.issue_read(PUB_BASE + pub_loaded)
                            .expect("read port free");
                        pub_loaded += 1;
                        buffer_bits += 64;
                    }
                    if i % 4 == 3 {
                        // A word completed sliding past: write it back.
                        let done = acc_word_addr(block, i / 4 + group);
                        mem.issue_write(done, acc[i / 4]).expect("write port free");
                    }

                    // The 4 MACs: coefficient i against the group's 4 secrets.
                    let pos = i + 16 * block + 4 * group;
                    mac_word::<NO_DEFECT>(&mut acc, a.coeff(i), operands, pos);
                    mem.tick();
                    compute_cycles += 1;
                }

                // Pass epilogue: drain the last partial word.
                mem.issue_write(acc_word_addr(block, 63 + group), 0)
                    .expect("port free");
                mem.tick();
            }
        }
        assert_eq!(stalls, 0, "the sliding schedule must be stall-free");

        let stats = mem.stats();
        let cycles = CycleReport {
            compute_cycles,
            memory_overhead_cycles: stats.cycles - compute_cycles,
        };
        let activity = bram_activity(stats, self.area());
        let product = PolyQ::from_fn(|p| (acc[p / 4] >> (16 * (p % 4))) as u16);
        (product, cycles, activity)
    }
}

impl PolyMultiplier for SlidingLightweightMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let (product, cycles, activity) = self.simulate(public, secret);
        self.last_cycles = cycles;
        self.activity = self.activity.merge(activity);
        product
    }

    fn name(&self) -> &str {
        "LW-sliding (extension)"
    }
}

impl HwMultiplier for SlidingLightweightMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: "LW-sliding".into(),
            fpga: Fpga::Artix7,
            cycles: self.last_cycles,
            area: self.area(),
            critical_path: CriticalPath { logic_levels: 8 },
            activity: Some(self.activity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lightweight::LightweightMultiplier;
    use saber_hw::PowerModel;
    use saber_ring::schoolbook;

    fn operands(seed: u16) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) & 0x1fff),
            SecretPoly::from_fn(|i| ((((i + 2) * seed as usize) % 11) as i8) - 5),
        )
    }

    #[test]
    fn functional_correctness() {
        for seed in [3u16, 701, 4441] {
            let (a, s) = operands(seed);
            let mut hw = SlidingLightweightMultiplier::new();
            assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s), "{seed}");
        }
    }

    #[test]
    fn same_compute_far_less_overhead() {
        let (a, s) = operands(17);
        let mut sliding = SlidingLightweightMultiplier::new();
        let mut paper = LightweightMultiplier::new();
        let _ = sliding.multiply(&a, &s);
        let _ = paper.multiply(&a, &s);
        let sc = sliding.report().cycles;
        let pc = paper.report().cycles;
        assert_eq!(sc.compute_cycles, pc.compute_cycles, "same MAC work");
        assert!(
            sc.memory_overhead_cycles * 4 < pc.memory_overhead_cycles,
            "sliding {} vs paper {}",
            sc.memory_overhead_cycles,
            pc.memory_overhead_cycles
        );
        assert!(sc.total() < 17_000, "total = {}", sc.total());
    }

    #[test]
    fn traffic_and_power_comparison() {
        // The sliding order re-streams the public polynomial 4× more but
        // reads the accumulator once per word instead of once per cycle:
        // total BRAM traffic and therefore memory power go *down*.
        let (a, s) = operands(9);
        let mut sliding = SlidingLightweightMultiplier::new();
        let mut paper = LightweightMultiplier::new();
        let _ = sliding.multiply(&a, &s);
        let _ = paper.multiply(&a, &s);
        let sliding_act = sliding.report().activity.unwrap();
        let paper_act = paper.report().activity.unwrap();
        // More public-stream reads (included in totals)…
        assert!(sliding_act.bram_reads > 4_000);
        // …but fewer reads overall.
        assert!(
            sliding_act.bram_reads * 2 < paper_act.bram_reads,
            "sliding {} vs paper {}",
            sliding_act.bram_reads,
            paper_act.bram_reads
        );
        let model = PowerModel::for_platform(Fpga::Artix7);
        let p_sliding = model.estimate(&sliding_act, 100.0);
        let p_paper = model.estimate(&paper_act, 100.0);
        assert!(p_sliding.bram_w < p_paper.bram_w);
        // The price: a slightly larger register file.
        assert!(sliding.area().ffs > paper.area().ffs);
    }

    #[test]
    fn area_stays_lightweight() {
        let area = SlidingLightweightMultiplier::new().area();
        assert!(area.luts < 700, "LUTs = {}", area.luts);
        assert_eq!(area.dsps, 0);
    }

    #[test]
    fn boundary_operands() {
        let a = PolyQ::from_fn(|_| 8191);
        let s = SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 });
        let mut hw = SlidingLightweightMultiplier::new();
        assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
    }
}
