//! §4.2: area/performance trade-offs of the lightweight architecture.
//!
//! The paper sketches (without implementing) lightweight variants with 8
//! or 16 MAC units: cycle count drops to roughly a half or a quarter
//! with only minor LUT growth, but the 4-MAC accumulator-through-BRAM
//! trick stops working — 8 MACs produce 128 bits of accumulator data per
//! cycle against a 64-bit write port. Two remedies are proposed:
//!
//! * [`MemoryStrategy::AccumulatorBuffer`] — a register buffer absorbs
//!   the accumulator stream and halves the write pressure (more FFs);
//! * [`MemoryStrategy::WiderBus`] — wider data path / multiple BRAMs in
//!   parallel (more BRAM ports, unchanged logic).
//!
//! This module turns the sketch into a quantitative model so the
//! `macs_sweep` bench can plot the §4.2 design space.

use saber_hw::mac::{multiples, select_multiple};
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, Area, CycleReport};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, N};

use crate::report::{ArchitectureReport, HwMultiplier};

/// How the accumulator stream is reconciled with the memory ports when
/// more than 4 MACs are instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryStrategy {
    /// The original 4-MAC direct streaming (§4.1): accumulator words go
    /// straight to/from the single BRAM every cycle.
    DirectStream,
    /// A register buffer holds a slice of the accumulator and drains it
    /// at 64 bits per cycle (costs flip-flops).
    AccumulatorBuffer,
    /// The data bus is widened with parallel BRAMs (costs BRAM ports).
    WiderBus,
}

/// A scaled lightweight multiplier with 4, 8 or 16 MAC units.
///
/// # Examples
///
/// ```
/// use saber_core::trade_offs::{MemoryStrategy, ScaledLightweightMultiplier};
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = ScaledLightweightMultiplier::new(16, MemoryStrategy::WiderBus);
/// let a = PolyQ::from_fn(|i| i as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 7) as i8) - 3);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// // ~¼ of the 4-MAC cycle count.
/// assert_eq!(hw.report().cycles.compute_cycles, 4_096);
/// ```
#[derive(Debug, Clone)]
pub struct ScaledLightweightMultiplier {
    macs: usize,
    strategy: MemoryStrategy,
    name: String,
    last_cycles: CycleReport,
    activity: Activity,
}

impl ScaledLightweightMultiplier {
    /// Creates a variant with `macs` ∈ {4, 8, 16}.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is not 4, 8 or 16, or if `DirectStream` is
    /// requested with more than 4 MACs (§4.2: it cannot keep up).
    #[must_use]
    pub fn new(macs: usize, strategy: MemoryStrategy) -> Self {
        assert!(
            matches!(macs, 4 | 8 | 16),
            "the lightweight family supports 4, 8 or 16 MACs"
        );
        assert!(
            !(strategy == MemoryStrategy::DirectStream && macs > 4),
            "direct accumulator streaming saturates at 4 MACs (§4.2)"
        );
        Self {
            macs,
            strategy,
            name: format!("LW {macs}-MAC ({strategy:?})"),
            last_cycles: CycleReport::default(),
            activity: Activity::default(),
        }
    }

    /// Modeled area.
    #[must_use]
    pub fn area(&self) -> Area {
        use saber_hw::area::{adder, mux, register};
        let macs = (mux(6, 13) + adder(16)) * self.macs as u32;
        let generator = adder(14) + adder(15);
        let extraction = mux(12, 13);
        let shift_in = mux(2, 64);
        let regs = register(88) + register(128) + register(64) + register(21);
        let control = Area::luts(260);
        let strategy_cost = match self.strategy {
            MemoryStrategy::DirectStream => Area::zero(),
            // Buffer one extra 64-bit accumulator word per 4 MACs above
            // the baseline, plus drain steering.
            MemoryStrategy::AccumulatorBuffer => {
                let extra_words = (self.macs / 4 - 1) as u32;
                register(64) * extra_words * 2 + mux(2, 64) * extra_words
            }
            // One extra 36Kb BRAM per additional 64-bit lane.
            MemoryStrategy::WiderBus => Area {
                luts: 16,
                ffs: 0,
                dsps: 0,
                brams: (self.macs / 4 - 1) as u32,
            },
        };
        macs + generator + extraction + shift_in + regs + control + strategy_cost
    }

    fn cycle_model(&self) -> CycleReport {
        let speedup = (self.macs / 4) as u64;
        let compute = 16_384 / speedup;
        // Per block pass: secret load (2) + public prefill (3) + window
        // prime (2) + drain (2) + 50 streamed words × 3-cycle pauses.
        // The public stream is consumed `speedup`× faster, so with the
        // buffered strategy the pauses overlap less and stay at 3 cycles;
        // the wider bus leaves a port free and absorbs two of the three.
        let pause = match self.strategy {
            MemoryStrategy::DirectStream | MemoryStrategy::AccumulatorBuffer => 3,
            MemoryStrategy::WiderBus => 1,
        };
        let per_block = 2 + 3 + 2 + 2 + 50 * pause;
        CycleReport {
            compute_cycles: compute,
            memory_overhead_cycles: 16 * per_block,
        }
    }
}

impl PolyMultiplier for ScaledLightweightMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        // Functional dataflow: identical index arithmetic to the 4-MAC
        // simulator, `macs` lanes per cycle.
        let mut acc = [0u16; N];
        let lanes = self.macs;
        for block in 0..(N / 16) {
            for i in 0..N {
                let m = multiples(public.coeff(i));
                for g in 0..(16 / lanes) {
                    for t in 0..lanes {
                        let k = 16 * block + lanes * g + t;
                        let pos = (i + k) % N;
                        let sk = secret.coeff(k);
                        let selector = if i + k >= N { -sk } else { sk };
                        acc[pos] = select_multiple(&m, selector, acc[pos]);
                    }
                }
            }
        }
        self.last_cycles = self.cycle_model();
        let area = self.area();
        self.activity = self.activity.merge(Activity {
            cycles: self.last_cycles.total(),
            bram_reads: 16 * (1 + 52) + self.last_cycles.compute_cycles,
            bram_writes: self.last_cycles.compute_cycles,
            io_words: 2 * self.last_cycles.compute_cycles,
            active_luts: u64::from(area.luts),
            active_ffs: u64::from(area.ffs),
            dsp_ops: 0,
        });
        PolyQ::from_coeffs(acc)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl HwMultiplier for ScaledLightweightMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: self.name.clone(),
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
    use saber_ring::schoolbook;

    fn operands() -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(911) & 0x1fff),
            SecretPoly::from_fn(|i| (((i * 3) % 11) as i8) - 5),
        )
    }

    #[test]
    fn all_variants_match_schoolbook() {
        let (a, s) = operands();
        let expected = schoolbook::mul_asym(&a, &s);
        let variants = [
            (4, MemoryStrategy::DirectStream),
            (8, MemoryStrategy::AccumulatorBuffer),
            (8, MemoryStrategy::WiderBus),
            (16, MemoryStrategy::AccumulatorBuffer),
            (16, MemoryStrategy::WiderBus),
        ];
        for (macs, strategy) in variants {
            let mut hw = ScaledLightweightMultiplier::new(macs, strategy);
            assert_eq!(hw.multiply(&a, &s), expected, "{macs} MACs {strategy:?}");
        }
    }

    #[test]
    fn cycles_scale_as_paper_predicts() {
        // §4.2: 8/16 MACs ⇒ "about a half or a quarter of the current
        // cycle count".
        let (a, s) = operands();
        let mut lw4 = ScaledLightweightMultiplier::new(4, MemoryStrategy::DirectStream);
        let mut lw8 = ScaledLightweightMultiplier::new(8, MemoryStrategy::AccumulatorBuffer);
        let mut lw16 = ScaledLightweightMultiplier::new(16, MemoryStrategy::AccumulatorBuffer);
        let _ = lw4.multiply(&a, &s);
        let _ = lw8.multiply(&a, &s);
        let _ = lw16.multiply(&a, &s);
        // Pure compute halves/quarters exactly; totals carry the fixed
        // streaming overhead, so the paper's "about a half or a quarter"
        // is checked with a looser bound on totals.
        assert_eq!(
            lw8.report().cycles.compute_cycles * 2,
            lw4.report().cycles.compute_cycles
        );
        assert_eq!(
            lw16.report().cycles.compute_cycles * 4,
            lw4.report().cycles.compute_cycles
        );
        let t4 = lw4.report().cycles.total() as f64;
        let t8 = lw8.report().cycles.total() as f64;
        let t16 = lw16.report().cycles.total() as f64;
        assert!(t8 / t4 < 0.62, "t8/t4 = {}", t8 / t4);
        assert!(t16 / t4 < 0.40, "t16/t4 = {}", t16 / t4);
    }

    #[test]
    fn lut_growth_is_minor() {
        // §4.2: "only minor consequences on the LUT requirements".
        let lw4 = ScaledLightweightMultiplier::new(4, MemoryStrategy::DirectStream);
        let lw16 = ScaledLightweightMultiplier::new(16, MemoryStrategy::AccumulatorBuffer);
        let growth = f64::from(lw16.area().luts) / f64::from(lw4.area().luts);
        assert!(growth < 2.2, "16-MAC LUT growth ×{growth:.2}");
    }

    #[test]
    fn strategies_cost_what_they_promise() {
        let buffered = ScaledLightweightMultiplier::new(16, MemoryStrategy::AccumulatorBuffer);
        let wide = ScaledLightweightMultiplier::new(16, MemoryStrategy::WiderBus);
        assert!(buffered.area().ffs > wide.area().ffs, "buffer costs FFs");
        assert!(
            wide.area().brams > buffered.area().brams,
            "wide bus costs BRAMs"
        );
    }

    #[test]
    fn four_mac_variant_matches_the_reference_model() {
        // The analytical 4-MAC cycle model must agree with the
        // cycle-accurate §4.1 simulator within 2 %.
        let (a, s) = operands();
        let mut analytical = ScaledLightweightMultiplier::new(4, MemoryStrategy::DirectStream);
        let mut simulated = LightweightMultiplier::new();
        let _ = analytical.multiply(&a, &s);
        let _ = simulated.multiply(&a, &s);
        let t_model = analytical.report().cycles.total() as f64;
        let t_sim = simulated.report().cycles.total() as f64;
        assert!(
            (t_model - t_sim).abs() / t_sim < 0.02,
            "model {t_model} vs simulator {t_sim}"
        );
    }

    #[test]
    #[should_panic(expected = "saturates at 4 MACs")]
    fn direct_stream_beyond_4_macs_rejected() {
        let _ = ScaledLightweightMultiplier::new(8, MemoryStrategy::DirectStream);
    }

    #[test]
    #[should_panic(expected = "4, 8 or 16")]
    fn bad_mac_count_rejected() {
        let _ = ScaledLightweightMultiplier::new(32, MemoryStrategy::WiderBus);
    }
}
