//! **HS-I**: the centralized-multiplier architecture (§3.1, Fig. 2).
//!
//! The key observation: in Algorithm 2 the secret coefficient `s_j` only
//! acts at the very end, as a multiplexer selector. Since all parallel
//! MACs receive the *same* public coefficient `a_i`, the multiples
//! `{0, a, 2a, 3a, 4a(, 5a)}` can be computed **once** and broadcast;
//! each MAC shrinks to a selector plus the accumulator adder. Same cycle
//! count as the baseline, −22 % / −24 % LUTs (Table 1), and — as §3.1
//! argues — no new side-channel surface, because the computation itself
//! is unchanged (the engine tests assert bit-identical products).

use saber_hw::mac::{centralized_mac_area, multiple_generator_area};
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, Area, CycleReport};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};

use crate::engine::{self, MacStyle};
use crate::report::{ArchitectureReport, HwMultiplier};

/// The HS-I centralized multiplier with 256 or 512 MAC units.
///
/// # Examples
///
/// ```
/// use saber_core::centralized::CentralizedMultiplier;
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = CentralizedMultiplier::new(512);
/// let a = PolyQ::from_fn(|i| (8191 - i) as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// assert_eq!(hw.report().cycles.compute_cycles, 128);
/// ```
#[derive(Debug, Clone)]
pub struct CentralizedMultiplier {
    macs: usize,
    name: String,
    last_cycles: CycleReport,
    last_timeline: Option<saber_trace::CycleTimeline>,
    activity: Activity,
    multiplications: u64,
}

impl CentralizedMultiplier {
    /// Creates the architecture with `macs` MAC units (256, 512, or —
    /// per §3.1's "512 (or more)" scaling argument — 1024).
    ///
    /// # Panics
    ///
    /// Panics unless `macs` is 256, 512 or 1024.
    #[must_use]
    pub fn new(macs: usize) -> Self {
        assert!(
            matches!(macs, 256 | 512 | 1024),
            "HS-I supports 256, 512 or 1024 MACs"
        );
        Self {
            macs,
            name: format!("HS-I {macs}"),
            last_cycles: CycleReport::default(),
            last_timeline: None,
            activity: Activity::default(),
            multiplications: 0,
        }
    }

    /// Multiplications simulated so far.
    #[must_use]
    pub fn multiplications(&self) -> u64 {
        self.multiplications
    }

    /// Modeled area: selector-only MACs, one multiple generator per
    /// unrolled public coefficient, shared buffers and control.
    #[must_use]
    pub fn area(&self) -> Area {
        let generators = (self.macs / 256) as u32;
        centralized_mac_area() * self.macs as u32
            + multiple_generator_area() * generators
            + engine::shared_buffer_ffs()
            + engine::control_overhead()
    }
}

impl PolyMultiplier for CentralizedMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let (product, cycles, mut activity, timeline) =
            engine::simulate(public, secret, self.macs, MacStyle::Centralized);
        let area = self.area();
        activity.active_luts = u64::from(area.luts);
        activity.active_ffs = u64::from(area.ffs);
        self.last_cycles = cycles;
        self.last_timeline = Some(timeline);
        self.activity = self.activity.merge(activity);
        self.multiplications += 1;
        product
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl HwMultiplier for CentralizedMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: self.name.clone(),
            fpga: Fpga::UltrascalePlus,
            cycles: self.last_cycles,
            area: self.area(),
            // The multiplier is out of the MAC: selector + adder only.
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
    use crate::baseline::BaselineMultiplier;
    use saber_ring::schoolbook;

    fn operands() -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(5555) & 0x1fff),
            SecretPoly::from_fn(|i| (((i * 13) % 11) as i8) - 5),
        )
    }

    #[test]
    fn functional_correctness_both_sizes() {
        let (a, s) = operands();
        for macs in [256, 512] {
            let mut hw = CentralizedMultiplier::new(macs);
            assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
        }
    }

    #[test]
    fn same_computation_as_baseline() {
        // §3.1: "it does not change the computations that are being
        // computed" — products must be bit-identical to [10]'s.
        let (a, s) = operands();
        for macs in [256, 512] {
            let mut hs = CentralizedMultiplier::new(macs);
            let mut base = BaselineMultiplier::new(macs);
            assert_eq!(hs.multiply(&a, &s), base.multiply(&a, &s));
        }
    }

    #[test]
    fn same_cycles_as_baseline() {
        // "no impact on performance".
        let (a, s) = operands();
        for macs in [256, 512] {
            let mut hs = CentralizedMultiplier::new(macs);
            let mut base = BaselineMultiplier::new(macs);
            let _ = hs.multiply(&a, &s);
            let _ = base.multiply(&a, &s);
            assert_eq!(hs.report().cycles, base.report().cycles);
        }
    }

    #[test]
    fn lut_reduction_matches_paper_claims() {
        // §5.2: HS-I-256 reduces LUTs by 22 % vs [10]-256; HS-I-512 by
        // 24 % vs [10]-512. Accept the claim within ±8 percentage points
        // of the analytical model.
        for (macs, claimed) in [(256usize, 0.22f64), (512, 0.24)] {
            let hs = CentralizedMultiplier::new(macs).area().luts as f64;
            let base = BaselineMultiplier::new(macs).area().luts as f64;
            let reduction = 1.0 - hs / base;
            assert!(
                (reduction - claimed).abs() < 0.08,
                "macs = {macs}: modeled {reduction:.2} vs claimed {claimed}"
            );
        }
    }

    #[test]
    fn area_tracks_table1() {
        // Table 1: HS-I 256 = 10,844 LUT; HS-I 512 = 22,118 LUT (±10 %).
        let a256 = CentralizedMultiplier::new(256).area();
        assert!(
            (a256.luts as f64 - 10_844.0).abs() / 10_844.0 < 0.10,
            "HS-I-256 LUTs = {}",
            a256.luts
        );
        let a512 = CentralizedMultiplier::new(512).area();
        assert!(
            (a512.luts as f64 - 22_118.0).abs() / 22_118.0 < 0.10,
            "HS-I-512 LUTs = {}",
            a512.luts
        );
    }

    #[test]
    fn hs1_512_vs_baseline_256_tradeoff() {
        // §5.2: HS-I-512 costs ~27 % more LUTs than [10]-256 but halves
        // the cycle count.
        let hs512 = CentralizedMultiplier::new(512).area().luts as f64;
        let base256 = BaselineMultiplier::new(256).area().luts as f64;
        let increase = hs512 / base256 - 1.0;
        assert!(
            (0.15..=0.60).contains(&increase),
            "increase = {increase:.2}"
        );
    }
}
