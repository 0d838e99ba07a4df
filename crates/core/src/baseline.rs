//! Re-implementation of the \[10\] parallel schoolbook multiplier
//! (Roy & Basso, TCHES 2020) — the baseline both high-speed
//! optimizations are measured against (Fig. 1, Table 1 rows 6-7).
//!
//! Every MAC unit contains its own Algorithm-2 shift-and-add coefficient
//! multiplier, so the computational-logic area is roughly `macs ×`
//! (shift-add multiplier + accumulator adder).

use saber_hw::mac::baseline_mac_area;
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, Area, CycleReport};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};

use crate::engine::{self, MacStyle};
use crate::report::{ArchitectureReport, HwMultiplier};

/// The \[10\] baseline multiplier with 256 or 512 MAC units.
///
/// # Examples
///
/// ```
/// use saber_core::baseline::BaselineMultiplier;
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = BaselineMultiplier::new(256);
/// let a = PolyQ::from_fn(|i| i as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// assert_eq!(hw.report().cycles.compute_cycles, 256);
/// ```
#[derive(Debug, Clone)]
pub struct BaselineMultiplier {
    macs: usize,
    name: String,
    last_cycles: CycleReport,
    last_timeline: Option<saber_trace::CycleTimeline>,
    activity: Activity,
    multiplications: u64,
}

impl BaselineMultiplier {
    /// Creates the architecture with `macs` MAC units (256 or 512).
    ///
    /// # Panics
    ///
    /// Panics unless `macs` is 256 or 512.
    #[must_use]
    pub fn new(macs: usize) -> Self {
        assert!(macs == 256 || macs == 512, "[10] uses 256 or 512 MACs");
        Self {
            macs,
            name: format!("[10] {macs}"),
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

    /// Modeled area: per-MAC logic plus shared buffers and control.
    #[must_use]
    pub fn area(&self) -> Area {
        baseline_mac_area() * self.macs as u32
            + engine::shared_buffer_ffs()
            + engine::control_overhead()
    }
}

impl PolyMultiplier for BaselineMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let (product, cycles, mut activity, timeline) =
            engine::simulate(public, secret, self.macs, MacStyle::PerMac);
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

impl HwMultiplier for BaselineMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: self.name.clone(),
            fpga: Fpga::UltrascalePlus,
            cycles: self.last_cycles,
            area: self.area(),
            // Shift-add multiplier (adder + wide mux) feeding the
            // accumulator adder, plus enable logic.
            critical_path: CriticalPath { logic_levels: 6 },
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

    fn operands() -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(2001) & 0x1fff),
            SecretPoly::from_fn(|i| (((i * 7) % 9) as i8) - 4),
        )
    }

    #[test]
    fn functional_correctness_both_sizes() {
        let (a, s) = operands();
        for macs in [256, 512] {
            let mut hw = BaselineMultiplier::new(macs);
            assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
        }
    }

    #[test]
    fn area_tracks_paper_reimplementation() {
        // Table 1 (re-implemented [10]): 13,869 LUT / 5,150 FF @ 256 MACs
        // and 29,141 LUT / 4,907 FF @ 512. The analytical model must land
        // within 10 % on LUTs.
        let a256 = BaselineMultiplier::new(256).area();
        assert!(
            (a256.luts as f64 - 13_869.0).abs() / 13_869.0 < 0.10,
            "256-MAC LUTs = {}",
            a256.luts
        );
        assert_eq!(a256.dsps, 0);
        let a512 = BaselineMultiplier::new(512).area();
        assert!(
            (a512.luts as f64 - 29_141.0).abs() / 29_141.0 < 0.10,
            "512-MAC LUTs = {}",
            a512.luts
        );
    }

    #[test]
    fn report_reflects_last_run() {
        let (a, s) = operands();
        let mut hw = BaselineMultiplier::new(512);
        let _ = hw.multiply(&a, &s);
        let report = hw.report();
        assert_eq!(report.cycles.compute_cycles, 128);
        assert!(report.fmax_mhz() >= 250.0);
        assert_eq!(hw.multiplications(), 1);
    }

    #[test]
    fn activity_accumulates_across_runs() {
        let (a, s) = operands();
        let mut hw = BaselineMultiplier::new(256);
        let _ = hw.multiply(&a, &s);
        let first = hw.report().activity.unwrap().bram_reads;
        let _ = hw.multiply(&a, &s);
        assert_eq!(hw.report().activity.unwrap().bram_reads, 2 * first);
    }
}
