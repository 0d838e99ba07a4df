//! Target FPGA platforms and the critical-path timing model.
//!
//! The paper implements on two devices: a Xilinx **Ultrascale+**
//! XCZU9EG (ZCU102 board, high-speed designs, 250 MHz) and a small
//! **Artix-7** XC7A12TL (lightweight design, 100 MHz). We model achievable
//! clock frequency from the *logic depth* of an architecture's longest
//! combinational path: `T = t_clk + levels · t_level`, with per-family
//! constants calibrated to the paper's reported clocks.

use std::fmt;

/// A target FPGA family/device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fpga {
    /// Artix-7 XC7A12TLCSG325-2L (low-power, -2L speed grade).
    Artix7,
    /// Ultrascale+ XCZU9EG-FFVB1156-2 (ZCU102).
    UltrascalePlus,
}

impl Fpga {
    /// Per-logic-level delay (LUT + average routing) in nanoseconds.
    #[must_use]
    pub fn level_delay_ns(self) -> f64 {
        match self {
            Fpga::Artix7 => 0.95,
            Fpga::UltrascalePlus => 0.48,
        }
    }

    /// Fixed clocking overhead (clock-to-Q + setup + clock skew) in ns.
    #[must_use]
    pub fn clocking_overhead_ns(self) -> f64 {
        match self {
            Fpga::Artix7 => 1.1,
            Fpga::UltrascalePlus => 0.9,
        }
    }

    /// Total LUTs available (for utilization percentages).
    #[must_use]
    pub fn total_luts(self) -> u32 {
        match self {
            Fpga::Artix7 => 8_000,           // XC7A12TL
            Fpga::UltrascalePlus => 274_080, // XCZU9EG
        }
    }

    /// Total flip-flops available.
    #[must_use]
    pub fn total_ffs(self) -> u32 {
        match self {
            Fpga::Artix7 => 16_000,
            Fpga::UltrascalePlus => 548_160,
        }
    }

    /// Total DSP slices available.
    #[must_use]
    pub fn total_dsps(self) -> u32 {
        match self {
            Fpga::Artix7 => 40,
            Fpga::UltrascalePlus => 2_520,
        }
    }
}

impl fmt::Display for Fpga {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fpga::Artix7 => write!(f, "Artix-7 XC7A12TL"),
            Fpga::UltrascalePlus => write!(f, "Ultrascale+ XCZU9EG"),
        }
    }
}

/// The longest combinational path of a design, in logic levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// LUT levels on the longest register-to-register path.
    pub logic_levels: u32,
}

impl CriticalPath {
    /// Estimated maximum clock frequency on `fpga`, in MHz.
    ///
    /// # Examples
    ///
    /// ```
    /// use saber_hw::platform::{CriticalPath, Fpga};
    ///
    /// let path = CriticalPath { logic_levels: 6 };
    /// let mhz = path.fmax_mhz(Fpga::UltrascalePlus);
    /// assert!(mhz > 200.0);
    /// ```
    #[must_use]
    pub fn fmax_mhz(self, fpga: Fpga) -> f64 {
        let period_ns =
            fpga.clocking_overhead_ns() + f64::from(self.logic_levels) * fpga.level_delay_ns();
        1_000.0 / period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_speed_designs_reach_250mhz_on_ultrascale() {
        // ~6 logic levels (mux + accumulator adder + control).
        let path = CriticalPath { logic_levels: 6 };
        assert!(path.fmax_mhz(Fpga::UltrascalePlus) >= 250.0);
    }

    #[test]
    fn lightweight_design_reaches_100mhz_on_artix7() {
        let path = CriticalPath { logic_levels: 8 };
        assert!(path.fmax_mhz(Fpga::Artix7) >= 100.0);
    }

    #[test]
    fn deeper_logic_is_slower() {
        let shallow = CriticalPath { logic_levels: 4 };
        let deep = CriticalPath { logic_levels: 14 };
        assert!(deep.fmax_mhz(Fpga::UltrascalePlus) < shallow.fmax_mhz(Fpga::UltrascalePlus));
    }

    #[test]
    fn artix7_is_slower_than_ultrascale() {
        let path = CriticalPath { logic_levels: 6 };
        assert!(path.fmax_mhz(Fpga::Artix7) < path.fmax_mhz(Fpga::UltrascalePlus));
    }

    #[test]
    fn lightweight_fits_comfortably_in_artix7() {
        // The paper: < 7 % LUTs and < 2 % FFs of the XC7A12TL.
        let lut_share = 541.0 / f64::from(Fpga::Artix7.total_luts());
        let ff_share = 301.0 / f64::from(Fpga::Artix7.total_ffs());
        assert!(lut_share < 0.07);
        assert!(ff_share < 0.02);
    }
}
