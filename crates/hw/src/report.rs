//! Per-run performance reports shared by all architecture models.

use std::fmt;

/// The cycle accounting of one simulated polynomial multiplication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Cycles spent computing MACs (the "pure multiplication" count the
    /// paper quotes: 256, 128, 16 384, …).
    pub compute_cycles: u64,
    /// Cycles spent on memory traffic that could not be overlapped with
    /// computation (loads, drains, stalls).
    pub memory_overhead_cycles: u64,
}

impl CycleReport {
    /// Total cycles including memory overhead.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.memory_overhead_cycles
    }

    /// Memory overhead as a fraction of the *total* cycles, the way
    /// §4.1 of the paper quotes it ("the read/write overhead is 3,087
    /// cycles, or less than 16 %" of LW's 19,471; HS-512's 85 of 213 is
    /// "39 %").
    #[must_use]
    pub fn overhead_ratio(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.memory_overhead_cycles as f64 / self.total() as f64
    }
}

impl fmt::Display for CycleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} compute + {} memory, {:.1}% overhead)",
            self.total(),
            self.compute_cycles,
            self.memory_overhead_cycles,
            100.0 * self.overhead_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_ratio() {
        let r = CycleReport {
            compute_cycles: 16_384,
            memory_overhead_cycles: 3_087,
        };
        assert_eq!(r.total(), 19_471);
        assert!(r.overhead_ratio() < 0.16);
        let s = r.to_string();
        assert!(s.contains("19471"), "display: {s}");
    }

    #[test]
    fn zero_compute_has_zero_ratio() {
        let r = CycleReport::default();
        assert_eq!(r.overhead_ratio(), 0.0);
    }
}
