//! Cycle-domain timelines: per-phase occupancy accounting for the
//! cycle-accurate multiplier models.
//!
//! The paper's headline numbers are *per-phase* cycle budgets — HS-I
//! multiplies in 256 compute cycles, HS-II in 131 with 128 DSPs
//! computing four coefficient MACs each per steady-state cycle — but a
//! bare total cannot show whether the datapath actually sustained that
//! occupancy or where the non-compute cycles went. A [`CycleTimeline`]
//! is the cycle-domain sibling of a wall-clock [`Trace`](crate::Trace):
//! an ordered, gap-free sequence of named [`CyclePhase`]s, each carrying
//! the number of coefficient-MAC operations issued during it, over a
//! declared number of parallel compute units.
//!
//! From that, occupancy is arithmetic, not estimation:
//! `occupancy(phase) = ops / (units × cycles)` — the per-unit,
//! per-cycle utilization tests assert against the paper's claims
//! (HS-II: 4 MACs per DSP per issue cycle; HS-I: 1 MAC per MAC unit per
//! compute cycle), and `stall_cycles()` is exactly the cycles in phases
//! that issued no operation (memory loads, pipeline drains, port
//! steals).
//!
//! Phases are **contiguous by construction**: [`CycleTimeline::push_phase`]
//! appends at the current end, so the timeline always tiles
//! `[0, total_cycles())` and "the budget reconciles with the breakdown"
//! is checkable as a plain sum.

/// One contiguous run of cycles doing one kind of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePhase {
    /// Phase name (`"compute"`, `"secret_load"`, `"pipeline_drain"`, …).
    /// Names may repeat; queries aggregate over same-named phases.
    pub name: &'static str,
    /// First cycle of the phase.
    pub start_cycle: u64,
    /// One past the last cycle of the phase.
    pub end_cycle: u64,
    /// Coefficient-MAC (or DSP multiply) operations issued during the
    /// phase; 0 marks a stall/overhead phase.
    pub ops: u64,
}

impl CyclePhase {
    /// Phase length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }
}

/// A gap-free cycle-domain timeline for one architecture run.
///
/// # Examples
///
/// ```
/// use saber_trace::CycleTimeline;
///
/// // A toy 2-unit datapath: 3 load cycles, 4 compute cycles at full
/// // occupancy, 1 drain cycle.
/// let mut t = CycleTimeline::new("toy", 2);
/// t.push_phase("load", 3, 0);
/// t.push_phase("compute", 4, 8);
/// t.push_phase("drain", 1, 0);
/// assert_eq!(t.total_cycles(), 8);
/// assert_eq!(t.stall_cycles(), 4);
/// assert!((t.occupancy("compute") - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CycleTimeline {
    track: String,
    units: u64,
    phases: Vec<CyclePhase>,
    counters: Vec<(String, u64)>,
}

impl CycleTimeline {
    /// Creates an empty timeline for `units` parallel compute units
    /// (MAC lanes or DSP slices).
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    #[must_use]
    pub fn new(track: impl Into<String>, units: u64) -> Self {
        assert!(units > 0, "a datapath has at least one compute unit");
        Self {
            track: track.into(),
            units,
            phases: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// The track label (architecture name) this timeline describes.
    #[must_use]
    pub fn track(&self) -> &str {
        &self.track
    }

    /// Parallel compute units the occupancy is normalized by.
    #[must_use]
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Appends a phase of `cycles` cycles issuing `ops` operations,
    /// starting where the previous phase ended. Zero-length phases are
    /// ignored (they arise naturally from loop bookkeeping).
    ///
    /// The name is a static string from the model's phase vocabulary, so
    /// no phase allocates for its name, whether it merges into the
    /// previous entry or starts a new one.
    #[inline]
    pub fn push_phase(&mut self, name: &'static str, cycles: u64, ops: u64) {
        if cycles == 0 {
            return;
        }
        let start = self.total_cycles();
        // Merge with the previous phase when it has the same name — the
        // cycle loops of the models emit per-segment slices (compute
        // resumed after a port steal, etc.) that belong to one phase.
        if let Some(last) = self.phases.last_mut() {
            if last.name == name && last.end_cycle == start {
                last.end_cycle += cycles;
                last.ops += ops;
                return;
            }
        }
        self.phases.push(CyclePhase {
            name,
            start_cycle: start,
            end_cycle: start + cycles,
            ops,
        });
    }

    /// Adds `value` to the named counter (creating it at 0; the name is
    /// copied only then).
    pub fn add_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_owned(), value)),
        }
    }

    /// The named counter's value (0 if never recorded).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// All counters, in insertion order.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All phases, in cycle order.
    #[must_use]
    pub fn phases(&self) -> &[CyclePhase] {
        &self.phases
    }

    /// Total cycles covered (phases tile `[0, total_cycles())`).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.phases.last().map_or(0, |p| p.end_cycle)
    }

    /// Cycles spent in phases with the given name (summed over repeats).
    #[must_use]
    pub fn cycles_in(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(CyclePhase::cycles)
            .sum()
    }

    /// Operations issued in phases with the given name.
    #[must_use]
    pub fn ops_in(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.ops)
            .sum()
    }

    /// Total operations issued across the whole timeline.
    #[must_use]
    pub fn ops_total(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// Per-unit, per-cycle occupancy of the named phase(s):
    /// `ops / (units × cycles)`. 0.0 when the phase never ran.
    #[must_use]
    pub fn occupancy(&self, name: &str) -> f64 {
        let cycles = self.cycles_in(name);
        if cycles == 0 {
            return 0.0;
        }
        self.ops_in(name) as f64 / (self.units * cycles) as f64
    }

    /// Whole-run utilization: `ops_total / (units × total_cycles)`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        self.ops_total() as f64 / (self.units * total) as f64
    }

    /// Cycles in phases that issued no operations — loads, drains,
    /// pipeline flushes, port steals.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.ops == 0)
            .map(CyclePhase::cycles)
            .sum()
    }

    /// Whether the phase breakdown reconciles with an externally
    /// reported total cycle count (the Table-1 numbers).
    #[must_use]
    pub fn reconciles_with(&self, total_cycles: u64) -> bool {
        self.total_cycles() == total_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CycleTimeline {
        let mut t = CycleTimeline::new("toy", 4);
        t.push_phase("load", 2, 0);
        t.push_phase("compute", 10, 40);
        t.push_phase("stall", 3, 0);
        t.push_phase("compute", 10, 40);
        t.push_phase("drain", 1, 0);
        t
    }

    #[test]
    fn phases_tile_contiguously() {
        let t = toy();
        let mut cursor = 0;
        for p in t.phases() {
            assert_eq!(p.start_cycle, cursor, "no gaps");
            assert!(p.end_cycle > p.start_cycle);
            cursor = p.end_cycle;
        }
        assert_eq!(cursor, t.total_cycles());
        assert_eq!(t.total_cycles(), 26);
        assert!(t.reconciles_with(26));
        assert!(!t.reconciles_with(27));
    }

    #[test]
    fn occupancy_and_stalls() {
        let t = toy();
        assert_eq!(t.cycles_in("compute"), 20);
        assert_eq!(t.ops_in("compute"), 80);
        assert!((t.occupancy("compute") - 1.0).abs() < 1e-12);
        assert_eq!(t.stall_cycles(), 6);
        assert!((t.utilization() - 80.0 / (4.0 * 26.0)).abs() < 1e-12);
        assert_eq!(t.occupancy("missing"), 0.0);
    }

    #[test]
    fn same_name_adjacent_phases_merge() {
        let mut t = CycleTimeline::new("m", 1);
        t.push_phase("compute", 4, 4);
        t.push_phase("compute", 4, 4);
        assert_eq!(t.phases().len(), 1, "adjacent same-name phases merge");
        t.push_phase("stall", 1, 0);
        t.push_phase("compute", 2, 2);
        assert_eq!(t.phases().len(), 3, "interrupted phases stay split");
        assert_eq!(t.cycles_in("compute"), 10);
    }

    #[test]
    fn zero_length_phases_are_ignored() {
        let mut t = CycleTimeline::new("z", 1);
        t.push_phase("nothing", 0, 0);
        assert!(t.phases().is_empty());
        assert_eq!(t.total_cycles(), 0);
        assert_eq!(t.utilization(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = CycleTimeline::new("c", 1);
        t.add_counter("port_steals", 3);
        t.add_counter("port_steals", 2);
        t.add_counter("blocks", 16);
        assert_eq!(t.counter("port_steals"), 5);
        assert_eq!(t.counter("blocks"), 16);
        assert_eq!(t.counter("absent"), 0);
        assert_eq!(t.counters().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one compute unit")]
    fn zero_units_rejected() {
        let _ = CycleTimeline::new("bad", 0);
    }
}
