//! The SoC waveform probe: per-tick signal capture for VCD export and
//! cross-format cycle timelines.
//!
//! A [`SocProbe`] rides along a scheduler run
//! ([`Soc::run_with_probe`](crate::scheduler::Soc::run_with_probe)) and
//! records, at every base cycle, the signals a hardware engineer would
//! put on a logic analyzer:
//!
//! | signal | width | meaning |
//! |---|---|---|
//! | `soc.c<id>_<name>.busy` | 1 | the tick did useful work |
//! | `soc.c<id>_<name>.state` | 8 | the component's [`state_code`] |
//! | `soc.c<id>_<name>.busy_cycles` | 32 | cumulative busy counter |
//! | `soc.c<id>_<name>.stall_cycles` | 32 | cumulative stall counter |
//! | `soc.bus.read_reqs` / `write_reqs` | 8 | latched request-queue depth |
//! | `soc.bus.grants_pending` | 8 | grants latched, not yet consumed |
//! | `soc.bus.read_grants` / `write_grants` | 32 | cumulative grant counters |
//! | `soc.bus.contended` | 1 | >1 read contender this cycle |
//! | `soc.bus.contended_cycles` | 32 | cumulative contention counter |
//! | `soc.bus.sig_<flag>` | 1 | each latched signal flag (e.g. `xof_done`) |
//! | `soc.sched.live` | 8 | live non-daemon components |
//!
//! Busy/stall deltas are measured by diffing [`Component::stats`] around
//! each tick, so the final value of every `busy_cycles` wire equals the
//! heap scheduler's own total *by construction* — the invariant the
//! cross-format consistency tests assert against the golden fingerprints.
//!
//! The same per-tick record also builds one [`CycleTimeline`] per
//! component (busy/stall/idle runs in the base-cycle domain), so a
//! single probed run exports to both the Chrome trace-event format and
//! VCD, and the two can be checked against each other.
//!
//! [`state_code`]: crate::component::Component::state_code
//! [`Component::stats`]: crate::component::Component::stats

use std::collections::BTreeMap;

use saber_trace::vcd::VcdWriter;
use saber_trace::CycleTimeline;

use crate::bus::{BusStats, SharedBus};
use crate::component::{Component, ComponentStats};

/// Widths used for the probe's wires.
const STATE_WIDTH: u32 = 8;
const COUNT_WIDTH: u32 = 32;
const DEPTH_WIDTH: u32 = 8;

#[derive(Debug)]
struct CompSlot {
    busy_sig: usize,
    state_sig: usize,
    busy_total_sig: usize,
    stall_total_sig: usize,
    /// Base cycle of the last observed tick.
    last_tick: Option<u64>,
    timeline: CycleTimeline,
}

#[derive(Debug)]
struct BusSigs {
    read_reqs: usize,
    write_reqs: usize,
    grants_pending: usize,
    read_grants: usize,
    write_grants: usize,
    contended: usize,
    contended_cycles: usize,
    live: usize,
}

/// Everything a probed run produced: the waveform, one cycle timeline
/// per component, and the run shape the consistency tests compare.
#[derive(Debug, Clone)]
pub struct SocTrace {
    /// The IEEE-1364 VCD document (deterministic; open in GTKWave).
    pub vcd: String,
    /// One base-cycle-domain timeline per component, in registration
    /// order, tracks labeled `c<id>_<name>`.
    pub timelines: Vec<CycleTimeline>,
    /// One past the last serviced base cycle.
    pub makespan: u64,
    /// Component ticks dispatched (scheduler events).
    pub events: u64,
}

/// Replaces every character VCD identifiers and scope names dislike
/// with `_` (hyphens in component names, mostly).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Records per-tick SoC signals; attach with
/// [`Soc::run_with_probe`](crate::scheduler::Soc::run_with_probe).
#[derive(Debug, Default)]
pub struct SocProbe {
    sigs: Vec<(String, u32)>,
    changes: Vec<(u64, usize, u64)>,
    comps: Vec<CompSlot>,
    bus: Option<BusSigs>,
    flag_sigs: BTreeMap<String, usize>,
    last_bus: BusStats,
    events: u64,
    makespan: u64,
}

impl SocProbe {
    /// An empty probe.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn sig(&mut self, path: String, width: u32) -> usize {
        self.sigs.push((path, width));
        self.sigs.len() - 1
    }

    fn set(&mut self, t: u64, sig: usize, value: u64) {
        self.changes.push((t, sig, value));
    }

    /// Declares wires for every registered component plus the bus and
    /// scheduler modules. Called by the scheduler at run start.
    pub(crate) fn begin(&mut self, components: &[Box<dyn Component + '_>]) {
        self.comps.clear();
        self.sigs.clear();
        self.changes.clear();
        self.flag_sigs.clear();
        self.last_bus = BusStats::default();
        self.events = 0;
        self.makespan = 0;
        for c in components {
            let label = format!("c{}_{}", c.id().0, sanitize(c.name()));
            let busy_sig = self.sig(format!("soc.{label}.busy"), 1);
            let state_sig = self.sig(format!("soc.{label}.state"), STATE_WIDTH);
            let busy_total_sig = self.sig(format!("soc.{label}.busy_cycles"), COUNT_WIDTH);
            let stall_total_sig = self.sig(format!("soc.{label}.stall_cycles"), COUNT_WIDTH);
            self.comps.push(CompSlot {
                timeline: CycleTimeline::new(label, 1),
                busy_sig,
                state_sig,
                busy_total_sig,
                stall_total_sig,
                last_tick: None,
            });
        }
        self.bus = Some(BusSigs {
            read_reqs: self.sig("soc.bus.read_reqs".into(), DEPTH_WIDTH),
            write_reqs: self.sig("soc.bus.write_reqs".into(), DEPTH_WIDTH),
            grants_pending: self.sig("soc.bus.grants_pending".into(), DEPTH_WIDTH),
            read_grants: self.sig("soc.bus.read_grants".into(), COUNT_WIDTH),
            write_grants: self.sig("soc.bus.write_grants".into(), COUNT_WIDTH),
            contended: self.sig("soc.bus.contended".into(), 1),
            contended_cycles: self.sig("soc.bus.contended_cycles".into(), COUNT_WIDTH),
            live: self.sig("soc.sched.live".into(), DEPTH_WIDTH),
        });
    }

    /// Records one component tick: stats deltas, state code, and the
    /// timeline phase for this base cycle.
    pub(crate) fn component_ticked(
        &mut self,
        t: u64,
        idx: usize,
        component: &dyn Component,
        before: ComponentStats,
        retired: bool,
    ) {
        self.events += 1;
        let after = component.stats();
        let busy_delta = after.busy_cycles.saturating_sub(before.busy_cycles);
        let stall_delta = after.stall_cycles.saturating_sub(before.stall_cycles);
        let state = component.state_code();
        let slot = &mut self.comps[idx];

        // Timeline: one entry per scheduler tick in the base-cycle
        // domain; gaps (clock-divider strides) are idle.
        let gap_start = slot.last_tick.map_or(0, |prev| prev + 1);
        let phase = if busy_delta > 0 {
            "busy"
        } else if stall_delta > 0 {
            "stall"
        } else {
            "idle"
        };
        slot.timeline
            .push_phase("idle", t.saturating_sub(gap_start), 0);
        slot.timeline.push_phase(phase, 1, busy_delta);
        slot.last_tick = Some(t);

        let (busy_sig, state_sig, busy_total_sig, stall_total_sig) = (
            slot.busy_sig,
            slot.state_sig,
            slot.busy_total_sig,
            slot.stall_total_sig,
        );
        self.set(t, busy_sig, u64::from(busy_delta > 0));
        self.set(t, state_sig, state & 0xff);
        self.set(t, busy_total_sig, after.busy_cycles);
        self.set(t, stall_total_sig, after.stall_cycles);
        if retired {
            // The wire drops after the final tick's cycle.
            self.set(t + 1, busy_sig, 0);
        }
    }

    /// Samples the bus at the end of base cycle `t` (after the whole
    /// ready batch ticked).
    pub(crate) fn cycle_end(&mut self, t: u64, bus: &SharedBus, live_non_daemons: usize) {
        let stats = bus.stats();
        let contended = stats.contended_cycles > self.last_bus.contended_cycles;
        self.last_bus = stats;
        // Flags are discovered as they appear; each becomes a wire that
        // rises at its raise cycle (declared retroactively at finish).
        let mut flag_updates: Vec<(usize, u64)> = Vec::new();
        for (name, raised_at) in bus.raised_signals() {
            if !self.flag_sigs.contains_key(name) {
                let sig = self.sig(format!("soc.bus.sig_{}", sanitize(name)), 1);
                self.flag_sigs.insert(name.to_string(), sig);
                flag_updates.push((sig, raised_at));
            }
        }
        for (sig, raised_at) in flag_updates {
            self.set(raised_at, sig, 1);
        }
        let Some(bus_sigs) = &self.bus else { return };
        let (read_reqs, write_reqs, grants_pending, read_grants, write_grants, c1, cn, live) = (
            bus_sigs.read_reqs,
            bus_sigs.write_reqs,
            bus_sigs.grants_pending,
            bus_sigs.read_grants,
            bus_sigs.write_grants,
            bus_sigs.contended,
            bus_sigs.contended_cycles,
            bus_sigs.live,
        );
        self.set(t, read_reqs, bus.pending_reads() as u64);
        self.set(t, write_reqs, bus.pending_writes() as u64);
        self.set(t, grants_pending, bus.pending_grants() as u64);
        self.set(t, read_grants, stats.read_grants);
        self.set(t, write_grants, stats.write_grants);
        self.set(t, c1, u64::from(contended));
        self.set(t, cn, stats.contended_cycles);
        self.set(t, live, live_non_daemons as u64);
    }

    /// Seals the probe with the run's makespan. Called by the scheduler.
    pub(crate) fn run_finished(&mut self, makespan: u64) {
        self.makespan = makespan;
        for slot in &mut self.comps {
            // Pad each timeline to the makespan so every track tiles the
            // same [0, makespan) axis.
            let covered = slot.last_tick.map_or(0, |t| t + 1);
            slot.timeline
                .push_phase("idle", makespan.saturating_sub(covered), 0);
        }
    }

    /// Renders the captured run: the VCD document plus per-component
    /// cycle timelines.
    ///
    /// # Panics
    ///
    /// Panics if a recorded change predates an earlier one — impossible
    /// for probes driven by the scheduler, whose time axis is monotone.
    #[must_use]
    pub fn into_trace(self) -> SocTrace {
        let mut writer = VcdWriter::new();
        let ids: Vec<_> = self
            .sigs
            .iter()
            .map(|(path, width)| writer.add_wire(path, *width))
            .collect();
        // Flag wires can be allocated (and set) retroactively at their
        // raise cycle, which may precede the sample that discovered
        // them; replay in stable time order.
        let mut changes = self.changes;
        changes.sort_by_key(|&(t, ..)| t);
        for (t, sig, value) in changes {
            writer.change(t, ids[sig], value);
        }
        SocTrace {
            vcd: writer.finish(self.makespan),
            timelines: self.comps.into_iter().map(|s| s.timeline).collect(),
            makespan: self.makespan,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_hyphens_and_keeps_alphanumerics() {
        assert_eq!(sanitize("keccak-xof-dma"), "keccak_xof_dma");
        assert_eq!(sanitize("hs1-512"), "hs1_512");
        assert_eq!(sanitize("plain"), "plain");
    }
}
