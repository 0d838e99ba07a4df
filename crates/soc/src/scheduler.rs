//! The discrete-event scheduler: a min-heap keyed `(next_tick,
//! ComponentId)` over registered [`Component`]s.
//!
//! # Event-heap semantics
//!
//! Each component has exactly one outstanding heap entry — the next base
//! cycle it wants service. The scheduler pops the minimal time `t`,
//! collects *every* entry at `t` into the ready batch, orders the batch
//! (see below), ticks each component once, and re-pushes the returned
//! next-tick (retiring components that return [`IDLE`]). Time never goes
//! backwards and a component can never be served twice in one cycle —
//! both asserted.
//!
//! # Same-cycle ordering and the fuzzer hook
//!
//! The ready batch is ordered by the active [`OrderPolicy`]:
//!
//! * [`OrderPolicy::Canonical`] — ascending id, the reference order.
//! * [`OrderPolicy::Seeded`] — a deterministic Fisher–Yates shuffle per
//!   cycle, derived from `(seed, cycle)`; this is the fuzzer's lever.
//! * [`OrderPolicy::Scripted`] — explicit per-cycle orders (the
//!   shrinker's replay vehicle); unscripted cycles stay canonical.
//!
//! Whenever a non-canonical order is actually applied to a batch of two
//! or more, it is recorded in [`Soc::deviations`] — the raw material the
//! shrinker minimizes into a reproducer.
//!
//! # Termination
//!
//! The run ends when every non-daemon component has retired and the bus
//! has no pending requests, or when the watchdog limit is hit (reported,
//! not panicking, so fuzz harnesses can flag it).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use saber_testkit::Rng;

use crate::bus::{BusStats, SharedBus};
use crate::component::{Component, ComponentId, ComponentStats, IDLE};
use crate::probe::SocProbe;

/// Same-cycle service-order policy.
#[derive(Debug, Clone)]
pub enum OrderPolicy {
    /// Ascending component id — the reference order.
    Canonical,
    /// Deterministic per-cycle Fisher–Yates shuffle from this seed.
    Seeded(u64),
    /// Explicit orders for specific cycles (ids listed are served first,
    /// in the listed order; unlisted ready components follow in id
    /// order; unscripted cycles stay canonical).
    Scripted(BTreeMap<u64, Vec<ComponentId>>),
}

/// Result of a completed (or watchdog-stopped) run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// One past the last base cycle that was serviced (the makespan).
    pub makespan: u64,
    /// Total component ticks dispatched.
    pub events: u64,
    /// True if the watchdog limit stopped the run before quiescence.
    pub timed_out: bool,
}

/// Everything about a run that must be identical under any same-cycle
/// service order: per-component accounting and outputs, bus traffic,
/// and the makespan. `PartialEq + Debug` so fuzz harnesses can compare
/// and report it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// One past the last serviced base cycle.
    pub makespan: u64,
    /// Per component: `(name, stats, output bytes)`, in id order.
    pub components: Vec<(String, ComponentStats, Option<Vec<u8>>)>,
    /// Bus traffic counters.
    pub bus: BusStats,
}

/// The SoC under simulation: a bus plus registered components.
pub struct Soc {
    components: Vec<Box<dyn Component>>,
    bus: SharedBus,
    policy: OrderPolicy,
    deviations: Vec<(u64, Vec<ComponentId>)>,
}

impl Default for Soc {
    fn default() -> Self {
        Self::new()
    }
}

impl Soc {
    /// An empty SoC with a minimal bus and the canonical order policy.
    #[must_use]
    pub fn new() -> Self {
        Self::with_bus(SharedBus::new(1))
    }

    /// An SoC over the given (usually preloaded) bus.
    #[must_use]
    pub fn with_bus(bus: SharedBus) -> Self {
        Self {
            components: Vec::new(),
            bus,
            policy: OrderPolicy::Canonical,
            deviations: Vec::new(),
        }
    }

    /// Sets the same-cycle service-order policy.
    pub fn set_policy(&mut self, policy: OrderPolicy) {
        self.policy = policy;
    }

    /// Registers a component.
    ///
    /// # Panics
    ///
    /// Panics if another component with the same id is already
    /// registered.
    pub fn add(&mut self, component: impl Component + 'static) {
        assert!(
            self.components.iter().all(|c| c.id() != component.id()),
            "duplicate component id {}",
            component.id()
        );
        self.components.push(Box::new(component));
    }

    /// The shared bus (for post-run inspection).
    #[must_use]
    pub fn bus(&self) -> &SharedBus {
        &self.bus
    }

    /// Non-canonical same-cycle orders actually applied during the last
    /// run: `(cycle, applied id order)` — the shrinker's raw material.
    #[must_use]
    pub fn deviations(&self) -> &[(u64, Vec<ComponentId>)] {
        &self.deviations
    }

    /// The permutation-invariant fingerprint of the finished run (see
    /// [`Fingerprint`]). `makespan` comes from the returned
    /// [`RunSummary`].
    #[must_use]
    pub fn fingerprint(&self, summary: &RunSummary) -> Fingerprint {
        let mut components: Vec<_> = self
            .components
            .iter()
            .map(|c| (c.id(), c.name().to_string(), c.stats(), c.output()))
            .collect();
        components.sort_by_key(|(id, ..)| *id);
        Fingerprint {
            makespan: summary.makespan,
            components: components
                .into_iter()
                .map(|(_, name, stats, output)| (name, stats, output))
                .collect(),
            bus: self.bus.stats(),
        }
    }

    /// Runs to quiescence or the watchdog `limit` (in base cycles).
    pub fn run(&mut self, limit: u64) -> RunSummary {
        self.run_inner(limit, None)
    }

    /// [`run`](Self::run), with a [`SocProbe`] recording per-tick
    /// signals (component busy/state/stats deltas, bus queue depths,
    /// contention, latched flags) for VCD export and cycle timelines.
    pub fn run_with_probe(&mut self, limit: u64, probe: &mut SocProbe) -> RunSummary {
        self.run_inner(limit, Some(probe))
    }

    fn run_inner(&mut self, limit: u64, mut probe: Option<&mut SocProbe>) -> RunSummary {
        self.deviations.clear();
        if let Some(p) = probe.as_deref_mut() {
            p.begin(&self.components);
        }
        let mut heap: BinaryHeap<Reverse<(u64, ComponentId, usize)>> = self
            .components
            .iter()
            .enumerate()
            .map(|(idx, c)| Reverse((c.next_tick(), c.id(), idx)))
            .collect();
        let mut live_non_daemons = self.components.iter().filter(|c| !c.is_daemon()).count();
        let mut events = 0u64;
        let mut makespan = 0u64;
        let mut timed_out = false;
        let mut batch: Vec<(ComponentId, usize)> = Vec::new();

        while let Some(&Reverse((t, _, _))) = heap.peek() {
            if t > limit {
                timed_out = true;
                break;
            }
            // Collect the full ready batch at time t.
            batch.clear();
            while let Some(&Reverse((bt, id, idx))) = heap.peek() {
                if bt != t {
                    break;
                }
                heap.pop();
                batch.push((id, idx));
            }
            makespan = t + 1;
            self.order_batch(t, &mut batch);
            for &(id, idx) in batch.iter() {
                let before = if probe.is_some() {
                    self.components[idx].stats()
                } else {
                    ComponentStats::default()
                };
                let next = self.components[idx].tick(t, &mut self.bus);
                events += 1;
                if let Some(p) = probe.as_deref_mut() {
                    p.component_ticked(t, idx, self.components[idx].as_ref(), before, next == IDLE);
                }
                if next == IDLE {
                    if !self.components[idx].is_daemon() {
                        live_non_daemons -= 1;
                    }
                } else {
                    assert!(next > t, "component {id} did not advance time");
                    heap.push(Reverse((next, id, idx)));
                }
            }
            if let Some(p) = probe.as_deref_mut() {
                p.cycle_end(t, &self.bus, live_non_daemons);
            }
            // Quiescence: only daemons left and no bus traffic pending.
            if live_non_daemons == 0 && self.bus.quiescent() {
                break;
            }
        }
        if let Some(p) = probe {
            p.run_finished(makespan);
        }
        RunSummary {
            makespan,
            events,
            timed_out,
        }
    }

    /// Applies the order policy to the ready batch at cycle `t`,
    /// recording any applied non-canonical order.
    fn order_batch(&mut self, t: u64, batch: &mut Vec<(ComponentId, usize)>) {
        batch.sort_by_key(|&(id, _)| id);
        if batch.len() < 2 {
            return;
        }
        let canonical: Vec<ComponentId> = batch.iter().map(|&(id, _)| id).collect();
        match &self.policy {
            OrderPolicy::Canonical => {}
            OrderPolicy::Seeded(seed) => {
                // A per-cycle deterministic shuffle: the same (seed,
                // cycle) always yields the same permutation, so any
                // failure replays exactly.
                let mut rng =
                    Rng::new(seed ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(t));
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.range_usize(0, i));
                }
            }
            OrderPolicy::Scripted(orders) => {
                if let Some(order) = orders.get(&t) {
                    let mut rest = std::mem::take(batch);
                    for id in order {
                        if let Some(pos) = rest.iter().position(|(i, _)| i == id) {
                            batch.push(rest.remove(pos));
                        }
                    }
                    batch.append(&mut rest);
                }
            }
        }
        let applied: Vec<ComponentId> = batch.iter().map(|&(id, _)| id).collect();
        if applied != canonical {
            self.deviations.push((t, applied));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusArbiter;

    /// A component that counts its ticks at a given stride.
    struct Ticker {
        id: ComponentId,
        stride: u64,
        remaining: u64,
        log: Vec<u64>,
    }

    impl Component for Ticker {
        fn id(&self) -> ComponentId {
            self.id
        }
        fn name(&self) -> &str {
            "ticker"
        }
        fn next_tick(&self) -> u64 {
            0
        }
        fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
            self.log.push(now);
            self.remaining -= 1;
            if self.remaining == 0 {
                IDLE
            } else {
                now + self.stride
            }
        }
        fn stats(&self) -> ComponentStats {
            ComponentStats {
                busy_cycles: self.log.len() as u64,
                stall_cycles: 0,
                done_at: self.log.last().copied(),
            }
        }
    }

    #[test]
    fn strides_schedule_on_their_own_grid() {
        let mut soc = Soc::new();
        soc.add(Ticker {
            id: ComponentId(1),
            stride: 1,
            remaining: 4,
            log: Vec::new(),
        });
        soc.add(Ticker {
            id: ComponentId(2),
            stride: 3,
            remaining: 3,
            log: Vec::new(),
        });
        let summary = soc.run(100);
        assert!(!summary.timed_out);
        // id 1 ticks 0..=3; id 2 ticks 0,3,6 → makespan 7.
        assert_eq!(summary.makespan, 7);
        assert_eq!(summary.events, 7);
        let fingerprint = soc.fingerprint(&summary);
        assert_eq!(fingerprint.components[1].1.done_at, Some(6));
    }

    #[test]
    fn watchdog_reports_timeout() {
        let mut soc = Soc::new();
        soc.add(BusArbiter::new(ComponentId(0)));
        soc.add(Ticker {
            id: ComponentId(1),
            stride: 1,
            remaining: 1_000,
            log: Vec::new(),
        });
        let summary = soc.run(10);
        assert!(summary.timed_out);
    }

    #[test]
    fn daemons_do_not_keep_the_run_alive() {
        let mut soc = Soc::new();
        soc.add(BusArbiter::new(ComponentId(0)));
        soc.add(Ticker {
            id: ComponentId(1),
            stride: 1,
            remaining: 5,
            log: Vec::new(),
        });
        let summary = soc.run(1_000);
        assert!(!summary.timed_out);
        assert_eq!(summary.makespan, 5);
    }

    #[test]
    fn seeded_order_is_deterministic_and_recorded() {
        let run = |seed| {
            let mut soc = Soc::new();
            soc.set_policy(OrderPolicy::Seeded(seed));
            for id in 0..3 {
                soc.add(Ticker {
                    id: ComponentId(id),
                    stride: 1,
                    remaining: 8,
                    log: Vec::new(),
                });
            }
            let _ = soc.run(100);
            soc.deviations().to_vec()
        };
        assert_eq!(run(42), run(42));
        assert!(!run(42).is_empty(), "a shuffle over 3 ids must deviate");
        assert_ne!(run(42), run(43), "different seeds, different orders");
    }

    #[test]
    fn scripted_orders_apply_only_on_their_cycle() {
        let mut orders = BTreeMap::new();
        orders.insert(1u64, vec![ComponentId(2), ComponentId(1)]);
        let mut soc = Soc::new();
        soc.set_policy(OrderPolicy::Scripted(orders));
        for id in 1..=2 {
            soc.add(Ticker {
                id: ComponentId(id),
                stride: 1,
                remaining: 3,
                log: Vec::new(),
            });
        }
        let _ = soc.run(100);
        assert_eq!(
            soc.deviations(),
            &[(1, vec![ComponentId(2), ComponentId(1)])]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate component id")]
    fn duplicate_ids_rejected() {
        let mut soc = Soc::new();
        soc.add(BusArbiter::new(ComponentId(0)));
        soc.add(BusArbiter::new(ComponentId(0)));
    }
}
