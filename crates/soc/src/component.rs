//! The [`Component`] trait: the unit of co-simulation.
//!
//! Every hardware block in the SoC — a multiplier datapath, the Keccak
//! XOF DMA engine, the bus arbiter — implements this trait and is ticked
//! by the [`Soc`](crate::scheduler::Soc) scheduler. A component asks for
//! its next service time by *returning* it from [`Component::tick`]; the
//! scheduler keeps one heap entry per component, so a component is
//! always either scheduled at exactly one future time or retired.
//!
//! # Clock dividers
//!
//! The scheduler's time axis is the fastest clock in the system (the
//! *base* clock). A component on a divided clock simply returns
//! `now + stride` with `stride > 1`: a 2:1 component ticks every other
//! base cycle. No wrapper types are needed — the divider is the
//! component's own scheduling policy.
//!
//! # The same-cycle ordering contract
//!
//! Several components can be ready on the same base cycle. The scheduler
//! serves them in ascending [`ComponentId`] order by default, but — and
//! this is the contract — **a correct component must not care**. All
//! cross-component communication goes through the
//! [`SharedBus`], whose requests, grants and
//! signal flags are *cycle-stamped and latched*: state posted at cycle
//! `t` becomes visible strictly after `t`. A component therefore cannot
//! observe whether a same-cycle peer ticked before or after it. The
//! tick-order fuzzer ([`crate::fuzz`]) permutes same-cycle service order
//! to enforce this contract, and the planted mutants in
//! [`crate::bus::SocMutant`] demonstrate exactly what it catches.

use crate::bus::SharedBus;

/// Identifies a component; also the canonical same-cycle tie-break key
/// (lower ids are served first under the default ordering policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Sentinel returned by [`Component::tick`] when the component has no
/// further work: the scheduler retires it.
pub const IDLE: u64 = u64::MAX;

/// Per-component occupancy accounting, comparable across runs (the
/// tick-order fuzzer folds these into the run fingerprint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Ticks in which the component did useful work.
    pub busy_cycles: u64,
    /// Ticks spent waiting on the bus or a peer's signal.
    pub stall_cycles: u64,
    /// Base cycle of the component's final tick, once retired.
    pub done_at: Option<u64>,
}

/// A clocked hardware block driven by the discrete-event scheduler.
pub trait Component {
    /// Stable identifier; must be unique within one [`Soc`]
    /// (the scheduler asserts this at registration).
    ///
    /// [`Soc`]: crate::scheduler::Soc
    fn id(&self) -> ComponentId;

    /// Human-readable name for progress reports and fingerprints.
    fn name(&self) -> &str;

    /// Base cycle at which the component first wants service.
    fn next_tick(&self) -> u64;

    /// Services the component at base cycle `now`. Returns the next base
    /// cycle it wants service (strictly greater than `now` — the
    /// scheduler asserts monotonic progress) or [`IDLE`] to retire.
    fn tick(&mut self, now: u64, bus: &mut SharedBus) -> u64;

    /// True for components that run for as long as anyone else does
    /// (e.g. the bus arbiter): they never terminate on their own and are
    /// excluded from the scheduler's all-idle termination check.
    fn is_daemon(&self) -> bool {
        false
    }

    /// Occupancy accounting; the default is all-zero for components that
    /// do not track it.
    fn stats(&self) -> ComponentStats {
        ComponentStats::default()
    }

    /// The component's output bytes once retired (a product polynomial,
    /// squeezed XOF bytes, …). Folded into the run fingerprint, so any
    /// tick-order sensitivity of the *data* is caught, not just timing.
    fn output(&self) -> Option<Vec<u8>> {
        None
    }

    /// A small machine-state code for the waveform probe's `state` wire
    /// (8 bits are recorded): the XOF DMA's phase and sponge state, the
    /// multiplier's phase. The convention is `0` = done/idle, non-zero =
    /// the component-specific phase. The default reports a constant 1
    /// (running) — components with internal phases override it.
    fn state_code(&self) -> u64 {
        1
    }
}
