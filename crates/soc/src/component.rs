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
//! [`SharedBus`](crate::bus::SharedBus), whose requests, grants and
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
    /// (8 bits are recorded): phase indices for scenario components,
    /// sponge states for Keccak, the program counter for the
    /// coprocessor. The convention is `0` = done/idle, non-zero = the
    /// component-specific phase. The default reports a constant 1
    /// (running) — components with internal phases override it.
    fn state_code(&self) -> u64 {
        1
    }
}

/// Adapter lifting any [`saber_hw::Clocked`] primitive (BRAM, DSP48,
/// Keccak core) onto the [`Component`] trait for a fixed number of
/// edges.
///
/// The primitive is borrowed (`&mut dyn Clocked`) and runs under the
/// event-heap scheduler, where it can share a run with full datapath
/// models and divided clocks.
///
/// # Examples
///
/// ```
/// use saber_hw::Dsp48;
/// use saber_soc::{ClockedComponent, ComponentId, Soc};
///
/// let mut dsp = Dsp48::new(3);
/// dsp.issue(6, 7, 0).unwrap();
/// let mut soc = Soc::new();
/// soc.add(ClockedComponent::new(ComponentId(0), "dsp", &mut dsp, 1, 3));
/// soc.run(100);
/// drop(soc);
/// assert_eq!(dsp.output(), Some(42));
/// ```
pub struct ClockedComponent<'a> {
    id: ComponentId,
    name: String,
    inner: &'a mut dyn saber_hw::Clocked,
    stride: u64,
    edges_left: u64,
    busy: u64,
    done_at: Option<u64>,
}

impl<'a> ClockedComponent<'a> {
    /// Wraps `inner`, ticking it every `stride` base cycles for `edges`
    /// rising edges.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `edges` is zero.
    pub fn new(
        id: ComponentId,
        name: &str,
        inner: &'a mut dyn saber_hw::Clocked,
        stride: u64,
        edges: u64,
    ) -> Self {
        assert!(stride > 0, "a clock divider stride must be at least 1");
        assert!(edges > 0, "a clocked component needs at least one edge");
        Self {
            id,
            name: name.to_string(),
            inner,
            stride,
            edges_left: edges,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for ClockedComponent<'_> {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_tick(&self) -> u64 {
        0
    }

    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        self.inner.rising_edge();
        self.busy += 1;
        self.edges_left -= 1;
        if self.edges_left == 0 {
            self.done_at = Some(now);
            IDLE
        } else {
            now + self.stride
        }
    }

    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }

    fn state_code(&self) -> u64 {
        // Remaining edges, saturated to the probe's 8-bit state wire.
        self.edges_left.min(0xff)
    }
}
