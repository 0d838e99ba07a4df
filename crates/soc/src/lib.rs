//! Discrete-event full-SoC co-simulation for the Saber coprocessor.
//!
//! Every cycle model in this repository runs its own run-to-completion
//! loop, and its standalone cycle totals are frozen by the cycle-total
//! KATs in `saber-verify`. This crate puts blocks that share a memory on
//! one time axis:
//!
//! * [`Component`] is the unit of co-simulation: a block that is ticked
//!   at base cycles of its choosing (clock dividers are just strides).
//! * [`Soc`] is the min-heap discrete-event scheduler keyed by
//!   `(next_tick, ComponentId)`.
//! * [`SharedBus`] + [`BusArbiter`] model the shared BRAM port pair with
//!   cycle-stamped requests and latched grants/acks/signals — the
//!   structure that makes a correct SoC *provably insensitive* to
//!   same-cycle service order.
//! * [`crate::scenario`] co-simulates an HS-I multiplier with the Keccak
//!   XOF DMA over the shared bus at 1:1 and 2:1 clock ratios. The DMA
//!   drives `saber_hw`'s resumable `SpongeMachine`, the same sponge the
//!   coprocessor's hash instructions run to completion, one core cycle
//!   per tick.
//! * [`crate::fuzz`] permutes same-cycle service order with a
//!   deterministic seeded shuffle, asserts permutation invariance, and
//!   shrinks any divergence to a minimal "swap these two components on
//!   this one cycle" reproducer. The planted [`SocMutant`]s prove the
//!   fuzzer catches real schedule races.
//! * [`crate::probe`] attaches a logic-analyzer-style waveform probe to
//!   a run ([`Soc::run_with_probe`] / [`run_scenario_probed`]): per-tick
//!   busy/state/counter wires plus bus request/grant/contention signals,
//!   exported as a deterministic IEEE-1364 VCD document alongside
//!   per-component cycle timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod component;
pub mod fuzz;
pub mod probe;
pub mod scenario;
pub mod scheduler;

pub use bus::{BusArbiter, BusStats, SharedBus, SocMutant};
pub use component::{Component, ComponentId, ComponentStats, IDLE};
pub use fuzz::{fuzz_scenario, shuffle_seed_for_case, FuzzReport, RaceFinding};
pub use probe::{SocProbe, SocTrace};
pub use scenario::{run_scenario, run_scenario_probed, ScenarioConfig, ScenarioOutcome};
pub use scheduler::{Fingerprint, OrderPolicy, RunSummary, Soc};
