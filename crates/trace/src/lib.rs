//! `saber-trace`: the workspace's unified tracing and profiling layer.
//!
//! The reproduction's headline claims are per-stage numbers — HS-I
//! multiplies in 256 cycles, HS-II in 131 with 128 DSPs each retiring
//! four coefficient MACs per steady-state cycle — and the service layer
//! built on top of it is judged by where a job's latency goes. This
//! crate gives every layer of the stack one vocabulary for both
//! questions:
//!
//! - **Wall-clock capture** ([`span`](fn@span), [`counter`],
//!   [`instant_event`] inside a [`start`]/[`TraceSession::finish`]
//!   window): thread-local span stacks with monotonic timing, used by
//!   `saber-kem` (matrix expansion / mat-vec / rounding / hashing
//!   stages) and `saber-service` (per-job queue-wait vs. execute
//!   spans). When no session is active and the flight recorder is off,
//!   a probe costs two relaxed atomic loads (the session flag, then
//!   the flight flag) — the `disabled_path` test holds the disabled
//!   path under fixed limits (25 ns mean per probe; 10 ns with the
//!   recorder off).
//! - **Cycle-domain occupancy** ([`CycleTimeline`]): gap-free per-phase
//!   breakdowns emitted by the cycle-accurate models in `saber-core`,
//!   turning "131 cycles total" into `secret_load=17, issue=128 @ 4
//!   MACs/DSP/cycle, drain=3` with occupancy and stall queries tests
//!   assert against the paper's budgets.
//! - **Chrome trace-event export** ([`chrome::export`],
//!   [`chrome::validate`]): both domains serialized through the shared
//!   `saber_testkit::json` codec into a file `chrome://tracing` or
//!   Perfetto opens directly, with a schema validator CI runs on the
//!   `trace_profile` example's output.
//! - **VCD waveform export** ([`vcd::VcdWriter`], [`vcd::parse`]): an
//!   IEEE-1364 Value Change Dump writer for the `saber-soc` probe, so
//!   bus grants and component occupancy open in GTKWave; deterministic
//!   output makes golden waveforms drift-checkable.
//! - **Flight recorder** ([`flight`]): an always-on, fixed-capacity,
//!   thread-local ring of recent probes, dumped on panic or worker
//!   fault — the post-mortem layer the exclusive capture session can't
//!   be (it owns a global window and grows without bound).
//!
//! # Example
//!
//! ```
//! let session = saber_trace::start();
//! {
//!     let _stage = saber_trace::span("demo", "expand");
//!     saber_trace::counter("demo", "bytes", 1344);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.spans_named("expand").len(), 1);
//!
//! let mut cycles = saber_trace::CycleTimeline::new("hs2", 128);
//! cycles.push_phase("issue", 128, 128 * 512);
//! assert!((cycles.occupancy("issue") - 4.0).abs() < 1e-9);
//!
//! let doc = saber_trace::chrome::export(Some(&trace), &[cycles]);
//! saber_trace::chrome::validate(&doc).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod cycle;
pub mod flight;
pub mod span;
pub mod vcd;

pub use clock::{Clock, MonotonicClock};
pub use cycle::{CyclePhase, CycleTimeline};
pub use span::{
    counter, enabled, instant_event, instant_ns, now_ns, span, span_at, start, victim_counter_name,
    EventKind, SpanGuard, Trace, TraceEvent, TraceSession,
};
