//! The disabled-path gate: with no capture session active, and with the
//! flight recorder off, a `span` probe costs next to nothing. That is
//! the state every instrumented hot path ships in.
//!
//! The loops, the iteration counts, the single-mean estimator and the
//! two limits are fixed; no environment variable moves them. The
//! workspace manifest builds this crate at `opt-level = 3` in the dev
//! profile too, so the same limits hold under `cargo test` in debug and
//! in release.
//!
//! Keep this the only test in its binary: a parallel test that starts a
//! session or arms the recorder mid-loop would time the recording path.

use std::hint::black_box;
use std::time::Instant;

use saber_trace::flight;

/// Mean-cost limit, in nanoseconds, of one probe with no session active.
const MAX_DISABLED_NS: f64 = 25.0;

/// Mean-cost limit, in nanoseconds, of one probe with no session active
/// and the flight recorder off.
const MAX_FLIGHT_OFF_NS: f64 = 10.0;

/// Untimed calls before each timed loop.
const WARMUP: u64 = 10_000;

/// Timed calls per disabled-path mean.
const TIMED: u64 = 4_000_000;

/// Spans recorded by each functional check.
const RECORDED: u64 = 200_000;

/// Mean nanoseconds per `span` call: [`WARMUP`] untimed calls, then
/// [`TIMED`] timed ones.
fn probe_ns(name: &'static str) -> f64 {
    for _ in 0..WARMUP {
        let _ = black_box(saber_trace::span("bench", name));
    }
    let start = Instant::now();
    for _ in 0..TIMED {
        let _ = black_box(saber_trace::span("bench", name));
    }
    start.elapsed().as_nanos() as f64 / TIMED as f64
}

#[test]
fn disabled_probes_stay_under_their_limits() {
    assert!(
        !saber_trace::enabled(),
        "the disabled probe needs no active trace session"
    );
    let disabled = probe_ns("probe");

    let session = saber_trace::start();
    for _ in 0..RECORDED {
        let _ = black_box(saber_trace::span("bench", "probe"));
    }
    let trace = session.finish();
    assert!(
        trace.len() >= RECORDED as usize,
        "every enabled span must be recorded"
    );

    assert!(
        !saber_trace::enabled(),
        "the flight-off probe needs no active trace session"
    );
    assert!(
        !flight::enabled(),
        "the flight-off probe needs the flight recorder off"
    );
    let flight_off = probe_ns("flight_probe");

    let before = flight::recorded_total();
    flight::set_enabled(true);
    for _ in 0..RECORDED {
        let _ = black_box(saber_trace::span("bench", "flight_probe"));
    }
    flight::set_enabled(false);
    let recorded = flight::recorded_total() - before;
    flight::clear_current_thread();
    assert!(
        recorded >= RECORDED,
        "every armed span must be recorded into the flight ring"
    );

    println!("disabled probe:   {disabled:.3} ns (limit {MAX_DISABLED_NS} ns)");
    println!("flight-off probe: {flight_off:.3} ns (limit {MAX_FLIGHT_OFF_NS} ns)");
    assert!(
        disabled <= MAX_DISABLED_NS,
        "disabled probe costs {disabled:.3} ns > {MAX_DISABLED_NS} ns"
    );
    assert!(
        flight_off <= MAX_FLIGHT_OFF_NS,
        "flight-off probe costs {flight_off:.3} ns > {MAX_FLIGHT_OFF_NS} ns"
    );
}
