//! The disabled-path gate: with no capture session active, and with the
//! flight recorder off, a `span` probe costs next to nothing. That is
//! the state every instrumented hot path ships in.
//!
//! The loops, the iteration counts and the two limits are fixed; no
//! environment variable moves them. The recorder starts off, so the
//! disabled loop and the flight-off loop time the same path, each
//! against its own limit. The workspace manifest builds this crate at
//! `opt-level = 3` in the dev profile too, so the same limits hold
//! under `cargo test` in debug and in release.
//!
//! Each reading is taken at nominal host speed. A shared host slows
//! everything it runs together, by up to 2× for seconds at a time, so a
//! bare mean of one loop cannot tell a slow host from a slow probe. A
//! reference kernel runs just before and just after each timed loop,
//! and the loop's mean is scaled by the faster of the two speeds they
//! read against the kernel's nominal time. The faster one, because a
//! reading the host stalls reads slow and would otherwise scale a slow
//! probe down: the estimate errs toward failing. A planted probe with
//! one extra clock read must read over the 10 ns limit on every run, or
//! the gate could not see a slow probe at all.
//!
//! Keep this the only test in its binary: a parallel test that starts a
//! session or arms the recorder mid-loop would time the recording path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use saber_trace::{flight, SpanGuard};

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

/// The reference kernel's time per call at full speed on the host the
/// limits were set on, nanoseconds: the fastest of about 1,000 readings
/// on a 2-vCPU Intel Xeon under KVM read 60.3 µs, where the median read
/// 108–122 µs.
const KERNEL_NOMINAL_NS: f64 = 60_000.0;

/// How long one speed reading runs the kernel.
const READING: Duration = Duration::from_millis(8);

/// Negacyclic product of two 256-coefficient polynomials mod 2^16 by
/// schoolbook: integer multiply-adds over small arrays.
fn kernel(a: &[u16; 256], b: &[u16; 256]) -> [u16; 256] {
    let mut c = [0u16; 256];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            let p = x.wrapping_mul(y);
            if i + j < 256 {
                c[i + j] = c[i + j].wrapping_add(p);
            } else {
                c[i + j - 256] = c[i + j - 256].wrapping_sub(p);
            }
        }
    }
    c
}

/// The host's speed now: kernel calls completed in one [`READING`] over
/// the calls it would complete at [`KERNEL_NOMINAL_NS`] each.
fn host_speed() -> f64 {
    let a: [u16; 256] = std::array::from_fn(|i| (i * 7919 % 8192) as u16);
    let b: [u16; 256] = std::array::from_fn(|i| (i * 31 % 9) as u16);
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < READING {
        black_box(kernel(black_box(&a), black_box(&b)));
        calls += 1;
    }
    calls as f64 * KERNEL_NOMINAL_NS / start.elapsed().as_nanos() as f64
}

/// The probe as it ships.
#[inline(always)]
fn span_probe(name: &'static str) -> SpanGuard {
    saber_trace::span("bench", name)
}

/// The planted slow probe: one clock read before the flag checks.
#[inline(always)]
fn clock_first_probe(name: &'static str) -> SpanGuard {
    black_box(Instant::now());
    saber_trace::span("bench", name)
}

/// Mean nanoseconds per `probe` call at nominal host speed: [`WARMUP`]
/// untimed calls, a speed reading, [`TIMED`] timed calls, a second speed
/// reading, and the mean scaled by the faster of the two.
fn probe_ns(probe: impl Fn(&'static str) -> SpanGuard, name: &'static str) -> f64 {
    for _ in 0..WARMUP {
        let _ = black_box(probe(name));
    }
    let before = host_speed();
    let start = Instant::now();
    for _ in 0..TIMED {
        let _ = black_box(probe(name));
    }
    let raw = start.elapsed().as_nanos() as f64 / TIMED as f64;
    let after = host_speed();
    let nominal = raw * before.max(after);
    println!(
        "{name}: {nominal:.3} ns at nominal speed ({raw:.3} ns raw, host speed {before:.3} -> {after:.3})"
    );
    nominal
}

#[test]
fn disabled_probes_stay_under_their_limits() {
    assert!(
        !saber_trace::enabled(),
        "the disabled probe needs no active trace session"
    );
    let disabled = probe_ns(span_probe, "probe");

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
    let flight_off = probe_ns(span_probe, "flight_probe");
    let planted = probe_ns(clock_first_probe, "planted_probe");

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
    println!("planted probe:    {planted:.3} ns (must exceed {MAX_FLIGHT_OFF_NS} ns)");
    assert!(
        disabled <= MAX_DISABLED_NS,
        "disabled probe costs {disabled:.3} ns > {MAX_DISABLED_NS} ns"
    );
    assert!(
        flight_off <= MAX_FLIGHT_OFF_NS,
        "flight-off probe costs {flight_off:.3} ns > {MAX_FLIGHT_OFF_NS} ns"
    );
    assert!(
        planted > MAX_FLIGHT_OFF_NS,
        "the planted clock-read probe reads {planted:.3} ns, under the \
         {MAX_FLIGHT_OFF_NS} ns limit: the gate cannot see a slow probe"
    );
}
