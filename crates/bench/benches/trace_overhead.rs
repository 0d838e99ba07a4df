//! **Tracing overhead gate** — proves the disabled tracing path costs
//! ~nothing on the hot paths it instruments.
//!
//! The tracing layer's contract is that a probe with no session active
//! is one relaxed atomic load (plus a branch). This bench measures:
//!
//! * the per-probe cost of a disabled `saber_trace::span` call — the
//!   number the CI gate thresholds (`SABER_TRACE_MAX_DISABLED_NS`,
//!   default 25 ns, a deliberately loose bound: the measured cost is
//!   sub-nanosecond on any host where the load constant-folds);
//! * the per-span cost with a session live, for scale;
//! * the mat-vec hot path (`PolyMatrix::mul_vec` on the constant-time
//!   engine), which the PKE wraps in one `matvec` span — the measured
//!   probe share of the operation is printed so a regression is visible
//!   as a ratio, not just an absolute.
//!
//! Exits nonzero when the disabled-probe cost breaches the threshold,
//! so `tools/ci.sh` can run it as a hard gate.

use std::time::Instant;

use saber_bench::microbench::{
    black_box, disabled_probe_ns, enabled_span_ns, flight_armed_span_ns, flight_disabled_probe_ns,
};
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::params::SABER;
use saber_ring::CtSchoolbookMultiplier;

fn main() {
    let max_disabled_ns: f64 = std::env::var("SABER_TRACE_MAX_DISABLED_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);

    println!("\n=== Tracing overhead (disabled-path gate) ===\n");

    let max_flight_ns: f64 = std::env::var("SABER_FLIGHT_MAX_DISABLED_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);

    let disabled = disabled_probe_ns();
    let enabled = enabled_span_ns();
    println!("disabled probe: {disabled:.3} ns");
    println!("enabled span:   {enabled:.1} ns");

    // The flight recorder's disabled-path price (its ISSUE-budgeted
    // bound is tighter than the trace gate: sub-10 ns) and its armed
    // ring-write price, for scale.
    let flight_disabled = flight_disabled_probe_ns();
    let flight_armed = flight_armed_span_ns();
    println!("flight-off probe:   {flight_disabled:.3} ns");
    println!("flight-armed span:  {flight_armed:.1} ns");

    // The mat-vec hot path, tracing disabled (the production
    // configuration). The PKE wraps each mat-vec in one `matvec` span,
    // which takes the disabled fast path.
    let matrix = gen_matrix(&[0x33; 32], &SABER);
    let secret = gen_secret(&[0x44; 32], &SABER);
    let mut backend = CtSchoolbookMultiplier::new();
    let _ = black_box(matrix.mul_vec(&secret, &mut backend));
    let reps = 50u32;
    let start = Instant::now();
    for _ in 0..reps {
        let _ = black_box(matrix.mul_vec(&secret, &mut backend));
    }
    let matvec_ns = start.elapsed().as_nanos() as f64 / f64::from(reps);
    let share = 100.0 * disabled / matvec_ns;
    println!("mat-vec ({}): {matvec_ns:.0} ns/op", SABER.name);
    println!("probe share of mat-vec: {share:.4} % (1 probe/op)");

    if disabled > max_disabled_ns {
        eprintln!(
            "FAIL: disabled probe costs {disabled:.3} ns > {max_disabled_ns:.1} ns \
             (SABER_TRACE_MAX_DISABLED_NS)"
        );
        std::process::exit(1);
    }
    if flight_disabled > max_flight_ns {
        eprintln!(
            "FAIL: flight-off probe costs {flight_disabled:.3} ns > {max_flight_ns:.1} ns \
             (SABER_FLIGHT_MAX_DISABLED_NS)"
        );
        std::process::exit(1);
    }
    println!("\ndisabled-path gate: OK ({disabled:.3} ns <= {max_disabled_ns:.1} ns)");
    println!("flight-path gate:   OK ({flight_disabled:.3} ns <= {max_flight_ns:.1} ns)");
}
