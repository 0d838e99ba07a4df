//! End-to-end profile of the KEM pipeline: wall-clock spans from the
//! instrumented software stack plus cycle-exact lanes from the hardware
//! models, exported as one Chrome trace-event file.
//!
//! ```sh
//! cargo run --release --example trace_profile
//! # then open target/trace_profile.json in Perfetto (ui.perfetto.dev)
//! # or chrome://tracing
//! ```
//!
//! The trace has two kinds of lanes:
//!
//! * **pid 1** — wall-clock spans (1 tick = 1 ns): `kem.keygen` /
//!   `kem.encaps` / `kem.decaps` with the nested `pke.*`, `expand.*`,
//!   `matvec`, `rounding` and `hash` phases;
//! * **pid ≥ 2** — one lane per hardware architecture (1 tick = 1
//!   cycle): the phase timeline each cycle model records while
//!   simulating the same multiplication (secret load, compute/issue,
//!   drain), with per-phase op counts as arguments.
//!
//! The document is validated against the same trace-event schema check
//! `tools/ci.sh` enforces before it is written.

use std::fs;

use saber::arch::{
    CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier,
};
use saber::kem::params::SABER;
use saber::kem::{decaps, encaps, keygen};
use saber::ring::{CtSchoolbookMultiplier, PolyMultiplier, PolyQ, SecretPoly};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Capture wall-clock spans across one full KEM round trip on the
    //    hot-path engine.
    let session = saber::trace::start();
    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, sk) = keygen(&SABER, &[0x42; 32], &mut backend);
    let (ct, ss_enc) = encaps(&pk, &[0x43; 32], &mut backend);
    let ss_dec = decaps(&sk, &ct, &mut backend);
    assert_eq!(ss_enc, ss_dec, "the traced round trip must agree");
    let trace = session.finish();

    // 2. Run the same multiplication through the cycle models and keep
    //    their phase timelines as cycle lanes.
    let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(2718) & 0x1fff);
    let s = SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4);
    let mut hs1 = CentralizedMultiplier::new(512);
    let mut hs2 = DspPackedMultiplier::new();
    let mut lw = LightweightMultiplier::new();
    let _ = hs1.multiply(&a, &s);
    let _ = hs2.multiply(&a, &s);
    let _ = lw.multiply(&a, &s);
    let timelines = vec![
        hs1.timeline().expect("HS-I timeline").clone(),
        hs2.timeline().expect("HS-II timeline").clone(),
        lw.timeline().expect("LW timeline").clone(),
    ];

    // 3. Export, validate against the CI schema check, write.
    let doc = saber::trace::chrome::export(Some(&trace), &timelines);
    saber::trace::chrome::validate(&doc).map_err(|e| format!("invalid trace: {e}"))?;
    let json = saber::trace::chrome::export_string(Some(&trace), &timelines);
    fs::create_dir_all("target")?;
    fs::write("target/trace_profile.json", &json)?;

    // 4. Narrate what the profile shows.
    println!(
        "captured {} trace events over the KEM round trip",
        trace.len()
    );
    for name in ["kem.keygen", "kem.encaps", "kem.decaps"] {
        println!("  {name:<12} {:>9} ns", trace.total_span_ns(name));
    }
    for name in [
        "matvec",
        "rounding",
        "hash",
        "expand.matrix",
        "expand.secret",
    ] {
        println!(
            "  {name:<13} {:>8} ns across {} span(s)",
            trace.total_span_ns(name),
            trace.spans_named(name).len()
        );
    }
    for t in &timelines {
        println!(
            "cycle lane {:<8} {:>6} cycles, {:>5} stalled, utilization {:.3}",
            t.track(),
            t.total_cycles(),
            t.stall_cycles(),
            t.utilization()
        );
    }
    println!(
        "trace-event JSON written to target/trace_profile.json ({} bytes) — \
         open in Perfetto or chrome://tracing",
        json.len()
    );
    Ok(())
}
