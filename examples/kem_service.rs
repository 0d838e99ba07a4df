//! Concurrent KEM service quick-start: a 4-worker pool serving a
//! deterministic mixed load, with the final `ServiceReport` printed as
//! JSON (the sample in README's "Service" section comes from this
//! example).
//!
//! ```sh
//! cargo run --release --example kem_service
//! ```

use saber_kem::params::SABER;
use saber_service::{build_plan, run_service, KemService, LoadProfile, ServiceConfig};

fn main() {
    // A fixed pool: 4 workers, each owning its own shard of the
    // constant-time `ct` multiplier; a 32-deep bounded queue (submissions
    // beyond it are rejected with SubmitError::QueueFull, never buffered
    // unboundedly).
    let config = ServiceConfig {
        workers: 4,
        queue_capacity: 32,
        ..ServiceConfig::default()
    };
    println!("worker shards use the '{}' engine", config.engine);
    let service = KemService::spawn(&config);

    // Individual typed submissions…
    let (pk, sk) = service
        .submit_keygen(&SABER, [1; 32])
        .expect("admitted")
        .wait()
        .expect("keygen");
    let (ct, ss_enc) = service
        .submit_encaps(pk, [2; 32])
        .expect("admitted")
        .wait()
        .expect("encaps");
    let ss_dec = service
        .submit_decaps(sk, ct)
        .expect("admitted")
        .wait()
        .expect("decaps");
    assert_eq!(ss_enc, ss_dec, "KEM round trip closes through the pool");

    // …and a deterministic generated load (seeded: same plan, same
    // results, on every machine — transcripts are SHA3-256 digests of
    // the serialized outputs, byte-identical to a sequential run).
    let plan = build_plan(&LoadProfile::new(&SABER, 0xD00D, 40));
    let transcript = run_service(&plan, &service, 16).expect("load run");
    println!(
        "ran {} planned ops; first digest {:02x}{:02x}{:02x}{:02x}…",
        transcript.len(),
        transcript[0].digest[0],
        transcript[0].digest[1],
        transcript[0].digest[2],
        transcript[0].digest[3],
    );

    let report = service.shutdown();
    println!("\n{}\n", report.format_summary());
    println!("{}", report.to_json_string());
}
