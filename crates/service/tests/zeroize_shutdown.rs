//! Shutdown-path secret hygiene: jobs admitted before
//! [`KemService::begin_shutdown`] keep draining, and every drained
//! decapsulation job's boxed [`KemSecretKey`] buffer is wiped when the
//! worker drops it — proven through the `secret.kem_sk_zeroized` trace
//! counter, since the freed memory itself cannot be inspected without
//! undefined behaviour.
//!
//! Single `#[test]` in its own integration binary: the trace capture
//! session is process-global, and this test must own every counter it
//! asserts on.

use std::sync::Arc;

use saber_kem::kem::{decaps, encaps, keygen, KemSecretKey};
use saber_kem::params::LIGHT_SABER;
use saber_kem::secret::KEM_SK_ZEROIZED;
use saber_ring::CtSchoolbookMultiplier;
use saber_service::{Gate, KemService, ServiceConfig};

const WORKERS: usize = 2;
const DECAPS_JOBS: usize = 4;

#[test]
fn drained_decaps_jobs_zeroize_their_key_buffers() {
    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, sk) = keygen(&LIGHT_SABER, &[0x7A; 32], &mut backend);
    let (ct, ss_expected) = encaps(&pk, &[0x7B; 32], &mut backend);
    assert_eq!(decaps(&sk, &ct, &mut backend), ss_expected);

    let session = saber_trace::start();
    {
        let service = KemService::spawn(&ServiceConfig {
            workers: WORKERS,
            ..ServiceConfig::default()
        });

        // Pin every worker on a gate so the decaps jobs queue up and
        // are provably drained *after* shutdown begins.
        let gate = Arc::new(Gate::new());
        let holds: Vec<_> = (0..WORKERS)
            .map(|_| {
                service
                    .submit_hold(Arc::clone(&gate))
                    .expect("hold admitted")
            })
            .collect();
        let handles: Vec<_> = (0..DECAPS_JOBS)
            .map(|_| {
                service
                    .submit_decaps(sk.clone(), ct.clone())
                    .expect("decaps admitted before shutdown")
            })
            .collect();

        service.begin_shutdown();
        assert!(
            service.submit_decaps(sk.clone(), ct.clone()).is_err(),
            "the queue must be closed after begin_shutdown"
        );

        gate.release();
        for hold in holds {
            hold.wait().expect("hold job resolves");
        }
        for handle in handles {
            let ss = handle.wait().expect("drained decaps handle resolves");
            assert_eq!(ss, ss_expected, "drained jobs still compute correctly");
        }
        let report = service.shutdown();
        assert_eq!(report.queue_depth, 0, "shutdown drained the queue");
    }
    drop(sk);
    let trace = session.finish();

    // One wiped key per drained job, one for the rejected submission's
    // clone (dropped un-executed on the submit path), one for the
    // original. `>=` tolerates incidental clones inside the pipeline.
    let wiped = trace.counter_total(KEM_SK_ZEROIZED);
    assert!(
        wiped >= (DECAPS_JOBS + 2) as i64,
        "expected at least {} KemSecretKey wipes, saw {wiped}",
        DECAPS_JOBS + 2
    );
}

// Compile-time statement of intent: the service moves whole keys into
// job requests, so the wipe-on-drop above is the only thing standing
// between a drained job and a stale secret in freed memory.
#[allow(dead_code)]
fn decaps_takes_ownership(service: &KemService, sk: KemSecretKey, ct: saber_kem::pke::Ciphertext) {
    let _ = service.submit_decaps(sk, ct);
}
