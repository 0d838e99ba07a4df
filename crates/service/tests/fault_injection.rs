//! Service-level fault injection: a worker panicking mid-batch and a
//! poisoned (gate-held, then panicking) pipeline must never lose a job
//! silently.
//!
//! Locks three properties:
//!
//! 1. **Rejected, never dropped** — every submission either yields a
//!    handle that resolves, or returns a [`SubmitError`]; backpressure
//!    and shutdown rejections are counted, and a rejected decapsulation
//!    clone still wipes its key buffer on the submit path.
//! 2. **Metrics exactly once** — after a full drain,
//!    `completed + failed == submitted`: a panicking job is recorded as
//!    failed exactly once and never double-counted as completed.
//! 3. **Drained-buffer zeroization** — decaps jobs drained *around* the
//!    mid-batch panics still wipe their boxed [`KemSecretKey`] buffers
//!    (the `secret.kem_sk_zeroized` trace counter).
//! 4. **Crash dumps exactly once per panic** — the process-wide panic
//!    hook installed by [`KemService::spawn`] flushes the flight
//!    recorder and bumps the `panic.dump` counter once per contained
//!    worker panic: both [`saber_service::obs::panic_dump_count`] and
//!    [`saber_trace::flight::dump_count`] advance by exactly
//!    `PANIC_JOBS`.
//!
//! Single `#[test]` in its own integration binary: the trace capture
//! session is process-global and must own every counter it asserts on.

use std::sync::Arc;

use saber_kem::kem::{decaps, encaps, keygen, KemSecretKey};
use saber_kem::params::LIGHT_SABER;
use saber_kem::secret::KEM_SK_ZEROIZED;
use saber_ring::CtSchoolbookMultiplier;
use saber_service::{Gate, JobError, KemService, ServiceConfig, SubmitError};

const WORKERS: usize = 2;
const QUEUE: usize = 8;
const DECAPS_JOBS: usize = 3;
const PANIC_JOBS: usize = 2;
const ENCAPS_JOBS: usize = 3;

#[test]
fn mid_batch_panics_are_contained_counted_once_and_leak_nothing() {
    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, sk) = keygen(&LIGHT_SABER, &[0x42; 32], &mut backend);
    let (ct, ss_expected) = encaps(&pk, &[0x43; 32], &mut backend);
    assert_eq!(decaps(&sk, &ct, &mut backend), ss_expected);

    let session = saber_trace::start();
    let panic_dumps_before = saber_service::obs::panic_dump_count();
    let flight_dumps_before = saber_trace::flight::dump_count();
    let report = {
        let service = KemService::spawn(&ServiceConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            ..ServiceConfig::default()
        });

        // Pin both workers so the batch queues deterministically.
        let gate = Arc::new(Gate::new());
        let holds: Vec<_> = (0..WORKERS)
            .map(|_| {
                service
                    .submit_hold(Arc::clone(&gate))
                    .expect("hold admitted")
            })
            .collect();
        // Wait until the workers have *dequeued* the holds, so every
        // queue slot below is accounted deterministically (and an
        // assertion failure can't deadlock the drop-join on a pinned
        // gate).
        while service.report().queue_depth > 0 {
            std::thread::yield_now();
        }

        // The batch: decaps jobs with panics planted mid-batch.
        let mut decaps_handles = Vec::new();
        let mut panic_handles = Vec::new();
        for i in 0..(DECAPS_JOBS + PANIC_JOBS) {
            if i % 2 == 1 {
                panic_handles.push(
                    service
                        .submit_fault_panic(&format!("planted fault {i}"))
                        .expect("panic job admitted"),
                );
            } else {
                decaps_handles.push(
                    service
                        .submit_decaps(sk.clone(), ct.clone())
                        .expect("decaps admitted"),
                );
            }
        }
        let encaps_handles: Vec<_> = (0..ENCAPS_JOBS)
            .map(|_| {
                service
                    .submit_encaps(pk.clone(), [0x44; 32])
                    .expect("encaps admitted")
            })
            .collect();

        // The queue is now exactly full: the next submission is rejected
        // by backpressure — with an error, never silently. The rejected
        // decaps clone is dropped un-executed on the submit path and
        // still wipes its key buffer (asserted via the counter below).
        assert!(matches!(
            service.submit_decaps(sk.clone(), ct.clone()),
            Err(SubmitError::QueueFull { capacity }) if capacity == QUEUE
        ));

        // Shutdown closes the queue: a second kind of rejection.
        service.begin_shutdown();
        assert!(matches!(
            service.submit_encaps(pk.clone(), [0x45; 32]),
            Err(SubmitError::ShutDown)
        ));

        // Un-poison the pipeline: everything drains.
        gate.release();
        for hold in holds {
            hold.wait().expect("hold resolves");
        }
        for handle in decaps_handles {
            assert_eq!(
                handle.wait().expect("decaps drained around the panics"),
                ss_expected,
                "jobs after a mid-batch panic still compute correctly"
            );
        }
        for (i, handle) in panic_handles.into_iter().enumerate() {
            let err = handle.wait().expect_err("planted fault must surface");
            let JobError::WorkerPanicked { message } = err;
            assert!(
                message.contains("planted fault"),
                "panic {i} payload lost: {message}"
            );
        }
        for handle in encaps_handles {
            let (ct2, ss2) = handle.wait().expect("encaps drained");
            assert_eq!(
                decaps(&sk, &ct2, &mut backend),
                ss2,
                "post-panic encaps results round-trip"
            );
        }
        service.shutdown()
    };
    drop(sk);
    let trace = session.finish();

    // Exactly-once accounting over the whole lifecycle.
    let submitted = (WORKERS + DECAPS_JOBS + PANIC_JOBS + ENCAPS_JOBS) as u64;
    assert_eq!(report.submitted, submitted);
    assert_eq!(report.failed, PANIC_JOBS as u64);
    assert_eq!(report.worker_panics, PANIC_JOBS as u64);
    assert_eq!(report.completed, submitted - PANIC_JOBS as u64);
    assert_eq!(
        report.completed + report.failed,
        report.submitted,
        "every admitted job resolves exactly once"
    );
    // Only backpressure rejections are metered (a closed queue is an
    // orderly refusal, not lost capacity).
    assert_eq!(report.rejected, 1, "the QueueFull rejection");
    assert_eq!(report.queue_depth, 0, "shutdown drained the queue");
    assert_eq!(report.engines.len(), WORKERS);

    // Zeroization: one wipe per drained decaps clone, one for the
    // rejected clone, one for the original. `>=` tolerates incidental
    // clones inside the pipeline.
    let wiped = trace.counter_total(KEM_SK_ZEROIZED);
    assert!(
        wiped >= (DECAPS_JOBS + 2) as i64,
        "expected at least {} KemSecretKey wipes, saw {wiped}",
        DECAPS_JOBS + 2
    );

    // Crash dumps exactly once per contained panic: spawn installed the
    // process-wide hook, each planted fault fired it once (inside the
    // worker's catch_unwind), and it flushed the flight ring each time.
    assert_eq!(
        saber_service::obs::panic_dump_count() - panic_dumps_before,
        PANIC_JOBS as u64,
        "panic hook must dump exactly once per contained worker panic"
    );
    let flight_dumps = saber_trace::flight::dump_count() - flight_dumps_before;
    if std::env::var("SABER_FLIGHT_DUMP").is_ok_and(|v| !v.is_empty()) {
        // The env trigger arms the *worker-fault recovery site* too, so
        // each panic produces the hook dump plus one recovery dump.
        assert!(
            flight_dumps >= PANIC_JOBS as u64,
            "panic dumps lost under SABER_FLIGHT_DUMP: {flight_dumps}"
        );
    } else {
        assert_eq!(
            flight_dumps, PANIC_JOBS as u64,
            "each panic dump must flush the flight recorder exactly once"
        );
    }
    // And the dumps were metered into the capture session too.
    assert_eq!(
        trace.counter_total("panic.dump"),
        PANIC_JOBS as i64,
        "panic.dump counter mirrors the hook invocations"
    );
}

// Compile-time statement of intent: panic containment must not change
// job-request ownership — keys still move into the request and are
// wiped on drop whether the job drains, fails, or is rejected.
#[allow(dead_code)]
fn decaps_takes_ownership(service: &KemService, sk: KemSecretKey, ct: saber_kem::Ciphertext) {
    let _ = service.submit_decaps(sk, ct);
}
