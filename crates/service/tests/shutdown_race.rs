//! The shutdown race: submissions arriving while the queue is closing
//! must either be admitted (and then their handles MUST resolve, with
//! the correct result) or be rejected with an explicit error — never
//! silently dropped — and the metrics must account every attempt
//! exactly once.
//!
//! The race is driven for real: submitter threads hammer the queue from
//! a barrier start while the main thread closes it mid-stream via
//! [`KemService::begin_shutdown`]. No assertion depends on who wins any
//! individual race; the invariants hold for every interleaving.

use std::sync::Barrier;

use saber_kem::params::LIGHT_SABER;
use saber_ring::mul::SchoolbookMultiplier;
use saber_service::{KemService, OpKind, ServiceConfig, SubmitError};

const SUBMITTERS: usize = 4;
/// Safety bound so a missed wakeup fails loudly instead of hanging CI.
const MAX_ATTEMPTS_PER_THREAD: u64 = 5_000_000;

#[test]
fn racing_submissions_are_rejected_never_dropped() {
    // LightSaber: fastest jobs, most churn.
    let (pk, _) = saber_kem::keygen(&LIGHT_SABER, &[0x61; 32], &mut SchoolbookMultiplier);
    let expected = saber_kem::encaps(&pk, &[0x62; 32], &mut SchoolbookMultiplier);

    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        // Small queue: the backpressure (QueueFull) path races the
        // shutdown (ShutDown) path at the same time.
        queue_capacity: 8,
        ..ServiceConfig::default()
    });

    let barrier = Barrier::new(SUBMITTERS + 1);
    let (handles, queue_full_rejections, shutdown_rejections) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                s.spawn(|| {
                    let mut admitted = Vec::new();
                    let mut full = 0u64;
                    let mut refused = 0u64;
                    barrier.wait();
                    for attempt in 0.. {
                        assert!(
                            attempt < MAX_ATTEMPTS_PER_THREAD,
                            "submitter never observed the queue closing"
                        );
                        match service.submit_encaps(pk.clone(), [0x62; 32]) {
                            Ok(handle) => admitted.push(handle),
                            Err(SubmitError::QueueFull { .. }) => {
                                full += 1;
                                std::thread::yield_now();
                            }
                            Err(SubmitError::ShutDown) => {
                                refused += 1;
                                break;
                            }
                        }
                    }
                    (admitted, full, refused)
                })
            })
            .collect();

        barrier.wait();
        // Let the submitters get a head of steam, then slam the door
        // while they are mid-burst.
        std::thread::sleep(std::time::Duration::from_millis(2));
        service.begin_shutdown();

        let mut handles = Vec::new();
        let mut full_total = 0u64;
        let mut refused_total = 0u64;
        for worker in workers {
            let (admitted, full, refused) = worker.join().expect("submitter thread");
            handles.extend(admitted);
            full_total += full;
            refused_total += refused;
        }
        (handles, full_total, refused_total)
    });

    // Every thread exited through the explicit ShutDown rejection.
    assert_eq!(shutdown_rejections, SUBMITTERS as u64);

    // Every admitted handle resolves — closing the queue drains, it
    // does not drop — and resolves to the *correct* encapsulation.
    let admitted = handles.len() as u64;
    assert!(admitted > 0, "no submission won the race; widen the window");
    for handle in handles {
        assert_eq!(
            handle
                .wait()
                .expect("admitted job resolves across shutdown"),
            expected
        );
    }

    // Exactly-once accounting: admitted == submitted == completed (no
    // panics were injected), every QueueFull bounce was recorded, and
    // the latency histogram saw each completion once.
    let report = service.shutdown();
    assert_eq!(report.submitted, admitted);
    assert_eq!(report.completed, admitted);
    assert_eq!(report.failed, 0);
    assert_eq!(report.rejected, queue_full_rejections);
    assert_eq!(report.queue_depth, 0, "nothing left stranded in the queue");
    let encaps = report.op(OpKind::Encaps).expect("encaps histogram");
    assert_eq!(encaps.count, admitted);
}

#[test]
fn submissions_after_begin_shutdown_fail_deterministically() {
    let (pk, _) = saber_kem::keygen(&LIGHT_SABER, &[0x71; 32], &mut SchoolbookMultiplier);

    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let before = service
        .submit_encaps(pk.clone(), [0x72; 32])
        .expect("open service admits");
    service.begin_shutdown();
    service.begin_shutdown(); // idempotent

    for _ in 0..3 {
        assert_eq!(
            service.submit_encaps(pk.clone(), [0x72; 32]).err(),
            Some(SubmitError::ShutDown)
        );
    }
    // The pre-close admission still resolves.
    before.wait().expect("admitted before close; must resolve");

    let report = service.shutdown();
    assert_eq!(report.submitted, 1);
    assert_eq!(report.completed, 1);
    // ShutDown refusals are not backpressure: the rejected counter
    // stays untouched by them.
    assert_eq!(report.rejected, 0);
}
