//! Scheduler edge cases: empty batches, the queue-full rejection path,
//! shutdown with in-flight jobs, and worker panics that must not poison
//! the pool.
//!
//! These tests drive the scheduler into its corner states
//! deterministically using the service's own instrumentation jobs
//! ([`Gate`]-holding jobs occupy a worker; `submit_fault_panic` injects
//! a panic inside one), in the same spirit as `saber_core::fault`.

use std::sync::{Arc, Once};

use saber_kem::params::{LIGHT_SABER, SABER};
use saber_kem::{Ciphertext, PublicKey, SharedSecret};
use saber_ring::mul::SchoolbookMultiplier;
use saber_service::loadgen::{build_plan, run_service, LoadProfile};
use saber_service::{Gate, JobError, KemService, OpKind, ServiceConfig, SubmitError};

/// Silences the default panic-hook stderr spew for *service worker*
/// threads only — injected panics are expected here, and the pool's
/// whole point is that they are contained. Panics on any other thread
/// (e.g. a failing assertion in a test) still print normally.
fn quiet_worker_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("saber-service"));
            if !on_worker {
                default(info);
            }
        }));
    });
}

/// A LightSaber public key (the smallest rank, the fastest jobs) and
/// the encapsulation of `entropy` against it, computed directly on the
/// schoolbook oracle.
fn key_and_encaps(seed: u8, entropy: [u8; 32]) -> (PublicKey, (Ciphertext, SharedSecret)) {
    let (pk, _) = saber_kem::keygen(&LIGHT_SABER, &[seed; 32], &mut SchoolbookMultiplier);
    let expected = saber_kem::encaps(&pk, &entropy, &mut SchoolbookMultiplier);
    (pk, expected)
}

/// Blocks until every admitted job has been popped off the queue (i.e.
/// is executing or done). Progress is guaranteed: workers always drain
/// the queue, so this loop terminates without sleeps.
fn wait_queue_empty(service: &KemService) {
    while service.report().queue_depth > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn empty_batch_shuts_down_clean() {
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let report = service.shutdown();
    assert_eq!(report.submitted, 0);
    assert_eq!(report.completed, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(report.queue_high_water, 0);
    for (_, h) in &report.ops {
        assert_eq!(h.count, 0, "no latency samples without jobs");
    }
}

#[test]
fn empty_plan_yields_empty_transcript() {
    let plan = build_plan(&LoadProfile::new(&SABER, 9, 0));
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let transcript = run_service(&plan, &service, 4).expect("empty run");
    assert!(transcript.is_empty());
    assert_eq!(service.shutdown().submitted, 0);
}

#[test]
fn full_queue_rejects_then_recovers() {
    let capacity = 2;
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: capacity,
        ..ServiceConfig::default()
    });
    let gate = Arc::new(Gate::new());

    // Occupy the single worker, then wait until it has actually popped
    // the job so the queue is empty again.
    let executing = service.submit_hold(Arc::clone(&gate)).expect("hold");
    wait_queue_empty(&service);

    // Fill the queue to capacity behind the held worker…
    let queued: Vec<_> = (0..capacity)
        .map(|i| {
            service
                .submit_hold(Arc::clone(&gate))
                .unwrap_or_else(|e| panic!("filler {i} must be admitted: {e}"))
        })
        .collect();

    // …so the next submission is refused with explicit backpressure.
    let err = match service.submit_fault_panic("must not be admitted") {
        Err(e) => e,
        Ok(_) => panic!("queue is full: submission must be rejected"),
    };
    assert_eq!(err, SubmitError::QueueFull { capacity });

    let mid = service.report();
    assert_eq!(mid.rejected, 1, "the rejection is metered");
    assert_eq!(mid.submitted, 1 + capacity as u64);
    assert_eq!(mid.queue_high_water, capacity as u64);

    // Backpressure is transient: release the gate and everything admitted
    // completes; the rejected job stays rejected (it never ran).
    gate.release();
    executing.wait().expect("held job completes");
    for h in queued {
        h.wait().expect("queued job completes");
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 1 + capacity as u64);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (pk, expected) = key_and_encaps(0x31, [0x32; 32]);

    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let gate = Arc::new(Gate::new());
    let held = service.submit_hold(Arc::clone(&gate)).expect("hold");
    let pending: Vec<_> = (0..3)
        .map(|_| {
            service
                .submit_encaps(pk.clone(), [0x32; 32])
                .expect("queued behind the held worker")
        })
        .collect();

    // Release the gate from a helper thread while the main thread is
    // blocked joining workers inside shutdown(). The short delay makes
    // it overwhelmingly likely close() lands while jobs are in flight;
    // correctness does not depend on the ordering either way.
    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            gate.release();
        })
    };
    let report = service.shutdown();
    releaser.join().expect("releaser thread");

    // Every admitted handle resolved, with correct results: closing the
    // queue never discards admitted work.
    held.wait().expect("held job resolves across shutdown");
    for h in pending {
        assert_eq!(h.wait().expect("drained job resolves"), expected);
    }
    assert_eq!(report.completed, 4);
    assert_eq!(report.failed, 0);
}

#[test]
fn worker_panic_does_not_poison_the_pool() {
    quiet_worker_panics();
    let (pk, expected) = key_and_encaps(0x41, [0x42; 32]);

    // One worker: the same thread that panics must serve the follow-ups.
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });

    let poisoned = service
        .submit_fault_panic("injected fault")
        .expect("admitted");
    match poisoned.wait() {
        Err(JobError::WorkerPanicked { message }) => {
            assert!(message.contains("injected fault"), "payload: {message}")
        }
        Ok(()) => panic!("fault job must fail"),
    }

    // The pool survives: the very same worker keeps serving, with a
    // freshly rebuilt multiplier shard that still computes correctly.
    let after = service
        .submit_encaps(pk.clone(), [0x42; 32])
        .expect("pool still admits work")
        .wait()
        .expect("pool still serves work");
    assert_eq!(after, expected);

    // Repeated faults are each contained individually.
    for round in 0..3 {
        let e = service
            .submit_fault_panic("again")
            .expect("still admitting")
            .wait()
            .expect_err("fault job fails");
        assert!(
            matches!(e, JobError::WorkerPanicked { .. }),
            "round {round}"
        );
    }
    let final_ok = service
        .submit_encaps(pk.clone(), [0x42; 32])
        .expect("still admitting")
        .wait()
        .expect("still serving");
    assert_eq!(final_ok, expected);

    let report = service.shutdown();
    assert_eq!(report.worker_panics, 4);
    assert_eq!(report.failed, 4);
    assert_eq!(report.completed, 2);
    let encaps = report.op(OpKind::Encaps).expect("encaps histogram");
    assert_eq!(encaps.count, 2, "only successful jobs record latency");
}

#[test]
fn panics_do_not_reorder_surviving_jobs() {
    quiet_worker_panics();
    let (pk, expected) = key_and_encaps(0x51, [0x52; 32]);

    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    // Interleave faults and real work; every real job must still succeed.
    let mut real = Vec::new();
    let mut faults = Vec::new();
    for i in 0..6 {
        if i % 2 == 0 {
            faults.push(service.submit_fault_panic("interleaved").expect("admit"));
        } else {
            real.push(
                service
                    .submit_encaps(pk.clone(), [0x52; 32])
                    .expect("admit"),
            );
        }
    }
    for h in real {
        assert_eq!(h.wait().expect("real job survives"), expected);
    }
    for h in faults {
        assert!(h.wait().is_err());
    }
    let report = service.shutdown();
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 3);
}
