//! Work-stealing scheduler stress battery.
//!
//! Five properties of the per-worker-deque dispatcher:
//!
//! 1. **Seeded steal-order stress** — the steal-decision RNG seed must
//!    be *transcript-invariant*: every seed produces the same
//!    byte-identical transcript as sequential execution. This is the
//!    soc fuzzer's seeded-shuffle pattern applied to victim order.
//! 2. **Forced steal** — with one worker pinned and jobs balanced onto
//!    its deque, the free worker must steal them (the handles resolve)
//!    and the steal counters must advance.
//! 3. **Shutdown under load** — closing a loaded pool drains every
//!    admitted job: `completed + failed == submitted`, depth 0.
//! 4. **Convoy regression** — one long job (a FireSaber keygen) queued
//!    ahead of six small Saber decaps on one pinned worker:
//!    newest-first owner pops must run every small before the long
//!    job, which the exact queue-wait maxima prove with no timing
//!    threshold.
//! 5. **Steal-counter round-trip** — steal counters survive the
//!    metrics document's JSON round-trip and appear in the linted
//!    Prometheus exposition.

use std::sync::Arc;

use saber_kem::params::{FIRE_SABER, LIGHT_SABER, SABER};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::CtSchoolbookMultiplier;
use saber_service::loadgen::{build_plan, run_sequential, run_service, LoadProfile};
use saber_service::metrics::Metrics;
use saber_service::snapshot::lint_prometheus;
use saber_service::{Gate, KemService, OpKind, ServiceConfig, ServiceReport};

/// Debug builds run the slow path; keep sweeps small there.
const fn scaled(debug: usize, release: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !done() {
        assert!(
            start.elapsed().as_millis() < u128::from(deadline_ms),
            "condition not reached within {deadline_ms}ms"
        );
        std::thread::yield_now();
    }
}

#[test]
fn every_steal_seed_reproduces_the_sequential_transcript() {
    let mut profile = LoadProfile::new(&SABER, 0x57EA_15EED, scaled(8, 40));
    profile.keyring = 2;
    let plan = build_plan(&profile);
    let reference = run_sequential(&plan, &mut SchoolbookMultiplier);

    for steal_seed in [0u64, 1, 2, 0xDEAD_BEEF] {
        let service = KemService::spawn(&ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            steal_seed,
            ..ServiceConfig::default()
        });
        let got = run_service(&plan, &service, 12).expect("load run");
        let report = service.shutdown();
        assert_eq!(
            got, reference,
            "seed {steal_seed:#x} diverged from sequential"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.completed, plan.ops.len() as u64);
    }
}

#[test]
fn pinned_worker_forces_a_counted_steal() {
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });

    // Pin both workers on separate gates, then queue work while nobody
    // can pop: shortest-queue submit balances it across both deques.
    let gate_a = Arc::new(Gate::new());
    let gate_b = Arc::new(Gate::new());
    let hold_a = service.submit_hold(Arc::clone(&gate_a)).expect("hold a");
    let hold_b = service.submit_hold(Arc::clone(&gate_b)).expect("hold b");
    spin_until(10_000, || service.report().queue_depth == 0);

    let (pk, _) = saber_kem::keygen(&LIGHT_SABER, &[0x31; 32], &mut SchoolbookMultiplier);
    let jobs: Vec<_> = (0..8u8)
        .map(|i| {
            service
                .submit_encaps(pk.clone(), [i; 32])
                .expect("encaps admitted")
        })
        .collect();

    // Release only one gate: the freed worker drains its own deque,
    // then can finish the other half only by stealing it — so waiting
    // on every handle *proves* the steal happened; the counters must
    // agree.
    gate_a.release();
    for job in jobs {
        job.wait().expect("stolen or local job resolves");
    }
    let report = service.report();
    gate_b.release();
    hold_a.wait().expect("hold a resolves");
    hold_b.wait().expect("hold b resolves");
    let _ = service.shutdown();

    assert!(report.steal_hits >= 1, "no steal counted: {report:?}");
    assert!(report.stolen_jobs >= 1);
    assert!(report.steal_attempts >= report.steal_hits);
}

#[test]
fn shutdown_under_load_drains_every_admitted_job() {
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let (pk, _) = saber_kem::keygen(&LIGHT_SABER, &[0x41; 32], &mut SchoolbookMultiplier);
    let mut admitted = 0u64;
    let handles: Vec<_> = (0..scaled(16, 48))
        .filter_map(|i| {
            let r = service.submit_encaps(pk.clone(), [i as u8; 32]);
            admitted += u64::from(r.is_ok());
            r.ok()
        })
        .collect();
    // Close immediately, with most of the work still queued.
    let report = service.shutdown();
    assert_eq!(report.submitted, admitted);
    assert_eq!(
        report.completed + report.failed,
        admitted,
        "shutdown lost queued jobs: {report:?}"
    );
    assert_eq!(report.failed, 0);
    assert_eq!(report.queue_depth, 0, "drain left residue");
    for h in handles {
        h.wait()
            .expect("admitted job resolved before shutdown returned");
    }
}

#[test]
fn convoy_small_jobs_all_overtake_the_long_job() {
    // The long job runs longer than every small: a FIFO owner would make
    // every small wait out its whole execution, far longer than the long
    // job's own wait, so the exact comparison below needs no timing
    // threshold.
    const SMALLS: usize = 6;

    let mut backend = CtSchoolbookMultiplier::new();
    let (pk, sk) = saber_kem::keygen(&SABER, &[0x51; 32], &mut backend);
    let (ct, _) = saber_kem::encaps(&pk, &[0x52; 32], &mut backend);

    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    // Pin the only worker so the whole convoy queues deterministically:
    // the long job first, smalls behind it — the adversarial arrival
    // order.
    let gate = Arc::new(Gate::new());
    let hold = service.submit_hold(Arc::clone(&gate)).expect("hold");
    spin_until(10_000, || service.report().queue_depth == 0);

    let long = service
        .submit_keygen(&FIRE_SABER, [0x53; 32])
        .expect("keygen admitted");
    let smalls: Vec<_> = (0..SMALLS)
        .map(|_| {
            service
                .submit_decaps(sk.clone(), ct.clone())
                .expect("decaps admitted")
        })
        .collect();

    gate.release();
    hold.wait().expect("hold resolves");
    for s in smalls {
        s.wait().expect("small decaps resolves");
    }
    long.wait().expect("keygen resolves");
    let report = service.shutdown();

    // The long job was enqueued before every small. Its queue wait is
    // therefore the longest of all exactly when it was dequeued after
    // every small: newest-first owner pops let the whole convoy of
    // smalls overtake it.
    let long_wait = report.op_queue_wait(OpKind::Keygen).expect("keygen waits");
    let small_wait = report.op_queue_wait(OpKind::Decaps).expect("decaps waits");
    assert_eq!((long_wait.count, small_wait.count), (1, SMALLS as u64));
    assert!(
        long_wait.max_ns > small_wait.max_ns,
        "a small job waited behind the long job: its wait {}ns, longest small wait {}ns",
        long_wait.max_ns,
        small_wait.max_ns
    );
}

#[test]
fn steal_counters_round_trip_snapshot_json_and_prometheus() {
    let metrics = Metrics::default();
    metrics.record_steal_attempts(7);
    metrics.record_steal_hit(3);
    metrics.record_completed(OpKind::Decaps, 1_000, 2_000);
    let report = metrics.snapshot(&ServiceConfig::default(), 0);

    let back = ServiceReport::from_json_str(&report.to_json_string()).expect("round-trip");
    assert_eq!(back, report);
    assert_eq!(back.steal_attempts, 7);
    assert_eq!(back.steal_hits, 1);
    assert_eq!(back.stolen_jobs, 3);

    let text = report.to_prometheus();
    lint_prometheus(&text).expect("exposition lints clean");
    for series in [
        "saber_steal_attempts_total 7",
        "saber_steal_hits_total 1",
        "saber_stolen_jobs_total 3",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
}
