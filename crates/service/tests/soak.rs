//! Deterministic soak: a seeded load generator drives a long mixed-KEM
//! stream through a 4-worker pool and the results are spot-checked
//! against the plain schoolbook oracle — the same ground truth the
//! `saber-verify` differential harness trusts (its backend registry
//! deliberately excludes schoolbook *because* it is the oracle).
//!
//! [`SOAK_OPS`] bounds the run: 200 ops keep the debug run short, and
//! release builds soak 10,000.

use saber_kem::params::SABER;
use saber_ring::mul::SchoolbookMultiplier;
use saber_service::loadgen::{build_plan, recompute_entry, run_service, LoadProfile};
use saber_service::{KemService, OpKind, ServiceConfig};

/// Mixed KEM ops per soak.
const SOAK_OPS: usize = if cfg!(debug_assertions) { 200 } else { 10_000 };

#[test]
fn four_worker_soak_matches_schoolbook_oracle() {
    let ops = SOAK_OPS;
    let mut profile = LoadProfile::new(&SABER, 0x50AC_2026, ops);
    profile.keyring = 4;
    let plan = build_plan(&profile);

    let service = KemService::spawn(&ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let transcript = run_service(&plan, &service, 32).expect("soak run");
    let report = service.shutdown();

    // Completeness: every planned op executed exactly once, in order.
    assert_eq!(transcript.len(), ops);
    for (i, entry) in transcript.iter().enumerate() {
        assert_eq!(entry.index, i, "transcript stays in op order");
        assert_eq!(entry.op, plan.ops[i].kind());
    }

    // Spot-check against the schoolbook oracle: recompute a sample of
    // entries directly (prime stride so every op kind gets sampled).
    let mut oracle = SchoolbookMultiplier;
    let mut checked = 0usize;
    for i in (0..ops).step_by(17) {
        let expected = recompute_entry(&plan, i, &mut oracle);
        assert_eq!(transcript[i], expected, "op {i} diverged from oracle");
        checked += 1;
    }
    assert!(checked >= ops / 17, "sampled {checked} oracle checks");

    // Metrics must reconcile exactly with the work performed.
    assert_eq!(report.workers, 4);
    assert_eq!(report.submitted, ops as u64);
    assert_eq!(report.completed, ops as u64);
    assert_eq!(report.failed, 0);
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.queue_depth, 0, "shutdown drains the queue");
    assert!(
        report.queue_high_water <= report.queue_capacity,
        "high-water gauge cannot exceed capacity"
    );

    // Per-op histogram counts match the plan's op census.
    for kind in OpKind::ALL {
        let planned = plan.ops.iter().filter(|op| op.kind() == kind).count() as u64;
        let h = report.op(kind).expect("histogram present");
        assert_eq!(h.count, planned, "{} histogram count", kind.label());
        assert_eq!(
            h.counts.iter().sum::<u64>(),
            planned,
            "{} bucket counts sum to the sample count",
            kind.label()
        );
        if planned > 0 {
            assert!(h.max_ns >= h.mean_ns(), "{} max ≥ mean", kind.label());
            assert!(h.total_ns > 0, "{} latencies recorded", kind.label());
        }
    }
    let histogram_total: u64 = OpKind::ALL
        .into_iter()
        .map(|k| report.op(k).unwrap().count)
        .sum();
    assert_eq!(histogram_total, report.completed);
}

#[test]
fn soak_transcript_is_reproducible_across_runs() {
    // Two independent services over the same plan: identical transcripts
    // (determinism is a property of the plan, not the scheduler).
    let ops = (SOAK_OPS / 4).max(20);
    let plan = build_plan(&LoadProfile::new(&SABER, 0x5EED_0042, ops));
    let run = |workers: usize| {
        let service = KemService::spawn(&ServiceConfig {
            workers,
            queue_capacity: 32,
            ..ServiceConfig::default()
        });
        run_service(&plan, &service, 16).expect("soak rerun")
    };
    assert_eq!(run(4), run(4));
    assert_eq!(run(4), run(2));
}
