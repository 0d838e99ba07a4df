//! Metrics battery: histogram bucket boundaries, counter monotonicity
//! under live traffic, and `ServiceReport` JSON round-trips through the
//! in-tree codec (`saber_testkit::json`).

use saber_kem::params::{LIGHT_SABER, SABER};
use saber_ring::CtSchoolbookMultiplier;
use saber_service::metrics::{bucket_index, BUCKET_BOUNDS_NS, BUCKET_COUNT};
use saber_service::{lint_prometheus, KemService, OpKind, ServiceConfig, ServiceReport};

#[test]
fn bucket_boundaries_partition_the_latency_axis() {
    // Each finite bound is an exclusive upper limit: the sample one
    // below it stays in the bucket, the sample at it rolls over.
    for (i, &bound) in BUCKET_BOUNDS_NS.iter().take(BUCKET_COUNT - 1).enumerate() {
        assert_eq!(bucket_index(bound - 1), i, "just below bound {i}");
        assert_eq!(bucket_index(bound), i + 1, "exactly at bound {i}");
    }
    // The overflow bucket swallows everything past the last finite bound.
    assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    // Bounds strictly increase, so buckets never overlap or gap.
    for w in BUCKET_BOUNDS_NS.windows(2) {
        assert!(w[0] < w[1], "bounds must be strictly increasing");
    }
}

/// Every counter in `b` is at least its value in `a`.
fn assert_monotone(a: &ServiceReport, b: &ServiceReport, at: &str) {
    assert!(b.submitted >= a.submitted, "{at}: submitted");
    assert!(b.completed >= a.completed, "{at}: completed");
    assert!(b.rejected >= a.rejected, "{at}: rejected");
    assert!(b.failed >= a.failed, "{at}: failed");
    assert!(b.worker_panics >= a.worker_panics, "{at}: worker_panics");
    assert!(b.queue_high_water >= a.queue_high_water, "{at}: high_water");
    for kind in OpKind::ALL {
        let (ha, hb) = (a.op(kind).unwrap(), b.op(kind).unwrap());
        assert!(hb.count >= ha.count, "{at}: {} count", kind.label());
        assert!(hb.total_ns >= ha.total_ns, "{at}: {} total", kind.label());
        assert!(hb.max_ns >= ha.max_ns, "{at}: {} max", kind.label());
        for (i, (&ca, &cb)) in ha.counts.iter().zip(hb.counts.iter()).enumerate() {
            assert!(cb >= ca, "{at}: {} bucket {i}", kind.label());
        }
    }
}

#[test]
fn live_snapshots_are_monotone() {
    let (pk, _) = saber_kem::keygen(
        &LIGHT_SABER,
        &[0x61; 32],
        &mut CtSchoolbookMultiplier::new(),
    );
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    });

    let mut prev = service.report();
    for round in 0..5 {
        let handles: Vec<_> = (0..3u8)
            .map(|i| {
                service
                    .submit_encaps(pk.clone(), [round * 3 + i; 32])
                    .expect("admitted")
            })
            .collect();
        // Snapshot while jobs may still be in flight: still monotone.
        let mid = service.report();
        assert_monotone(&prev, &mid, &format!("round {round} mid"));
        for h in handles {
            h.wait().expect("encaps");
        }
        let settled = service.report();
        assert_monotone(&mid, &settled, &format!("round {round} settled"));
        prev = settled;
    }
    let last = service.shutdown();
    assert_monotone(&prev, &last, "final");
    assert_eq!(last.completed, 15);
    assert_eq!(last.op(OpKind::Encaps).unwrap().count, 15);

    // The split histograms tile the end-to-end one: same sample count on
    // both sides, and wait + execute sums to the combined total exactly
    // (record_completed records the sum, not an independent clock read).
    let total = last.op(OpKind::Encaps).unwrap();
    let wait = last.op_queue_wait(OpKind::Encaps).unwrap();
    let exec = last.op_execute(OpKind::Encaps).unwrap();
    assert_eq!(wait.count, 15);
    assert_eq!(exec.count, 15);
    assert_eq!(wait.total_ns + exec.total_ns, total.total_ns);
    assert!(exec.total_ns > 0, "executing 15 encapsulations takes time");
    assert!(wait.max_ns <= total.max_ns);
    assert!(exec.max_ns <= total.max_ns);
}

#[test]
fn service_report_roundtrips_through_json() {
    // Produce a report with non-trivial content in every section.
    let service = KemService::spawn(&ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let (pk, sk) = service
        .submit_keygen(&SABER, [0x71; 32])
        .unwrap()
        .wait()
        .unwrap();
    let (ct, _ss) = service
        .submit_encaps(pk, [0x72; 32])
        .unwrap()
        .wait()
        .unwrap();
    let _ = service.submit_decaps(sk, ct).unwrap().wait().unwrap();
    let report = service.shutdown();
    assert_eq!(report.completed, 3);

    // String round-trip through the promoted saber-testkit codec.
    let text = report.to_json_string();
    let back = ServiceReport::from_json_str(&text).expect("parse own output");
    assert_eq!(back, report);

    // The report names the engine of every worker's shard, and the
    // labels survive JSON.
    assert_eq!(report.engines, ["ct", "ct"], "one label per worker");
    assert!(text.contains("\"engines\""));
    assert_eq!(back.engines, report.engines);

    // Derived fields in the document agree with the struct.
    let keygen = report.op(OpKind::Keygen).expect("keygen histogram");
    assert_eq!(keygen.count, 1);
    assert!(text.contains("\"snapshot\": \"saber-metrics\""));
    assert!(text.contains("\"schema_version\": 3"));
    assert!(text.contains("\"flight\""));
    assert!(text.contains("\"mean_ns\""));
    assert!(text.contains("\"bucket_bounds_ns\""));

    // The queue-wait/execute split survives the round-trip too.
    assert!(text.contains("\"queue_wait\""));
    assert!(text.contains("\"execute\""));
    let wait = back.op_queue_wait(OpKind::Keygen).expect("wait histogram");
    let exec = back.op_execute(OpKind::Keygen).expect("execute histogram");
    assert_eq!(wait.count, 1);
    assert_eq!(exec.count, 1);
    assert_eq!(wait.total_ns + exec.total_ns, keygen.total_ns);
    // The one-line summary surfaces both halves.
    assert!(report.format_summary().contains("wait="));
    assert!(report.format_summary().contains("exec="));
}

#[test]
fn malformed_reports_are_rejected_with_field_names() {
    assert!(ServiceReport::from_json_str("{").is_err(), "syntax error");
    assert!(
        ServiceReport::from_json_str("{\"snapshot\": \"something-else\"}")
            .unwrap_err()
            .contains("not a saber-metrics snapshot"),
        "wrong document tag"
    );
    let missing = ServiceReport::from_json_str(
        "{\"snapshot\": \"saber-metrics\", \"schema_version\": 3, \"flight\": {}}",
    )
    .expect_err("missing fields");
    assert!(missing.contains("service"), "{missing}");

    // Truncated bucket arrays are caught, not silently zero-filled.
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let good = service.shutdown().to_json_string();
    let truncated = good.replacen("\"buckets\": [", "\"buckets\": [7, ", 1);
    assert!(ServiceReport::from_json_str(&truncated)
        .expect_err("bucket count mismatch")
        .contains("buckets"),);
}

#[test]
fn matrix_cache_hits_on_repeated_keys_and_not_on_distinct_ones() {
    let service = KemService::spawn(&ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let keys: Vec<_> = (0..3u8)
        .map(|i| {
            service
                .submit_keygen(&SABER, [0x80 + i; 32])
                .unwrap()
                .wait()
                .unwrap()
        })
        .collect();
    let before = service.report();
    assert_eq!(
        (before.matrix_cache_hits, before.matrix_cache_misses),
        (0, 0),
        "keygen takes no cached matrix"
    );

    // Distinct keys: one encaps against each, every lookup a miss.
    for (i, (pk, _)) in keys.iter().enumerate() {
        let _ = service
            .submit_encaps(pk.clone(), [i as u8; 32])
            .unwrap()
            .wait()
            .unwrap();
    }
    let distinct = service.report();
    assert_eq!(distinct.matrix_cache_hits, 0, "distinct keys never hit");
    assert_eq!(distinct.matrix_cache_misses, 3);

    // A server's static key: decaps after decaps against the first key
    // reuse its matrix.
    let (pk, sk) = &keys[0];
    for e in 0..4u8 {
        let (ct, ss) = service
            .submit_encaps(pk.clone(), [0x40 + e; 32])
            .unwrap()
            .wait()
            .unwrap();
        let got = service
            .submit_decaps(sk.clone(), ct)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got, ss);
    }
    let report = service.shutdown();
    assert_eq!(
        report.matrix_cache_misses, 3,
        "the repeated key was already cached"
    );
    assert_eq!(
        report.matrix_cache_hits, 8,
        "every repeated-key lookup hits"
    );

    // The counters travel through the report's JSON and Prometheus
    // forms.
    let back = ServiceReport::from_json_str(&report.to_json_string()).expect("round-trip");
    assert_eq!(back, report);
    let text = report.to_prometheus();
    lint_prometheus(&text).expect("exposition lints clean");
    for series in [
        "saber_matrix_cache_hits_total 8",
        "saber_matrix_cache_misses_total 3",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
}
