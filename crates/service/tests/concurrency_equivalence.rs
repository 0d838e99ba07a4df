//! Concurrency correctness: for fixed seeds, an N-worker service run is
//! byte-identical to sequential execution — for N in {1, 2, 8}, under
//! several steal seeds, all three parameter sets, across
//! keygen/encaps/decaps.
//!
//! The transcripts compare SHA3-256 digests of the *serialized* results
//! (public/secret key bytes, ciphertext bytes, shared-secret bytes), so
//! agreement means bit-identical wire output, not merely equal structs.

use saber_kem::params::ALL_PARAMS;
use saber_ring::mul::SchoolbookMultiplier;
use saber_service::loadgen::{build_plan, run_sequential, run_service, LoadProfile};
use saber_service::service::DEFAULT_STEAL_SEED;
use saber_service::{KemService, OpKind, ServiceConfig};

/// The configurations under test: worker counts {1, 2, 8} × steal seeds
/// {default, 1, 2, 3}, each with the given queue capacity.
fn config_matrix(queue_capacity: usize) -> Vec<ServiceConfig> {
    let mut configs = Vec::new();
    for workers in [1, 2, 8] {
        for steal_seed in [DEFAULT_STEAL_SEED, 1, 2, 3] {
            configs.push(ServiceConfig {
                workers,
                queue_capacity,
                steal_seed,
                ..ServiceConfig::default()
            });
        }
    }
    configs
}

/// Debug builds run the cycle-accurate-slow path; keep the fixed-seed
/// sweeps small there and broader in release (CI's stress stages).
fn ops_per_config() -> usize {
    if cfg!(debug_assertions) {
        8
    } else {
        48
    }
}

#[test]
fn mixed_kem_load_matches_sequential_for_all_sets_and_worker_counts() {
    for params in &ALL_PARAMS {
        let mut profile = LoadProfile::new(params, 0x0D0C_2021, ops_per_config());
        // Two keys: they repeat across jobs and workers, so the workers'
        // matrix caches hit while the transcript must stay identical.
        profile.keyring = 2;
        let plan = build_plan(&profile);
        let reference = run_sequential(&plan, &mut SchoolbookMultiplier);
        let lookups = plan
            .ops
            .iter()
            .filter(|op| matches!(op.kind(), OpKind::Encaps | OpKind::Decaps))
            .count() as u64;
        let mut hits = 0;

        for config in config_matrix(16) {
            let (workers, seed) = (config.workers, config.steal_seed);
            let service = KemService::spawn(&config);
            let got = run_service(&plan, &service, 12).expect("load run");
            let report = service.shutdown();
            assert_eq!(
                got, reference,
                "{} with {workers} workers, seed {seed:#x}, diverged from sequential",
                params.name
            );
            assert_eq!(report.failed, 0, "{}: no job may fail", params.name);
            assert_eq!(
                report.completed,
                plan.ops.len() as u64,
                "{}: every op completes exactly once",
                params.name
            );
            // One matrix lookup per encaps/decaps; each worker misses at
            // most once per key (the keyring fits its cache).
            assert_eq!(
                report.matrix_cache_hits + report.matrix_cache_misses,
                lookups,
                "{} with {workers} workers: one lookup per encaps/decaps",
                params.name
            );
            assert!(
                report.matrix_cache_misses <= (workers * profile.keyring) as u64,
                "{} with {workers} workers: {} misses",
                params.name,
                report.matrix_cache_misses
            );
            hits += report.matrix_cache_hits;
        }
        assert!(
            hits > 0,
            "{}: repeated keys never hit a worker's cache",
            params.name
        );
    }
}

#[test]
fn typed_submissions_match_direct_calls() {
    // The typed handle API (not just the load generator) returns exactly
    // what a direct single-threaded call returns.
    let params = &ALL_PARAMS[1]; // Saber
    let mut backend = SchoolbookMultiplier;
    let (pk, sk) = saber_kem::keygen(params, &[5; 32], &mut backend);
    let (ct, ss_enc) = saber_kem::encaps(&pk, &[6; 32], &mut backend);
    let ss_dec = saber_kem::decaps(&sk, &ct, &mut backend);

    for config in config_matrix(8) {
        let workers = config.workers;
        let service = KemService::spawn(&config);
        let (pk2, sk2) = service
            .submit_keygen(params, [5; 32])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(pk2, pk, "{workers} workers: keygen pk");
        let (ct2, ss2) = service
            .submit_encaps(pk2.clone(), [6; 32])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(ct2, ct, "{workers} workers: encaps ct");
        assert_eq!(ss2, ss_enc, "{workers} workers: encaps ss");
        let ss3 = service.submit_decaps(sk2, ct2).unwrap().wait().unwrap();
        assert_eq!(ss3, ss_dec, "{workers} workers: decaps ss");
        let _ = sk; // sequential sk compared indirectly through ss_dec
        let report = service.shutdown();
        assert_eq!(report.completed, 3);
    }
}
