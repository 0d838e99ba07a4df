//! The per-worker matrix cache (`expand::MatrixCache`): every lookup
//! returns exactly `gen_matrix`, keys separate the ranks that share a
//! `seed_A`, the cache never outgrows its capacity, and the cached KEM
//! paths stay byte-identical to the uncached ones.

use saber_kem::expand::{gen_matrix, MatrixCache};
use saber_kem::params::{ALL_PARAMS, FIRE_SABER, LIGHT_SABER, SABER};
use saber_kem::{decaps, decaps_cached, encaps, encaps_cached, keygen, pke};
use saber_ring::mul::SchoolbookMultiplier;
use saber_ring::CtSchoolbookMultiplier;
use saber_testkit::Rng;

#[test]
fn one_seed_under_three_ranks_yields_three_matrices() {
    let mut cache = MatrixCache::new();
    let seed = [0x3C; 32];
    for round in 0..2 {
        for params in &ALL_PARAMS {
            let got = cache.matrix(&seed, params);
            assert_eq!(got.rank(), params.rank, "{} round {round}", params.name);
            assert_eq!(
                *got,
                gen_matrix(&seed, params),
                "{} round {round}",
                params.name
            );
        }
    }
    assert_eq!(cache.len(), 3, "one entry per rank");
    assert_eq!((cache.misses(), cache.hits()), (3, 3));
}

#[test]
fn cycling_past_capacity_always_returns_gen_matrix() {
    let mut rng = Rng::new(0xCAC4_E000);
    let seeds: Vec<[u8; 32]> = (0..=MatrixCache::CAPACITY).map(|_| rng.bytes32()).collect();
    let mut cache = MatrixCache::new();
    let mut lookups = 0u64;
    for round in 0..3 {
        for (i, seed) in seeds.iter().enumerate() {
            assert_eq!(
                *cache.matrix(seed, &SABER),
                gen_matrix(seed, &SABER),
                "round {round}, seed {i}"
            );
            lookups += 1;
            assert!(
                cache.len() <= MatrixCache::CAPACITY,
                "round {round}: {} held",
                cache.len()
            );
        }
    }
    assert_eq!(cache.len(), MatrixCache::CAPACITY);
    assert_eq!(cache.hits() + cache.misses(), lookups);
    // Round-robin replacement evicts the oldest entry, which a cyclic
    // walk over capacity + 1 keys always asks for next.
    assert_eq!(cache.hits(), 0, "capacity + 1 cyclic keys never hit");

    // A working set that fits is served from the cache after one miss
    // per key.
    let mut cache = MatrixCache::new();
    for _ in 0..3 {
        for seed in &seeds[..MatrixCache::CAPACITY] {
            assert_eq!(
                *cache.matrix(seed, &FIRE_SABER),
                gen_matrix(seed, &FIRE_SABER)
            );
        }
    }
    assert_eq!(cache.misses(), MatrixCache::CAPACITY as u64);
    assert_eq!(cache.hits(), 2 * MatrixCache::CAPACITY as u64);
}

#[test]
fn cached_kem_paths_are_byte_identical_and_hit_on_a_static_key() {
    for params in &ALL_PARAMS {
        let mut backend = CtSchoolbookMultiplier::new();
        let (pk, sk) = keygen(params, &[0x51; 32], &mut backend);
        let mut cache = MatrixCache::new();
        for e in 0..4u8 {
            let (ct, ss) = encaps(&pk, &[e; 32], &mut backend);
            let (ct_cached, ss_cached) = encaps_cached(&pk, &[e; 32], &mut cache, &mut backend);
            assert_eq!(
                (&ct_cached, &ss_cached),
                (&ct, &ss),
                "{} encaps {e}",
                params.name
            );
            let ss_dec = decaps_cached(&sk, &ct, &mut cache, &mut backend);
            assert_eq!(
                ss_dec,
                decaps(&sk, &ct, &mut backend),
                "{} decaps {e}",
                params.name
            );
            assert_eq!(ss_dec, ss, "{} round trip {e}", params.name);
        }
        // Eight lookups against one seed_A: one expansion.
        assert_eq!((cache.misses(), cache.hits()), (1, 7), "{}", params.name);
    }
}

#[test]
fn keys_sharing_a_seed_never_share_a_matrix() {
    // LightSaber and Saber keys built on the same seed_A: one shared
    // cache serves both, and each ciphertext still equals the uncached
    // one for its own key.
    let mut backend = SchoolbookMultiplier;
    let seed_a = [0x77; 32];
    let (light, _) = pke::keygen(&LIGHT_SABER, seed_a, &[1; 32], &mut backend);
    let (saber, _) = pke::keygen(&SABER, seed_a, &[2; 32], &mut backend);
    let mut cache = MatrixCache::new();
    for round in 0..2u8 {
        for pk in [&light, &saber] {
            let m = [round; 32];
            let coins = [round ^ 0x5A; 32];
            assert_eq!(
                pke::encrypt_cached(pk, &m, &coins, &mut cache, &mut backend),
                pke::encrypt(pk, &m, &coins, &mut backend),
                "{} round {round}",
                pk.params.name
            );
        }
    }
    assert_eq!((cache.misses(), cache.hits()), (2, 2));
}
