//! Property-based tests: the coprocessor programs must agree with the
//! software KEM for random seeds, their schedules must be
//! data-independent, and mutated keys and ciphertexts must not panic
//! them.
//!
//! Driven by the deterministic `saber-testkit` harness (the offline
//! replacement for proptest).

use saber_coproc::programs::{encaps_program, keygen_program, run_decaps, run_kem};
use saber_coproc::Coprocessor;
use saber_core::CentralizedMultiplier;
use saber_kem::params::{ALL_PARAMS, SABER};
use saber_kem::serialize::{ciphertext_to_bytes, public_key_to_bytes};
use saber_ring::mul::SchoolbookMultiplier;
use saber_testkit::{cases, Rng};

#[test]
fn programs_match_software_for_random_seeds() {
    for mut rng in cases(6) {
        let seed = rng.bytes32();
        let entropy = rng.bytes32();

        // Software reference.
        let mut sw = SchoolbookMultiplier;
        let (pk_sw, sk_sw) = saber_kem::keygen(&SABER, &seed, &mut sw);
        let (ct_sw, ss_sw) = saber_kem::encaps(&pk_sw, &entropy, &mut sw);
        let ss_roundtrip = saber_kem::decaps(&sk_sw, &ct_sw, &mut sw);
        assert_eq!(
            ss_roundtrip.as_bytes(),
            ss_sw.as_bytes(),
            "case seed {}",
            rng.seed()
        );

        // The coprocessor key exchange.
        let run = run_kem(
            &SABER,
            &seed,
            &entropy,
            &mut CentralizedMultiplier::new(256),
        )
        .unwrap();
        let case = rng.seed();
        assert_eq!(run.pk, public_key_to_bytes(&pk_sw), "case seed {case}");
        let ct_sw = ciphertext_to_bytes(&ct_sw, &SABER);
        assert_eq!(run.ct, ct_sw, "case seed {case}");
        assert_eq!(&run.ss_encaps, ss_sw.as_bytes(), "case seed {case}");
        assert_eq!(&run.ss_decaps, ss_sw.as_bytes(), "case seed {case}");
    }
}

#[test]
fn program_schedules_are_seed_independent() {
    // Constant-time at the program level: cycle totals must not
    // depend on the key material.
    let reference = {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.run(&keygen_program(&SABER, &[0; 32])).unwrap();
        cpu.cycles()
    };
    for mut rng in cases(6) {
        let seed = rng.bytes32();
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.run(&keygen_program(&SABER, &seed)).unwrap();
        assert_eq!(cpu.cycles(), reference, "case seed {}", rng.seed());
    }
}

#[test]
fn mutated_public_keys_and_ciphertexts_never_panic_the_runners() {
    // Seeded byte flips in a valid public key and ciphertext of the
    // right length, on HS-I: the encaps program and the decaps runner
    // answer `Ok` or `Err`, and no mutated ciphertext decapsulates to
    // the original shared secret.
    for params in &ALL_PARAMS {
        let mut rng = Rng::new(0x0C0F_BAD5);
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.run(&keygen_program(params, &rng.bytes32())).unwrap();
        let pk = cpu.output("pk").unwrap().to_vec();
        let mut seed_s = [0u8; 32];
        seed_s.copy_from_slice(cpu.output("seed_s").unwrap());
        let mut z = [0u8; 32];
        z.copy_from_slice(cpu.output("z").unwrap());
        let entropy = rng.bytes32();
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.run(&encaps_program(params, &pk, &entropy)).unwrap();
        let ct = cpu.output("ct").unwrap().to_vec();
        let ss = cpu.output("shared_secret").unwrap().to_vec();

        for case in 0..6 {
            let mut bytes = pk.clone();
            rng.flip_bytes(&mut bytes);
            let mut hw = CentralizedMultiplier::new(256);
            let _ = Coprocessor::new(&mut hw).run(&encaps_program(params, &bytes, &entropy));

            let mut bytes = ct.clone();
            rng.flip_bytes(&mut bytes);
            let mut hw = CentralizedMultiplier::new(256);
            if let Ok((ss_bad, _)) = run_decaps(params, &pk, &seed_s, &z, &bytes, &mut hw) {
                assert!(
                    bytes == ct || ss_bad[..] != ss[..],
                    "{}: mutated ciphertext {case} recovered the shared secret",
                    params.name
                );
            }
        }
    }
}
