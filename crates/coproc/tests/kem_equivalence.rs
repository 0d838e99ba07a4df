//! The coprocessor programs must reproduce the pure-software KEM
//! byte-for-byte: same public keys, ciphertexts and shared secrets for
//! the same seeds — while their cycle breakdowns reproduce the
//! coprocessor economics.

use saber_coproc::executor::Coprocessor;
use saber_coproc::programs::{decaps_program, encaps_program, keygen_program, run_decaps, run_kem};
use saber_core::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier};
use saber_kem::params::{SaberParams, ALL_PARAMS, SABER};
use saber_kem::serialize::{ciphertext_to_bytes, public_key_to_bytes};
use saber_ring::mul::SchoolbookMultiplier;

fn software_reference(
    params: &SaberParams,
    seed: &[u8; 32],
    entropy: &[u8; 32],
) -> (Vec<u8>, Vec<u8>, [u8; 32]) {
    let mut sw = SchoolbookMultiplier;
    let (pk, sk) = saber_kem::keygen(params, seed, &mut sw);
    let (ct, ss) = saber_kem::encaps(&pk, entropy, &mut sw);
    assert_eq!(saber_kem::decaps(&sk, &ct, &mut sw), ss);
    (
        public_key_to_bytes(&pk),
        ciphertext_to_bytes(&ct, params),
        *ss.as_bytes(),
    )
}

#[test]
fn keygen_program_matches_software_all_params() {
    for params in &ALL_PARAMS {
        if params.secret_bound() > 4 {
            continue; // HS-I handles it, but keep one loop; tested below.
        }
        let (pk_sw, _, _) = software_reference(params, &[9; 32], &[1; 32]);
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.run(&keygen_program(params, &[9; 32])).unwrap();
        assert_eq!(cpu.output("pk").unwrap(), &pk_sw[..], "{}", params.name);
    }
}

#[test]
fn keygen_program_lightsaber_on_hs1() {
    // LightSaber (|s| ≤ 5) runs on the shift-add-based HS-I.
    let params = &saber_kem::params::LIGHT_SABER;
    let (pk_sw, _, _) = software_reference(params, &[9; 32], &[1; 32]);
    let mut hw = CentralizedMultiplier::new(512);
    let mut cpu = Coprocessor::new(&mut hw);
    cpu.run(&keygen_program(params, &[9; 32])).unwrap();
    assert_eq!(cpu.output("pk").unwrap(), &pk_sw[..]);
}

#[test]
fn full_kem_flow_on_the_coprocessor() {
    let params = &SABER;
    let seed = [5u8; 32];
    let entropy = [6u8; 32];
    let (pk_sw, ct_sw, ss_sw) = software_reference(params, &seed, &entropy);

    let run = run_kem(
        params,
        &seed,
        &entropy,
        &mut CentralizedMultiplier::new(256),
    )
    .unwrap();
    assert_eq!(run.pk, pk_sw);
    assert_eq!(run.ct, ct_sw, "coprocessor ciphertext differs");
    assert_eq!(run.ss_encaps, ss_sw, "coprocessor shared secret differs");
    // Decaps (host FO comparison around the programs).
    assert_eq!(run.ss_decaps, ss_sw);
    assert!(run.decaps.total() > 0);
}

#[test]
fn decaps_rejects_tampered_ciphertext() {
    let params = &SABER;
    let seed = [5u8; 32];
    let (pk_sw, ct_sw, ss_sw) = software_reference(params, &seed, &[6; 32]);
    let mut hw = CentralizedMultiplier::new(256);
    let mut cpu = Coprocessor::new(&mut hw);
    cpu.run(&keygen_program(params, &seed)).unwrap();
    let mut seed_s = [0u8; 32];
    seed_s.copy_from_slice(cpu.output("seed_s").unwrap());
    let mut z = [0u8; 32];
    z.copy_from_slice(cpu.output("z").unwrap());

    let mut bad_ct = ct_sw.clone();
    bad_ct[0] ^= 1;
    let mut hw2 = CentralizedMultiplier::new(256);
    let (ss, _) = run_decaps(params, &pk_sw, &seed_s, &z, &bad_ct, &mut hw2).unwrap();
    assert_ne!(ss, ss_sw, "tampered ciphertext must be implicitly rejected");
}

#[test]
fn works_with_the_dsp_multiplier_too() {
    // The coprocessor is multiplier-agnostic: swap in HS-II.
    let params = &SABER;
    let (pk_sw, ct_sw, ss_sw) = software_reference(params, &[3; 32], &[4; 32]);
    let mut hw = DspPackedMultiplier::new();
    let mut cpu = Coprocessor::new(&mut hw);
    cpu.run(&keygen_program(params, &[3; 32])).unwrap();
    assert_eq!(cpu.output("pk").unwrap(), &pk_sw[..]);

    let mut hw2 = DspPackedMultiplier::new();
    let mut cpu2 = Coprocessor::new(&mut hw2);
    cpu2.run(&encaps_program(params, &pk_sw, &[4; 32])).unwrap();
    assert_eq!(cpu2.output("ct").unwrap(), &ct_sw[..]);
    assert_eq!(cpu2.output("shared_secret").unwrap(), &ss_sw[..]);
}

#[test]
fn cycle_breakdown_reproduces_the_motivation() {
    // §1: multiplication is roughly half the budget on the HS
    // coprocessor; the measured breakdown must land in that regime and
    // be dominated by hashing + multiplication.
    let params = &SABER;
    let (pk_sw, _, _) = software_reference(params, &[3; 32], &[4; 32]);
    let mut hw = CentralizedMultiplier::new(256);
    let mut cpu = Coprocessor::new(&mut hw);
    cpu.run(&encaps_program(params, &pk_sw, &[4; 32])).unwrap();
    let b = cpu.cycles();
    let share = b.multiplication_share();
    assert!(
        (0.35..=0.70).contains(&share),
        "multiplication share = {share:.2} of {} cycles",
        b.total()
    );
    assert!(b.hashing > b.data_movement);
}

#[test]
fn deterministic_across_runs_and_multipliers() {
    let params = &SABER;
    let run = |hw: &mut dyn HwMultiplier| {
        let mut cpu = Coprocessor::new(hw);
        cpu.run(&keygen_program(params, &[11; 32])).unwrap();
        cpu.output("pk").unwrap().to_vec()
    };
    let mut hs1a = CentralizedMultiplier::new(256);
    let mut hs1b = CentralizedMultiplier::new(512);
    let mut hs2 = DspPackedMultiplier::new();
    let pk1 = run(&mut hs1a);
    assert_eq!(pk1, run(&mut hs1b));
    assert_eq!(pk1, run(&mut hs2));
}

#[test]
fn decaps_program_builds_for_all_params() {
    for params in &ALL_PARAMS {
        let p = decaps_program(
            params,
            &vec![0u8; params.public_key_bytes()],
            &[0; 32],
            &vec![0u8; params.ciphertext_bytes()],
        );
        assert!(p.len() > 20);
    }
}
