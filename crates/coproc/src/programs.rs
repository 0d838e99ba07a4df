//! Saber KEM programs for the coprocessor, plus host-side wrappers that
//! run them and perform the (host-resident) FO comparison.
//!
//! Register conventions: r0–r15 scratch bytes, r16+ polynomials,
//! r32+ secrets. Each wrapper returns the byte outputs together with the
//! executor's cycle breakdown, and the tests assert byte-identity with
//! the pure-software `saber-kem` implementation.

use saber_core::HwMultiplier;
use saber_kem::params::SaberParams;
use saber_ring::rounding::{h1, h2};
use saber_ring::{EPS_P, EPS_Q};

use crate::executor::{Coprocessor, CycleBreakdown, ExecError};
use crate::isa::{Instruction as I, Program, Reg};

// Register map.
const R_SEED: Reg = Reg(0);
const R_TAG: Reg = Reg(1);
const R_T0: Reg = Reg(2);
const R_T1: Reg = Reg(3);
const R_SEED_A: Reg = Reg(4);
const R_SEED_S: Reg = Reg(5);
const R_Z: Reg = Reg(6);
const R_MATRIX: Reg = Reg(7);
const R_SECRET_STREAM: Reg = Reg(8);
const R_B_BYTES: Reg = Reg(9);
const R_PK: Reg = Reg(10);
const R_PKH: Reg = Reg(11);
const R_M: Reg = Reg(12);
const R_G_IN: Reg = Reg(13);
const R_G_OUT: Reg = Reg(14);
const R_KHAT: Reg = Reg(15);
const R_COINS: Reg = Reg(16);
const R_CT: Reg = Reg(17);
const R_K_IN: Reg = Reg(18);
const R_K: Reg = Reg(19);
const R_BP_BYTES: Reg = Reg(20);
const R_CM_BYTES: Reg = Reg(21);
const R_ENTROPY: Reg = Reg(23);
const P_ACC: Reg = Reg(40);
const P_A: Reg = Reg(41);
const P_B: Reg = Reg(42);
const P_CM: Reg = Reg(43);
const S_BASE: u8 = 48;

fn s_reg(k: usize) -> Reg {
    Reg(S_BASE + k as u8)
}

/// Emits instructions sampling the secret vector from `stream_reg`.
fn emit_sample_secrets(p: &mut Program, params: &SaberParams, stream: Reg) {
    for k in 0..params.rank {
        p.push(I::Sample {
            dst: s_reg(k),
            src: stream,
            index: k,
            mu: params.mu,
        });
    }
}

/// Emits the rounded matrix-vector product `((M·s + h) >> 3) mod p`,
/// packing each row (10-bit) into `dst_bytes`. `transpose` selects
/// `Aᵀ·s` (keygen) vs `A·s` (encryption).
fn emit_matvec_rounded(
    p: &mut Program,
    params: &SaberParams,
    matrix_stream: Reg,
    dst_bytes: Reg,
    transpose: bool,
) {
    for row in 0..params.rank {
        p.push(I::ClearPoly { dst: P_ACC });
        for col in 0..params.rank {
            let index = if transpose {
                col * params.rank + row
            } else {
                row * params.rank + col
            };
            p.push(I::UnpackPoly {
                dst: P_A,
                src: matrix_stream,
                index,
            });
            p.push(I::MacPoly {
                acc: P_ACC,
                a: P_A,
                s: s_reg(col),
            });
        }
        p.push(I::AddConst {
            poly: P_ACC,
            value: h1(),
        });
        p.push(I::ShiftRight {
            poly: P_ACC,
            shift: EPS_Q - EPS_P,
        });
        p.push(I::Mask {
            poly: P_ACC,
            bits: EPS_P,
        });
        p.push(I::PackPoly {
            dst: dst_bytes,
            src: P_ACC,
            bits: EPS_P,
        });
    }
}

/// Emits the IND-CPA encryption of the 32-byte message in `R_M` with the
/// coins in `R_COINS` against the public key split into
/// (`R_SEED_A`, `R_B_BYTES`), leaving the serialized ciphertext in
/// `R_CT`.
fn emit_encrypt(p: &mut Program, params: &SaberParams) {
    // Expand A and sample s'.
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: vec![0x41],
    });
    p.push(I::Concat {
        dst: R_T0,
        a: R_SEED_A,
        b: R_TAG,
    });
    p.push(I::Shake128 {
        dst: R_MATRIX,
        src: R_T0,
        len: params.rank * params.rank * params.matrix_bytes_per_poly(),
    });
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: vec![0x53],
    });
    p.push(I::Concat {
        dst: R_T1,
        a: R_COINS,
        b: R_TAG,
    });
    p.push(I::Shake128 {
        dst: R_SECRET_STREAM,
        src: R_T1,
        len: params.rank * params.secret_bytes_per_poly(),
    });
    emit_sample_secrets(p, params, R_SECRET_STREAM);

    // b' = ((A·s' + h) >> 3) mod p, packed into the ciphertext.
    p.push(I::LoadBytes {
        dst: R_CT,
        bytes: Vec::new(),
    });
    emit_matvec_rounded(p, params, R_MATRIX, R_CT, false);

    // v' = bᵀ·(s' mod p) + h1 mod p; c_m = (v' − m·2^9) >> (εp − εT).
    p.push(I::ClearPoly { dst: P_ACC });
    for k in 0..params.rank {
        p.push(I::UnpackPoly10 {
            dst: P_B,
            src: R_B_BYTES,
            index: k,
        });
        p.push(I::MacPoly {
            acc: P_ACC,
            a: P_B,
            s: s_reg(k),
        });
    }
    p.push(I::Mask {
        poly: P_ACC,
        bits: EPS_P,
    });
    p.push(I::AddConst {
        poly: P_ACC,
        value: h1(),
    });
    p.push(I::Mask {
        poly: P_ACC,
        bits: EPS_P,
    });
    p.push(I::SubMessage {
        poly: P_ACC,
        msg: R_M,
    });
    p.push(I::ShiftRight {
        poly: P_ACC,
        shift: EPS_P - params.eps_t,
    });
    p.push(I::Mask {
        poly: P_ACC,
        bits: params.eps_t,
    });
    p.push(I::PackPoly {
        dst: R_CT,
        src: P_ACC,
        bits: params.eps_t,
    });
}

/// Builds the key-generation program: derives the three seeds, expands
/// `A`, samples `s`, computes `b`, and stores `pk`, `pk_hash`, `z` and
/// `seed_s` (the last standing in for the packed secret DMA-out).
#[must_use]
pub fn keygen_program(params: &SaberParams, seed: &[u8; 32]) -> Program {
    let mut p = Program::new();
    p.push(I::LoadBytes {
        dst: R_SEED,
        bytes: seed.to_vec(),
    });
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: b"saber-kem-keygen".to_vec(),
    });
    p.push(I::Concat {
        dst: R_T0,
        a: R_SEED,
        b: R_TAG,
    });
    p.push(I::Shake256 {
        dst: R_T1,
        src: R_T0,
        len: 96,
    });
    p.push(I::SplitBytes {
        dst_lo: R_SEED_A,
        dst_hi: R_T0,
        src: R_T1,
        at: 32,
    });
    p.push(I::SplitBytes {
        dst_lo: R_SEED_S,
        dst_hi: R_Z,
        src: R_T0,
        at: 32,
    });

    // Expand A and sample s.
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: vec![0x41],
    });
    p.push(I::Concat {
        dst: R_T0,
        a: R_SEED_A,
        b: R_TAG,
    });
    p.push(I::Shake128 {
        dst: R_MATRIX,
        src: R_T0,
        len: params.rank * params.rank * params.matrix_bytes_per_poly(),
    });
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: vec![0x53],
    });
    p.push(I::Concat {
        dst: R_T1,
        a: R_SEED_S,
        b: R_TAG,
    });
    p.push(I::Shake128 {
        dst: R_SECRET_STREAM,
        src: R_T1,
        len: params.rank * params.secret_bytes_per_poly(),
    });
    emit_sample_secrets(&mut p, params, R_SECRET_STREAM);

    // b = ((Aᵀ·s + h) >> 3) mod p; pk = seed_A ‖ b.
    p.push(I::LoadBytes {
        dst: R_B_BYTES,
        bytes: Vec::new(),
    });
    emit_matvec_rounded(&mut p, params, R_MATRIX, R_B_BYTES, true);
    p.push(I::Concat {
        dst: R_PK,
        a: R_SEED_A,
        b: R_B_BYTES,
    });
    p.push(I::Sha3_256 {
        dst: R_PKH,
        src: R_PK,
    });
    p.push(I::StoreBytes {
        name: "pk",
        src: R_PK,
    });
    p.push(I::StoreBytes {
        name: "pk_hash",
        src: R_PKH,
    });
    p.push(I::StoreBytes {
        name: "z",
        src: R_Z,
    });
    p.push(I::StoreBytes {
        name: "seed_s",
        src: R_SEED_S,
    });
    p
}

/// Builds the encapsulation program for a serialized public key.
#[must_use]
pub fn encaps_program(params: &SaberParams, pk: &[u8], entropy: &[u8; 32]) -> Program {
    let mut p = Program::new();
    p.push(I::LoadBytes {
        dst: R_ENTROPY,
        bytes: entropy.to_vec(),
    });
    p.push(I::Sha3_256 {
        dst: R_M,
        src: R_ENTROPY,
    });
    p.push(I::LoadBytes {
        dst: R_PK,
        bytes: pk.to_vec(),
    });
    p.push(I::Sha3_256 {
        dst: R_PKH,
        src: R_PK,
    });
    p.push(I::Concat {
        dst: R_G_IN,
        a: R_PKH,
        b: R_M,
    });
    p.push(I::Sha3_512 {
        dst: R_G_OUT,
        src: R_G_IN,
    });
    p.push(I::SplitBytes {
        dst_lo: R_KHAT,
        dst_hi: R_COINS,
        src: R_G_OUT,
        at: 32,
    });
    p.push(I::SplitBytes {
        dst_lo: R_SEED_A,
        dst_hi: R_B_BYTES,
        src: R_PK,
        at: 32,
    });
    emit_encrypt(&mut p, params);
    p.push(I::Concat {
        dst: R_K_IN,
        a: R_KHAT,
        b: R_CT,
    });
    p.push(I::Sha3_256 {
        dst: R_K,
        src: R_K_IN,
    });
    p.push(I::StoreBytes {
        name: "ct",
        src: R_CT,
    });
    p.push(I::StoreBytes {
        name: "shared_secret",
        src: R_K,
    });
    p
}

/// Builds the decryption + re-encryption program; the host performs the
/// constant-time comparison and final key selection (as the control
/// processor does around the coprocessor).
#[must_use]
pub fn decaps_program(params: &SaberParams, pk: &[u8], seed_s: &[u8; 32], ct: &[u8]) -> Program {
    let mut p = Program::new();
    // Re-derive s from seed_s (standing in for the packed-secret DMA).
    p.push(I::LoadBytes {
        dst: R_SEED_S,
        bytes: seed_s.to_vec(),
    });
    p.push(I::LoadBytes {
        dst: R_TAG,
        bytes: vec![0x53],
    });
    p.push(I::Concat {
        dst: R_T0,
        a: R_SEED_S,
        b: R_TAG,
    });
    p.push(I::Shake128 {
        dst: R_SECRET_STREAM,
        src: R_T0,
        len: params.rank * params.secret_bytes_per_poly(),
    });
    emit_sample_secrets(&mut p, params, R_SECRET_STREAM);

    // Split the ciphertext and decrypt: v = b'ᵀ·s mod p.
    p.push(I::LoadBytes {
        dst: R_CT,
        bytes: ct.to_vec(),
    });
    p.push(I::SplitBytes {
        dst_lo: R_BP_BYTES,
        dst_hi: R_CM_BYTES,
        src: R_CT,
        at: params.rank * 256 * 10 / 8,
    });
    p.push(I::ClearPoly { dst: P_ACC });
    for k in 0..params.rank {
        p.push(I::UnpackPoly10 {
            dst: P_B,
            src: R_BP_BYTES,
            index: k,
        });
        p.push(I::MacPoly {
            acc: P_ACC,
            a: P_B,
            s: s_reg(k),
        });
    }
    p.push(I::Mask {
        poly: P_ACC,
        bits: EPS_P,
    });
    p.push(I::AddConst {
        poly: P_ACC,
        value: h2(params.eps_t),
    });
    p.push(I::UnpackPolyBits {
        dst: P_CM,
        src: R_CM_BYTES,
        bits: params.eps_t,
        index: 0,
    });
    p.push(I::SubShifted {
        poly: P_ACC,
        other: P_CM,
        shift: EPS_P - params.eps_t,
    });
    p.push(I::Mask {
        poly: P_ACC,
        bits: EPS_P,
    });
    p.push(I::ShiftRight {
        poly: P_ACC,
        shift: EPS_P - 1,
    });
    p.push(I::ExtractMessage {
        dst: R_M,
        src: P_ACC,
    });
    p.push(I::StoreBytes {
        name: "m_prime",
        src: R_M,
    });

    // Re-encrypt m' with coins from G(pk_hash ‖ m').
    p.push(I::LoadBytes {
        dst: R_PK,
        bytes: pk.to_vec(),
    });
    p.push(I::Sha3_256 {
        dst: R_PKH,
        src: R_PK,
    });
    p.push(I::Concat {
        dst: R_G_IN,
        a: R_PKH,
        b: R_M,
    });
    p.push(I::Sha3_512 {
        dst: R_G_OUT,
        src: R_G_IN,
    });
    p.push(I::SplitBytes {
        dst_lo: R_KHAT,
        dst_hi: R_COINS,
        src: R_G_OUT,
        at: 32,
    });
    p.push(I::SplitBytes {
        dst_lo: R_SEED_A,
        dst_hi: R_B_BYTES,
        src: R_PK,
        at: 32,
    });
    emit_encrypt(&mut p, params);
    p.push(I::StoreBytes {
        name: "ct_prime",
        src: R_CT,
    });
    p.push(I::StoreBytes {
        name: "khat_prime",
        src: R_KHAT,
    });
    p
}

/// Host wrapper: runs decapsulation end-to-end, including the FO
/// comparison and final key derivation.
///
/// # Errors
///
/// Propagates [`ExecError`] from the program: a truncated ciphertext or
/// public key is [`ExecError::ShortRegister`]; any other error is a bug
/// in the program.
pub fn run_decaps(
    params: &SaberParams,
    pk: &[u8],
    seed_s: &[u8; 32],
    z: &[u8; 32],
    ct: &[u8],
    hw: &mut dyn HwMultiplier,
) -> Result<([u8; 32], CycleBreakdown), ExecError> {
    let mut cpu = Coprocessor::new(hw);
    cpu.run(&decaps_program(params, pk, seed_s, ct))?;
    let ct_prime = cpu.output("ct_prime").expect("program stores ct'").to_vec();
    let khat_prime: Vec<u8> = cpu.output("khat_prime").expect("stored").to_vec();

    // Host-side FO selection, then one final hash on the coprocessor.
    let selector = if ct_prime == ct {
        &khat_prime[..]
    } else {
        &z[..]
    };
    let mut tail = Program::new();
    tail.push(I::LoadBytes {
        dst: R_KHAT,
        bytes: selector.to_vec(),
    });
    tail.push(I::LoadBytes {
        dst: R_CT,
        bytes: ct.to_vec(),
    });
    tail.push(I::Concat {
        dst: R_K_IN,
        a: R_KHAT,
        b: R_CT,
    });
    tail.push(I::Sha3_256 {
        dst: R_K,
        src: R_K_IN,
    });
    tail.push(I::StoreBytes {
        name: "shared_secret",
        src: R_K,
    });
    cpu.run(&tail)?;
    let mut key = [0u8; 32];
    key.copy_from_slice(cpu.output("shared_secret").expect("stored"));
    Ok((key, cpu.cycles()))
}

/// The outputs and cycle breakdowns of one [`run_kem`] key exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KemRun {
    /// The public key keygen stores.
    pub pk: Vec<u8>,
    /// The ciphertext encapsulation stores.
    pub ct: Vec<u8>,
    /// The sender's shared secret, from encapsulation.
    pub ss_encaps: [u8; 32],
    /// The receiver's shared secret, from [`run_decaps`].
    pub ss_decaps: [u8; 32],
    /// Keygen's cycles.
    pub keygen: CycleBreakdown,
    /// Encapsulation's cycles.
    pub encaps: CycleBreakdown,
    /// Decapsulation's cycles, the FO tail included.
    pub decaps: CycleBreakdown,
}

/// Runs one Saber key exchange as coprocessor programs on `hw`: keygen
/// from `seed`, encapsulation of `entropy` to its public key, then
/// decapsulation of that ciphertext.
///
/// # Errors
///
/// Propagates [`ExecError`] from any of the programs, which is a bug in
/// the program: every operand here is the right length.
pub fn run_kem(
    params: &SaberParams,
    seed: &[u8; 32],
    entropy: &[u8; 32],
    hw: &mut dyn HwMultiplier,
) -> Result<KemRun, ExecError> {
    let bytes32 = |cpu: &Coprocessor<'_>, name: &str| -> [u8; 32] {
        let mut out = [0u8; 32];
        out.copy_from_slice(cpu.output(name).expect("program stores it"));
        out
    };

    let mut cpu = Coprocessor::new(hw);
    cpu.run(&keygen_program(params, seed))?;
    let pk = cpu.output("pk").expect("program stores pk").to_vec();
    let (seed_s, z) = (bytes32(&cpu, "seed_s"), bytes32(&cpu, "z"));
    let keygen = cpu.cycles();

    let mut cpu = Coprocessor::new(hw);
    cpu.run(&encaps_program(params, &pk, entropy))?;
    let ct = cpu.output("ct").expect("program stores ct").to_vec();
    let ss_encaps = bytes32(&cpu, "shared_secret");
    let encaps = cpu.cycles();

    let (ss_decaps, decaps) = run_decaps(params, &pk, &seed_s, &z, &ct, hw)?;
    Ok(KemRun {
        pk,
        ct,
        ss_encaps,
        ss_decaps,
        keygen,
        encaps,
        decaps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_core::CentralizedMultiplier;
    use saber_kem::serialize::public_key_to_bytes;

    #[test]
    fn programs_have_sensible_sizes() {
        let params = saber_kem::params::SABER;
        let kg = keygen_program(&params, &[1; 32]);
        // ℓ² unpacks + ℓ² MACs dominate.
        assert!(
            kg.len() > 30,
            "keygen program has {} instructions",
            kg.len()
        );
        let enc = encaps_program(&params, &vec![0u8; params.public_key_bytes()], &[2; 32]);
        assert!(enc.len() > 40);
    }

    #[test]
    fn truncated_ciphertext_is_an_error_not_a_panic() {
        let params = saber_kem::params::SABER;
        let mut sw = saber_ring::mul::SchoolbookMultiplier;
        let (pk, _) = saber_kem::keygen(&params, &[3; 32], &mut sw);
        let pk = public_key_to_bytes(&pk);
        let mut hw = CentralizedMultiplier::new(256);
        let err = run_decaps(&params, &pk, &[4; 32], &[5; 32], &[0u8; 100], &mut hw).unwrap_err();
        // b' is the ciphertext's first rank·320 bytes; its first
        // polynomial already runs past the 100 bytes held.
        assert_eq!(
            err,
            ExecError::ShortRegister {
                reg: R_BP_BYTES,
                needed: 320,
                held: 100
            }
        );
    }

    #[test]
    fn truncated_public_key_is_an_error_not_a_panic() {
        let params = saber_kem::params::SABER;
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        let err = cpu
            .run(&encaps_program(&params, &[0u8; 100], &[6; 32]))
            .unwrap_err();
        // The 32-byte seed_A leaves 68 bytes of b.
        assert_eq!(
            err,
            ExecError::ShortRegister {
                reg: R_B_BYTES,
                needed: 320,
                held: 68
            }
        );
    }
}
