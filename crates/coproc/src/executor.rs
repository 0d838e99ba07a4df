//! The coprocessor executor: runs a [`Program`] over the cycle-accurate
//! component models and accumulates a per-class cycle breakdown.
//!
//! Execution is *functional and measured at once*: hash instructions run
//! on the Keccak core (bit-identical to the software sponge), sampling
//! runs on the sampler core, multiplications run on the pluggable
//! multiplier architecture, and data movement is charged at the 64-bit
//! bus rate — so the outputs can be compared byte-for-byte against the
//! pure-software KEM while the totals reproduce the coprocessor's cycle
//! economics.

use std::collections::BTreeMap;
use std::fmt;

use saber_core::HwMultiplier;
use saber_hw::keccak_core::sponge_on_core;
use saber_hw::SamplerCore;
use saber_ring::{packing, PolyQ, SecretPoly, N};

use crate::isa::{Instruction, Program, Reg};

/// A typed buffer in the register file.
///
/// Polynomials are boxed: a `PolyQ` is 512 bytes and registers move
/// through a `BTreeMap`, so keeping the variants pointer-sized avoids
/// large copies on every insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A byte string.
    Bytes(Vec<u8>),
    /// A mod-q polynomial.
    Poly(Box<PolyQ>),
    /// A small secret polynomial.
    Secret(Box<SecretPoly>),
}

/// Error raised when a program misuses the register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Read of a register that was never written.
    UnsetRegister(Reg),
    /// The register holds a different type than the instruction expects.
    TypeMismatch {
        /// The register.
        reg: Reg,
        /// What the instruction expected.
        expected: &'static str,
    },
    /// A byte register is shorter than the range the instruction reads
    /// (a truncated public key or ciphertext, for instance).
    ShortRegister {
        /// The register.
        reg: Reg,
        /// Bytes the instruction needs the register to hold.
        needed: usize,
        /// Bytes the register holds.
        held: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnsetRegister(reg) => write!(f, "register {reg} read before write"),
            ExecError::TypeMismatch { reg, expected } => {
                write!(f, "register {reg} does not hold a {expected}")
            }
            ExecError::ShortRegister { reg, needed, held } => {
                write!(
                    f,
                    "register {reg} holds {held} bytes; the instruction reads {needed}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Cycle accounting by work class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Keccak-core cycles (absorb/squeeze bus + rounds).
    pub hashing: u64,
    /// Sampler cycles beyond the overlapped XOF stream.
    pub sampling: u64,
    /// Multiplier cycles (compute + operand loads).
    pub multiplication: u64,
    /// Vectorized polynomial operations (add/shift/pack at bus rate).
    pub poly_ops: u64,
    /// Host DMA and register moves.
    pub data_movement: u64,
}

impl CycleBreakdown {
    /// Total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hashing + self.sampling + self.multiplication + self.poly_ops + self.data_movement
    }

    /// Fraction of the total spent in the multiplier — the quantity the
    /// paper's §1 motivation is about.
    #[must_use]
    pub fn multiplication_share(&self) -> f64 {
        self.multiplication as f64 / self.total() as f64
    }
}

/// Cycles to stream `bytes` over the 64-bit bus.
fn bus_cycles(bytes: usize) -> u64 {
    bytes.div_ceil(8) as u64
}

/// Cycles for a vectorized mod-q polynomial operation (52 words + short
/// pipeline).
const POLY_OP_CYCLES: u64 = 54;

/// The coprocessor: register file + component engines.
pub struct Coprocessor<'m> {
    multiplier: &'m mut dyn HwMultiplier,
    registers: BTreeMap<Reg, Value>,
    outputs: BTreeMap<&'static str, Vec<u8>>,
    cycles: CycleBreakdown,
    instructions_retired: u64,
}

impl fmt::Debug for Coprocessor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Coprocessor({} regs live, {} instructions retired, {} cycles)",
            self.registers.len(),
            self.instructions_retired,
            self.cycles.total()
        )
    }
}

impl<'m> Coprocessor<'m> {
    /// Creates a coprocessor around the given multiplier engine.
    pub fn new(multiplier: &'m mut dyn HwMultiplier) -> Self {
        Self {
            multiplier,
            registers: BTreeMap::new(),
            outputs: BTreeMap::new(),
            cycles: CycleBreakdown::default(),
            instructions_retired: 0,
        }
    }

    /// The accumulated cycle breakdown.
    #[must_use]
    pub fn cycles(&self) -> CycleBreakdown {
        self.cycles
    }

    /// A named output stored by the program, if present.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<&[u8]> {
        self.outputs.get(name).map(Vec::as_slice)
    }

    fn bytes(&self, reg: Reg) -> Result<&[u8], ExecError> {
        match self.registers.get(&reg) {
            Some(Value::Bytes(b)) => Ok(b),
            Some(_) => Err(ExecError::TypeMismatch {
                reg,
                expected: "byte buffer",
            }),
            None => Err(ExecError::UnsetRegister(reg)),
        }
    }

    /// Entry `index` of the byte register `reg` read as consecutive
    /// `len`-byte entries: bytes `index·len .. (index + 1)·len`.
    fn entry(&self, reg: Reg, index: usize, len: usize) -> Result<&[u8], ExecError> {
        let bytes = self.bytes(reg)?;
        let needed = index.saturating_add(1).saturating_mul(len);
        if bytes.len() < needed {
            return Err(ExecError::ShortRegister {
                reg,
                needed,
                held: bytes.len(),
            });
        }
        Ok(&bytes[needed - len..needed])
    }

    fn poly(&self, reg: Reg) -> Result<&PolyQ, ExecError> {
        match self.registers.get(&reg) {
            Some(Value::Poly(p)) => Ok(p),
            Some(_) => Err(ExecError::TypeMismatch {
                reg,
                expected: "polynomial",
            }),
            None => Err(ExecError::UnsetRegister(reg)),
        }
    }

    fn secret(&self, reg: Reg) -> Result<&SecretPoly, ExecError> {
        match self.registers.get(&reg) {
            Some(Value::Secret(s)) => Ok(s),
            Some(_) => Err(ExecError::TypeMismatch {
                reg,
                expected: "secret",
            }),
            None => Err(ExecError::UnsetRegister(reg)),
        }
    }

    /// Executes a whole program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecError`] encountered; the register file is
    /// left in its partial state for debugging.
    pub fn run(&mut self, program: &Program) -> Result<(), ExecError> {
        for instruction in &program.instructions {
            self.step(instruction)?;
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on register-file misuse.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, instruction: &Instruction) -> Result<(), ExecError> {
        match instruction {
            Instruction::LoadBytes { dst, bytes } => {
                self.cycles.data_movement += bus_cycles(bytes.len());
                self.registers.insert(*dst, Value::Bytes(bytes.clone()));
            }
            Instruction::Concat { dst, a, b } => {
                let mut out = self.bytes(*a)?.to_vec();
                out.extend_from_slice(self.bytes(*b)?);
                self.cycles.data_movement += bus_cycles(out.len());
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::SplitBytes {
                dst_lo,
                dst_hi,
                src,
                at,
            } => {
                let src_bytes = self.bytes(*src)?.to_vec();
                self.cycles.data_movement += bus_cycles(src_bytes.len());
                let (lo, hi) = src_bytes.split_at((*at).min(src_bytes.len()));
                self.registers.insert(*dst_lo, Value::Bytes(lo.to_vec()));
                self.registers.insert(*dst_hi, Value::Bytes(hi.to_vec()));
            }
            Instruction::Shake128 { dst, src, len } => {
                let (out, cycles) = sponge_on_core(self.bytes(*src)?, *len, 168, 0x1f);
                self.cycles.hashing += cycles;
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::Shake256 { dst, src, len } => {
                let (out, cycles) = sponge_on_core(self.bytes(*src)?, *len, 136, 0x1f);
                self.cycles.hashing += cycles;
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::Sha3_256 { dst, src } => {
                let (out, cycles) = sponge_on_core(self.bytes(*src)?, 32, 136, 0x06);
                self.cycles.hashing += cycles;
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::Sha3_512 { dst, src } => {
                let (out, cycles) = sponge_on_core(self.bytes(*src)?, 64, 72, 0x06);
                self.cycles.hashing += cycles;
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::UnpackPoly { dst, src, index } => {
                let per_poly = N * 13 / 8;
                let slice = self.entry(*src, *index, per_poly)?;
                let poly = packing::poly_from_bytes::<13>(slice);
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*dst, Value::Poly(Box::new(poly)));
            }
            Instruction::UnpackPoly10 { dst, src, index } => {
                let per_poly = N * 10 / 8;
                let slice = self.entry(*src, *index, per_poly)?;
                let poly = packing::poly_from_bytes::<10>(slice).embed_to::<13>();
                self.cycles.poly_ops += bus_cycles(per_poly) + 2;
                self.registers.insert(*dst, Value::Poly(Box::new(poly)));
            }
            Instruction::UnpackPolyBits {
                dst,
                src,
                bits,
                index,
            } => {
                let per_poly = N * *bits as usize / 8;
                let slice = self.entry(*src, *index, per_poly)?;
                let coeffs = packing::unpack_bits(slice, *bits, N);
                let poly = PolyQ::from_fn(|i| coeffs[i]);
                self.cycles.poly_ops += bus_cycles(per_poly) + 2;
                self.registers.insert(*dst, Value::Poly(Box::new(poly)));
            }
            Instruction::Sample {
                dst,
                src,
                index,
                mu,
            } => {
                let per_poly = N * *mu as usize / 8;
                let slice = self.entry(*src, *index, per_poly)?;
                let mut sampler = SamplerCore::new(*mu);
                let mut coeffs = Vec::with_capacity(N);
                for chunk in slice.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    coeffs.extend(sampler.push_word(u64::from_le_bytes(word)));
                }
                coeffs.truncate(N);
                // The sampler overlaps the XOF squeeze; its own drain is
                // what remains.
                self.cycles.sampling += 2;
                let secret = SecretPoly::from_fn(|i| coeffs[i]);
                self.registers.insert(*dst, Value::Secret(Box::new(secret)));
            }
            Instruction::ClearPoly { dst } => {
                self.cycles.poly_ops += 1;
                self.registers
                    .insert(*dst, Value::Poly(Box::new(PolyQ::zero())));
            }
            Instruction::MacPoly { acc, a, s } => {
                let a_poly = self.poly(*a)?.clone();
                let s_poly = self.secret(*s)?.clone();
                let product = self.multiplier.multiply(&a_poly, &s_poly);
                // Compute plus operand loads (inner-product usage: the
                // accumulator drain is paid by the eventual PackPoly).
                self.cycles.multiplication +=
                    self.multiplier.report().cycles.compute_cycles + (16 + 1) + (13 + 1);
                let acc_poly = self.poly(*acc)?;
                let sum = acc_poly + &product;
                self.registers.insert(*acc, Value::Poly(Box::new(sum)));
            }
            Instruction::AddConst { poly, value } => {
                let updated = self.poly(*poly)?.add_constant(*value);
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*poly, Value::Poly(Box::new(updated)));
            }
            Instruction::ShiftRight { poly, shift } => {
                let p = self.poly(*poly)?;
                let updated = PolyQ::from_fn(|i| p.coeff(i) >> shift);
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*poly, Value::Poly(Box::new(updated)));
            }
            Instruction::Mask { poly, bits } => {
                let mask = ((1u32 << bits) - 1) as u16;
                let p = self.poly(*poly)?;
                let updated = PolyQ::from_fn(|i| p.coeff(i) & mask);
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*poly, Value::Poly(Box::new(updated)));
            }
            Instruction::PackPoly { dst, src, bits } => {
                let p = self.poly(*src)?;
                let coeffs: Vec<u16> = (0..N)
                    .map(|i| p.coeff(i) & (((1u32 << bits) - 1) as u16))
                    .collect();
                let packed = packing::pack_bits(&coeffs, *bits);
                self.cycles.poly_ops += bus_cycles(packed.len()) + 2;
                let mut out = match self.registers.get(dst) {
                    Some(Value::Bytes(b)) => b.clone(),
                    _ => Vec::new(),
                };
                out.extend_from_slice(&packed);
                self.registers.insert(*dst, Value::Bytes(out));
            }
            Instruction::SubMessage { poly, msg } => {
                let mut msg_arr = [0u8; 32];
                msg_arr.copy_from_slice(self.entry(*msg, 0, 32)?);
                let m_poly = packing::message_to_poly(&msg_arr);
                let p = self.poly(*poly)?;
                let updated =
                    PolyQ::from_fn(|i| p.coeff(i).wrapping_sub(m_poly.coeff(i) << 9) & 0x3ff);
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*poly, Value::Poly(Box::new(updated)));
            }
            Instruction::SubShifted { poly, other, shift } => {
                let o = self.poly(*other)?.clone();
                let p = self.poly(*poly)?;
                let updated = PolyQ::from_fn(|i| p.coeff(i).wrapping_sub(o.coeff(i) << shift));
                self.cycles.poly_ops += POLY_OP_CYCLES;
                self.registers.insert(*poly, Value::Poly(Box::new(updated)));
            }
            Instruction::ExtractMessage { dst, src } => {
                let p = self.poly(*src)?;
                let mut msg = [0u8; 32];
                for i in 0..N {
                    msg[i / 8] |= ((p.coeff(i) & 1) as u8) << (i % 8);
                }
                self.cycles.poly_ops += bus_cycles(32) + 2;
                self.registers.insert(*dst, Value::Bytes(msg.to_vec()));
            }
            Instruction::StoreBytes { name, src } => {
                let bytes = self.bytes(*src)?.to_vec();
                self.cycles.data_movement += bus_cycles(bytes.len());
                self.outputs.insert(name, bytes);
            }
        }
        self.instructions_retired += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_core::CentralizedMultiplier;

    #[test]
    fn basic_dataflow() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        let mut p = Program::new();
        p.push(Instruction::LoadBytes {
            dst: Reg(0),
            bytes: b"abc".to_vec(),
        })
        .push(Instruction::Sha3_256 {
            dst: Reg(1),
            src: Reg(0),
        })
        .push(Instruction::StoreBytes {
            name: "digest",
            src: Reg(1),
        });
        cpu.run(&p).unwrap();
        assert_eq!(
            cpu.output("digest").unwrap(),
            &saber_keccak::Sha3_256::digest(b"abc")[..]
        );
        assert!(cpu.cycles().hashing >= 24);
        assert!(format!("{cpu:?}").contains("3 instructions retired"));
    }

    #[test]
    fn zero_length_shake_squeezes_nothing() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.step(&Instruction::LoadBytes {
            dst: Reg(0),
            bytes: vec![9; 32],
        })
        .unwrap();
        cpu.step(&Instruction::Shake128 {
            dst: Reg(1),
            src: Reg(0),
            len: 0,
        })
        .unwrap();
        cpu.step(&Instruction::Shake256 {
            dst: Reg(2),
            src: Reg(0),
            len: 0,
        })
        .unwrap();
        assert!(cpu.bytes(Reg(1)).unwrap().is_empty());
        assert!(cpu.bytes(Reg(2)).unwrap().is_empty());
        // Only the absorb phase costs: one block each, its rate words
        // written over the bus and permuted.
        assert_eq!(cpu.cycles().hashing, (21 + 24) + (17 + 24));
    }

    #[test]
    fn unset_register_is_reported() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        let err = cpu
            .step(&Instruction::Sha3_256 {
                dst: Reg(1),
                src: Reg(9),
            })
            .unwrap_err();
        assert_eq!(err, ExecError::UnsetRegister(Reg(9)));
        assert!(err.to_string().contains("r9"));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.step(&Instruction::ClearPoly { dst: Reg(0) }).unwrap();
        let err = cpu
            .step(&Instruction::Sha3_256 {
                dst: Reg(1),
                src: Reg(0),
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::TypeMismatch { .. }));
    }

    #[test]
    fn short_byte_registers_are_reported() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        cpu.step(&Instruction::LoadBytes {
            dst: Reg(0),
            bytes: vec![0; 500],
        })
        .unwrap();
        // Entry 1 of 416-byte polynomials ends at byte 832.
        let err = cpu
            .step(&Instruction::UnpackPoly {
                dst: Reg(1),
                src: Reg(0),
                index: 1,
            })
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::ShortRegister {
                reg: Reg(0),
                needed: 832,
                held: 500
            }
        );
        assert!(err.to_string().contains("r0 holds 500 bytes"));
        // Entry 0 fits and still decodes.
        cpu.step(&Instruction::UnpackPoly {
            dst: Reg(1),
            src: Reg(0),
            index: 0,
        })
        .unwrap();
        // A message shorter than 32 bytes.
        cpu.step(&Instruction::LoadBytes {
            dst: Reg(2),
            bytes: vec![0; 31],
        })
        .unwrap();
        let err = cpu
            .step(&Instruction::SubMessage {
                poly: Reg(1),
                msg: Reg(2),
            })
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::ShortRegister {
                reg: Reg(2),
                needed: 32,
                held: 31
            }
        );
        // An absurd index saturates instead of overflowing.
        let err = cpu
            .step(&Instruction::Sample {
                dst: Reg(3),
                src: Reg(0),
                index: usize::MAX,
                mu: 8,
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::ShortRegister { held: 500, .. }));
    }

    #[test]
    fn mac_accumulates_on_the_multiplier() {
        let mut hw = CentralizedMultiplier::new(256);
        let mut cpu = Coprocessor::new(&mut hw);
        let a = PolyQ::from_fn(|i| i as u16);
        let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
        cpu.registers
            .insert(Reg(0), Value::Poly(Box::new(a.clone())));
        cpu.registers
            .insert(Reg(1), Value::Secret(Box::new(s.clone())));
        cpu.step(&Instruction::ClearPoly { dst: Reg(2) }).unwrap();
        cpu.step(&Instruction::MacPoly {
            acc: Reg(2),
            a: Reg(0),
            s: Reg(1),
        })
        .unwrap();
        let expected = saber_ring::schoolbook::mul_asym(&a, &s);
        assert_eq!(cpu.poly(Reg(2)).unwrap(), &expected);
        assert!(cpu.cycles().multiplication >= 256);
    }
}
