//! Umbrella crate for the reproduction of *Optimized Polynomial Multiplier
//! Architectures for Post-Quantum KEM Saber* (Basso & Sinha Roy, DAC 2021).
//!
//! This crate re-exports every workspace member under one roof so the
//! examples in `examples/` and the integration tests in `tests/` can use a
//! single dependency. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! * [`keccak`] — Keccak-f\[1600\], SHA-3, SHAKE (protocol substrate)
//! * [`ring`] — polynomial arithmetic over `Z_{2^k}[x]/(x^N + 1)`
//! * [`kem`] — the full Saber PKE/KEM
//! * [`hw`] — cycle-accurate FPGA primitive models and area/power models
//! * [`arch`] — the paper's multiplier architectures (the contribution)
//! * [`coproc`] — the instruction-set coprocessor the multipliers plug into
//! * [`trace`] — structured tracing/profiling with Chrome-trace and
//!   VCD export, plus the crash-safe flight recorder
//! * [`service`] — the concurrent KEM service layer
//! * [`soc`] — the discrete-event full-SoC co-simulation scheduler

#![forbid(unsafe_code)]

pub mod cli;

pub use saber_coproc as coproc;
pub use saber_core as arch;
pub use saber_hw as hw;
pub use saber_keccak as keccak;
pub use saber_kem as kem;
pub use saber_ring as ring;
pub use saber_service as service;
pub use saber_soc as soc;
pub use saber_trace as trace;
