//! Cycle-accurate FPGA hardware-modeling substrate.
//!
//! This workspace reproduces FPGA architectures without an FPGA: every
//! multiplier in `saber-core` is a clocked state machine built from the
//! primitive models in this crate, which enforce the physical constraints
//! the paper's design decisions revolve around:
//!
//! * [`bram::Bram`] — 64-bit synchronous RAM with **one read and one
//!   write port** (the bottleneck that shapes the lightweight multiplier
//!   of §4);
//! * [`dsp::DspBank`] — DSP48E2 slices on one clock (27×18 multiplier,
//!   48-bit post-adder, 3-stage pipeline) with strict operand-width
//!   checks (the constraints behind the HS-II packing of §3.2), modelled
//!   structure-of-arrays so one pass serves every slice of the bank;
//! * [`mac`] — the Algorithm-2 shift-and-add multiplier and the
//!   centralized-multiple MAC of §3.1;
//! * [`area`] — the analytical LUT/FF/DSP model replacing Vivado
//!   synthesis (substitution documented in DESIGN.md §2);
//! * [`power`] — activity-based power estimation calibrated to the
//!   paper's Artix-7 report;
//! * [`platform`] — target devices and the logic-depth timing model.
//!
//! # Examples
//!
//! ```
//! use saber_hw::bram::Bram;
//! use saber_hw::mac::{multiples, select_multiple};
//!
//! // The HS-I datapath in miniature: precompute multiples once, let a
//! // MAC select and accumulate.
//! let m = multiples(1234);
//! let acc = select_multiple(&m, -3, 0);
//! assert_eq!(acc, (8192 - 3 * 1234) as u16);
//!
//! let mut mem = Bram::new(52);
//! mem.issue_write(0, 0x1234)?;
//! mem.tick();
//! # Ok::<(), saber_hw::bram::PortConflict>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod bram;
pub mod dsp;
pub mod keccak_core;
pub mod mac;
pub mod platform;
pub mod power;
pub mod report;
pub mod sampler;

pub use area::Area;
pub use bram::Bram;
pub use dsp::DspBank;
pub use keccak_core::KeccakCore;
pub use platform::{CriticalPath, Fpga};
pub use power::{Activity, PowerModel, PowerReport};
pub use report::CycleReport;
pub use sampler::SamplerCore;
