//! Cycle-accurate models of the DAC 2021 Saber polynomial multiplier
//! architectures — the primary contribution of the reproduced paper
//! (Basso & Sinha Roy, *Optimized Polynomial Multiplier Architectures
//! for Post-Quantum KEM Saber*).
//!
//! Four architecture families, all implementing the common
//! [`saber_ring::PolyMultiplier`] backend trait (so the full Saber KEM
//! can run on any of them) plus the [`report::HwMultiplier`] extension
//! that yields their Table-1 row:
//!
//! | model | paper | cycles | role |
//! |---|---|---|---|
//! | [`baseline::BaselineMultiplier`] | \[10\], Fig. 1 | 256 / 128 | the TCHES 2020 design both optimizations improve on |
//! | [`centralized::CentralizedMultiplier`] | **HS-I**, §3.1, Fig. 2 | 256 / 128 | centralized multiple generator, −22 %/−24 % LUTs |
//! | [`dsp_packed::DspPackedMultiplier`] | **HS-II**, §3.2, Fig. 3 | 131 | four coefficient products per DSP per cycle |
//! | [`lightweight::LightweightMultiplier`] | **LW**, §4, Fig. 4 | 16 384 (+ memory) | 541-LUT 4-MAC multiplier, accumulator in BRAM |
//! | [`trade_offs::ScaledLightweightMultiplier`] | §4.2 | ½ / ¼ of LW | the sketched 8/16-MAC design space |
//!
//! Every model is *functionally verified* — it computes real products,
//! checked against the `saber-ring` schoolbook oracle — and *cycle
//! faithful*: schedules run against the port-checked BRAM and pipelined
//! DSP models of `saber-hw`.
//!
//! # Examples
//!
//! ```
//! use saber_core::centralized::CentralizedMultiplier;
//! use saber_core::report::HwMultiplier;
//! use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};
//!
//! let mut hs1 = CentralizedMultiplier::new(512);
//! let a = PolyQ::from_fn(|i| i as u16);
//! let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
//! let _product = hs1.multiply(&a, &s);
//! println!("{}", hs1.report()); // cycles, LUT/FF/DSP, Fmax
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod centralized;
pub mod dsp_packed;
pub mod engine;
pub mod fault;
pub mod karatsuba_hw;
pub mod leakage;
pub mod lightweight;
pub mod lightweight_sliding;
pub mod report;
pub mod toom_hw;
pub mod trade_offs;

pub use baseline::BaselineMultiplier;
pub use centralized::CentralizedMultiplier;
pub use dsp_packed::DspPackedMultiplier;
pub use engine::ComputeKernel;
pub use karatsuba_hw::KaratsubaHwMultiplier;
pub use lightweight::LightweightMultiplier;
pub use lightweight_sliding::SlidingLightweightMultiplier;
pub use report::{ArchitectureReport, HwMultiplier};
pub use toom_hw::ToomCookHwMultiplier;
pub use trade_offs::{MemoryStrategy, ScaledLightweightMultiplier};
