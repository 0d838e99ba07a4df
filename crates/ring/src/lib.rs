//! Polynomial arithmetic over `Z_{2^k}[x]/(x^N + 1)` for Saber.
//!
//! Saber fixes `N = 256` and uses the power-of-two moduli `q = 2^13` and
//! `p = 2^10`. Because the moduli are powers of two, modular reduction is a
//! bit-mask — but the number-theoretic transform does not apply directly,
//! which is exactly why the DAC 2021 paper reproduced by this workspace
//! studies schoolbook-style hardware multipliers.
//!
//! This crate is the *functional ground truth* for every multiplier in the
//! workspace:
//!
//! * [`poly::Poly`] — a 256-coefficient polynomial with a const-generic
//!   power-of-two modulus ([`PolyQ`] = mod `2^13`, [`PolyP`] = mod `2^10`);
//! * [`secret::SecretPoly`] — the small-coefficient operand (|s| ≤ 5);
//! * [`schoolbook`] — the obviously-correct reference multiplier
//!   (Algorithm 1 of the paper), the oracle every other multiplier is
//!   checked against;
//! * [`ct`] — the one hot-path engine: Toom-4 over a register-blocked
//!   schoolbook in wrapping `u16` MAC lanes, interpolating and folding
//!   once per inner product, with a secret-independent scan order and
//!   memory access pattern, held to that claim by the `saber-timing`
//!   gate;
//! * [`karatsuba`], [`toom`] — scalar references for two
//!   asymptotically faster algorithms the paper compares against:
//!   recursive Karatsuba (up to the fully-unrolled 8 levels of Zhu et
//!   al.) and Toom-Cook 4-way (the original Saber submission and the DAC
//!   2020 co-processor). They serve `saber-core`'s Karatsuba and Toom
//!   models and the §5 benches; the hot path takes only `toom`'s
//!   evaluation points, as constants. The §5.1 NTT row (Chung et al.'s
//!   "NTT for NTT-unfriendly rings") is a cited figure, not code;
//! * [`rounding`], [`packing`], [`matrix`] — the scaling, serialization
//!   and module-lattice plumbing required by the Saber KEM;
//! * [`mul::PolyMultiplier`] — the backend trait implemented both by the
//!   software multipliers here and by the cycle-accurate hardware models
//!   in `saber-core`.
//!
//! # Examples
//!
//! ```
//! use saber_ring::{PolyQ, SecretPoly, schoolbook};
//!
//! let a = PolyQ::from_fn(|i| (17 * i as u16 + 3) & 0x1fff);
//! let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
//! let product = schoolbook::mul_asym(&a, &s);
//! assert_eq!(product.coeff(0), schoolbook::mul_asym(&a, &s).coeff(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod engine;
pub mod karatsuba;
pub mod matrix;
pub mod modulus;
pub mod mul;
pub mod packing;
pub mod poly;
pub mod rounding;
pub mod schoolbook;
pub mod secret;
pub mod toom;

pub use ct::CtSchoolbookMultiplier;
pub use engine::EngineKind;
pub use matrix::{PolyMatrix, PolyVec, SecretVec};
pub use modulus::{EPS_P, EPS_Q, N, P, Q};
pub use mul::PolyMultiplier;
pub use poly::{Poly, PolyP, PolyQ};
pub use secret::SecretPoly;
