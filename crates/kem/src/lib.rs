//! The complete Saber KEM (Round-3 submission), built from scratch on the
//! workspace's own Keccak and ring substrates.
//!
//! Saber is one of the four NIST PQC round-3 KEM finalists; its defining
//! trait — power-of-two moduli — is what motivates the schoolbook-style
//! hardware multipliers of the DAC 2021 paper this workspace reproduces.
//! Every polynomial multiplication in this crate goes through the
//! [`saber_ring::PolyMultiplier`] backend trait, so the KEM can run
//! end-to-end on the cycle-accurate hardware models of `saber-core` (see
//! the `saber_kem_hw` example at the workspace root).
//!
//! * [`params`] — LightSaber / Saber / FireSaber parameter sets;
//! * [`expand`] — matrix expansion and `β_µ` secret sampling (SHAKE-128),
//!   and the bounded per-worker cache of expanded matrices;
//! * [`pke`] — the IND-CPA encryption scheme;
//! * [`kem`] — the CCA-secure KEM (FO transform, implicit rejection);
//! * [`serialize`] — spec-sized byte encodings;
//! * [`cost`] — the coprocessor cycle model behind the paper's
//!   "multiplication is up to 56 % of the time" motivation.
//!
//! # Examples
//!
//! ```
//! use saber_kem::{kem, params::SABER};
//! use saber_ring::mul::ToomCook4Multiplier;
//!
//! let mut backend = ToomCook4Multiplier;
//! let (pk, sk) = kem::keygen(&SABER, &[1u8; 32], &mut backend);
//! let (ct, secret_alice) = kem::encaps(&pk, &[2u8; 32], &mut backend);
//! let secret_bob = kem::decaps(&sk, &ct, &mut backend);
//! assert_eq!(secret_alice, secret_bob);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod expand;
pub mod kem;
pub mod params;
pub mod pke;
pub mod secret;
pub mod serialize;

pub use expand::MatrixCache;
pub use kem::{decaps, decaps_cached, encaps, encaps_cached, keygen, KemSecretKey, SharedSecret};
pub use params::{SaberParams, ALL_PARAMS, FIRE_SABER, LIGHT_SABER, SABER};
pub use pke::{Ciphertext, PublicKey};
pub use secret::Zeroize;
