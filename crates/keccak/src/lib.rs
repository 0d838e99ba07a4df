//! From-scratch Keccak/SHA-3/SHAKE, the symmetric substrate of Saber.
//!
//! The Saber KEM (and therefore the multiplier test benches and the
//! end-to-end examples in this workspace) needs three symmetric
//! primitives, all built on the Keccak-f\[1600\] permutation:
//!
//! * **SHAKE-128** — expands the public matrix **A** from a 32-byte seed
//!   and drives the centered binomial sampler ([`xof::Shake128`]);
//! * **SHA3-256** — hashing inside the Fujisaki–Okamoto transform
//!   ([`hash::Sha3_256`]);
//! * **SHA3-512** — the `G` hash of the FO transform ([`hash::Sha3_512`]).
//!
//! Everything is implemented here from the FIPS 202 specification with no
//! external dependencies; known-answer tests in `tests/` pin the output
//! against vectors generated with CPython's `hashlib`.
//!
//! # Examples
//!
//! ```
//! use saber_keccak::{Sha3_256, Shake128};
//!
//! let digest = Sha3_256::digest(b"message");
//! assert_eq!(digest.len(), 32);
//!
//! let mut stream = Shake128::from_seed(b"seed");
//! let first: [u8; 16] = stream.read_array();
//! let second: [u8; 16] = stream.read_array();
//! assert_ne!(first, second);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod permutation;
pub mod sponge;
pub mod xof;

pub use hash::{Sha3_256, Sha3_512};
pub use permutation::keccak_f1600;
pub use sponge::{DomainSuffix, Sponge};
pub use xof::{Shake128, Shake256};
