//! Hot-path engine selection.
//!
//! Five software backends implement the full-magnitude (|s| ≤ 5)
//! asymmetric multiply on the KEM hot path: the HS-I mirror
//! ([`CachedSchoolbookMultiplier`]), the HS-II SWAR mirror
//! ([`SwarMultiplier`]), batched Toom-Cook-4 ([`ToomCook4Engine`]),
//! batched NTT-over-CRT ([`NttCrtEngine`]), and the constant-time
//! Karatsuba-over-blocked-schoolbook engine ([`CtSchoolbookMultiplier`]
//! — the default: the fastest of the five, and its timing is
//! secret-independent, which the `saber-timing` leakage gate holds it
//! to). [`EngineKind`] names them,
//! parses the `SABER_ENGINE` environment variable, and builds boxed
//! shards for the service layer's worker threads. The pseudo-kind
//! [`EngineKind::Auto`] defers the choice to a startup calibration
//! ([`crate::autotune`]) that races every candidate on a seeded
//! workload and keeps the winner.
//!
//! # Examples
//!
//! ```
//! use saber_ring::engine::EngineKind;
//!
//! let mut shard = EngineKind::Swar.build();
//! assert_eq!(shard.name(), "swar-packed HS-II mirror (software)");
//! assert_eq!(EngineKind::parse("swar"), Some(EngineKind::Swar));
//! assert_eq!(EngineKind::parse("cached"), Some(EngineKind::Cached));
//! assert_eq!(EngineKind::parse("toom"), Some(EngineKind::Toom));
//! assert_eq!(EngineKind::parse("ntt"), Some(EngineKind::Ntt));
//! assert_eq!(EngineKind::parse("ct"), Some(EngineKind::Ct));
//! assert_eq!(EngineKind::parse("auto"), Some(EngineKind::Auto));
//! assert_eq!(EngineKind::parse("fft"), None);
//! ```

use crate::cached::CachedSchoolbookMultiplier;
use crate::ct::CtSchoolbookMultiplier;
use crate::mul::PolyMultiplier;
use crate::ntt_crt_engine::NttCrtEngine;
use crate::swar::SwarMultiplier;
use crate::toom_engine::ToomCook4Engine;

/// Environment variable consulted by [`EngineKind::from_env`].
pub const ENGINE_ENV: &str = "SABER_ENGINE";

/// Which multiplier backend serves the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// HS-I mirror: multiple caching + bucket scans.
    Cached,
    /// HS-II mirror: SWAR lane packing + complement rows.
    Swar,
    /// Batched Toom-Cook-4 with a Karatsuba base case.
    Toom,
    /// Batched two-prime NTT with CRT recombination.
    Ntt,
    /// Constant-time Karatsuba over a blocked schoolbook:
    /// secret-independent timing, u16-lane MACs (the default).
    #[default]
    Ct,
    /// Startup calibration picks the fastest concrete engine per shard.
    Auto,
}

impl EngineKind {
    /// Every *concrete* selectable engine, in auto-tuner candidate order
    /// (ties break toward the front, so `cached` wins a dead heat).
    /// [`EngineKind::Auto`] is a selection policy, not an engine, and is
    /// deliberately absent.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Cached,
        EngineKind::Swar,
        EngineKind::Toom,
        EngineKind::Ntt,
        EngineKind::Ct,
    ];

    /// Parses an engine label (case-insensitive): `"cached"`, `"swar"`,
    /// `"toom"`, `"ntt"`, `"ct"` or `"auto"`, plus the hardware-schedule
    /// aliases `"hs1"`/`"hs2"` and the long forms `"toom4"`/`"ntt-crt"`/
    /// `"ct-schoolbook"`.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label.trim().to_ascii_lowercase().as_str() {
            "cached" | "hs1" => Some(EngineKind::Cached),
            "swar" | "hs2" => Some(EngineKind::Swar),
            "toom" | "toom4" => Some(EngineKind::Toom),
            "ntt" | "ntt-crt" => Some(EngineKind::Ntt),
            "ct" | "ct-schoolbook" => Some(EngineKind::Ct),
            "auto" => Some(EngineKind::Auto),
            _ => None,
        }
    }

    /// Reads `SABER_ENGINE` (default [`EngineKind::Ct`]).
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to an unknown engine label, so a
    /// typo in a CI matrix fails loudly instead of silently benchmarking
    /// the wrong backend.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(ENGINE_ENV) {
            Ok(label) => Self::parse(&label).unwrap_or_else(|| {
                panic!(
                    "{ENGINE_ENV}={label:?}: unknown engine (expected \"cached\", \
                     \"swar\", \"toom\", \"ntt\", \"ct\" or \"auto\")"
                )
            }),
            Err(_) => EngineKind::default(),
        }
    }

    /// The canonical parseable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Cached => "cached",
            EngineKind::Swar => "swar",
            EngineKind::Toom => "toom",
            EngineKind::Ntt => "ntt",
            EngineKind::Ct => "ct",
            EngineKind::Auto => "auto",
        }
    }

    /// Builds a fresh boxed shard of this engine — the form the service
    /// layer hands each worker thread. For [`EngineKind::Auto`] this
    /// runs the calibration and builds the winner; use
    /// [`EngineKind::resolve`] when the caller also needs to know *which*
    /// engine won.
    #[must_use]
    pub fn build(self) -> Box<dyn PolyMultiplier + Send> {
        match self {
            EngineKind::Cached => Box::new(CachedSchoolbookMultiplier::new()),
            EngineKind::Swar => Box::new(SwarMultiplier::new()),
            EngineKind::Toom => Box::new(ToomCook4Engine::new()),
            EngineKind::Ntt => Box::new(NttCrtEngine::new()),
            EngineKind::Ct => Box::new(CtSchoolbookMultiplier::new()),
            EngineKind::Auto => self.resolve().shard,
        }
    }

    /// Resolves the selection policy to a concrete engine and builds its
    /// shard: concrete kinds resolve to themselves, [`EngineKind::Auto`]
    /// runs the seeded startup calibration and keeps the winner. The
    /// returned kind is never `Auto`, so the service layer can record
    /// the per-shard decision in its report.
    #[must_use]
    pub fn resolve(self) -> ResolvedEngine {
        let kind = match self {
            EngineKind::Auto => crate::autotune::calibrate().chosen,
            concrete => concrete,
        };
        ResolvedEngine {
            kind,
            shard: kind.build(),
        }
    }
}

/// A concrete engine choice plus the shard built for it — what
/// [`EngineKind::resolve`] returns (for `Auto`, the calibrated winner).
pub struct ResolvedEngine {
    /// The concrete (never [`EngineKind::Auto`]) engine serving the shard.
    pub kind: EngineKind,
    /// The shard itself.
    pub shard: Box<dyn PolyMultiplier + Send>,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;
    use crate::{PolyQ, SecretPoly};

    #[test]
    fn labels_round_trip() {
        for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
            assert_eq!(EngineKind::parse(&kind.label().to_uppercase()), Some(kind));
        }
        assert_eq!(EngineKind::parse("  swar "), Some(EngineKind::Swar));
        assert_eq!(EngineKind::parse("toom4"), Some(EngineKind::Toom));
        assert_eq!(EngineKind::parse("ntt-crt"), Some(EngineKind::Ntt));
        assert_eq!(EngineKind::parse(""), None);
        assert_eq!(EngineKind::parse("karatsuba"), None);
    }

    #[test]
    fn every_engine_builds_a_working_shard() {
        let a = PolyQ::from_fn(|i| (29 * i as u16) & 0x1fff);
        let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        let expected = schoolbook::mul_asym(&a, &s);
        for kind in EngineKind::ALL {
            let mut shard = kind.build();
            assert_eq!(shard.multiply(&a, &s), expected, "engine {kind}");
        }
    }

    #[test]
    fn concrete_kinds_resolve_to_themselves() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.resolve().kind, kind);
        }
    }

    #[test]
    fn auto_resolves_to_a_working_concrete_engine() {
        let resolved = EngineKind::Auto.resolve();
        assert_ne!(resolved.kind, EngineKind::Auto);
        assert!(EngineKind::ALL.contains(&resolved.kind));
        let mut shard = resolved.shard;
        let a = PolyQ::from_fn(|i| (13 * i as u16) & 0x1fff);
        let s = SecretPoly::from_fn(|i| ((i % 9) as i8) - 4);
        assert_eq!(shard.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
    }

    #[test]
    fn default_is_ct() {
        assert_eq!(EngineKind::default(), EngineKind::Ct);
    }
}
