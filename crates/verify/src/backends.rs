//! The backend registry: every `PolyMultiplier` in the workspace, with
//! the metadata the sweep needs.
//!
//! The differential fuzzer is only as strong as its coverage of
//! *implementations*; this registry is the single place that enumerates
//! them, so adding a backend to the workspace and forgetting to verify
//! it shows up as a registry-count test failure rather than silence.

use saber_core::dsp_packed::MAX_PACKED_MAGNITUDE;
use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, KaratsubaHwMultiplier,
    LightweightMultiplier, MemoryStrategy, ScaledLightweightMultiplier,
    SlidingLightweightMultiplier, ToomCookHwMultiplier,
};
use saber_ring::mul::{KaratsubaMultiplier, ToomCook4Multiplier};
use saber_ring::{CtSchoolbookMultiplier, PolyMultiplier};

/// One registered backend: how to build it and what it accepts.
pub struct BackendEntry {
    /// Stable registry name (backend `name()` strings may carry
    /// configuration detail; this one is the sweep's identifier).
    pub name: &'static str,
    /// Largest secret-coefficient magnitude the backend supports (4 for
    /// the HS-II packed datapaths, 5 for everything else).
    pub max_secret_magnitude: i8,
    factory: fn() -> Box<dyn PolyMultiplier>,
}

impl BackendEntry {
    /// Builds a fresh instance of the backend.
    #[must_use]
    pub fn build(&self) -> Box<dyn PolyMultiplier> {
        (self.factory)()
    }

    /// Whether the backend accepts secrets of the given magnitude bound.
    #[must_use]
    pub fn supports_bound(&self, bound: i8) -> bool {
        bound <= self.max_secret_magnitude
    }
}

/// Every multiplier backend in the workspace (software algorithms and
/// cycle-accurate hardware models), excluding the plain schoolbook that
/// serves as the oracle.
#[must_use]
pub fn registry() -> Vec<BackendEntry> {
    fn entry(
        name: &'static str,
        max_secret_magnitude: i8,
        factory: fn() -> Box<dyn PolyMultiplier>,
    ) -> BackendEntry {
        BackendEntry {
            name,
            max_secret_magnitude,
            factory,
        }
    }
    vec![
        // Software algorithms (crates/ring).
        entry("karatsuba-1", 5, || {
            Box::new(KaratsubaMultiplier { levels: 1 })
        }),
        entry("karatsuba-8", 5, || {
            Box::new(KaratsubaMultiplier { levels: 8 })
        }),
        entry("toom-cook-4", 5, || Box::new(ToomCook4Multiplier)),
        // The hot-path engine (crates/ring). Its *timing* contract is
        // the saber-timing gate's job; here it is just one more backend
        // that must stay bit-exact.
        entry("ct-schoolbook", 5, || {
            Box::new(CtSchoolbookMultiplier::new())
        }),
        // Cycle-accurate hardware models (crates/core).
        entry("baseline-256", 5, || Box::new(BaselineMultiplier::new(256))),
        entry("baseline-512", 5, || Box::new(BaselineMultiplier::new(512))),
        entry("hs1-256", 5, || Box::new(CentralizedMultiplier::new(256))),
        entry("hs1-512", 5, || Box::new(CentralizedMultiplier::new(512))),
        entry("hs2-128dsp", MAX_PACKED_MAGNITUDE, || {
            Box::new(DspPackedMultiplier::new())
        }),
        entry("hs2-256dsp", MAX_PACKED_MAGNITUDE, || {
            Box::new(DspPackedMultiplier::with_dsps(256))
        }),
        entry("lw", 5, || Box::new(LightweightMultiplier::new())),
        entry("lw-sliding", 5, || {
            Box::new(SlidingLightweightMultiplier::new())
        }),
        entry("lw-8mac", 5, || {
            Box::new(ScaledLightweightMultiplier::new(
                8,
                MemoryStrategy::AccumulatorBuffer,
            ))
        }),
        entry("lw-16mac", 5, || {
            Box::new(ScaledLightweightMultiplier::new(
                16,
                MemoryStrategy::WiderBus,
            ))
        }),
        entry("karatsuba-hw", 5, || {
            Box::new(KaratsubaHwMultiplier::new(1))
        }),
        entry("toom-hw", 5, || Box::new(ToomCookHwMultiplier::new())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_stable_and_named_uniquely() {
        let reg = registry();
        assert_eq!(
            reg.len(),
            16,
            "keep the registry in sync with the workspace"
        );
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn only_hs2_restricts_the_bound() {
        for e in registry() {
            if e.name.starts_with("hs2") {
                assert!(!e.supports_bound(5), "{} must reject LightSaber", e.name);
                assert!(e.supports_bound(4));
            } else {
                assert!(e.supports_bound(5), "{} must accept LightSaber", e.name);
            }
        }
    }

    #[test]
    fn every_entry_builds_and_multiplies() {
        use saber_ring::{schoolbook, PolyQ, SecretPoly};
        let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(31) & 0x1fff);
        let s = SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4);
        let expected = schoolbook::mul_asym(&a, &s);
        for e in registry() {
            assert_eq!(e.build().multiply(&a, &s), expected, "{}", e.name);
        }
    }
}
