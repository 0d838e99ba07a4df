//! The differential fuzzer: sweep every backend against the schoolbook
//! oracle over the stratified corpus, for every parameter set.
//!
//! Cost model: each case's oracle product is computed **once** and
//! compared against every eligible backend, so a sweep of `C` cases per
//! set costs `C · (1 + backends)` multiplications rather than
//! `C · 2 · backends`. Case generation is per parameter set (the secret
//! bound differs), and backends whose packing cannot represent the
//! set's secrets — HS-II under LightSaber — are skipped for that set
//! only.

use std::fmt;

use saber_kem::ALL_PARAMS;
use saber_ring::{schoolbook, PolyMultiplier};
use saber_testkit::Rng;

use crate::backends::registry;
use crate::corpus;
use crate::shrink::{shrink, ShrunkCase};

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Root seed; every (parameter set, case) stream derives from it.
    pub seed: u64,
    /// Cases generated per parameter set (stratified across
    /// [`corpus::CaseKind`]s).
    pub cases_per_set: usize,
}

/// Root seed used by CI and the checked-in smoke tests.
pub const DEFAULT_SEED: u64 = 0x5ABE_2021;

impl FuzzConfig {
    /// The standard configuration: a smoke budget of 48 cases per set
    /// under debug builds and the full sweep of 2,048 in release.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            seed: DEFAULT_SEED,
            cases_per_set: if cfg!(debug_assertions) { 48 } else { 2048 },
        }
    }
}

/// One backend/oracle disagreement, shrunk to a minimal reproducer.
#[derive(Debug)]
pub struct Mismatch {
    /// Registry name of the disagreeing backend.
    pub backend: &'static str,
    /// Parameter set under which the case was generated.
    pub param_set: &'static str,
    /// Corpus family of the original failing case.
    pub kind: &'static str,
    /// Index of the case within the set's stream (replay with the same
    /// seed and index to regenerate the unshrunk operands).
    pub case_index: usize,
    /// The minimized reproducer.
    pub shrunk: ShrunkCase,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} disagrees with schoolbook on {} case #{} ({}): {}",
            self.backend, self.param_set, self.case_index, self.kind, self.shrunk
        )
    }
}

/// Outcome of a full sweep.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases generated per parameter set.
    pub cases_per_set: usize,
    /// Total backend products checked against the oracle.
    pub products_checked: u64,
    /// Every disagreement found (empty on a healthy workspace).
    pub mismatches: Vec<Mismatch>,
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential fuzz: {} cases/set, {} products checked, {} mismatches",
            self.cases_per_set,
            self.products_checked,
            self.mismatches.len()
        )?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

/// Derives the deterministic case stream for one parameter set.
fn set_rng(seed: u64, set_index: usize) -> Rng {
    Rng::new(seed ^ (set_index as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Runs the full sweep: every registry backend, every parameter set.
#[must_use]
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let mut products_checked = 0u64;
    let mut mismatches = Vec::new();

    for (set_index, params) in ALL_PARAMS.iter().enumerate() {
        let bound = params.secret_bound();
        // Build each eligible backend once per set and reuse it across
        // cases — the models are stateful but multiplication results
        // must not depend on history (history-dependence would itself be
        // a bug this sweep should catch).
        let mut lanes: Vec<(&'static str, Box<dyn PolyMultiplier>)> = registry()
            .iter()
            .filter(|e| e.supports_bound(bound))
            .map(|e| (e.name, e.build()))
            .collect();
        let mut rng = set_rng(config.seed, set_index);
        for case_index in 0..config.cases_per_set {
            let case = corpus::generate(&mut rng, case_index, bound);
            let expected = schoolbook::mul_asym(&case.public, &case.secret);
            for (name, backend) in lanes.iter_mut() {
                products_checked += 1;
                if backend.multiply(&case.public, &case.secret) != expected {
                    let shrunk = shrink(backend.as_mut(), &case.public, &case.secret);
                    mismatches.push(Mismatch {
                        backend: name,
                        param_set: params.name,
                        kind: case.kind.label(),
                        case_index,
                        shrunk,
                    });
                }
            }
        }
    }

    FuzzReport {
        cases_per_set: config.cases_per_set,
        products_checked,
        mismatches,
    }
}

/// Sweeps a single backend (used by the fault-sensitivity gate and for
/// focused debugging): returns the first disagreement, or `None` after
/// `cases` clean cases.
pub fn sweep_backend(
    backend: &mut dyn PolyMultiplier,
    bound: i8,
    seed: u64,
    cases: usize,
) -> Option<Mismatch> {
    let mut rng = Rng::new(seed);
    for case_index in 0..cases {
        let case = corpus::generate(&mut rng, case_index, bound);
        let expected = schoolbook::mul_asym(&case.public, &case.secret);
        if backend.multiply(&case.public, &case.secret) != expected {
            let shrunk = shrink(backend, &case.public, &case.secret);
            return Some(Mismatch {
                backend: "focused",
                param_set: "focused",
                kind: case.kind.label(),
                case_index,
                shrunk,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean_and_counts_products() {
        let report = run(&FuzzConfig {
            seed: 11,
            cases_per_set: 6,
        });
        assert!(report.mismatches.is_empty(), "{report}");
        // LightSaber skips the two HS-II lanes: 14 + 16 + 16 backends.
        assert_eq!(report.products_checked, 6 * (14 + 16 + 16));
    }

    #[test]
    fn sweep_backend_catches_a_seeded_fault() {
        use saber_core::fault::{Fault, FaultyMultiplier};
        let mut mutant = FaultyMultiplier::new(Fault::LwSecretSignIgnored);
        let found = sweep_backend(&mut mutant, 5, 3, 32);
        assert!(found.is_some());
    }
}
