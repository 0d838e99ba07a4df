//! The differential fuzz gate: every backend in the registry must agree
//! with the schoolbook oracle on the full stratified corpus, for every
//! parameter set.
//!
//! Budget: `FuzzConfig::standard()` — a smoke sweep of 48 cases per set
//! under `cargo test` (debug), the full 2,048-cases-per-set sweep under
//! `cargo test --release`.

use saber_verify::differential::{run, FuzzConfig};

#[test]
fn all_backends_agree_with_the_oracle() {
    let config = FuzzConfig::standard();
    let report = run(&config);
    assert!(
        report.mismatches.is_empty(),
        "differential fuzzing found {} mismatch(es) (seed {:#x}):\n{report}",
        report.mismatches.len(),
        config.seed,
    );
    // Every case checks all 16 backends, except that LightSaber's
    // secrets skip the two HS-II lanes.
    assert_eq!(
        report.products_checked,
        (config.cases_per_set as u64) * (14 + 16 + 16)
    );
}
