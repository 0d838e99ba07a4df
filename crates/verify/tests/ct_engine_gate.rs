//! Gate for the constant-time engine
//! (`saber_ring::ct::CtSchoolbookMultiplier`, the hot-path engine).
//!
//! The ct engine must be bit-exact
//! against the schoolbook oracle over the full fuzz budget
//! (2,048 cases per set in release), for single products and for the
//! fold-once inner products that mat-vec and the PKE run on it. The
//! timing *mutants*, by
//! contrast, must be functionally invisible here — they compute correct
//! products with secret-dependent timing, which is exactly why the
//! differential fuzzer cannot stand in for the timing gate
//! (`cargo test -p saber-timing --test timing_gate`).

use saber_core::fault::{TimingFault, TimingLeakMultiplier};
use saber_ring::{schoolbook, CtSchoolbookMultiplier, PolyMultiplier, PolyQ, SecretPoly};
use saber_testkit::Rng;
use saber_verify::corpus;
use saber_verify::differential::{sweep_backend, FuzzConfig, DEFAULT_SEED};

#[test]
fn ct_engine_is_bit_exact_across_the_full_fuzz_budget() {
    let cases = FuzzConfig::standard().cases_per_set;
    let mut ct = CtSchoolbookMultiplier::new();
    if let Some(mismatch) = sweep_backend(&mut ct, 5, DEFAULT_SEED, cases) {
        panic!("constant-time engine diverged from the schoolbook oracle: {mismatch}");
    }
}

#[test]
fn ct_inner_product_is_bit_exact_across_the_full_fuzz_budget() {
    // Rank-2/3/4 inner products at the LightSaber/Saber/FireSaber secret
    // bounds, each pair drawn from the stratified corpus, against the
    // summed schoolbook products.
    let cases = FuzzConfig::standard().cases_per_set;
    let mut ct = CtSchoolbookMultiplier::new();
    for (rank, bound) in [(2usize, 5i8), (3, 4), (4, 3)] {
        let mut rng = Rng::new(DEFAULT_SEED ^ rank as u64);
        for case_index in 0..cases {
            let terms: Vec<corpus::Case> = (0..rank)
                .map(|k| corpus::generate(&mut rng, case_index * rank + k, bound))
                .collect();
            let pairs: Vec<(&PolyQ, &SecretPoly)> =
                terms.iter().map(|c| (&c.public, &c.secret)).collect();
            let mut expected = PolyQ::zero();
            for (a, s) in &pairs {
                expected += &schoolbook::mul_asym(a, s);
            }
            assert_eq!(
                ct.inner_product(&pairs),
                expected,
                "rank {rank}, bound {bound}, case {case_index}"
            );
        }
    }
}

#[test]
fn timing_mutants_are_invisible_to_the_differential_fuzzer() {
    // Positive controls for the *timing* gate are negative controls
    // here: if a timing mutant ever produced a wrong product, it would
    // be a correctness mutant and the leakage detector's catch would
    // prove nothing about timing analysis.
    for fault in TimingFault::ALL {
        let mut mutant = TimingLeakMultiplier::new(fault);
        assert!(
            sweep_backend(&mut mutant, 5, DEFAULT_SEED, 256).is_none(),
            "timing mutant '{}' changed a product",
            fault.label()
        );
    }
}
