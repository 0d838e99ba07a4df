//! The deterministic tick-order fuzz gate.
//!
//! * The unmutated SoC is permutation-invariant across the full pinned
//!   64-case sweep at both clock ratios — the same-cycle ordering
//!   contract holds.
//! * Both planted schedule-race mutants are caught within the 64-case
//!   budget at 1:1 (the ratio where the races are reachable), and the
//!   greedy shrinker reduces each failure to a minimal scripted
//!   reproducer — ideally one cycle, one transposition.
//!
//! Everything is seeded: a CI failure reports `(base seed, case)` and is
//! replayable bit-exactly.

use saber_soc::scheduler::OrderPolicy;
use saber_soc::{fuzz_scenario, run_scenario, ScenarioConfig, SocMutant};

/// The pinned base seed.
const BASE_SEED: u64 = 0x5ABE_2026;
/// Seeded tick orders per sweep.
const BUDGET: usize = 64;

#[test]
fn unmutated_soc_is_permutation_invariant_full_sweep() {
    for stride in [1, 2] {
        let report = fuzz_scenario(&ScenarioConfig::reference(BASE_SEED, stride), BUDGET);
        assert_eq!(report.cases_run, BUDGET, "stride {stride}: full sweep");
        assert!(
            report.finding.is_none(),
            "stride {stride}: schedule race in the unmutated SoC: {:?}",
            report.finding
        );
    }
}

#[test]
fn arbiter_insertion_order_mutant_is_caught_and_shrunk() {
    let mut cfg = ScenarioConfig::reference(BASE_SEED, 1);
    cfg.mutant = Some(SocMutant::ArbiterInsertionOrderGrant);
    let report = fuzz_scenario(&cfg, BUDGET);
    let finding = report
        .finding
        .expect("insertion-order arbitration must be caught within 64 cases");
    assert!(report.cases_run <= BUDGET);

    // The shrunk reproducer replays the divergence under Scripted order
    // and is minimal: a single cycle during the seed-fetch/secret-load
    // contention window, reduced to one transposition.
    assert_eq!(finding.reproducer.len(), 1, "reproducer: {finding:?}");
    let (cycle, order) = &finding.reproducer[0];
    assert!(
        *cycle <= 20,
        "the race lives in the early contention window, got cycle {cycle}"
    );
    let mut canonical = order.clone();
    canonical.sort();
    let transposed = order.iter().zip(&canonical).filter(|(a, b)| a != b).count();
    assert_eq!(transposed, 2, "one transposition, got {order:?}");

    // Replayability: the scripted reproducer still diverges.
    let reference = run_scenario(&cfg).0;
    let mut replay_cfg = cfg.clone();
    replay_cfg.policy = OrderPolicy::Scripted(finding.reproducer.iter().cloned().collect());
    assert_ne!(run_scenario(&replay_cfg).0, reference);
}

#[test]
fn keccak_valid_flag_mutant_is_caught_and_shrunk() {
    let mut cfg = ScenarioConfig::reference(BASE_SEED, 1);
    cfg.mutant = Some(SocMutant::KeccakValidFlagUnlatched);
    let report = fuzz_scenario(&cfg, BUDGET);
    let finding = report
        .finding
        .expect("the unlatched valid flag must be caught within 64 cases");

    // The race fires on exactly the cycle the DMA raises `xof_done`:
    // a consumer ticked after the producer sees it one cycle early.
    assert_eq!(finding.reproducer.len(), 1, "reproducer: {finding:?}");
    let reference = run_scenario(&cfg).0;
    let mut replay_cfg = cfg.clone();
    replay_cfg.policy = OrderPolicy::Scripted(finding.reproducer.iter().cloned().collect());
    assert_ne!(run_scenario(&replay_cfg).0, reference);
}

#[test]
fn fuzzer_is_deterministic() {
    let mut cfg = ScenarioConfig::reference(BASE_SEED, 1);
    cfg.mutant = Some(SocMutant::ArbiterInsertionOrderGrant);
    let a = fuzz_scenario(&cfg, BUDGET);
    let b = fuzz_scenario(&cfg, BUDGET);
    assert_eq!(a, b, "same seed, same sweep, same finding");
}
