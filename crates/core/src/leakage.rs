//! Side-channel trace analysis for the multiplier schedules.
//!
//! §3.1 argues HS-I is as safe as the baseline because "it does not
//! change the computations that are being computed" — the centralized
//! multiplier produces *the same intermediate values on the same
//! cycles*, so it cannot add attack surface. This module makes that
//! claim testable:
//!
//! * [`mac_value_trace`] reconstructs the per-cycle MAC-output values of
//!   a parallel schoolbook schedule (identical for the baseline and
//!   HS-I by construction — asserted in tests);
//! * [`hamming_trace`] maps a value trace to the Hamming-weight leakage
//!   proxy standard in power side-channel analysis;
//! * [`leakage_samples`] turns a fixed secret and a set of public
//!   operands into per-measurement leakage samples.
//!
//! Tests feed those samples to the fixed-vs-fixed Welch t-test of
//! `saber_timing` (TVLA-style), so they certify both what the designs
//! guarantee (identical traces across architectures, data-independent
//! *timing*) and what unprotected hardware does not (value-dependent
//! power — large t for different secrets, as expected of every
//! architecture in the paper, which claims constant time, not masking).

use saber_hw::mac::{baseline_mac, multiples, select_multiple};
use saber_ring::{PolyQ, SecretPoly, N};

/// Which datapath produced the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStyle {
    /// The \[10\] per-MAC shift-and-add datapath.
    Baseline,
    /// The HS-I centralized-multiple datapath.
    Centralized,
}

/// Reconstructs the per-cycle accumulator values of the 256-MAC parallel
/// schoolbook schedule: entry `[cycle][lane]` is MAC `lane`'s output in
/// outer iteration `cycle`.
///
/// Both datapaths are offered so tests can prove the §3.1 claim that
/// centralization leaves every intermediate value unchanged.
#[must_use]
pub fn mac_value_trace(a: &PolyQ, s: &SecretPoly, style: TraceStyle) -> Vec<Vec<u16>> {
    let mut acc = [0u16; N];
    let mut sigma = s.clone();
    let mut trace = Vec::with_capacity(N);
    for i in 0..N {
        let ai = a.coeff(i);
        match style {
            TraceStyle::Centralized => {
                let m = multiples(ai);
                for (j, slot) in acc.iter_mut().enumerate() {
                    *slot = select_multiple(&m, sigma.coeff(j), *slot);
                }
            }
            TraceStyle::Baseline => {
                for (j, slot) in acc.iter_mut().enumerate() {
                    *slot = baseline_mac(ai, sigma.coeff(j), *slot);
                }
            }
        }
        trace.push(acc.to_vec());
        sigma = sigma.mul_by_x();
    }
    trace
}

/// The Hamming-weight leakage proxy: total weight of all lane outputs
/// per cycle (the classic power model for a register bank update).
#[must_use]
pub fn hamming_trace(value_trace: &[Vec<u16>]) -> Vec<f64> {
    value_trace
        .iter()
        .map(|cycle| cycle.iter().map(|v| f64::from(v.count_ones())).sum())
        .collect()
}

/// Collects the mean Hamming leakage of one multiplication per trace
/// point (a "measurement"), for `count` random public operands against a
/// fixed secret — the building block of a fixed-vs-random TVLA campaign.
#[must_use]
pub fn leakage_samples(secret: &SecretPoly, seeds: &[u16]) -> Vec<f64> {
    seeds
        .iter()
        .map(|&seed| {
            let a = PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed).wrapping_add(seed) & 0x1fff);
            let trace = hamming_trace(&mac_value_trace(&a, secret, TraceStyle::Centralized));
            trace.iter().sum::<f64>() / trace.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_timing::{welch_t, Welford};

    fn operands(seed: u16) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) & 0x1fff),
            SecretPoly::from_fn(|i| ((((i as u32 + 1) * seed as u32) % 9) as i8) - 4),
        )
    }

    #[test]
    fn centralization_leaves_every_intermediate_value_unchanged() {
        // The quantitative form of §3.1's security argument: identical
        // per-cycle, per-lane values ⇒ identical leakage surface.
        for seed in [3u16, 911, 4099] {
            let (a, s) = operands(seed);
            assert_eq!(
                mac_value_trace(&a, &s, TraceStyle::Baseline),
                mac_value_trace(&a, &s, TraceStyle::Centralized),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn trace_has_schedule_shape() {
        let (a, s) = operands(17);
        let trace = mac_value_trace(&a, &s, TraceStyle::Centralized);
        assert_eq!(trace.len(), N, "one trace point per outer iteration");
        assert!(trace.iter().all(|c| c.len() == N), "256 lanes per cycle");
        // Final trace point is the finished product.
        let product = saber_ring::schoolbook::mul_asym(&a, &s);
        assert_eq!(trace[N - 1], product.coeffs().to_vec());
    }

    #[test]
    fn fixed_vs_fixed_shows_no_false_positive() {
        // The same secret measured twice over the same operand sets must
        // produce a t-statistic of exactly zero.
        let (_, s) = operands(5);
        let seeds: Vec<u16> = (1..40).collect();
        let a: Welford = leakage_samples(&s, &seeds).into_iter().collect();
        let b: Welford = leakage_samples(&s, &seeds).into_iter().collect();
        assert_eq!(welch_t(&a, &b), 0.0);
    }

    #[test]
    fn value_leakage_exists_as_expected_of_unprotected_hardware() {
        // Fixed-vs-fixed with *different* secrets: the Hamming traces
        // separate (|t| > 4.5). The paper claims constant **time**, not
        // masking — this documents the boundary of the guarantee.
        let s1 = SecretPoly::from_fn(|_| 4);
        let s2 = SecretPoly::from_fn(|_| 0);
        let seeds: Vec<u16> = (1..60).collect();
        let a: Welford = leakage_samples(&s1, &seeds).into_iter().collect();
        let b: Welford = leakage_samples(&s2, &seeds).into_iter().collect();
        let t = welch_t(&a, &b);
        assert!(
            t.abs() > 4.5,
            "expected value-dependent leakage, got |t| = {}",
            t.abs()
        );
    }

    #[test]
    fn timing_is_secret_independent() {
        // Trace *length* (the timing channel) never varies with data.
        let (a, _) = operands(9);
        for seed in [1i8, 2, 3] {
            let s = SecretPoly::from_fn(|i| (((i as i16 * seed as i16) % 9) - 4) as i8);
            assert_eq!(mac_value_trace(&a, &s, TraceStyle::Centralized).len(), N);
        }
    }
}
