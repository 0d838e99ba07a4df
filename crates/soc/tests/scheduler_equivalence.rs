//! Golden lock: every cycle model run under the discrete-event
//! scheduler produces the *same cycle totals and the same bytes* as its
//! historical standalone run-to-completion loop.
//!
//! These are the paper-reconciled numbers (Table 1 / §4.1) that the
//! `saber-verify` cycle-total KATs also freeze:
//!
//! | model          | compute | total  |
//! |----------------|---------|--------|
//! | baseline-256   | 256     | 341    |
//! | HS-I 512       | 128     | 213    |
//! | HS-II 1 bank   | 131     | 216    |
//! | HS-II 2 banks  | 67      | 152    |
//! | LW 4-MAC       | 16 384  | 18 928 |
//! | Keccak f[1600] | 24      | —      |
//! | SHAKE-128/416  | 72      | 145    |

use saber_coproc::{programs, Coprocessor};
use saber_core::engine::MacStyle;
use saber_core::CentralizedMultiplier;
use saber_hw::keccak_core::sponge_on_core;
use saber_keccak::Shake128;
use saber_kem::SABER;
use saber_ring::{schoolbook, PolyQ, SecretPoly};
use saber_soc::{
    ComponentId, CoprocComponent, DspPackedComponent, EngineComponent, LightweightComponent, Soc,
    SpongeComponent, SpongeMachine,
};

fn operands(seed: u16) -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed) ^ (seed << 2)),
        SecretPoly::from_fn(|i| ((((i as u32 + 5) * seed as u32) % 9) as i8) - 4),
    )
}

fn product_bytes(a: &PolyQ, s: &SecretPoly) -> Vec<u8> {
    let product = schoolbook::mul_asym(a, s);
    saber_ring::packing::poly13_to_words(&product)
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// Runs one component solo and returns `(busy_cycles, done_at, output)`.
fn solo(component: impl saber_soc::Component) -> (u64, u64, Option<Vec<u8>>) {
    let id = component.id();
    let mut soc = Soc::new();
    soc.add(component);
    let summary = soc.run(100_000);
    assert!(!summary.timed_out, "solo run must terminate");
    let stats = soc.component_stats(id).expect("component registered");
    let fp = soc.fingerprint(&summary);
    let output = fp.components[0].2.clone();
    (stats.busy_cycles, stats.done_at.expect("retired"), output)
}

#[test]
fn baseline_256_matches_standalone_total() {
    let (a, s) = operands(211);
    let c = EngineComponent::new(ComponentId(1), &a, &s, 256, MacStyle::PerMac, 1);
    let (busy, done_at, output) = solo(c);
    assert_eq!(busy, 341); // 17 + 14 + 256 + 54
    assert_eq!(done_at, 340);
    assert_eq!(output, Some(product_bytes(&a, &s)));
}

#[test]
fn hs1_512_matches_standalone_total() {
    let (a, s) = operands(977);
    let c = EngineComponent::new(ComponentId(1), &a, &s, 512, MacStyle::Centralized, 1);
    let (busy, done_at, output) = solo(c);
    assert_eq!(busy, 213); // 17 + 14 + 128 + 54
    assert_eq!(done_at, 212);
    assert_eq!(output, Some(product_bytes(&a, &s)));
}

#[test]
fn hs2_dsp_packed_matches_standalone_totals() {
    let (a, s) = operands(61);
    let s = SecretPoly::from_fn(|i| s.coeff(i).clamp(-4, 4));
    let (busy1, _, out1) = solo(DspPackedComponent::new(ComponentId(1), &a, &s, 1, 1));
    assert_eq!(busy1, 216); // 17 + 14 + 131 + 54
    assert_eq!(out1, Some(product_bytes(&a, &s)));
    let (busy2, _, out2) = solo(DspPackedComponent::new(ComponentId(1), &a, &s, 2, 1));
    assert_eq!(busy2, 152); // 17 + 14 + 67 + 54
    assert_eq!(out2, Some(product_bytes(&a, &s)));
}

#[test]
fn lightweight_matches_standalone_total() {
    let (a, s) = operands(409);
    let c = LightweightComponent::new(ComponentId(1), &a, &s, 1);
    let (busy, _, output) = solo(c);
    assert_eq!(busy, 18_928);
    assert_eq!(output, Some(product_bytes(&a, &s)));
}

#[test]
fn sponge_component_matches_core_and_software_xof() {
    let seed = [0x5au8; 32];
    let machine = SpongeMachine::shake128(&seed, 416);
    let c = SpongeComponent::new(ComponentId(1), "shake128", machine, 1);
    let (busy, _, output) = solo(c);
    // 21 absorb + 24 rounds + 21 squeeze + 24 + 21 + 24 + 10 = 145.
    assert_eq!(busy, 145);
    let (expected, core_cycles) = sponge_on_core(&seed, 416, 168, 0x1f);
    assert_eq!(busy, core_cycles, "stepper must cost what the core costs");
    assert_eq!(output.as_deref(), Some(expected.as_slice()));
    assert_eq!(expected, Shake128::xof(&seed, 416));
}

#[test]
fn coproc_component_matches_run_to_completion_executor() {
    let seed = [7u8; 32];
    let program = programs::keygen_program(&SABER, &seed);

    // Reference: the historical run-to-completion executor.
    let mut ref_mult = CentralizedMultiplier::new(512);
    let mut reference = Coprocessor::new(&mut ref_mult);
    reference.run(&program).expect("keygen program executes");
    let ref_cycles = reference.cycles().total();
    let mut ref_out = reference.output("pk").expect("pk stored").to_vec();
    ref_out.extend_from_slice(reference.output("seed_s").expect("seed_s stored"));

    // Under the scheduler: one instruction per event.
    let mut mult = CentralizedMultiplier::new(512);
    let c = CoprocComponent::new(
        ComponentId(1),
        "saber-keygen",
        &mut mult,
        program,
        &["pk", "seed_s"],
        1,
    );
    let (busy, done_at, output) = solo(c);
    assert_eq!(busy, ref_cycles);
    assert_eq!(output, Some(ref_out));
    // The makespan spreads the instruction costs over the time axis.
    assert!(done_at >= ref_cycles - 1, "done_at = {done_at}");
}

#[test]
fn combined_no_bus_run_keeps_every_solo_total() {
    // All isolated datapaths on one time axis: sharing the scheduler
    // must not change any model's own cycle count.
    let (a, s) = operands(131);
    let s4 = SecretPoly::from_fn(|i| s.coeff(i).clamp(-4, 4));
    let mut soc = Soc::new();
    soc.add(EngineComponent::new(
        ComponentId(1),
        &a,
        &s,
        256,
        MacStyle::PerMac,
        1,
    ));
    soc.add(EngineComponent::new(
        ComponentId(2),
        &a,
        &s,
        512,
        MacStyle::Centralized,
        1,
    ));
    soc.add(DspPackedComponent::new(ComponentId(3), &a, &s4, 1, 1));
    soc.add(LightweightComponent::new(ComponentId(4), &a, &s, 1));
    soc.add(SpongeComponent::new(
        ComponentId(5),
        "shake128",
        SpongeMachine::shake128(&[1u8; 32], 416),
        1,
    ));
    let summary = soc.run(100_000);
    assert!(!summary.timed_out);
    // Makespan = slowest component (the lightweight datapath).
    assert_eq!(summary.makespan, 18_928);
    for (id, busy) in [(1, 341), (2, 213), (3, 216), (4, 18_928), (5, 145)] {
        assert_eq!(
            soc.component_stats(ComponentId(id)).unwrap().busy_cycles,
            busy,
            "component {id}"
        );
    }
    // All four multiplier products agree.
    let fp = soc.fingerprint(&summary);
    assert_eq!(fp.components[0].2, fp.components[1].2);
}

#[test]
fn clock_divider_stretches_makespan_but_not_busy_cycles() {
    let (a, s) = operands(883);
    let c = EngineComponent::new(ComponentId(1), &a, &s, 512, MacStyle::Centralized, 2);
    let (busy, done_at, output) = solo(c);
    assert_eq!(busy, 213, "a divided clock costs the same model cycles");
    assert_eq!(done_at, 2 * (213 - 1), "…spread over twice the base cycles");
    assert_eq!(output, Some(product_bytes(&a, &s)));
}
