//! The deterministic Table-1 properties, asserted as integration tests:
//! every cycle count the paper derives from the schedule (rather than
//! measures on silicon) must hold exactly in the models.

use saber::arch::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber::ring::{PolyMultiplier, PolyQ, SecretPoly};

fn operands() -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(123) & 0x1fff),
        SecretPoly::from_fn(|i| ((i % 9) as i8) - 4),
    )
}

#[test]
fn exact_compute_cycles() {
    let (a, s) = operands();
    let expectations: Vec<(Box<dyn HwMultiplier>, u64)> = vec![
        (Box::new(BaselineMultiplier::new(256)), 256),
        (Box::new(BaselineMultiplier::new(512)), 128),
        (Box::new(CentralizedMultiplier::new(256)), 256),
        (Box::new(CentralizedMultiplier::new(512)), 128),
        (Box::new(DspPackedMultiplier::new()), 131),
        (Box::new(LightweightMultiplier::new()), 16_384),
    ];
    for (mut hw, expected) in expectations {
        let _ = hw.multiply(&a, &s);
        assert_eq!(hw.report().cycles.compute_cycles, expected, "{}", hw.name());
    }
}

#[test]
fn hs_512_with_memory_overhead_is_213() {
    // §4.1: "the high-speed implementation with 512 multipliers requires
    // 128 cycles for the pure multiplication, or 213 cycles with the
    // memory overhead (39%)".
    let (a, s) = operands();
    let mut hw = CentralizedMultiplier::new(512);
    let _ = hw.multiply(&a, &s);
    let cycles = hw.report().cycles;
    assert_eq!(cycles.total(), 213);
    assert!((cycles.overhead_ratio() - 0.39).abs() < 0.01);
}

#[test]
fn lw_total_close_to_19471_and_overhead_below_16_percent() {
    let (a, s) = operands();
    let mut hw = LightweightMultiplier::new();
    let _ = hw.multiply(&a, &s);
    let cycles = hw.report().cycles;
    // Re-derived scheduler: within 5 % of the paper's 19,471.
    let deviation = (cycles.total() as f64 - 19_471.0).abs() / 19_471.0;
    assert!(deviation < 0.05, "total = {}", cycles.total());
    // §4.1 quotes the overhead against the total: "3,087 cycles, or less
    // than 16 %".
    let share_of_total = cycles.overhead_ratio();
    assert!(share_of_total < 0.16, "overhead share = {share_of_total}");
}

#[test]
fn hs2_uses_half_the_dsps_of_dang_et_al() {
    // §5.2: "our DSP-based multiplier uses half of the DSPs used in [12]
    // and achieves twice the performance". [12] instantiates 256 DSPs,
    // one per coefficient pair, for 256 cycles.
    let hs2 = DspPackedMultiplier::new();
    assert_eq!(hs2.area().dsps, 128);
    let dang_dsps = 256u32;
    let dang_cycles = 256u64;
    let (a, s) = operands();
    let mut hw = DspPackedMultiplier::new();
    let _ = hw.multiply(&a, &s);
    let ours = hw.report().cycles.compute_cycles;
    assert_eq!(hs2.area().dsps * 2, dang_dsps);
    assert!(
        (dang_cycles as f64 / ours as f64) > 1.9,
        "speedup = {}",
        dang_cycles as f64 / ours as f64
    );
}

#[test]
fn centralization_is_free_and_smaller() {
    // §3.1: "only positive and has virtually no trade-offs".
    let (a, s) = operands();
    for macs in [256usize, 512] {
        let mut base = BaselineMultiplier::new(macs);
        let mut hs1 = CentralizedMultiplier::new(macs);
        let pb = base.multiply(&a, &s);
        let ph = hs1.multiply(&a, &s);
        assert_eq!(pb, ph);
        assert_eq!(
            base.report().cycles.total(),
            hs1.report().cycles.total(),
            "no performance impact"
        );
        assert!(
            hs1.report().area.luts < base.report().area.luts,
            "significant area reduction"
        );
        assert_eq!(hs1.report().area.dsps, 0);
    }
}

#[test]
fn platform_assignments_follow_device_capacity() {
    // The paper puts LW on the tiny Artix-7 and the HS designs on the
    // Ultrascale+. The area model must reproduce that constraint: the
    // HS designs do NOT fit the XC7A12TL (8k LUTs), LW does, and
    // everything fits the XCZU9EG.
    use saber::hw::Fpga;
    let (a, s) = operands();
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    assert!(lw.report().fits(Fpga::Artix7));
    assert!(lw.report().fits(Fpga::UltrascalePlus));

    for macs in [256usize, 512] {
        let mut hs = CentralizedMultiplier::new(macs);
        let _ = hs.multiply(&a, &s);
        assert!(
            !hs.report().fits(Fpga::Artix7),
            "HS-I {macs} should exceed the small Artix-7"
        );
        assert!(hs.report().fits(Fpga::UltrascalePlus));
    }

    let mut hs2 = DspPackedMultiplier::new();
    let _ = hs2.multiply(&a, &s);
    assert!(
        !hs2.report().fits(Fpga::Artix7),
        "HS-II needs 128 DSPs; the XC7A12TL has 40"
    );
    assert!(hs2.report().fits(Fpga::UltrascalePlus));
}

#[test]
fn reported_frequencies_are_achievable() {
    // Table 1: 250 MHz for the high-speed designs (U+), 100 MHz for LW
    // (Artix-7). The timing model must show those clocks are achievable.
    let (a, s) = operands();
    let mut hs = CentralizedMultiplier::new(512);
    let _ = hs.multiply(&a, &s);
    assert!(hs.report().fmax_mhz() >= 250.0);
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    assert!(lw.report().fmax_mhz() >= 100.0);
}
