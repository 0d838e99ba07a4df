//! `ClockedComponent`: raw `saber_hw::Clocked` primitives on divided
//! clocks under the discrete-event scheduler, each finishing exactly as
//! it would standalone.

use saber_hw::keccak_core::{KeccakCore, PERMUTATION_CYCLES};
use saber_hw::{Bram, Dsp48};
use saber_keccak::keccak_f1600;
use saber_keccak::permutation::LANES;
use saber_soc::{ClockedComponent, ComponentId, Soc};

#[test]
fn primitives_on_divided_clocks_share_one_run() {
    let mut mem = Bram::new(4);
    mem.preload(0, &[5]);
    mem.issue_read(0).unwrap();
    let mut dsp = Dsp48::new(3);
    dsp.issue(6, 7, 0).unwrap();
    let mut core = KeccakCore::new();
    core.start_permutation();

    {
        let mut soc = Soc::new();
        // BRAM at full rate, DSP at full rate, Keccak on a half clock.
        soc.add(ClockedComponent::new(
            ComponentId(0),
            "bram",
            &mut mem,
            1,
            1,
        ));
        soc.add(ClockedComponent::new(ComponentId(1), "dsp", &mut dsp, 1, 3));
        soc.add(ClockedComponent::new(
            ComponentId(2),
            "keccak",
            &mut core,
            2,
            PERMUTATION_CYCLES,
        ));
        let summary = soc.run(1_000);
        assert!(!summary.timed_out);
        // The half-clock Keccak dominates: 24 edges at stride 2.
        assert_eq!(summary.makespan, 2 * (PERMUTATION_CYCLES - 1) + 1);
        assert_eq!(
            soc.component_stats(ComponentId(2)).unwrap().busy_cycles,
            PERMUTATION_CYCLES
        );
    }

    // Each primitive finished exactly as it would standalone.
    assert_eq!(mem.read_data(), Some(5));
    assert_eq!(dsp.output(), Some(42));
    let mut reference = [0u64; LANES];
    keccak_f1600(&mut reference);
    assert_eq!(core.state(), &reference);
}
