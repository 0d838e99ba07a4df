//! Integration scenarios across the hardware primitives: realistic
//! multi-component pipelines, failure injection, and cross-platform
//! model sanity.
//!
//! Randomized sections are driven by the deterministic `saber-testkit`
//! harness (the offline replacement for proptest).

use saber_hw::bram::{Bram, PortKind};
use saber_hw::dsp::DspBank;
use saber_hw::mac::{multiples, select_multiple};
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::power::{Activity, PowerModel};
use saber_testkit::cases;

/// A miniature of the LW datapath: stream words through a BRAM while a
/// MAC consumes them, checking port discipline end to end.
#[test]
fn bram_streaming_pipeline() {
    let mut mem = Bram::new(16);
    let data: Vec<u64> = (0..8).map(|i| 1000 + i).collect();
    mem.preload(0, &data);

    let mut received = Vec::new();
    // Issue read for word i while consuming word i−1.
    mem.issue_read(0).unwrap();
    mem.tick();
    for i in 1..8 {
        let word = mem.read_data().expect("data from previous issue");
        mem.issue_read(i).unwrap();
        // Write back a transformed word on the independent write port.
        mem.issue_write(8 + (i - 1), word + 1).unwrap();
        mem.tick();
        received.push(word);
    }
    received.push(mem.read_data().unwrap());
    mem.tick();
    assert_eq!(received, data);
    assert_eq!(
        mem.inspect(8, 7),
        &[1001, 1002, 1003, 1004, 1005, 1006, 1007]
    );
    let stats = mem.stats();
    assert_eq!(stats.reads, 8);
    assert_eq!(stats.writes, 7);
}

/// Failure injection: port conflicts surface as typed errors mid-run.
#[test]
fn conflicting_streams_are_detected() {
    let mut mem = Bram::new(8);
    mem.issue_read(0).unwrap();
    // A second producer grabbing the read port the same cycle must fail
    // loudly, not corrupt the schedule.
    let err = mem.issue_read(1).unwrap_err();
    assert_eq!(err.port, PortKind::Read);
    // The write port is still free.
    mem.issue_write(2, 42).unwrap();
    mem.tick();
    assert_eq!(mem.inspect(2, 1), &[42]);
}

/// A DSP chain fed from BRAM data: values survive the full path.
#[test]
fn bram_to_dsp_pipeline() {
    let mut mem = Bram::new(4);
    mem.preload(0, &[123, 456]);
    // One slice: a one-lane bank.
    let mut dsp = DspBank::new(1, 2);

    mem.issue_read(0).unwrap();
    mem.tick();
    let a = mem.read_data().unwrap() as i64;
    mem.issue_read(1).unwrap();
    mem.tick();
    let b = mem.read_data().unwrap() as i64;

    dsp.issue(&[a], &[b], &[7]).unwrap();
    dsp.tick();
    assert_eq!(dsp.output(), None);
    dsp.tick();
    assert_eq!(dsp.output(), Some(&[123 * 456 + 7][..]));
}

/// The centralized-MAC broadcast works for a full 256-lane row.
#[test]
fn full_mac_row_broadcast() {
    let a = 4321u16;
    let m = multiples(a);
    let secrets: Vec<i8> = (0..256).map(|i| ((i % 11) as i8) - 5).collect();
    let mut acc = vec![0u16; 256];
    for (slot, &s) in acc.iter_mut().zip(secrets.iter()) {
        *slot = select_multiple(&m, s, *slot);
    }
    for (slot, &s) in acc.iter().zip(secrets.iter()) {
        let expected = ((i32::from(a) * i32::from(s)).rem_euclid(8192)) as u16;
        assert_eq!(*slot, expected);
    }
}

#[test]
fn bram_holds_values_across_arbitrary_traffic() {
    // Model: apply writes in order; reads must always return the
    // latest committed value.
    for mut rng in cases(64) {
        let mut mem = Bram::new(16);
        let mut shadow = [0u64; 16];
        for _ in 0..rng.range_usize(1, 49) {
            let addr = rng.range_usize(0, 15);
            let value = rng.next_u64();
            mem.issue_write(addr, value).unwrap();
            mem.tick();
            shadow[addr] = value;
            mem.issue_read(addr).unwrap();
            mem.tick();
            assert_eq!(
                mem.read_data(),
                Some(shadow[addr]),
                "case seed {}",
                rng.seed()
            );
        }
        assert_eq!(mem.inspect(0, 16), &shadow[..], "case seed {}", rng.seed());
    }
}

#[test]
fn dsp_computes_any_legal_operands() {
    for mut rng in cases(64) {
        let a = rng.range_i64(-(1i64 << 26), (1i64 << 26) - 1);
        let b = rng.range_i64(-(1i64 << 17), (1i64 << 17) - 1);
        let c = rng.range_i64(-(1i64 << 40), (1i64 << 40) - 1);
        let mut dsp = DspBank::new(1, 1);
        dsp.issue(&[a], &[b], &[c]).unwrap();
        dsp.tick();
        assert_eq!(
            dsp.output(),
            Some(&[a * b + c][..]),
            "case seed {}",
            rng.seed()
        );
    }
}

#[test]
fn power_is_monotone_in_activity() {
    let model = PowerModel::for_platform(Fpga::Artix7);
    for mut rng in cases(64) {
        let reads = rng.next_u64() % 100_000;
        let extra = 1 + rng.next_u64() % 49_999;
        let base = Activity {
            cycles: 10_000,
            bram_reads: reads,
            bram_writes: reads / 2,
            io_words: reads,
            active_luts: 541,
            active_ffs: 301,
            dsp_ops: 0,
        };
        let mut more = base;
        more.bram_reads += extra;
        more.io_words += extra;
        let p_base = model.estimate(&base, 100.0).total_w();
        let p_more = model.estimate(&more, 100.0).total_w();
        assert!(p_more > p_base, "case seed {}", rng.seed());
    }
}

#[test]
fn fmax_is_monotone_in_depth() {
    for levels in 1u32..30 {
        let shallow = CriticalPath {
            logic_levels: levels,
        };
        let deep = CriticalPath {
            logic_levels: levels + 1,
        };
        for fpga in [Fpga::Artix7, Fpga::UltrascalePlus] {
            assert!(deep.fmax_mhz(fpga) < shallow.fmax_mhz(fpga));
        }
    }
}
