//! Frozen simulated behaviour of every cycle-accurate multiplier model.
//!
//! Host-speed work on the simulators must leave every simulated
//! statistic identical. This test pins them all: for each model and a
//! fixed set of seeded operands it checks the product against the
//! schoolbook oracle, the [`CycleReport`] of every multiplication, the
//! accumulated [`Activity`], and the timeline's track, units, counters
//! and every phase `(name, start_cycle, end_cycle, ops)`. Short
//! timelines are listed phase by phase; LW's 1,680 phases are pinned as
//! a count plus a 64-bit FNV-1a digest over the same tuples.
//!
//! The expected values were recorded from the models before their
//! inner loops were optimized. They are not to be regenerated to make a
//! change pass: a change that moves any of them changes the simulated
//! hardware, not just the host time.

use saber_core::report::HwMultiplier;
use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, LightweightMultiplier,
    SlidingLightweightMultiplier,
};
use saber_hw::{Activity, CycleReport};
use saber_ring::{schoolbook, PolyQ, SecretPoly};
use saber_testkit::Rng;
use saber_trace::CycleTimeline;

/// Seeded operands with secrets in `-bound..=bound`, then the extreme
/// pair (every public coefficient 8191, secrets alternating ±bound).
fn operands(bound: i8, seeds: [u64; 2]) -> Vec<(PolyQ, SecretPoly)> {
    let mut ops: Vec<(PolyQ, SecretPoly)> = seeds
        .iter()
        .map(|&seed| {
            let mut rng = Rng::new(seed);
            let a = PolyQ::from_fn(|_| rng.range_u16(0, 8191));
            let s = SecretPoly::from_fn(|_| rng.secret_coeff(bound));
            (a, s)
        })
        .collect();
    ops.push((
        PolyQ::from_fn(|_| 8191),
        SecretPoly::from_fn(|i| if i % 2 == 0 { bound } else { -bound }),
    ));
    ops
}

/// The operands a model multiplies, in order: Saber (|s| ≤ 4) for every
/// model, then LightSaber (|s| ≤ 5) for every model but HS-II.
fn workload(lightsaber: bool) -> Vec<(PolyQ, SecretPoly)> {
    let mut ops = operands(4, [0x5ABE_F001, 0x5ABE_F002]);
    if lightsaber {
        ops.extend(operands(5, [0x5ABE_F005, 0x5ABE_F006]));
    }
    ops
}

fn build(model: &str) -> Box<dyn HwMultiplier> {
    match model {
        "baseline-256" => Box::new(BaselineMultiplier::new(256)),
        "baseline-512" => Box::new(BaselineMultiplier::new(512)),
        "hs1-256" => Box::new(CentralizedMultiplier::new(256)),
        "hs1-512" => Box::new(CentralizedMultiplier::new(512)),
        "hs1-1024" => Box::new(CentralizedMultiplier::new(1024)),
        "hs2-128" => Box::new(DspPackedMultiplier::with_dsps(128)),
        "hs2-256" => Box::new(DspPackedMultiplier::with_dsps(256)),
        "lw-4" => Box::new(LightweightMultiplier::new()),
        "lw-sliding" => Box::new(SlidingLightweightMultiplier::new()),
        other => panic!("unknown model {other}"),
    }
}

/// 64-bit FNV-1a over every phase's name and cycle/ops figures.
fn phase_digest(timeline: &CycleTimeline) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in timeline.phases() {
        eat(p.name.as_bytes());
        eat(&[0xff]);
        eat(&p.start_cycle.to_le_bytes());
        eat(&p.end_cycle.to_le_bytes());
        eat(&p.ops.to_le_bytes());
    }
    h
}

/// Phases listed one by one up to this count; longer timelines are
/// pinned by count and digest only.
const LISTED_PHASES: usize = 8;

/// A model's frozen timeline.
struct FrozenTimeline {
    track: &'static str,
    units: u64,
    counters: &'static [(&'static str, u64)],
    phase_count: usize,
    digest: u64,
    /// Every phase `(name, start, end, ops)` when there are at most
    /// [`LISTED_PHASES`]; empty otherwise.
    phases: &'static [(&'static str, u64, u64, u64)],
}

/// One model's frozen statistics.
struct Frozen {
    model: &'static str,
    /// Whether the model also runs the LightSaber operands.
    lightsaber: bool,
    /// `(compute_cycles, memory_overhead_cycles)` of each multiplication
    /// (every schedule here is operand independent).
    cycles: (u64, u64),
    /// The activity accumulated over all multiplications: cycles, BRAM
    /// reads, BRAM writes, IO words, active LUTs, active FFs, DSP ops.
    activity: [u64; 7],
    /// The timeline of each multiplication (operand independent too).
    timeline: Option<FrozenTimeline>,
}

fn activity_fields(a: Activity) -> [u64; 7] {
    [
        a.cycles,
        a.bram_reads,
        a.bram_writes,
        a.io_words,
        a.active_luts,
        a.active_ffs,
        a.dsp_ops,
    ]
}

fn check_timeline(label: &str, got: Option<&CycleTimeline>, want: Option<&FrozenTimeline>) {
    let (got, want) = match (got, want) {
        (None, None) => return,
        (Some(got), Some(want)) => (got, want),
        (got, _) => panic!("{label}: timeline presence changed (now {})", got.is_some()),
    };
    assert_eq!(got.track(), want.track, "{label}: track");
    assert_eq!(got.units(), want.units, "{label}: units");
    let counters: Vec<(&str, u64)> = got
        .counters()
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    assert_eq!(counters, want.counters, "{label}: counters");
    assert_eq!(got.phases().len(), want.phase_count, "{label}: phase count");
    if got.phases().len() <= LISTED_PHASES {
        let phases: Vec<(&str, u64, u64, u64)> = got
            .phases()
            .iter()
            .map(|p| (p.name, p.start_cycle, p.end_cycle, p.ops))
            .collect();
        assert_eq!(phases, want.phases, "{label}: phases");
    }
    assert_eq!(phase_digest(got), want.digest, "{label}: phase digest");
}

/// Runs the model's workload through a fresh instance and checks
/// everything against `want`.
fn check(want: &Frozen) {
    let label = want.model;
    let mut model = build(label);
    for (k, (a, s)) in workload(want.lightsaber).iter().enumerate() {
        let product = model.multiply(a, s);
        assert_eq!(
            product,
            schoolbook::mul_asym(a, s),
            "{label}: product of pair {k}"
        );
        let report = model.report();
        assert_eq!(
            report.cycles,
            CycleReport {
                compute_cycles: want.cycles.0,
                memory_overhead_cycles: want.cycles.1,
            },
            "{label}: cycle report of pair {k}"
        );
        check_timeline(
            &format!("{label} pair {k}"),
            model.timeline(),
            want.timeline.as_ref(),
        );
    }
    let activity = model
        .report()
        .activity
        .expect("every model here tracks activity");
    assert_eq!(
        activity_fields(activity),
        want.activity,
        "{label}: accumulated activity"
    );
}

/// Recorded from the models before their inner loops were optimized.
const FROZEN: [Frozen; 9] = [
    Frozen {
        model: "baseline-256",
        lightsaber: true,
        cycles: (256, 85),
        activity: [341, 408, 312, 720, 83214, 30900, 0],
        timeline: Some(FrozenTimeline {
            track: "baseline-256",
            units: 256,
            counters: &[("streamed_words", 39)],
            phase_count: 4,
            digest: 0xc22772c06239cf0d,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("compute", 31, 287, 65536),
                ("drain", 287, 341, 0),
            ],
        }),
    },
    Frozen {
        model: "baseline-512",
        lightsaber: true,
        cycles: (128, 85),
        activity: [213, 408, 312, 720, 164622, 30900, 0],
        timeline: Some(FrozenTimeline {
            track: "baseline-512",
            units: 512,
            counters: &[("streamed_words", 39)],
            phase_count: 4,
            digest: 0x9e79562f9b3ab7f6,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("compute", 31, 159, 65536),
                ("drain", 159, 213, 0),
            ],
        }),
    },
    Frozen {
        model: "hs1-256",
        lightsaber: true,
        cycles: (256, 85),
        activity: [341, 408, 312, 720, 61884, 30900, 0],
        timeline: Some(FrozenTimeline {
            track: "hs1-256",
            units: 256,
            counters: &[("streamed_words", 39)],
            phase_count: 4,
            digest: 0xc22772c06239cf0d,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("compute", 31, 287, 65536),
                ("drain", 287, 341, 0),
            ],
        }),
    },
    Frozen {
        model: "hs1-512",
        lightsaber: true,
        cycles: (128, 85),
        activity: [213, 408, 312, 720, 121962, 30900, 0],
        timeline: Some(FrozenTimeline {
            track: "hs1-512",
            units: 512,
            counters: &[("streamed_words", 39)],
            phase_count: 4,
            digest: 0x9e79562f9b3ab7f6,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("compute", 31, 159, 65536),
                ("drain", 159, 213, 0),
            ],
        }),
    },
    Frozen {
        model: "hs1-1024",
        lightsaber: true,
        cycles: (64, 85),
        activity: [149, 408, 312, 720, 242118, 30900, 0],
        timeline: Some(FrozenTimeline {
            track: "hs1-1024",
            units: 1024,
            counters: &[("streamed_words", 39)],
            phase_count: 4,
            digest: 0x890360454674e336,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("compute", 31, 95, 65536),
                ("drain", 95, 149, 0),
            ],
        }),
    },
    Frozen {
        model: "hs2-128",
        lightsaber: false,
        cycles: (131, 85),
        activity: [216, 204, 156, 360, 48135, 44142, 49152],
        timeline: Some(FrozenTimeline {
            track: "hs2-128",
            units: 128,
            counters: &[("dsp_issues", 16384)],
            phase_count: 5,
            digest: 0xacb2292a749df2c6,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("issue", 31, 159, 65536),
                ("pipeline_drain", 159, 162, 0),
                ("writeback_drain", 162, 216, 0),
            ],
        }),
    },
    Frozen {
        model: "hs2-256",
        lightsaber: false,
        cycles: (67, 85),
        activity: [152, 204, 156, 360, 95367, 87918, 49152],
        timeline: Some(FrozenTimeline {
            track: "hs2-256",
            units: 256,
            counters: &[("dsp_issues", 16384)],
            phase_count: 5,
            digest: 0x250e0afaa8264586,
            phases: &[
                ("secret_load", 0, 17, 0),
                ("public_preload", 17, 31, 0),
                ("issue", 31, 95, 65536),
                ("pipeline_drain", 95, 98, 0),
                ("writeback_drain", 98, 152, 0),
            ],
        }),
    },
    Frozen {
        model: "lw-4",
        lightsaber: true,
        cycles: (16384, 2544),
        activity: [18928, 103488, 98400, 201888, 3246, 1806, 0],
        timeline: Some(FrozenTimeline {
            track: "lw-4",
            units: 4,
            counters: &[("port_steals", 800)],
            phase_count: 1680,
            digest: 0x37635f94774e608a,
            phases: &[],
        }),
    },
    Frozen {
        model: "lw-sliding",
        lightsaber: true,
        cycles: (16384, 224),
        activity: [16608, 44640, 25344, 69984, 3486, 2226, 0],
        timeline: None,
    },
];

fn frozen(model: &str) -> &'static Frozen {
    FROZEN
        .iter()
        .find(|f| f.model == model)
        .unwrap_or_else(|| panic!("no frozen entry for {model}"))
}

#[test]
fn baseline_256() {
    check(frozen("baseline-256"));
}

#[test]
fn baseline_512() {
    check(frozen("baseline-512"));
}

#[test]
fn hs1_256() {
    check(frozen("hs1-256"));
}

#[test]
fn hs1_512() {
    check(frozen("hs1-512"));
}

#[test]
fn hs1_1024() {
    check(frozen("hs1-1024"));
}

#[test]
fn hs2_128() {
    check(frozen("hs2-128"));
}

#[test]
fn hs2_256() {
    check(frozen("hs2-256"));
}

#[test]
fn lw() {
    check(frozen("lw-4"));
}

#[test]
fn lw_sliding() {
    check(frozen("lw-sliding"));
}
