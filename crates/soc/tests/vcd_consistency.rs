//! Cross-format observability consistency: one probed co-simulation
//! run exported as both a Chrome trace-event document and an IEEE-1364
//! VCD waveform must tell the same story.
//!
//! Locks four things:
//! 1. **The probe is an observer** — a probed run produces bit-identical
//!    outcomes to an unprobed one.
//! 2. **Waveform counters equal scheduler totals** — the final value of
//!    every `busy_cycles` / `stall_cycles` wire equals the heap
//!    scheduler's own per-component totals, and the bus wires equal the
//!    golden contention counters (19 at 1:1, 7 at 2:1).
//! 3. **Chrome and VCD agree** — per-component busy-cycle sums, busy
//!    tick-event counts, and first/last active tick match between the
//!    cycle timelines (Chrome side) and the waveform (VCD side).
//! 4. **The golden waveform is stable** — the 1:1 VCD document is
//!    byte-identical to the checked-in golden file (regenerate with
//!    `SABER_BLESS=1`).

use saber_soc::scenario::{ARBITER_ID, MULT_ID, XOF_ID};
use saber_soc::{run_scenario, run_scenario_probed, ScenarioConfig, SocTrace};
use saber_testkit::golden;
use saber_trace::chrome;
use saber_trace::vcd::{self, VcdDoc};

const SEED: u64 = 0xC0DE_CAB1;

/// `c<id>_<name>` labels in registration order (names sanitized the way
/// the probe does).
const LABELS: [&str; 3] = ["c0_bus_arbiter", "c1_keccak_xof_dma", "c2_hs1_512_matvec"];

fn probed(stride: u64) -> (saber_soc::scenario::ScenarioOutcome, SocTrace, VcdDoc) {
    let (outcome, deviations, trace) =
        run_scenario_probed(&ScenarioConfig::reference(SEED, stride));
    assert!(deviations.is_empty(), "canonical order never deviates");
    let doc = vcd::parse(&trace.vcd).expect("probe emits structurally valid VCD");
    (outcome, trace, doc)
}

#[test]
fn probe_does_not_perturb_the_run() {
    for stride in [1, 2] {
        let (plain, _) = run_scenario(&ScenarioConfig::reference(SEED, stride));
        let (probed, deviations, trace) =
            run_scenario_probed(&ScenarioConfig::reference(SEED, stride));
        assert_eq!(
            plain, probed,
            "probing must not change the run (stride {stride})"
        );
        assert!(deviations.is_empty());
        assert_eq!(trace.makespan, plain.makespan);
    }
}

#[test]
fn vcd_busy_counters_equal_scheduler_totals() {
    for (stride, golden_makespan, golden_contention) in [(1, 395, 19), (2, 629, 7)] {
        let (outcome, trace, doc) = probed(stride);
        assert_eq!(outcome.makespan, golden_makespan);
        assert_eq!(doc.end_time, golden_makespan);
        assert_eq!(trace.makespan, golden_makespan);

        for (i, label) in LABELS.iter().enumerate() {
            let (name, stats, _) = &outcome.fingerprint.components[i];
            assert_eq!(
                doc.final_value(&format!("soc.{label}.busy_cycles")),
                Some(stats.busy_cycles),
                "busy_cycles wire vs scheduler total for {name} (stride {stride})"
            );
            assert_eq!(
                doc.final_value(&format!("soc.{label}.stall_cycles")),
                Some(stats.stall_cycles),
                "stall_cycles wire vs scheduler total for {name} (stride {stride})"
            );
            // Non-daemon components end done/idle (state 0); the
            // arbiter daemon never retires and stays in state 1.
            let expected_state = u64::from(i == ARBITER_ID.0);
            assert_eq!(
                doc.final_value(&format!("soc.{label}.state")),
                Some(expected_state)
            );
        }

        // Bus wires end at the fingerprint's bus counters.
        let bus = &outcome.fingerprint.bus;
        assert_eq!(
            doc.final_value("soc.bus.contended_cycles"),
            Some(golden_contention)
        );
        assert_eq!(bus.contended_cycles, golden_contention);
        assert_eq!(
            doc.final_value("soc.bus.read_grants"),
            Some(bus.read_grants)
        );
        assert_eq!(
            doc.final_value("soc.bus.write_grants"),
            Some(bus.write_grants)
        );
        // The handshake flag rose and stayed up.
        assert_eq!(doc.final_value("soc.bus.sig_xof_done"), Some(1));
        // Quiescence: nothing pending, no live non-daemons.
        assert_eq!(doc.final_value("soc.bus.read_reqs"), Some(0));
        assert_eq!(doc.final_value("soc.bus.write_reqs"), Some(0));
        assert_eq!(doc.final_value("soc.bus.grants_pending"), Some(0));
        assert_eq!(doc.final_value("soc.sched.live"), Some(0));
    }
}

#[test]
fn chrome_and_vcd_agree() {
    for stride in [1u64, 2] {
        let (outcome, trace, doc) = probed(stride);

        // The Chrome document is structurally valid.
        let chrome_doc = chrome::export(None, &trace.timelines);
        chrome::validate(&chrome_doc).expect("chrome export validates");

        for (i, label) in LABELS.iter().enumerate() {
            let timeline = &trace.timelines[i];
            let stats = &outcome.fingerprint.components[i].1;
            let busy_wire = format!("soc.{label}.busy_cycles");
            let stall_wire = format!("soc.{label}.stall_cycles");

            // Per-component busy cycles agree across all three views:
            // timeline (Chrome), waveform (VCD), scheduler fingerprint.
            assert_eq!(timeline.cycles_in("busy"), stats.busy_cycles);
            assert_eq!(timeline.cycles_in("stall"), stats.stall_cycles);
            assert_eq!(doc.final_value(&busy_wire), Some(stats.busy_cycles));

            // Tick-event counts: each busy tick is one cumulative-wire
            // change in the VCD and one cycle of "busy" in the timeline.
            assert_eq!(
                doc.change_count(&busy_wire) as u64,
                timeline.cycles_in("busy"),
                "busy tick events for {label} (stride {stride})"
            );
            assert_eq!(
                doc.change_count(&stall_wire) as u64,
                timeline.cycles_in("stall"),
                "stall tick events for {label} (stride {stride})"
            );

            // First active tick: the first busy phase starts exactly
            // where the busy counter first moves.
            let first_busy_phase = timeline
                .phases()
                .iter()
                .find(|p| p.name == "busy")
                .expect("every component does work");
            let first_busy_change = doc
                .steps(&busy_wire)
                .iter()
                .find(|&&(_, v)| v > 0)
                .map(|&(t, _)| t)
                .expect("busy counter moves");
            assert_eq!(first_busy_phase.start_cycle, first_busy_change);

            // Last active tick: the last busy/stall phase ends right
            // after the last cumulative-wire change.
            let last_active_end = timeline
                .phases()
                .iter()
                .filter(|p| p.name != "idle")
                .map(|p| p.end_cycle)
                .max()
                .expect("every component does work");
            let last_change = doc
                .steps(&busy_wire)
                .iter()
                .chain(doc.steps(&stall_wire).iter())
                .map(|&(t, _)| t)
                .max()
                .expect("counters move");
            assert_eq!(last_active_end, last_change + 1);

            // Both views tile the same [0, makespan) axis.
            assert_eq!(timeline.total_cycles(), trace.makespan);
        }

        // The arbiter is the daemon that runs to quiescence.
        assert_eq!(
            outcome.fingerprint.components[ARBITER_ID.0].0,
            "bus-arbiter"
        );
        assert_eq!(outcome.fingerprint.components[XOF_ID.0].0, "keccak-xof-dma");
        assert_eq!(
            outcome.fingerprint.components[MULT_ID.0].0,
            "hs1-512-matvec"
        );
    }
}

#[test]
fn golden_vcd_file_is_stable() {
    let (_, trace, _) = probed(1);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("cosim_1to1.vcd");
    if let Err(drift) = golden::check(&path, &trace.vcd) {
        panic!("1:1 co-sim waveform: {drift}");
    }
}

/// The reader on `text` gives `Ok` or `Err`, and every accessor on an
/// `Ok` document returns; a panic anywhere fails with `what`.
fn read_and_query(text: &str, what: &str) {
    let outcome = std::panic::catch_unwind(|| {
        if let Ok(doc) = vcd::parse(text) {
            for signal in &doc.signals {
                let path = signal.path.as_str();
                let _ = doc.signal_index(path);
                let _ = doc.steps(path);
                let _ = doc.high_time(path);
                let _ = doc.final_value(path);
                let _ = doc.change_count(path);
            }
        }
    });
    assert!(
        outcome.is_ok(),
        "the VCD reader panicked on {what}: {text:?}"
    );
}

#[test]
fn truncated_and_mutated_golden_is_read_or_refused_never_panicked_on() {
    // Lines the writer never emits where the mutation puts them: late
    // `$dumpvars`, extreme and malformed timestamps, bad vectors and
    // declarations.
    const HOSTILE: &[&str] = &[
        "$dumpvars",
        "$end",
        "#0",
        "#18446744073709551615",
        "#18446744073709551616",
        "#-1",
        "b",
        "b1",
        "b2 !",
        "b11111111111111111111111111111111111111111111111111111111111111111 !",
        "1",
        "x!",
        "$var wire 0 ! zero $end",
        "$var wire 4294967296 ~~ wide $end",
        "$scope module",
        "$upscope $end",
        "$enddefinitions $end",
        "$timescale 1 ns $end",
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("cosim_1to1.vcd");
    let golden = std::fs::read_to_string(&path).expect("golden VCD present");
    assert!(golden.is_ascii(), "every byte offset is a char boundary");
    let mut rng = saber_testkit::Rng::new(0x5ABE_2026);
    // Every truncation at a line boundary, and each one again with the
    // next line cut at a seeded byte. (Cutting at all 44,935 offsets
    // re-parses about 1 GB.)
    let mut boundary = 0;
    for line in golden.split_inclusive('\n') {
        read_and_query(&golden[..boundary], &format!("the {boundary}-byte prefix"));
        let cut = boundary + rng.range_usize(0, line.len() - 1);
        read_and_query(&golden[..cut], &format!("the {cut}-byte prefix"));
        boundary += line.len();
    }
    read_and_query(&golden, "the golden waveform");
    let lines: Vec<&str> = golden.lines().collect();
    for case in 0..4_000 {
        let flipped: String;
        let mut doc = lines.clone();
        let at = rng.range_usize(0, doc.len() - 1);
        let to = rng.range_usize(0, doc.len() - 1);
        match rng.range_usize(0, 4) {
            0 => {
                doc.remove(at);
            }
            1 => doc.insert(to, doc[at]),
            2 => doc.swap(at, to),
            3 => doc[at] = HOSTILE[rng.range_usize(0, HOSTILE.len() - 1)],
            _ => {
                let mut bytes = doc[at].as_bytes().to_vec();
                if !bytes.is_empty() {
                    let i = rng.range_usize(0, bytes.len() - 1);
                    bytes[i] = rng.range_u16(0x20, 0x7e) as u8;
                }
                flipped = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                doc[at] = &flipped;
            }
        }
        read_and_query(&doc.join("\n"), &format!("mutation {case} (line {at})"));
    }
}
