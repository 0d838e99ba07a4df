//! The `hw_sim` workload: full Saber KEM round trips run as
//! `saber-coproc` programs on the paper's three multiplier
//! architectures, plus the `saber-soc` co-simulation scenario at clock
//! strides 1 and 2. Simulated cycles are fixed by the program set and
//! do not depend on the seed; host time is what is measured.

use std::time::{Duration, Instant};

use saber_coproc::programs::{decaps_program, encaps_program, keygen_program, run_decaps};
use saber_coproc::{Coprocessor, CycleBreakdown, Instruction, Program};
use saber_core::{CentralizedMultiplier, DspPackedMultiplier, HwMultiplier, LightweightMultiplier};
use saber_hw::keccak_core::sponge_on_core;
use saber_keccak::Shake128;
use saber_kem::expand::{gen_matrix, gen_secret};
use saber_kem::serialize::{ciphertext_to_bytes, public_key_to_bytes};
use saber_kem::{encaps, keygen};
use saber_ring::{packing, schoolbook};
use saber_soc::scenario::{operands, PUBLIC_WORDS};
use saber_soc::{run_scenario, ScenarioConfig};

use crate::kem::{shipped_engine, PARAMS};
use crate::ladder::{per_call_ns, Case};
use crate::load::ns;
use crate::schedule::Rng;
use crate::stats::{quantile, Histogram};
use crate::{Args, Outcome};

// Stream tags of the seeded inputs.
const TRIP: u64 = 11;
const SOC: u64 = 12;
/// Round-trip inputs a run cycles through.
const TRIPS: usize = 4;
/// The frozen per-multiplication cycle totals, from the repository root.
const CYCLE_KATS: &str = "crates/verify/kats/cycle_totals.json";

/// One modelled multiplier architecture.
pub struct Arch {
    /// Metric suffix.
    pub name: &'static str,
    /// Its model name in the cycle-total KATs.
    kat: &'static str,
    /// Table 1 of the paper: cycles per multiplication, counting compute
    /// only (high-speed designs) or everything (LW).
    paper: u64,
    paper_compute_only: bool,
    build: fn() -> Box<dyn HwMultiplier>,
}

fn hs1_256() -> Box<dyn HwMultiplier> {
    Box::new(CentralizedMultiplier::new(256))
}

fn hs2() -> Box<dyn HwMultiplier> {
    Box::new(DspPackedMultiplier::new())
}

fn lw() -> Box<dyn HwMultiplier> {
    Box::new(LightweightMultiplier::new())
}

/// HS-I with 256 MACs, HS-II with 128 DSPs, and LW.
pub const ARCHS: [Arch; 3] = [
    Arch {
        name: "hs1_256",
        kat: "hs1-256",
        paper: 256,
        paper_compute_only: true,
        build: hs1_256,
    },
    Arch {
        name: "hs2",
        kat: "hs2-128",
        paper: 131,
        paper_compute_only: true,
        build: hs2,
    },
    Arch {
        name: "lw",
        kat: "lw-4",
        paper: 19_471,
        paper_compute_only: false,
        build: lw,
    },
];

/// The SoC scenario's multiplier clock strides, metric suffixes and
/// golden makespans.
const SOC_GOLDEN: [(u64, &str, u64); 2] = [(1, "s1", 395), (2, "s2", 629)];

/// Cycle classes of the coprocessor, in [`TripCycles::classes`] order.
const CLASSES: [&str; 5] = [
    "hashing",
    "sampling",
    "multiplication",
    "poly_ops",
    "data_movement",
];

/// A KEM round trip's inputs and the software KEM's outputs for them.
struct Trip {
    case: Case,
    pk: Vec<u8>,
    ct: Vec<u8>,
    ss: [u8; 32],
}

/// A SoC scenario run and the schoolbook product it must drain.
struct SocCase {
    stride: u64,
    label: &'static str,
    golden: u64,
    seed: u64,
    product: Vec<u64>,
}

/// Everything `hw_sim` runs, generated from the seed.
pub struct SimInputs {
    trips: Vec<Trip>,
    soc: Vec<SocCase>,
    /// KAT cycles per multiplication, in [`ARCHS`] order.
    mult_kat: Vec<u64>,
    /// KAT cycles of SHAKE-128 from a 32-byte seed into 416 bytes.
    sponge_kat: u64,
}

fn le_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// `(model, total_cycles)` of every frozen cycle-total KAT.
fn read_kats() -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(CYCLE_KATS).map_err(|e| format!("{CYCLE_KATS}: {e}"))?;
    let doc = saber_testkit::json::parse(&text).map_err(|e| format!("{CYCLE_KATS}: {e}"))?;
    let vectors = doc
        .get("vectors")
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("{CYCLE_KATS}: no vectors"))?;
    vectors
        .iter()
        .map(|v| {
            let cycles = u64::try_from(v.int_field("total_cycles")?).map_err(|e| e.to_string())?;
            Ok((v.str_field("model")?.to_string(), cycles))
        })
        .collect()
}

impl SimInputs {
    /// Generates the round trips (with the software KEM's outputs) and
    /// the SoC operands, and reads the cycle KATs.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let kats = read_kats()?;
        let kat = |model: &str| {
            kats.iter()
                .find(|(m, _)| m == model)
                .map(|&(_, c)| c)
                .ok_or_else(|| format!("{CYCLE_KATS} has no {model} entry"))
        };
        let params = &PARAMS[1];
        let mut engine = shipped_engine();
        let trips = (0..TRIPS)
            .map(|t| {
                let mut rng = Rng::derive(seed, TRIP, t as u64);
                let (seed, entropy) = (rng.bytes32(), rng.bytes32());
                let (pk, sk) = keygen(params, &seed, engine.as_mut());
                let (ct, ss) = encaps(&pk, &entropy, engine.as_mut());
                Trip {
                    pk: public_key_to_bytes(&pk),
                    ct: ciphertext_to_bytes(&ct, params),
                    ss: *ss.as_bytes(),
                    case: Case {
                        params,
                        seed,
                        entropy,
                        pk,
                        sk,
                        ct,
                    },
                }
            })
            .collect();
        let soc = SOC_GOLDEN
            .iter()
            .enumerate()
            .map(|(i, &(stride, label, golden))| {
                let seed = Rng::derive(seed, SOC, i as u64).next_u64();
                let (bytes, secret) = operands(seed);
                let public =
                    packing::poly13_from_words(&le_words(&Shake128::xof(&bytes, PUBLIC_WORDS * 8)));
                let product = packing::poly13_to_words(&schoolbook::mul_asym(&public, &secret));
                SocCase {
                    stride,
                    label,
                    golden,
                    seed,
                    product,
                }
            })
            .collect();
        Ok(Self {
            trips,
            soc,
            mult_kat: ARCHS.iter().map(|a| kat(a.kat)).collect::<Result<_, _>>()?,
            sponge_kat: kat("keccak-shake128-416")?,
        })
    }

    /// The round trips' keys, for the software per-layer timings.
    fn cases(&self) -> Vec<Case> {
        self.trips
            .iter()
            .map(|t| Case {
                pk: t.case.pk.clone(),
                sk: t.case.sk.clone(),
                ct: t.case.ct.clone(),
                ..t.case
            })
            .collect()
    }
}

/// The models and assembled programs a pass runs on: what `setup_s`
/// times for `hw_sim`.
struct Rig {
    models: Vec<Box<dyn HwMultiplier>>,
    keygen: Vec<Program>,
    encaps: Vec<Program>,
}

fn set_up(inputs: &SimInputs) -> Rig {
    let params = &PARAMS[1];
    Rig {
        models: ARCHS.iter().map(|a| (a.build)()).collect(),
        keygen: inputs
            .trips
            .iter()
            .map(|t| keygen_program(params, &t.case.seed))
            .collect(),
        encaps: inputs
            .trips
            .iter()
            .map(|t| encaps_program(params, &t.pk, &t.case.entropy))
            .collect(),
    }
}

/// Cycles of one KEM round trip on one architecture.
struct TripCycles {
    keygen: CycleBreakdown,
    encaps: CycleBreakdown,
    decaps: CycleBreakdown,
    /// The model's cycles for its last multiplication (Table-1 total).
    mult_total: u64,
    /// Of which compute.
    mult_compute: u64,
    seed_s: [u8; 32],
}

impl TripCycles {
    fn total(&self) -> u64 {
        self.keygen.total() + self.encaps.total() + self.decaps.total()
    }

    fn classes(&self) -> [u64; 5] {
        let sum =
            |f: fn(&CycleBreakdown) -> u64| f(&self.keygen) + f(&self.encaps) + f(&self.decaps);
        [
            sum(|c| c.hashing),
            sum(|c| c.sampling),
            sum(|c| c.multiplication),
            sum(|c| c.poly_ops),
            sum(|c| c.data_movement),
        ]
    }
}

fn stored32(bytes: Option<&[u8]>, what: &str) -> Result<[u8; 32], String> {
    bytes
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| format!("the keygen program stored no 32-byte {what}"))
}

/// Runs round trip `t` on architecture `a` as coprocessor programs and
/// checks every output against the software KEM and the cycle KATs.
fn round_trip(rig: &mut Rig, inputs: &SimInputs, a: usize, t: usize) -> Result<TripCycles, String> {
    let trip = &inputs.trips[t];
    let params = &PARAMS[1];
    let fail = |what: String| format!("{}: {what}", ARCHS[a].name);
    let model = rig.models[a].as_mut();

    let mut cpu = Coprocessor::new(&mut *model);
    cpu.run(&rig.keygen[t]).map_err(|e| fail(e.to_string()))?;
    if cpu.output("pk") != Some(&trip.pk[..]) {
        return Err(fail(
            "the keygen program's public key differs from the software KEM".into(),
        ));
    }
    let seed_s = stored32(cpu.output("seed_s"), "seed_s")?;
    let z = stored32(cpu.output("z"), "z")?;
    let keygen = cpu.cycles();

    let report = model.report();
    let (mult_total, mult_compute) = (report.cycles.total(), report.cycles.compute_cycles);
    if mult_total != inputs.mult_kat[a] {
        return Err(fail(format!(
            "{mult_total} cycles per multiplication; {CYCLE_KATS} says {}",
            inputs.mult_kat[a]
        )));
    }

    let mut cpu = Coprocessor::new(&mut *model);
    cpu.run(&rig.encaps[t]).map_err(|e| fail(e.to_string()))?;
    if cpu.output("ct") != Some(&trip.ct[..]) || cpu.output("shared_secret") != Some(&trip.ss[..]) {
        return Err(fail(
            "the encaps program's ciphertext or secret differs from the software KEM".into(),
        ));
    }
    let encaps = cpu.cycles();

    let (ss, decaps) = run_decaps(params, &trip.pk, &seed_s, &z, &trip.ct, model)
        .map_err(|e| fail(e.to_string()))?;
    if ss != trip.ss {
        return Err(fail(
            "the decaps program's secret differs from the software KEM".into(),
        ));
    }
    Ok(TripCycles {
        keygen,
        encaps,
        decaps,
        mult_total,
        mult_compute,
        seed_s,
    })
}

/// Runs one SoC scenario and checks its makespan and product.
fn soc_run(case: &SocCase) -> Result<(u64, u64), String> {
    let (out, _) = run_scenario(&ScenarioConfig::reference(case.seed, case.stride));
    let fail = |what: String| Err(format!("soc stride {}: {what}", case.stride));
    if out.timed_out {
        return fail("the watchdog stopped the run".into());
    }
    if out.makespan != case.golden {
        return fail(format!(
            "makespan {} cycles, golden {}",
            out.makespan, case.golden
        ));
    }
    if out.product_words != case.product {
        return fail("the drained product differs from the schoolbook product".into());
    }
    Ok((out.makespan, out.contended_cycles))
}

/// Span labels of a pass's parts.
const PARTS: [&str; 5] = ["hs1_256.kem", "hs2.kem", "lw.kem", "soc.s1", "soc.s2"];

/// One pass over the fixed program set; returns its simulated cycles.
/// With `spans`, records each part as `(pass, part, start, end)` in
/// nanoseconds from `origin`.
fn pass(
    rig: &mut Rig,
    inputs: &SimInputs,
    p: u64,
    origin: Instant,
    mut spans: Option<&mut Vec<(u64, &'static str, u64, u64)>>,
) -> Result<u64, String> {
    let t = p as usize % inputs.trips.len();
    let mut cycles = 0;
    for (part, label) in PARTS.iter().enumerate() {
        let start = origin.elapsed();
        cycles += match part.checked_sub(ARCHS.len()) {
            None => round_trip(rig, inputs, part, t)?.total(),
            Some(s) => soc_run(&inputs.soc[s])?.0,
        };
        if let Some(spans) = spans.as_deref_mut() {
            spans.push((p, label, ns(start), ns(origin.elapsed())));
        }
    }
    Ok(cycles)
}

/// Passes over one measured stretch.
struct Passes {
    /// Host time of each pass, raw.
    time: Histogram,
    /// Host time of each pass at nominal host speed.
    scaled: Histogram,
    /// Each segment's median set-up time, raw.
    setups: Vec<f64>,
    /// Each segment's host speed (see [`crate::speed`]).
    speeds: Vec<f64>,
    count: u64,
    busy_s: f64,
    /// `busy_s` at nominal host speed.
    scaled_busy_s: f64,
    cycles: u64,
    /// Each pass's host time in milliseconds, raw and at nominal host
    /// speed.
    pass_ms: Vec<[f64; 2]>,
}

/// Set-ups timed at the start of each segment (one set-up takes about
/// 15 µs, too short for a single timing to repeat).
const SETUPS_PER_SEGMENT: usize = 16;

/// How strongly the simulator's host time follows the host speed that
/// [`crate::speed`] reads: a segment's times are scaled by speed^this.
/// The cycle models (mostly LW's, branchy scalar code) slow less than
/// the reference kernel when the shared host is contended: fitting
/// log host time against log speed over 1.5 s blocks of five 30 s runs
/// on a 2-vCPU KVM guest gave a slope of 0.83 (0.75 for LW
/// multiplications alone, over 1 s windows), against 1.02 for a Saber
/// encapsulation. Scaling by the full speed would report slow stretches
/// as up to 15 % faster than fast ones.
const SPEED_EXPONENT: f64 = 0.85;

/// Consecutive passes summarised together, about a second and a half of
/// the run: the reported figures are medians over blocks, so a
/// disturbed stretch of the host spoils only the blocks it falls in.
const PASSES_PER_BLOCK: usize = 16;

impl Passes {
    /// `[passes per second, p50 ms, p90 ms]` of each block of
    /// [`PASSES_PER_BLOCK`] consecutive passes (one block of all passes
    /// when there are fewer), raw and at nominal host speed.
    fn blocks(&self) -> [Vec<[f64; 3]>; 2] {
        let blocks: Vec<&[[f64; 2]]> = if self.pass_ms.len() < PASSES_PER_BLOCK {
            vec![&self.pass_ms[..]]
        } else {
            self.pass_ms.chunks_exact(PASSES_PER_BLOCK).collect()
        };
        std::array::from_fn(|column| {
            blocks
                .iter()
                .map(|block| {
                    let ms: Vec<f64> = block.iter().map(|pass| pass[column]).collect();
                    [
                        1e3 * ms.len() as f64 / ms.iter().sum::<f64>(),
                        quantile(&ms, 0.5),
                        quantile(&ms, 0.9),
                    ]
                })
                .collect()
        })
    }
}

/// Runs segments of one pass each, every one after fresh set-ups, until
/// `seconds` have passed (one segment at least). The host speed is read
/// on this thread before the first segment and after each; a segment's
/// speed is the geometric mean of the readings on either side, and its
/// pass time is scaled by that speed^[`SPEED_EXPONENT`]. A pass takes
/// 50–100 ms: readings around each pass follow the host's speed changes
/// closely.
fn measure(
    inputs: &SimInputs,
    seconds: f64,
    mut spans: Option<&mut Vec<(u64, &'static str, u64, u64)>>,
) -> Result<Passes, String> {
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut m = Passes {
        time: Histogram::default(),
        scaled: Histogram::default(),
        setups: Vec::new(),
        speeds: Vec::new(),
        count: 0,
        busy_s: 0.0,
        scaled_busy_s: 0.0,
        cycles: 0,
        pass_ms: Vec::new(),
    };
    let origin = Instant::now();
    let mut speed = crate::speed::reading(1);
    loop {
        let before = speed;
        let mut setups = Vec::new();
        let mut rig = loop {
            let start = Instant::now();
            let rig = set_up(inputs);
            setups.push(start.elapsed().as_secs_f64());
            if setups.len() == SETUPS_PER_SEGMENT {
                break rig;
            }
        };
        m.setups.push(crate::stats::median(&setups));
        let t = Instant::now();
        let cycles = pass(&mut rig, inputs, m.count, origin, spans.as_deref_mut())?;
        let took = t.elapsed();
        if m.count > 0 && cycles != m.cycles {
            return Err(format!(
                "simulated cycles drifted between passes: {} then {cycles}",
                m.cycles
            ));
        }
        speed = crate::speed::reading(1);
        m.speeds.push((before * speed).sqrt());
        let factor = (before * speed).sqrt().powf(SPEED_EXPONENT);
        m.cycles = cycles;
        m.count += 1;
        m.busy_s += took.as_secs_f64();
        m.time.record(ns(took));
        m.scaled.record(ns(took.mul_f64(factor)));
        m.scaled_busy_s += took.as_secs_f64() * factor;
        let ms = took.as_secs_f64() * 1e3;
        m.pass_ms.push([ms, ms * factor]);
        if Instant::now() >= stop {
            return Ok(m);
        }
    }
}

/// Runs `hw_sim`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    let inputs = SimInputs::generate(args.seed)?;
    println!(
        "input generation: {:.3} s for {} round trips and {} SoC runs (outside every timed window)",
        t.elapsed().as_secs_f64(),
        inputs.trips.len(),
        inputs.soc.len()
    );
    println!("shape: one thread; a pass is a Saber KEM round trip on hs1_256, hs2 and lw, then the SoC scenario at strides 1 and 2");
    // Unmeasured passes first, so that the allocator, the caches and the
    // host's scheduler settle.
    measure(&inputs, crate::WARM_UP_S, None)?;
    if !args.trace {
        let m = measure(&inputs, args.seconds, None)?;
        out.attempted = m.count;
        crate::speed::report(&m.speeds);
        println!("host time per pass, raw: {}", m.time.summary());
        println!(
            "host time per pass at nominal speed: {}",
            m.scaled.summary()
        );
        let cycles = m.cycles as f64 * m.count as f64;
        println!(
            "sim_cycles = {} cycles per pass (seed-independent); sim_cycles_per_s = {:.1} 1/s raw, \
             {:.1} 1/s at nominal speed, over {} passes",
            m.cycles,
            cycles / m.busy_s,
            cycles / m.scaled_busy_s,
            m.count
        );
        let [raw, nominal] = m.blocks();
        let figures = crate::over_segments(["passes/s", "p50 ms", "p90 ms"], &raw, &nominal);
        let factors: Vec<f64> = m.speeds.iter().map(|s| s.powf(SPEED_EXPONENT)).collect();
        out.metric("setup_s", crate::setup_median(&m.setups, &factors), "s");
        out.metric("rss_mb", crate::peak_rss_mib(), "MiB");
        out.metric("ops_per_s", figures[0], "1/s");
        out.metric("p50_ms", figures[1], "ms");
        out.metric("p90_ms", figures[2], "ms");
        return Ok(());
    }

    // Untraced and traced stretches alternate, so that drift on the host
    // falls on both sides of the overhead ratio.
    let phase = args.seconds / (2 * crate::TRACE_ROUNDS) as f64;
    let mut spans = Vec::new();
    let (mut plain_s, mut traced_s, mut events) = (0.0, 0.0, 0);
    for _ in 0..crate::TRACE_ROUNDS {
        let plain = measure(&inputs, phase, None)?;
        let session = saber_trace::start();
        let traced = measure(&inputs, phase, Some(&mut spans))?;
        events += session.finish().len();
        out.attempted += plain.count + traced.count;
        plain_s += plain.scaled_busy_s / plain.count as f64;
        traced_s += traced.scaled_busy_s / traced.count as f64;
    }
    println!("tracing overhead: {plain_s:.6} s untraced vs {traced_s:.6} s traced per pass at nominal speed (summed over rounds)");
    out.metric("trace.overhead_frac", traced_s / plain_s - 1.0, "frac");
    println!("cross-check: the program recorded {events} trace events of its own during the traced passes");
    let rows = spans.iter().map(|&(p, part, start, end)| {
        format!("{{\"id\":{p},\"op\":\"{part}\",\"due_ns\":{start},\"submit_ns\":{start},\"done_ns\":{end}}}")
    });
    crate::write_spans(&args.workload, args.seed, rows)?;

    // The service layer, measured on a kem_closed-shaped probe from the
    // same seed: it does no work in this workload.
    let workers = crate::nproc();
    let keys = crate::kem::KemInputs::generate(crate::kem::Mix::Keyring, args.seed);
    let probe = crate::kem::measure(&keys, workers, 0.5, 1, false, true)?;
    out.errors.extend(probe.errors.iter().cloned());
    probe.service_metrics(out);
    crate::kem::service_excess_us(&keys, workers, 0.5, out)?;
    crate::ladder::software(&inputs.cases(), crate::layer_budget(args), out);
    ladder(&inputs, crate::layer_budget(args), out)
}

fn mults(program: &Program) -> u64 {
    program
        .instructions
        .iter()
        .filter(|i| matches!(i, Instruction::MacPoly { .. }))
        .count() as u64
}

/// Per-layer metrics of the simulator path (`core`, `hw`, `coproc`,
/// `soc`) on round trip 0, and the cycle-ladder reconciliation.
pub fn ladder(inputs: &SimInputs, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let trip = &inputs.trips[0];
    let params = trip.case.params;
    let a = gen_matrix(&trip.case.pk.seed_a, params).entry(0, 0).clone();
    let s = gen_secret(&trip.case.entropy, params)[0].clone();
    for arch in &ARCHS {
        let mut model = (arch.build)();
        let us = per_call_ns(budget, 1, |_| model.multiply(&a, &s)) / 1e3;
        out.metric(format!("core.mult_us.{}", arch.name), us, "us");
        out.metric(
            format!("core.mult_cycles.{}", arch.name),
            model.report().cycles.total() as f64,
            "cycles",
        );
    }
    let seed = trip.case.seed;
    out.metric(
        "hw.sponge_us",
        per_call_ns(budget, 1, |_| sponge_on_core(&seed, 416, 168, 0x1f)) / 1e3,
        "us",
    );
    let sponge_cycles = sponge_on_core(&seed, 416, 168, 0x1f).1;
    out.metric("hw.sponge_cycles", sponge_cycles as f64, "cycles");
    if sponge_cycles != inputs.sponge_kat {
        out.errors.push(format!(
            "SHAKE-128 on the Keccak core took {sponge_cycles} cycles; {CYCLE_KATS} says {}",
            inputs.sponge_kat
        ));
    }

    let mut rig = set_up(inputs);
    let (mut sim_cycles, mut host_s) = (0u64, 0.0);
    println!(
        "cycle ladder, Saber round trip per architecture (keygen + encaps + decaps programs):"
    );
    for (i, arch) in ARCHS.iter().enumerate() {
        let cycles = round_trip(&mut rig, inputs, i, 0)?;
        let ms = per_call_ns(budget, 1, |_| round_trip(&mut rig, inputs, i, 0).is_ok()) / 1e6;
        let classes = cycles.classes();
        for (name, c) in CLASSES.iter().zip(classes) {
            out.metric(
                format!("coproc.cycles.{name}.{}", arch.name),
                c as f64,
                "cycles",
            );
        }
        let decaps = decaps_program(params, &trip.pk, &cycles.seed_s, &trip.ct);
        let programs = [&rig.keygen[0], &rig.encaps[0], &decaps];
        let instructions: usize = programs.iter().map(|p| p.len()).sum();
        let n_mults: u64 = programs.iter().map(|p| mults(p)).sum();
        out.metric(
            format!("coproc.instructions.{}", arch.name),
            instructions as f64,
            "count",
        );
        out.metric(format!("coproc.kem_ms.{}", arch.name), ms, "ms");
        out.metric(
            format!("coproc.mult_share.{}", arch.name),
            classes[2] as f64 / cycles.total() as f64,
            "frac",
        );
        let sum: u64 = classes.iter().sum();
        println!(
            "  {:<8} {} = {sum} cycles, total {} {}",
            arch.name,
            CLASSES
                .iter()
                .zip(classes)
                .map(|(n, c)| format!("{n} {c}"))
                .collect::<Vec<_>>()
                .join(" + "),
            cycles.total(),
            if sum == cycles.total() {
                "ok"
            } else {
                "MISMATCH"
            }
        );
        let per_mult = classes[2] as f64 / n_mults as f64;
        println!(
            "           multiplication: {n_mults} multiplications × {per_mult:.0} cycles (of which {} compute) = {}; \
             × Table-1 total {} would be {} (inner products amortize the drain)",
            cycles.mult_compute,
            classes[2],
            cycles.mult_total,
            n_mults * cycles.mult_total
        );
        let (model, what) = if arch.paper_compute_only {
            (cycles.mult_compute, "compute")
        } else {
            (cycles.mult_total, "total")
        };
        println!(
            "           Table 1: {what} {model} cycles vs paper {} ({:+.1} %)",
            arch.paper,
            100.0 * (model as f64 - arch.paper as f64) / arch.paper as f64
        );
        sim_cycles += cycles.total();
        host_s += ms / 1e3;
    }
    for case in &inputs.soc {
        let (makespan, contended) = soc_run(case)?;
        let us = per_call_ns(budget, 1, |_| {
            run_scenario(&ScenarioConfig::reference(case.seed, case.stride))
        }) / 1e3;
        out.metric(
            format!("soc.makespan.{}", case.label),
            makespan as f64,
            "cycles",
        );
        out.metric(
            format!("soc.contended_cycles.{}", case.label),
            contended as f64,
            "cycles",
        );
        out.metric(format!("soc.run_us.{}", case.label), us, "us");
        println!("  soc stride {}: makespan {makespan} cycles (golden {}), {contended} contended bus cycles", case.stride, case.golden);
        sim_cycles += makespan;
        host_s += us / 1e6;
    }
    println!("  sim_cycles = round trips + SoC makespans = {sim_cycles}");
    out.metric("sim_cycles", sim_cycles as f64, "cycles");
    out.metric("sim_cycles_per_s", sim_cycles as f64 / host_s, "1/s");
    Ok(())
}
