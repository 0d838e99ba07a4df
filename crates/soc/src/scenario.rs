//! The first co-simulated SoC scenario: an HS-I multiplier and the
//! Keccak XOF DMA engine sharing one BRAM port pair.
//!
//! The dataflow mirrors the \[10\]-style coprocessor's inner loop:
//!
//! 1. The XOF DMA fetches a 32-byte seed from shared memory, runs
//!    SHAKE-128 on the one-round-per-cycle core, and streams the 416
//!    squeezed bytes (52 words — one 13-bit-packed public polynomial)
//!    back through the bus. When its last write is acknowledged it
//!    raises the latched `xof_done` flag.
//! 2. The multiplier loads its 16 secret words concurrently — this
//!    overlap with the seed fetch is the deliberate contention window
//!    the arbiter resolves — then waits on `xof_done`, streams the 52
//!    public words, runs the 512-MAC [`ComputeKernel`] for exactly 128
//!    compute cycles (the §4.1 number, reconciled against the isolated
//!    datapath by tests), and drains the product back to memory.
//!
//! Everything crosses the [`SharedBus`], so the whole scenario is
//! subject to the same-cycle ordering contract and is the workload the
//! tick-order fuzzer permutes. [`run_scenario`] is deliberately a pure
//! function of [`ScenarioConfig`] — same config, same
//! [`ScenarioOutcome`] — which is what makes differential fuzzing
//! trivial.

use std::cell::Cell;
use std::rc::Rc;

use saber_core::engine::MacStyle;
use saber_core::ComputeKernel;
use saber_hw::keccak_core::{SpongeEvent, SpongeMachine};
use saber_ring::{packing, SecretPoly};
use saber_testkit::Rng;

use crate::bus::{BusArbiter, SharedBus, SocMutant};
use crate::component::{Component, ComponentId, ComponentStats, IDLE};
use crate::probe::{SocProbe, SocTrace};
use crate::scheduler::{Fingerprint, OrderPolicy, Soc};

/// Shared-memory word address of the 32-byte XOF seed.
pub const SEED_BASE: usize = 0;
/// Seed length in 64-bit words.
pub const SEED_WORDS: usize = 4;
/// Word address of the packed secret polynomial.
pub const SECRET_BASE: usize = 8;
/// Secret length in words (256 × 4-bit two's complement).
pub const SECRET_WORDS: usize = 16;
/// Word address the XOF DMA streams the public polynomial into.
pub const PUBLIC_BASE: usize = 32;
/// Public polynomial length in words (256 × 13 bits).
pub const PUBLIC_WORDS: usize = 52;
/// Word address the multiplier drains the product into.
pub const PRODUCT_BASE: usize = 96;
/// Product length in words.
pub const PRODUCT_WORDS: usize = 52;
/// Depth of the shared BRAM.
pub const MEMORY_DEPTH: usize = 160;

/// XOF output length: one 13-bit-packed polynomial.
const XOF_BYTES: usize = PUBLIC_WORDS * 8;

/// Component ids of the scenario (also the canonical service order).
pub const ARBITER_ID: ComponentId = ComponentId(0);
/// The XOF DMA engine's id.
pub const XOF_ID: ComponentId = ComponentId(1);
/// The multiplier's id.
pub const MULT_ID: ComponentId = ComponentId(2);

/// One co-simulation run, fully specified.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Operand seed: derives the XOF seed bytes and the secret.
    pub seed: u64,
    /// Multiplier clock divider (1 = same clock as the XOF, 2 = half).
    pub mult_stride: u64,
    /// Planted bus mutant, if any.
    pub mutant: Option<SocMutant>,
    /// Same-cycle service-order policy.
    pub policy: OrderPolicy,
}

impl ScenarioConfig {
    /// The canonical-order, unmutated scenario for `seed` at the given
    /// multiplier stride.
    #[must_use]
    pub fn reference(seed: u64, mult_stride: u64) -> Self {
        Self {
            seed,
            mult_stride,
            mutant: None,
            policy: OrderPolicy::Canonical,
        }
    }
}

/// Everything observable about a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The permutation-invariant fingerprint (stats, outputs, bus).
    pub fingerprint: Fingerprint,
    /// One past the last serviced base cycle.
    pub makespan: u64,
    /// Multiplier compute-kernel cycles (must reconcile with the
    /// isolated 512-MAC datapath: exactly 128).
    pub compute_ticks: u64,
    /// The product polynomial as little-endian packed words.
    pub product_bytes: Vec<u8>,
    /// The 52 public words the XOF streamed into shared memory.
    pub public_words: Vec<u64>,
    /// The 52 product words the multiplier drained into shared memory.
    pub product_words: Vec<u64>,
    /// Bus cycles with more than one eligible read contender.
    pub contended_cycles: u64,
    /// True if the watchdog stopped the run (always a failure).
    pub timed_out: bool,
}

/// The seed bytes and secret polynomial derived from a config seed.
#[must_use]
pub fn operands(seed: u64) -> ([u8; 32], SecretPoly) {
    let mut rng = Rng::new(seed);
    let seed_bytes = rng.bytes32();
    let secret = SecretPoly::from_fn(|_| rng.secret_coeff(4));
    (seed_bytes, secret)
}

/// Runs the scenario and returns the outcome plus any recorded
/// same-cycle order deviations (the shrinker's raw material).
#[must_use]
pub fn run_scenario(cfg: &ScenarioConfig) -> (ScenarioOutcome, Vec<(u64, Vec<ComponentId>)>) {
    let (outcome, deviations, _) = run_scenario_inner(cfg, None);
    (outcome, deviations)
}

/// [`run_scenario`], with a waveform probe attached: additionally
/// returns the [`SocTrace`] (deterministic VCD document + per-component
/// cycle timelines) of the run.
#[must_use]
pub fn run_scenario_probed(
    cfg: &ScenarioConfig,
) -> (ScenarioOutcome, Vec<(u64, Vec<ComponentId>)>, SocTrace) {
    let mut probe = SocProbe::new();
    let (outcome, deviations, _) = run_scenario_inner(cfg, Some(&mut probe));
    (outcome, deviations, probe.into_trace())
}

fn run_scenario_inner(
    cfg: &ScenarioConfig,
    probe: Option<&mut SocProbe>,
) -> (ScenarioOutcome, Vec<(u64, Vec<ComponentId>)>, ()) {
    let (seed_bytes, secret) = operands(cfg.seed);
    let seed_words: Vec<u64> = seed_bytes
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let secret_words = packing::secret_to_words(&secret);

    let mut bus = SharedBus::with_mutant(MEMORY_DEPTH, cfg.mutant);
    bus.preload(SEED_BASE, &seed_words);
    bus.preload(SECRET_BASE, &secret_words);

    let compute_ticks = Rc::new(Cell::new(0u64));
    let mut soc = Soc::with_bus(bus);
    soc.set_policy(cfg.policy.clone());
    soc.add(BusArbiter::new(ARBITER_ID));
    soc.add(KeccakXofDma::new(XOF_ID));
    soc.add(MatVecMultiplier::new(
        MULT_ID,
        cfg.mult_stride,
        Rc::clone(&compute_ticks),
    ));

    // Generous watchdog: the 2:1 run finishes well under 2 000 cycles.
    let summary = match probe {
        Some(p) => soc.run_with_probe(20_000, p),
        None => soc.run(20_000),
    };
    let fingerprint = soc.fingerprint(&summary);
    let product_bytes = fingerprint.components[MULT_ID.0]
        .2
        .clone()
        .unwrap_or_default();
    let outcome = ScenarioOutcome {
        makespan: summary.makespan,
        compute_ticks: compute_ticks.get(),
        product_bytes,
        public_words: soc.bus().inspect(PUBLIC_BASE, PUBLIC_WORDS),
        product_words: soc.bus().inspect(PRODUCT_BASE, PRODUCT_WORDS),
        contended_cycles: soc.bus().stats().contended_cycles,
        timed_out: summary.timed_out,
        fingerprint,
    };
    let deviations = soc.deviations().to_vec();
    (outcome, deviations, ())
}

/// Flattens 64-bit words into little-endian bytes — the canonical
/// encoding for component outputs folded into run fingerprints.
fn words_to_le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// DMA engine: seed fetch → SHAKE-128 on the core → streamed writes →
/// latched `xof_done`.
struct KeccakXofDma {
    id: ComponentId,
    phase: XofPhase,
    busy: u64,
    stall: u64,
    done_at: Option<u64>,
    output: Option<Vec<u8>>,
}

enum XofPhase {
    Fetch {
        posted: usize,
        got: Vec<Option<u64>>,
    },
    Sponge {
        machine: Box<SpongeMachine>,
        writes_posted: usize,
    },
    WaitAcks {
        output: Vec<u8>,
    },
    Done,
}

impl KeccakXofDma {
    fn new(id: ComponentId) -> Self {
        Self {
            id,
            phase: XofPhase::Fetch {
                posted: 0,
                got: vec![None; SEED_WORDS],
            },
            busy: 0,
            stall: 0,
            done_at: None,
            output: None,
        }
    }
}

impl Component for KeccakXofDma {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        "keccak-xof-dma"
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, bus: &mut SharedBus) -> u64 {
        match &mut self.phase {
            XofPhase::Fetch { posted, got } => {
                let mut worked = false;
                if *posted < SEED_WORDS {
                    bus.post_read(self.id, SEED_BASE + *posted, now);
                    *posted += 1;
                    worked = true;
                }
                while let Some((addr, data)) = bus.take_read_grant(self.id, now) {
                    got[addr - SEED_BASE] = Some(data);
                    worked = true;
                }
                if worked {
                    self.busy += 1;
                } else {
                    self.stall += 1;
                }
                if got.iter().all(Option::is_some) {
                    let seed: Vec<u8> = words_to_le_bytes(
                        &got.iter().map(|w| w.expect("filled")).collect::<Vec<_>>(),
                    );
                    // SHAKE-128: rate 168, domain suffix 0x1f.
                    self.phase = XofPhase::Sponge {
                        machine: Box::new(SpongeMachine::new(&seed, XOF_BYTES, 168, 0x1f)),
                        writes_posted: 0,
                    };
                }
                now + 1
            }
            XofPhase::Sponge {
                machine,
                writes_posted,
            } => {
                if let SpongeEvent::SqueezedWord(word) = machine.advance() {
                    bus.post_write(self.id, PUBLIC_BASE + *writes_posted, word, now);
                    *writes_posted += 1;
                }
                self.busy += 1;
                if machine.is_done() {
                    debug_assert_eq!(*writes_posted, PUBLIC_WORDS);
                    self.phase = XofPhase::WaitAcks {
                        output: machine.output().to_vec(),
                    };
                }
                now + 1
            }
            XofPhase::WaitAcks { output } => {
                if bus.write_acks_through(self.id, now) >= PUBLIC_WORDS as u64 {
                    bus.raise("xof_done", now);
                    self.busy += 1;
                    self.output = Some(std::mem::take(output));
                    self.done_at = Some(now);
                    self.phase = XofPhase::Done;
                    IDLE
                } else {
                    self.stall += 1;
                    now + 1
                }
            }
            XofPhase::Done => IDLE,
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: self.stall,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
    fn state_code(&self) -> u64 {
        match &self.phase {
            XofPhase::Fetch { .. } => 0x10,
            XofPhase::Sponge { machine, .. } => 0x20 | machine.state_code(),
            XofPhase::WaitAcks { .. } => 0x30,
            XofPhase::Done => 0,
        }
    }
}

/// The HS-I 512-MAC multiplier with bus-streamed operands: secret load
/// (overlapping the DMA's seed fetch), `xof_done` wait, public stream,
/// 128 compute cycles, product drain.
struct MatVecMultiplier {
    id: ComponentId,
    stride: u64,
    phase: MultPhase,
    secret: Option<SecretPoly>,
    compute_ticks: Rc<Cell<u64>>,
    busy: u64,
    stall: u64,
    done_at: Option<u64>,
    output: Option<Vec<u8>>,
}

enum MultPhase {
    LoadSecret {
        posted: usize,
        got: Vec<Option<u64>>,
    },
    WaitXof,
    LoadPublic {
        posted: usize,
        got: Vec<Option<u64>>,
    },
    Compute {
        kernel: Box<ComputeKernel>,
    },
    Drain {
        words: Vec<u64>,
        posted: usize,
    },
    /// The historical 2 cycles of result/write registers after the last
    /// ack.
    FinalRegs {
        left: u64,
    },
    Done,
}

impl MatVecMultiplier {
    fn new(id: ComponentId, stride: u64, compute_ticks: Rc<Cell<u64>>) -> Self {
        assert!(stride > 0, "clock divider stride must be at least 1");
        Self {
            id,
            stride,
            phase: MultPhase::LoadSecret {
                posted: 0,
                got: vec![None; SECRET_WORDS],
            },
            secret: None,
            compute_ticks,
            busy: 0,
            stall: 0,
            done_at: None,
            output: None,
        }
    }
}

impl Component for MatVecMultiplier {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        "hs1-512-matvec"
    }
    fn next_tick(&self) -> u64 {
        0
    }
    #[allow(clippy::too_many_lines)]
    fn tick(&mut self, now: u64, bus: &mut SharedBus) -> u64 {
        let next = now + self.stride;
        match &mut self.phase {
            MultPhase::LoadSecret { posted, got } => {
                let mut worked = false;
                if *posted < SECRET_WORDS {
                    bus.post_read(self.id, SECRET_BASE + *posted, now);
                    *posted += 1;
                    worked = true;
                }
                while let Some((addr, data)) = bus.take_read_grant(self.id, now) {
                    got[addr - SECRET_BASE] = Some(data);
                    worked = true;
                }
                if worked {
                    self.busy += 1;
                } else {
                    self.stall += 1;
                }
                if got.iter().all(Option::is_some) {
                    let words: Vec<u64> = got.iter().map(|w| w.expect("filled")).collect();
                    self.secret = Some(
                        packing::secret_from_words(&words)
                            .expect("preloaded secret words are in range"),
                    );
                    self.phase = MultPhase::WaitXof;
                }
                next
            }
            MultPhase::WaitXof => {
                if bus.signal_up("xof_done", now) {
                    self.busy += 1;
                    self.phase = MultPhase::LoadPublic {
                        posted: 0,
                        got: vec![None; PUBLIC_WORDS],
                    };
                } else {
                    self.stall += 1;
                }
                next
            }
            MultPhase::LoadPublic { posted, got } => {
                let mut worked = false;
                if *posted < PUBLIC_WORDS {
                    bus.post_read(self.id, PUBLIC_BASE + *posted, now);
                    *posted += 1;
                    worked = true;
                }
                while let Some((addr, data)) = bus.take_read_grant(self.id, now) {
                    got[addr - PUBLIC_BASE] = Some(data);
                    worked = true;
                }
                if worked {
                    self.busy += 1;
                } else {
                    self.stall += 1;
                }
                if got.iter().all(Option::is_some) {
                    let words: Vec<u64> = got.iter().map(|w| w.expect("filled")).collect();
                    let public = packing::poly13_from_words(&words);
                    let secret = self.secret.as_ref().expect("secret loaded first");
                    self.phase = MultPhase::Compute {
                        kernel: Box::new(ComputeKernel::new(
                            &public,
                            secret,
                            512,
                            MacStyle::Centralized,
                        )),
                    };
                }
                next
            }
            MultPhase::Compute { kernel } => {
                let more = kernel.step();
                self.compute_ticks.set(self.compute_ticks.get() + 1);
                self.busy += 1;
                if !more {
                    let words = packing::poly13_to_words(&kernel.product());
                    self.output = Some(words_to_le_bytes(&words));
                    self.phase = MultPhase::Drain { words, posted: 0 };
                }
                next
            }
            MultPhase::Drain { words, posted } => {
                if *posted < words.len() {
                    bus.post_write(self.id, PRODUCT_BASE + *posted, words[*posted], now);
                    *posted += 1;
                    self.busy += 1;
                } else if bus.write_acks_through(self.id, now) >= PRODUCT_WORDS as u64 {
                    self.busy += 1;
                    self.phase = MultPhase::FinalRegs { left: 2 };
                } else {
                    self.stall += 1;
                }
                next
            }
            MultPhase::FinalRegs { left } => {
                self.busy += 1;
                if *left == 1 {
                    self.done_at = Some(now);
                    self.phase = MultPhase::Done;
                    IDLE
                } else {
                    *left -= 1;
                    next
                }
            }
            MultPhase::Done => IDLE,
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: self.stall,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
    fn state_code(&self) -> u64 {
        match &self.phase {
            MultPhase::LoadSecret { .. } => 1,
            MultPhase::WaitXof => 2,
            MultPhase::LoadPublic { .. } => 3,
            MultPhase::Compute { .. } => 4,
            MultPhase::Drain { .. } => 5,
            MultPhase::FinalRegs { .. } => 6,
            MultPhase::Done => 0,
        }
    }
}
