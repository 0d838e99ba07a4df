//! Ports of the repo's six cycle models onto the [`Component`] trait.
//!
//! Each wrapper drives the corresponding resumable stepper
//! ([`EngineSim`], [`DspPackedSim`], [`LightweightSim`], the
//! [`SpongeMachine`] over [`KeccakCore`], or the coprocessor executor)
//! exactly one model cycle per scheduler tick, so a component on a
//! divided clock (`stride > 1`) takes `stride ×` the base cycles but the
//! *same number of busy cycles* — the equivalence the scheduler tests
//! lock: every model's `busy_cycles` under the event heap equals its
//! standalone run-to-completion cycle total.
//!
//! These wrappers do not touch the [`SharedBus`] — they are the isolated
//! datapaths. The co-simulated scenario components that replace operand
//! loads and drains with real bus traffic live in [`crate::scenario`].

use saber_coproc::{Coprocessor, Program};
use saber_core::engine::MacStyle;
use saber_core::{DspPackedSim, EngineSim, HwMultiplier, LightweightSim};
use saber_hw::keccak_core::{KeccakCore, PERMUTATION_CYCLES};
use saber_ring::{packing, PolyQ, SecretPoly};

use crate::bus::SharedBus;
use crate::component::{Component, ComponentId, ComponentStats, IDLE};

/// Flattens 64-bit words into little-endian bytes — the canonical
/// encoding for component outputs folded into run fingerprints.
#[must_use]
pub fn words_to_le_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// What one [`SpongeMachine::advance`] cycle did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpongeEvent {
    /// One rate word crossed the 64-bit bus into the state.
    AbsorbedWord,
    /// One Keccak round ran.
    Round,
    /// One rate word was read out (the squeezed word).
    SqueezedWord(u64),
    /// The machine has already squeezed everything.
    Done,
}

/// Where the sponge is between cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpongeState {
    Absorb,
    Permute,
    Squeeze,
    Done,
}

/// A one-event-per-cycle sponge over the [`KeccakCore`]: the resumable
/// form of [`saber_hw::keccak_core::sponge_on_core`], cycle-for-cycle
/// identical to it (asserted by tests), so a discrete-event scheduler
/// can interleave XOF generation word by word with the consumers of its
/// output.
#[derive(Debug, Clone)]
pub struct SpongeMachine {
    core: KeccakCore,
    /// Padded absorb blocks, one `Vec<u64>` of rate lanes per block.
    blocks: Vec<Vec<u64>>,
    block: usize,
    lane: usize,
    rounds_left: u64,
    out: Vec<u8>,
    out_len: usize,
    rate_lanes: usize,
    state: SpongeState,
}

impl SpongeMachine {
    /// Stages `input` for a sponge with the given `rate` (bytes,
    /// lane-aligned) and `domain` suffix, squeezing `out_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a positive multiple of 8 below 200, or if
    /// `out_len` is zero.
    #[must_use]
    pub fn new(input: &[u8], out_len: usize, rate: usize, domain: u8) -> Self {
        assert!(
            rate > 0 && rate < 200 && rate.is_multiple_of(8),
            "invalid sponge rate"
        );
        assert!(out_len > 0, "a sponge with nothing to squeeze is idle");
        // Pad10*1 exactly as `sponge_on_core` does.
        let mut padded = input.to_vec();
        let pad_len = rate - (input.len() % rate);
        padded.push(domain);
        padded.extend(std::iter::repeat_n(0u8, pad_len.saturating_sub(1)));
        let last = padded.len() - 1;
        padded[last] |= 0x80;
        let blocks = padded
            .chunks(rate)
            .map(|block| {
                block
                    .chunks(8)
                    .map(|chunk| {
                        let mut word = [0u8; 8];
                        word[..chunk.len()].copy_from_slice(chunk);
                        u64::from_le_bytes(word)
                    })
                    .collect()
            })
            .collect();
        Self {
            core: KeccakCore::new(),
            blocks,
            block: 0,
            lane: 0,
            rounds_left: 0,
            out: Vec::with_capacity(out_len),
            out_len,
            rate_lanes: rate / 8,
            state: SpongeState::Absorb,
        }
    }

    /// A SHAKE-128 instance (rate 168, domain `0x1f`).
    #[must_use]
    pub fn shake128(input: &[u8], out_len: usize) -> Self {
        Self::new(input, out_len, 168, 0x1f)
    }

    /// Cycles consumed so far (bus words + rounds), straight from the
    /// core's own counter.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.core.cycles()
    }

    /// True once `out_len` bytes have been squeezed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == SpongeState::Done
    }

    /// The sponge's machine state for the waveform probe: 1 = absorb,
    /// 2 = permute, 3 = squeeze, 0 = done.
    #[must_use]
    pub fn state_code(&self) -> u64 {
        match self.state {
            SpongeState::Absorb => 1,
            SpongeState::Permute => 2,
            SpongeState::Squeeze => 3,
            SpongeState::Done => 0,
        }
    }

    /// The squeezed bytes so far (all `out_len` once done).
    #[must_use]
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Advances exactly one core cycle and reports what it did. A call
    /// on a finished machine is a no-op returning [`SpongeEvent::Done`].
    pub fn advance(&mut self) -> SpongeEvent {
        match self.state {
            SpongeState::Absorb => {
                let word = self.blocks[self.block][self.lane];
                self.core.write_word(self.lane, word);
                self.lane += 1;
                if self.lane == self.blocks[self.block].len() {
                    self.block += 1;
                    self.lane = 0;
                    self.core.start_permutation();
                    self.rounds_left = PERMUTATION_CYCLES;
                    self.state = SpongeState::Permute;
                }
                SpongeEvent::AbsorbedWord
            }
            SpongeState::Permute => {
                self.core.tick();
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.lane = 0;
                    self.state = if self.block < self.blocks.len() {
                        SpongeState::Absorb
                    } else {
                        SpongeState::Squeeze
                    };
                }
                SpongeEvent::Round
            }
            SpongeState::Squeeze => {
                let word = self.core.read_word(self.lane);
                self.lane += 1;
                for byte in word.to_le_bytes() {
                    if self.out.len() < self.out_len {
                        self.out.push(byte);
                    }
                }
                if self.out.len() == self.out_len {
                    self.state = SpongeState::Done;
                } else if self.lane == self.rate_lanes {
                    self.lane = 0;
                    self.core.start_permutation();
                    self.rounds_left = PERMUTATION_CYCLES;
                    self.state = SpongeState::Permute;
                }
                SpongeEvent::SqueezedWord(word)
            }
            SpongeState::Done => SpongeEvent::Done,
        }
    }
}

/// The parallel schoolbook engine (baseline \[10\] or HS-I) as a
/// component: one [`EngineSim`] cycle per tick.
pub struct EngineComponent {
    id: ComponentId,
    name: String,
    stride: u64,
    sim: Option<EngineSim>,
    output: Option<Vec<u8>>,
    busy: u64,
    done_at: Option<u64>,
}

impl EngineComponent {
    /// Stages a `macs`-unit engine multiplication at clock divider
    /// `stride`.
    #[must_use]
    pub fn new(
        id: ComponentId,
        a: &PolyQ,
        s: &SecretPoly,
        macs: usize,
        style: MacStyle,
        stride: u64,
    ) -> Self {
        let name = match style {
            MacStyle::PerMac => format!("baseline-{macs}"),
            MacStyle::Centralized => format!("hs1-{macs}"),
        };
        Self {
            id,
            name,
            stride,
            sim: Some(EngineSim::new(a, s, macs, style)),
            output: None,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for EngineComponent {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        let sim = self.sim.as_mut().expect("ticked after retirement");
        let more = sim.step();
        self.busy += 1;
        if more {
            now + self.stride
        } else {
            let (product, _, _, _) = self.sim.take().expect("sim present").finish();
            self.output = Some(words_to_le_bytes(&packing::poly13_to_words(&product)));
            self.done_at = Some(now);
            IDLE
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
    fn state_code(&self) -> u64 {
        u64::from(self.sim.is_some())
    }
}

/// The HS-II DSP-packed multiplier as a component: one [`DspPackedSim`]
/// cycle per tick.
pub struct DspPackedComponent {
    id: ComponentId,
    name: String,
    stride: u64,
    sim: Option<DspPackedSim>,
    output: Option<Vec<u8>>,
    busy: u64,
    done_at: Option<u64>,
}

impl DspPackedComponent {
    /// Stages an HS-II multiplication on `banks` DSP banks (1 or 2) at
    /// clock divider `stride`.
    #[must_use]
    pub fn new(
        id: ComponentId,
        public: &PolyQ,
        secret: &SecretPoly,
        banks: usize,
        stride: u64,
    ) -> Self {
        Self {
            id,
            name: format!("hs2-{}", 128 * banks),
            stride,
            sim: Some(DspPackedSim::new(public, secret, banks)),
            output: None,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for DspPackedComponent {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        let sim = self.sim.as_mut().expect("ticked after retirement");
        let more = sim.step();
        self.busy += 1;
        if more {
            now + self.stride
        } else {
            let (product, _, _) = self.sim.take().expect("sim present").finish();
            self.output = Some(words_to_le_bytes(&packing::poly13_to_words(&product)));
            self.done_at = Some(now);
            IDLE
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
    fn state_code(&self) -> u64 {
        u64::from(self.sim.is_some())
    }
}

/// The lightweight 4-MAC multiplier as a component: one
/// [`LightweightSim`] BRAM cycle per tick.
pub struct LightweightComponent {
    id: ComponentId,
    stride: u64,
    sim: Option<LightweightSim>,
    output: Option<Vec<u8>>,
    busy: u64,
    done_at: Option<u64>,
}

impl LightweightComponent {
    /// Stages a lightweight multiplication at clock divider `stride`.
    #[must_use]
    pub fn new(id: ComponentId, a: &PolyQ, s: &SecretPoly, stride: u64) -> Self {
        Self {
            id,
            stride,
            sim: Some(LightweightSim::new(a, s)),
            output: None,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for LightweightComponent {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        "lw-4"
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        let sim = self.sim.as_mut().expect("ticked after retirement");
        let more = sim.step();
        self.busy += 1;
        if more {
            now + self.stride
        } else {
            let (product, _, _, _) = self.sim.take().expect("sim present").finish();
            self.output = Some(words_to_le_bytes(&packing::poly13_to_words(&product)));
            self.done_at = Some(now);
            IDLE
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.output.clone()
    }
    fn state_code(&self) -> u64 {
        u64::from(self.sim.is_some())
    }
}

/// The Keccak core running a full sponge as a component: one
/// [`SpongeMachine`] cycle per tick.
pub struct SpongeComponent {
    id: ComponentId,
    name: String,
    stride: u64,
    machine: SpongeMachine,
    busy: u64,
    done_at: Option<u64>,
}

impl SpongeComponent {
    /// Wraps a staged sponge at clock divider `stride`.
    #[must_use]
    pub fn new(id: ComponentId, name: &str, machine: SpongeMachine, stride: u64) -> Self {
        Self {
            id,
            name: name.to_string(),
            stride,
            machine,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for SpongeComponent {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        let _ = self.machine.advance();
        self.busy += 1;
        if self.machine.is_done() {
            self.done_at = Some(now);
            IDLE
        } else {
            now + self.stride
        }
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        Some(self.machine.output().to_vec())
    }
    fn state_code(&self) -> u64 {
        self.machine.state_code()
    }
}

/// The coprocessor executor as a component: one ISA instruction per
/// tick, occupying the base clock for that instruction's modelled cycle
/// cost (so `busy_cycles` equals the executor's own
/// `CycleBreakdown::total()`).
pub struct CoprocComponent<'m> {
    id: ComponentId,
    name: String,
    stride: u64,
    program: Program,
    pc: usize,
    coproc: Coprocessor<'m>,
    outputs: Vec<String>,
    last_total: u64,
    busy: u64,
    done_at: Option<u64>,
}

impl<'m> CoprocComponent<'m> {
    /// Stages `program` on a coprocessor around `multiplier`. The named
    /// `outputs` are concatenated (in order) into the component output
    /// once the program retires.
    ///
    /// # Panics
    ///
    /// Panics if `program` is empty.
    #[must_use]
    pub fn new(
        id: ComponentId,
        name: &str,
        multiplier: &'m mut dyn HwMultiplier,
        program: Program,
        outputs: &[&str],
        stride: u64,
    ) -> Self {
        assert!(!program.is_empty(), "an empty program never retires");
        Self {
            id,
            name: name.to_string(),
            stride,
            program,
            pc: 0,
            coproc: Coprocessor::new(multiplier),
            outputs: outputs.iter().map(|s| (*s).to_string()).collect(),
            last_total: 0,
            busy: 0,
            done_at: None,
        }
    }
}

impl Component for CoprocComponent<'_> {
    fn id(&self) -> ComponentId {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn next_tick(&self) -> u64 {
        0
    }
    fn tick(&mut self, now: u64, _bus: &mut SharedBus) -> u64 {
        if self.pc == self.program.len() {
            // The last instruction's occupancy has elapsed: retire.
            self.done_at = Some(now);
            return IDLE;
        }
        let instruction = &self.program.instructions[self.pc];
        self.coproc
            .step(instruction)
            .expect("staged coprocessor program must execute");
        self.pc += 1;
        let total = self.coproc.cycles().total();
        // Zero-cost instructions still occupy one scheduler event.
        let delta = (total - self.last_total).max(1);
        self.last_total = total;
        self.busy = total;
        now + delta * self.stride
    }
    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.busy,
            stall_cycles: 0,
            done_at: self.done_at,
        }
    }
    fn output(&self) -> Option<Vec<u8>> {
        self.done_at?;
        let mut out = Vec::new();
        for name in &self.outputs {
            out.extend_from_slice(self.coproc.output(name).unwrap_or(&[]));
        }
        Some(out)
    }
    fn state_code(&self) -> u64 {
        // The program counter: each waveform step shows which
        // instruction is occupying the datapath.
        (self.pc as u64).min(0xff)
    }
}
