//! **LW**: the lightweight 4-MAC multiplier (§4, Fig. 4) — the paper's
//! third contribution and the first dedicated lightweight polynomial
//! multiplier for Saber (541 LUT / 301 FF on a small Artix-7).
//!
//! ## The architecture
//!
//! * only **4 MAC units** (with the §3.1 centralized-multiple
//!   optimization: `{a, 2a, 3a, 4a}` computed once per public
//!   coefficient and broadcast);
//! * one 64-bit block of the secret (16 4-bit coefficients) resident at
//!   a time; a full multiplication is 16 block passes;
//! * the public polynomial streamed through a two-word shift buffer with
//!   a 24-bit extraction multiplexer (coefficients straddle word
//!   boundaries — 13 ∤ 64);
//! * the **accumulator lives in the BRAM**, not in registers: every
//!   compute cycle reads the accumulator word needed next and writes the
//!   word finalized last, so both memory ports are saturated during
//!   computation. Any input load must therefore *pause the datapath* —
//!   the §4.1 scheduling story, reproduced here cycle by cycle against
//!   the port-checked [`saber_hw::Bram`] model.
//!
//! ## Schedule and cycle count
//!
//! Per block pass: load the secret word, pre-fill the public buffer,
//! prime the accumulator window, then 256 public coefficients × 4 cycles
//! of MACs (4 MACs × 4 cycles = the 16 resident secret coefficients),
//! pausing three cycles per streamed public word (port steal + pipeline
//! flush/refill — the simple-control restart this architecture's tiny
//! FSM affords). Pure compute is exactly `16 × 1024 = 16 384` cycles as
//! in the paper; the *measured* total of this model is 18 928 cycles
//! versus the paper's reported 19 471 (−2.8 %; the authors' RTL
//! scheduler is not published — see EXPERIMENTS.md), with the memory
//! overhead below 16 % of the total, matching §4.1's characterization.
//!
//! The accumulator is the BRAM's own words (coefficient `4w + t` in bits
//! `16t..16t + 13` of word `w`): a compute cycle's four MACs are one
//! update of the two-word window at field offset `i mod 4`, and each cycle
//! writes a word back through the BRAM model. The words are not read back.

use saber_hw::bram::BramStats;
use saber_hw::mac::MAX_MULTIPLE;
use saber_hw::platform::{CriticalPath, Fpga};
use saber_hw::{Activity, Area, Bram, CycleReport};
use saber_ring::{packing, PolyMultiplier, PolyQ, SecretPoly, N};

use crate::fault::{Fault, NO_DEFECT};
use crate::report::{ArchitectureReport, HwMultiplier};

/// Number of MAC units.
pub const MACS: usize = 4;

/// Secret coefficients per 64-bit block.
pub const BLOCK_COEFFS: usize = 16;

/// Number of block passes per multiplication.
pub const BLOCKS: usize = N / BLOCK_COEFFS;

// Memory map (64-bit word addresses), shared with the sliding variant.
pub(crate) const PUB_BASE: usize = 0;
pub(crate) const PUB_WORDS: usize = 52;
pub(crate) const SEC_BASE: usize = PUB_BASE + PUB_WORDS;
const SEC_WORDS: usize = 16;
pub(crate) const ACC_BASE: usize = SEC_BASE + SEC_WORDS;
pub(crate) const ACC_WORDS: usize = 64; // 256 coefficients, 4 × 16-bit fields per word

/// The 13-bit coefficient in each 16-bit field of an accumulator word.
const FIELDS13: u64 = 0x1fff_1fff_1fff_1fff;

/// The lightweight multiplier.
///
/// # Examples
///
/// ```
/// use saber_core::lightweight::LightweightMultiplier;
/// use saber_core::report::HwMultiplier;
/// use saber_ring::{PolyMultiplier, PolyQ, SecretPoly, schoolbook};
///
/// let mut hw = LightweightMultiplier::new();
/// let a = PolyQ::from_fn(|i| (i * 7) as u16);
/// let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
/// assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
/// let r = hw.report();
/// assert_eq!(r.cycles.compute_cycles, 16_384);
/// assert!(r.cycles.total() < 20_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LightweightMultiplier {
    last_cycles: CycleReport,
    last_timeline: Option<saber_trace::CycleTimeline>,
    activity: Activity,
    multiplications: u64,
}

impl LightweightMultiplier {
    /// Creates the 4-MAC architecture.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Multiplications simulated so far.
    #[must_use]
    pub fn multiplications(&self) -> u64 {
        self.multiplications
    }

    /// Modeled area, following the Fig. 4 inventory: 4 selector MACs, one
    /// shared multiple generator, the 24-bit extraction mux, the shift
    /// buffers (public two-word + secret block + accumulator window) and
    /// the small control FSM.
    #[must_use]
    pub fn area(&self) -> Area {
        use saber_hw::area::{adder, mux, register};
        // Datapath LUTs.
        let macs = (mux(6, 13) + adder(16)) * MACS as u32; // 4 × (selector + 16-bit acc adder)
        let generator = adder(14) + adder(15); // 3a, 5a
        let extraction = mux(12, 13); // 24-bit window → 13-bit coefficient
        let shift_in = mux(2, 64); // public buffer load/shift steering
                                   // Registers: public 64+24, secret 2 × 64 (current + wrap view),
                                   // accumulator window 64, control/counters ≈ 21.
        let regs = register(64 + 24) + register(128) + register(64) + register(21);
        // Address generation (three counters with base-offset adders),
        // the negacyclic wrap comparators and selector negation on the
        // secret path, the buffer-level counter/comparator, and the block
        // FSM — calibrated against the paper's 541-LUT synthesis total.
        let control = Area::luts(260);
        macs + generator + extraction + shift_in + regs + control
    }
}

/// Cycle-accurate run of the lightweight 4-MAC datapath against the
/// BRAM model: the tiny control FSM of Fig. 4 as a loop nest, one
/// [`Bram::tick`] per clock cycle, so the cycle count is the memory
/// model's and the port-conflict checks fire on the cycles the schedule
/// books. Returns the product, the cycle report, the memory statistics
/// and the per-phase timeline.
///
/// The operands are preloaded into the shared memory: the host wrote
/// them before starting the multiplier, and those transfers belong to
/// the caller, exactly as in the paper's accounting.
///
/// `DEFECT` is a [`Fault`] as `u8`, or [`NO_DEFECT`]:
/// `LwWrapSignDropped` removes the wrap comparator and
/// `LwSecretSignIgnored` sticks the MAC's sign line at *add*.
///
/// # Panics
///
/// Panics if the modeled schedule ever double-books a BRAM port.
pub(crate) fn simulate<const DEFECT: u8>(
    a: &PolyQ,
    s: &SecretPoly,
) -> (PolyQ, CycleReport, BramStats, saber_trace::CycleTimeline) {
    let mut mem = Bram::new(ACC_BASE + ACC_WORDS);
    mem.preload(PUB_BASE, &packing::poly13_to_words(a));
    mem.preload(SEC_BASE, &packing::secret_to_words(s));
    let mut acc = [0u64; ACC_WORDS];
    let mut timeline = saber_trace::CycleTimeline::new("lw-4", MACS as u64);
    let mut compute_cycles = 0u64;
    // MAC cycles since the last non-compute phase, pushed to the
    // timeline as one `compute` phase when a port steal or the block
    // drain ends the run.
    let mut compute_run = 0u64;

    for block in 0..BLOCKS {
        // --- Load the block's 16 secret coefficients (2 cycles). ---
        mem.issue_read(SEC_BASE + block).expect("port free");
        mem.tick();
        // Latch the word into the secret register.
        let block_secrets = decode_secret_word(mem.read_data().expect("secret word arrives"));
        timeline.push_phase("secret_load", 2, 0);
        debug_assert_eq!(
            block_secrets,
            std::array::from_fn(|t| s.coeff(BLOCK_COEFFS * block + t)),
            "secret register must match the operand"
        );
        mem.tick();

        // --- Pre-fill the public shift buffer: 2 words (3 cycles). ---
        let mut pub_loaded = 0;
        let mut buffer_bits = 0u32;
        for _ in 0..2 {
            mem.issue_read(PUB_BASE + pub_loaded).expect("port free");
            pub_loaded += 1;
            buffer_bits += 64;
            mem.tick();
        }
        // Final latch.
        timeline.push_phase("public_prefill", 3, 0);
        mem.tick();

        // --- Prime the accumulator window (2 cycles). ---
        mem.issue_read(acc_word_addr(block, 0)).expect("port free");
        mem.tick();
        timeline.push_phase("acc_prime", 2, 0);
        mem.tick();

        // --- Compute: 256 coefficients × 4 cycles. ---
        let groups = block_operands(&block_secrets, &acc, a.coeffs());
        for i in 0..N {
            // Consuming coefficient i drains 13 bits of the buffer.
            buffer_bits -= 13;
            for (g, &group) in groups.iter().enumerate() {
                // Stream the next public word when ≥64 bits are free;
                // the load steals the read port, so the saturated
                // accumulator pipeline is flushed and refilled (3 cycles
                // with this design's minimal control).
                if 128 - buffer_bits >= 64 && pub_loaded < PUB_WORDS {
                    // The compute run ends; this cycle drains the
                    // in-flight MAC result.
                    let run = std::mem::take(&mut compute_run);
                    timeline.push_phase("compute", run, MACS as u64 * run);
                    mem.tick();
                    // The stolen read port fetches the word.
                    mem.issue_read(PUB_BASE + pub_loaded)
                        .expect("port stolen cleanly");
                    pub_loaded += 1;
                    buffer_bits += 64;
                    mem.tick();
                    // Refill the pipeline.
                    timeline.push_phase("stream_stall", 3, 0);
                    timeline.add_counter("port_steals", 1);
                    mem.tick();
                }
                // One MAC cycle: read the window needed next, write the
                // word finalized last, update 4 coefficients.
                let window = (i + 4 * g + 5) / 4 % ACC_WORDS;
                mem.issue_read(acc_word_addr(block, window))
                    .expect("read port free");
                let prev = (i + 4 * g) / 4 % ACC_WORDS;
                mem.issue_write(acc_word_addr(block, prev), acc[i / 4])
                    .expect("write port free");
                let pos = i + BLOCK_COEFFS * block + 4 * g;
                mac_word::<DEFECT>(&mut acc, a.coeff(i), group, pos);
                compute_cycles += 1;
                compute_run += 1;
                mem.tick();
            }
        }

        // --- Drain the final window (2 cycles). ---
        let run = std::mem::take(&mut compute_run);
        timeline.push_phase("compute", run, MACS as u64 * run);
        mem.issue_write(acc_word_addr(block, ACC_WORDS - 1), 0)
            .expect("port free");
        mem.tick();
        timeline.push_phase("acc_drain", 2, 0);
        mem.tick();
    }

    let stats = mem.stats();
    let report = CycleReport {
        compute_cycles,
        memory_overhead_cycles: stats.cycles - compute_cycles,
    };
    debug_assert!(timeline.reconciles_with(stats.cycles));
    let product = PolyQ::from_fn(|p| (acc[p / 4] >> (16 * (p % 4))) as u16);
    (product, report, stats, timeline)
}

/// Decodes a 64-bit secret word into its 16 two's-complement nibbles.
pub(crate) fn decode_secret_word(word: u64) -> [i8; BLOCK_COEFFS] {
    std::array::from_fn(|t| {
        let nibble = ((word >> (4 * t)) & 0xf) as i8;
        if nibble >= 8 {
            nibble - 16
        } else {
            nibble
        }
    })
}

/// Accumulator word address for the window `w` of block pass `b` (the
/// stream rotates with the pass so addresses differ per block).
pub(crate) fn acc_word_addr(block: usize, window: usize) -> usize {
    ACC_BASE + (window + 4 * block) % ACC_WORDS
}

/// A word of four 16-bit fields, field `t` holding `f(t)`.
fn fields(f: impl Fn(usize) -> u64) -> u64 {
    (0..4).fold(0, |word, t| word | f(t) << (16 * t))
}

/// Latches a block's secrets as [`mac_word`] operands: per group of four,
/// `|s|` and the sign line (`0xffff` where `s < 0`) in 16-bit fields. The
/// width checks of `select_multiple` and `multiples` are folded here,
/// once per block pass, with their messages; all state is local to the
/// simulation, so a panic here is as observable as one at a MAC.
pub(crate) fn block_operands(
    secrets: &[i8; BLOCK_COEFFS],
    acc: &[u64; ACC_WORDS],
    public: &[u16; N],
) -> [(u64, u64); 4] {
    let magnitude = secrets.iter().fold(0, |max, s| max.max(s.unsigned_abs()));
    assert!(magnitude <= MAX_MULTIPLE, "selector exceeds range");
    let accumulators = acc.iter().fold(0, |or, w| or | w);
    assert!(accumulators & !FIELDS13 == 0, "accumulator exceeds 13 bits");
    let operands = public.iter().fold(0, |or, c| or | c);
    assert!(operands >> 13 == 0, "operand exceeds 13 bits");
    std::array::from_fn(|g| {
        let s = |t: usize| secrets[4 * g + t];
        let magnitudes = fields(|t| u64::from(s(t).unsigned_abs()));
        (magnitudes, fields(|t| u64::from(s(t) < 0) * 0xffff))
    })
}

/// One compute cycle's four MACs as one update of the accumulator words:
/// `±a·|s|` for the group's secrets into coefficients `pos..pos + 4`
/// (mod `N`; `pos < 2N`). One multiply forms `a·|s|` in every field
/// (below 2^16, as [`block_operands`] checked `a < 2^13`, `|s| ≤ 5`). A
/// field is negated mod 2^13 where its sign line, the secret's sign XOR
/// the wrap comparator (`pos + t ≥ N`), is set. No field's sum reaches
/// 2^14, so none carries before the mask. `LwWrapSignDropped` zeroes the
/// wrap lines; `LwSecretSignIgnored` sticks the whole line at *add*.
#[inline(always)]
pub(crate) fn mac_word<const DEFECT: u8>(
    acc: &mut [u64; ACC_WORDS],
    a: u16,
    (magnitudes, signs): (u64, u64),
    pos: usize,
) {
    // The wrap comparators `pos + t ≥ N` set the fields from `N - pos` up.
    let wrap = if pos + 3 < N {
        0
    } else if pos >= N {
        u64::MAX
    } else {
        u64::MAX << (16 * (N - pos))
    };
    let neg = match DEFECT {
        d if d == Fault::LwWrapSignDropped as u8 => signs,
        d if d == Fault::LwSecretSignIgnored as u8 => 0,
        _ => signs ^ wrap,
    };
    let term = u64::from(a).wrapping_mul(magnitudes) & FIELDS13;
    let term = (term ^ (neg & FIELDS13)).wrapping_add(neg & 0x0001_0001_0001_0001);
    let (w0, w1) = (pos / 4 % ACC_WORDS, (pos / 4 + 1) % ACC_WORDS);
    let window = u128::from(acc[w1]) << 64 | u128::from(acc[w0]);
    let window = window.wrapping_add(u128::from(term) << (16 * (pos % 4)));
    acc[w0] = window as u64 & FIELDS13;
    acc[w1] = (window >> 64) as u64 & FIELDS13;
}

/// The power model's activity for a run of `area` whose memory traffic
/// is `stats`. Every port access crosses the module IO boundary in the
/// LW designs (the multiplier shares the system memory).
pub(crate) fn bram_activity(stats: BramStats, area: Area) -> Activity {
    Activity {
        cycles: stats.cycles,
        bram_reads: stats.reads,
        bram_writes: stats.writes,
        io_words: stats.reads + stats.writes,
        active_luts: u64::from(area.luts),
        active_ffs: u64::from(area.ffs),
        dsp_ops: 0,
    }
}

impl PolyMultiplier for LightweightMultiplier {
    fn multiply(&mut self, public: &PolyQ, secret: &SecretPoly) -> PolyQ {
        let (product, cycles, stats, timeline) = simulate::<NO_DEFECT>(public, secret);
        self.last_cycles = cycles;
        self.last_timeline = Some(timeline);
        self.activity = self.activity.merge(bram_activity(stats, self.area()));
        self.multiplications += 1;
        product
    }

    fn name(&self) -> &str {
        "LW (4 MAC)"
    }
}

impl HwMultiplier for LightweightMultiplier {
    fn report(&self) -> ArchitectureReport {
        ArchitectureReport {
            name: "LW".into(),
            fpga: Fpga::Artix7,
            cycles: self.last_cycles,
            area: self.area(),
            // Extraction mux → multiple generator → selector → adder,
            // plus the memory-word mux: deeper than the HS designs.
            critical_path: CriticalPath { logic_levels: 8 },
            activity: Some(self.activity),
        }
    }

    fn timeline(&self) -> Option<&saber_trace::CycleTimeline> {
        self.last_timeline.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_hw::mac::{multiples, select_multiple};
    use saber_ring::schoolbook;

    fn operands(seed: u16) -> (PolyQ, SecretPoly) {
        (
            PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed).wrapping_add(seed) & 0x1fff),
            SecretPoly::from_fn(|i| ((((i as u32).wrapping_mul(seed as u32) >> 2) % 11) as i8) - 5),
        )
    }

    /// Field `p mod 4` of word `p / 4` (mod `N`).
    fn field(acc: &[u64; ACC_WORDS], p: usize) -> u16 {
        (acc[p % N / 4] >> (16 * (p % 4))) as u16
    }

    /// Runs one word MAC on accumulator fields all equal to `start` and
    /// checks every field of its two-word window against the four scalar
    /// MACs of the loop it replaced: the wrap comparator negates the
    /// selector, and each defect acts as it did there.
    fn check_word_mac<const DEFECT: u8>(
        a: u16,
        start: u16,
        secrets: &[i8; 4],
        group: (u64, u64),
        pos: usize,
    ) {
        let m = multiples(a);
        let mut acc = [fields(|_| u64::from(start)); ACC_WORDS];
        mac_word::<DEFECT>(&mut acc, a, group, pos);
        for p in pos - pos % 4..pos - pos % 4 + 8 {
            let expected = match p.checked_sub(pos).filter(|&t| t < MACS) {
                Some(t) => {
                    let has_wrap_comparator = DEFECT != Fault::LwWrapSignDropped as u8;
                    let wrap = -i8::from(has_wrap_comparator && p >= N);
                    let selector = (secrets[t] ^ wrap).wrapping_sub(wrap);
                    let selector = if DEFECT == Fault::LwSecretSignIgnored as u8 {
                        selector.abs()
                    } else {
                        selector
                    };
                    select_multiple(&m, selector, start)
                }
                None => start,
            };
            assert_eq!(
                field(&acc, p),
                expected,
                "defect {DEFECT}: a = {a}, acc = {start}, s = {secrets:?}, pos = {pos}, field {p}"
            );
        }
    }

    /// The word MAC equals the four scalar MACs it replaces on every
    /// public coefficient, with every selector in −5..=5 in every field,
    /// at every field offset with 0–4 wrapped fields, on boundary
    /// accumulators, shipped and with both LW defects.
    #[test]
    fn word_mac_equals_four_scalar_macs_exhaustively() {
        // Offsets 0–3 unwrapped; 1–3 wrapped fields across the top word
        // into word 0; offsets 0–3 all wrapped.
        let positions = [28, 29, 30, 31, 253, 254, 255, 300, 301, 302, 303];
        let rotations: Vec<([i8; 4], (u64, u64))> = (0..11)
            .map(|r| {
                let secrets = std::array::from_fn(|j| ((j + r) % 11) as i8 - 5);
                let group = block_operands(&secrets, &[0; ACC_WORDS], &[0; N])[0];
                (std::array::from_fn(|t| secrets[t]), group)
            })
            .collect();
        for a in 0u16..1 << 13 {
            for start in [0u16, 1, 0x1000, 0x1fff] {
                for (secrets, group) in &rotations {
                    for pos in positions {
                        check_word_mac::<NO_DEFECT>(a, start, secrets, *group, pos);
                        check_word_mac::<{ Fault::LwWrapSignDropped as u8 }>(
                            a, start, secrets, *group, pos,
                        );
                        check_word_mac::<{ Fault::LwSecretSignIgnored as u8 }>(
                            a, start, secrets, *group, pos,
                        );
                    }
                }
            }
        }
    }

    /// The panic message of `f`.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic payload")
    }

    /// Each folded check of a block pass raises the message of the scalar
    /// MAC check it folds.
    #[test]
    fn folded_width_checks_panic_as_the_scalar_macs_do() {
        let legal: [i8; BLOCK_COEFFS] = std::array::from_fn(|j| (j % 11) as i8 - 5);
        let m = multiples(1234);

        let mut wide = legal;
        wide[9] = -6;
        let got = panic_message(|| {
            let _ = block_operands(&wide, &[0; ACC_WORDS], &[0; N]);
        });
        assert_eq!(got, "selector exceeds range");
        assert_eq!(
            got,
            panic_message(|| {
                let _ = select_multiple(&m, -6, 0);
            })
        );

        let mut acc = [0; ACC_WORDS];
        acc[37] = 1 << (16 * 2 + 13);
        let got = panic_message(|| {
            let _ = block_operands(&legal, &acc, &[0; N]);
        });
        assert_eq!(got, "accumulator exceeds 13 bits");
        assert_eq!(
            got,
            panic_message(|| {
                let _ = select_multiple(&m, 1, 1 << 13);
            })
        );

        let mut public = [0; N];
        public[200] = 1 << 13;
        let got = panic_message(|| {
            let _ = block_operands(&legal, &[0; ACC_WORDS], &public);
        });
        assert_eq!(got, "operand exceeds 13 bits");
        assert_eq!(
            got,
            panic_message(|| {
                let _ = multiples(1 << 13);
            })
        );
    }

    #[test]
    fn functional_correctness() {
        for seed in [3u16, 999, 8111] {
            let (a, s) = operands(seed);
            let mut hw = LightweightMultiplier::new();
            assert_eq!(
                hw.multiply(&a, &s),
                schoolbook::mul_asym(&a, &s),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pure_compute_is_exactly_16384() {
        let (a, s) = operands(17);
        let mut hw = LightweightMultiplier::new();
        let _ = hw.multiply(&a, &s);
        assert_eq!(hw.report().cycles.compute_cycles, 16_384);
    }

    #[test]
    fn total_cycles_near_paper() {
        // Paper: 19,471 including memory overhead. Our re-derived
        // scheduler (the authors' RTL is unpublished) must land within
        // 5 % and keep the overhead below 16 % of the total.
        let (a, s) = operands(7);
        let mut hw = LightweightMultiplier::new();
        let _ = hw.multiply(&a, &s);
        let total = hw.report().cycles.total();
        assert!(
            (total as f64 - 19_471.0).abs() / 19_471.0 < 0.05,
            "total = {total}"
        );
        assert!(hw.report().cycles.overhead_ratio() < 0.16);
    }

    #[test]
    fn cycle_count_is_operand_independent() {
        // Constant-time property: the schedule never depends on data.
        let mut totals = Vec::new();
        for seed in [1u16, 2, 3] {
            let (a, s) = operands(seed);
            let mut hw = LightweightMultiplier::new();
            let _ = hw.multiply(&a, &s);
            totals.push(hw.report().cycles.total());
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
    }

    #[test]
    fn area_matches_table1() {
        // Table 1: 541 LUT, 301 FF, 0 DSP (±12 %).
        let area = LightweightMultiplier::new().area();
        assert_eq!(area.dsps, 0);
        assert!(
            (area.luts as f64 - 541.0).abs() / 541.0 < 0.12,
            "LUTs = {}",
            area.luts
        );
        assert!(
            (area.ffs as f64 - 301.0).abs() / 301.0 < 0.12,
            "FFs = {}",
            area.ffs
        );
    }

    #[test]
    fn fits_the_small_artix7() {
        let (a, s) = operands(5);
        let mut hw = LightweightMultiplier::new();
        let _ = hw.multiply(&a, &s);
        let r = hw.report();
        // §5.1: < 7 % of LUTs, < 2 % of FFs on the XC7A12TL.
        assert!(r.lut_utilization() < 0.07);
        assert!(r.ff_utilization() < 0.02);
        assert!(r.fmax_mhz() >= 100.0);
    }

    #[test]
    fn memory_activity_is_substantial() {
        // The design trades buffer space for repeated reads; the BRAM
        // traffic must reflect the accumulator streaming (≫ one read per
        // coefficient).
        let (a, s) = operands(9);
        let mut hw = LightweightMultiplier::new();
        let _ = hw.multiply(&a, &s);
        let act = hw.report().activity.unwrap();
        assert!(act.bram_reads > 16_000, "reads = {}", act.bram_reads);
        assert!(act.bram_writes > 16_000, "writes = {}", act.bram_writes);
    }

    #[test]
    fn extreme_operands() {
        let a = PolyQ::from_fn(|_| 8191);
        let s = SecretPoly::from_fn(|i| if i % 2 == 0 { 5 } else { -5 });
        let mut hw = LightweightMultiplier::new();
        assert_eq!(hw.multiply(&a, &s), schoolbook::mul_asym(&a, &s));
        assert_eq!(
            hw.multiply(&PolyQ::zero(), &SecretPoly::zero()),
            PolyQ::zero()
        );
    }
}
