//! A cycle-accurate model of a bank of DSP48E2 slices.
//!
//! Modern Xilinx Ultrascale+ DSP slices compute `P = A × B + C` with a
//! **27×18-bit signed** multiplier and a 48-bit post-adder, behind a
//! configurable pipeline (§3.2 of the paper uses the standard 3-stage
//! A/B → M → P register chain, which is where HS-II's 131 = 128 + 3
//! cycle count comes from). For unsigned operands the usable widths drop
//! to **26×17** — the constraint that forces HS-II's `A = a + a'·2^26`,
//! `S = s + s'·2^17` split.
//!
//! HS-II's 128 (or 256) slices share one clock and issue and retire
//! together, so [`DspBank`] models them as one unit: structure-of-arrays
//! operand stages, one port check folded over every lane per issue, and
//! one branch-free pass computing every lane's P register per retiring
//! stage. A one-lane bank is a single slice.

use std::fmt;

/// Signed operand width of port A.
pub const A_WIDTH: u32 = 27;
/// Signed operand width of port B.
pub const B_WIDTH: u32 = 18;
/// Width of the C port, the post-adder and the P output.
pub const P_WIDTH: u32 = 48;
/// Usable width of port A for unsigned operands.
pub const A_UNSIGNED_WIDTH: u32 = A_WIDTH - 1;
/// Usable width of port B for unsigned operands.
pub const B_UNSIGNED_WIDTH: u32 = B_WIDTH - 1;

/// Error returned when an operand does not fit its port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandWidthError {
    /// The port name (`"A"`, `"B"` or `"C"`).
    pub port: &'static str,
    /// The offending value.
    pub value: i64,
    /// The port's signed bit width.
    pub width: u32,
}

impl fmt::Display for OperandWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operand {} does not fit signed {}-bit DSP port {}",
            self.value, self.width, self.port
        )
    }
}

impl std::error::Error for OperandWidthError {}

/// Deepest configurable pipeline; also the size of the stage ring,
/// which must be a power of two so that ring indices wrap by masking.
const MAX_LATENCY: usize = 4;
const RING_MASK: usize = MAX_LATENCY - 1;
const _: () = assert!(MAX_LATENCY.is_power_of_two());

/// `value ^ (value >> 63)` shifted down by `width − 1`: zero exactly
/// when `value` fits a signed `width`-bit port (the XOR maps a negative
/// value `v` to `−v − 1`), so ORing it across lanes folds a bank's
/// width checks into one word without a branch per lane.
#[inline(always)]
fn excess_bits(value: i64, width: u32) -> u64 {
    ((value ^ (value >> 63)) as u64) >> (width - 1)
}

/// The first lane's operand that does not fit its port, A before B
/// before C within a lane — what issuing to the slices one by one would
/// report.
fn first_width_error(a: &[i64], b: &[i64], c: &[i64]) -> Option<OperandWidthError> {
    a.iter().zip(b).zip(c).find_map(|((&a, &b), &c)| {
        [("A", a, A_WIDTH), ("B", b, B_WIDTH), ("C", c, P_WIDTH)]
            .into_iter()
            .find(|&(_, value, width)| excess_bits(value, width) != 0)
            .map(|(port, value, width)| OperandWidthError { port, value, width })
    })
}

/// A bank of pipelined DSP48E2 slices on one clock: `lanes` slices that
/// issue together and retire together, modelled structure-of-arrays so
/// that one pass over each operand array serves the whole bank.
///
/// Each slice has the A/B/C port widths, the pipeline latency and the
/// 48-bit P register of one DSP48E2; a one-lane bank is one slice.
///
/// # Examples
///
/// ```
/// use saber_hw::dsp::DspBank;
///
/// let mut dsp = DspBank::new(2, 3);
/// dsp.issue(&[1000, -7], &[200, 6], &[5, 0])?;
/// for _ in 0..3 {
///     assert_eq!(dsp.output(), None); // still in the pipeline
///     dsp.tick();
/// }
/// assert_eq!(dsp.output(), Some(&[1000 * 200 + 5, -42][..]));
/// # Ok::<(), saber_hw::dsp::OperandWidthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DspBank {
    lanes: usize,
    latency: usize,
    /// The pipeline stages as a ring of [`MAX_LATENCY`] slots; slot `i`
    /// holds lane `l`'s operands at index `i · lanes + l`. With `now`
    /// the ticks so far (mod the ring size), the edge at tick `now`
    /// emerges slot `now` and `issue` writes slot `now + latency − 1`:
    /// an operation emerges exactly `latency` edges after its issue, and
    /// no slot is rewritten before it emerges because
    /// `latency ≤ MAX_LATENCY`.
    a: Vec<i64>,
    b: Vec<i64>,
    c: Vec<i64>,
    /// Whether each slot holds issued operands (`false` is a bubble).
    full: [bool; MAX_LATENCY],
    now: usize,
    /// The P registers, one per lane.
    p: Vec<i64>,
    /// Whether the last tick brought a result out to `p`.
    emerged: bool,
    issued: u64,
}

impl DspBank {
    /// Creates `lanes` slices with the given pipeline `latency` (1..=4;
    /// the full-speed configuration is 3).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is 0 or greater than 4, or `lanes` is 0.
    #[must_use]
    pub fn new(lanes: usize, latency: usize) -> Self {
        assert!(
            (1..=MAX_LATENCY).contains(&latency),
            "DSP latency out of range"
        );
        assert!(lanes > 0, "a DSP bank needs at least one slice");
        Self {
            lanes,
            latency,
            a: vec![0; MAX_LATENCY * lanes],
            b: vec![0; MAX_LATENCY * lanes],
            c: vec![0; MAX_LATENCY * lanes],
            full: [false; MAX_LATENCY],
            now: 0,
            p: vec![0; lanes],
            emerged: false,
            issued: 0,
        }
    }

    /// Pipeline depth.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Total operations issued over all slices (the activity input of
    /// the power model).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Presents one operation per slice for the current cycle: slice `l`
    /// computes `a[l]·b[l] + c[l]`.
    ///
    /// The port checks of every lane are folded into one word and tested
    /// once; only a rejected issue looks for the offending lane.
    ///
    /// # Errors
    ///
    /// Returns [`OperandWidthError`] for the first lane whose `a`, `b`
    /// or `c` exceeds its port width (A before B before C) — exactly the
    /// check that makes the HS-II packing proofs meaningful (a 28-bit
    /// packed operand *must* be split before it can enter the slice).
    /// Nothing is issued then.
    ///
    /// # Panics
    ///
    /// Panics unless each slice is given exactly one operand per port,
    /// or if operations were already issued this cycle.
    pub fn issue(&mut self, a: &[i64], b: &[i64], c: &[i64]) -> Result<(), OperandWidthError> {
        assert!(
            a.len() == self.lanes && b.len() == self.lanes && c.len() == self.lanes,
            "one operand per slice and port"
        );
        let excess = a.iter().zip(b).zip(c).fold(0u64, |excess, ((&a, &b), &c)| {
            excess | excess_bits(a, A_WIDTH) | excess_bits(b, B_WIDTH) | excess_bits(c, P_WIDTH)
        });
        if excess != 0 {
            // Rejected input only: locating the offender may branch.
            return Err(first_width_error(a, b, c).expect("a lane's port check failed"));
        }
        let slot = (self.now + self.latency - 1) & RING_MASK;
        assert!(!self.full[slot], "operands already issued this cycle");
        let lanes = slot * self.lanes..(slot + 1) * self.lanes;
        self.a[lanes.clone()].copy_from_slice(a);
        self.b[lanes.clone()].copy_from_slice(b);
        self.c[lanes].copy_from_slice(c);
        self.full[slot] = true;
        self.issued += self.lanes as u64;
        Ok(())
    }

    /// Advances one clock edge: the oldest stage emerges at P.
    pub fn tick(&mut self) {
        let slot = self.now;
        self.emerged = std::mem::take(&mut self.full[slot]);
        if self.emerged {
            let lanes = slot * self.lanes..(slot + 1) * self.lanes;
            p_registers(
                &self.a[lanes.clone()],
                &self.b[lanes.clone()],
                &self.c[lanes],
                &mut self.p,
            );
        }
        self.now = (self.now + 1) & RING_MASK;
    }

    /// The results that emerged from the pipeline at the last tick, one
    /// per slice, if any.
    #[must_use]
    pub fn output(&self) -> Option<&[i64]> {
        self.emerged.then_some(&self.p[..])
    }
}

/// The P registers of one retiring stage: `a·b + c` per lane, wrapped
/// to 48 bits like the silicon.
///
/// `issue` admitted only port-legal operands, so `|a·b| < 2^43` and
/// `|c| ≤ 2^47`: the `i64` sum is exact, so its wrapping arithmetic
/// never wraps, and XOR-ing the 48-bit sign in and subtracting it
/// sign-extends the low 48 bits. Without a branch the loop vectorizes
/// (`tools/ci.sh build` audits its packed adds).
#[inline(never)]
fn p_registers(a: &[i64], b: &[i64], c: &[i64], p: &mut [i64]) {
    const LOW: i64 = (1 << P_WIDTH) - 1;
    const SIGN: i64 = 1 << (P_WIDTH - 1);
    for (((p, &a), &b), &c) in p.iter_mut().zip(a).zip(b).zip(c) {
        let wide = a.wrapping_mul(b).wrapping_add(c);
        *p = ((wide & LOW) ^ SIGN).wrapping_sub(SIGN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One slice: a one-lane bank.
    fn slice(latency: usize) -> DspBank {
        DspBank::new(1, latency)
    }

    /// The one lane's result at the last tick.
    fn p(dsp: &DspBank) -> Option<i64> {
        dsp.output().map(|p| p[0])
    }

    #[test]
    fn pipelined_results_emerge_in_order() {
        let mut dsp = slice(3);
        let inputs = [(3i64, 4i64, 1i64), (-5, 7, 0), (100, -2, 50)];
        let mut outputs = Vec::new();
        for cycle in 0..6 {
            if cycle < inputs.len() {
                let (a, b, c) = inputs[cycle];
                dsp.issue(&[a], &[b], &[c]).unwrap();
            }
            dsp.tick();
            outputs.extend(p(&dsp));
        }
        assert_eq!(outputs, vec![13, -35, -150]);
        assert_eq!(dsp.issued(), 3);
    }

    #[test]
    fn bubbles_produce_no_output() {
        let mut dsp = slice(2);
        dsp.issue(&[1], &[1], &[0]).unwrap();
        dsp.tick();
        assert_eq!(p(&dsp), None);
        dsp.tick();
        assert_eq!(p(&dsp), Some(1));
        dsp.tick(); // no new issue
        assert_eq!(p(&dsp), None);
    }

    #[test]
    fn operand_width_enforced() {
        let mut dsp = slice(3);
        // 2^26 does not fit signed 27-bit? It does: range is [-2^26, 2^26).
        assert!(dsp.issue(&[(1 << 26) - 1], &[0], &[0]).is_ok());
        let err = dsp.issue(&[1 << 26], &[0], &[0]).unwrap_err();
        assert_eq!(err.port, "A");
        assert!(err.to_string().contains("27-bit"));
        let mut dsp2 = slice(3);
        assert!(dsp2.issue(&[0], &[1 << 17], &[0]).is_err());
        assert!(dsp2.issue(&[0], &[(1 << 17) - 1], &[0]).is_ok());
        // A rejected issue issues nothing.
        assert_eq!(dsp.issued(), 1);
        assert_eq!(dsp2.issued(), 1);
    }

    /// Every port's extremes and the first value past each, on lanes
    /// 0, 77 and 127 of a 128-slice bank among legal neighbours: the
    /// folded check reports the lane's value with its port and width, as
    /// a single slice given that lane's operands does.
    #[test]
    fn a_bank_reports_the_first_offending_lane_and_port() {
        let ports = [("A", A_WIDTH), ("B", B_WIDTH), ("C", P_WIDTH)];
        for (index, &(port, width)) in ports.iter().enumerate() {
            let bound = 1i64 << (width - 1);
            for value in [bound, -bound - 1, i64::MAX, i64::MIN] {
                for lane in [0usize, 77, 127] {
                    let mut operands = [vec![1i64; 128], vec![-1i64; 128], vec![3i64; 128]];
                    operands[index][lane] = value;
                    let expected = OperandWidthError { port, value, width };
                    let mut bank = DspBank::new(128, 3);
                    let [a, b, c] = &operands;
                    assert_eq!(
                        bank.issue(a, b, c),
                        Err(expected),
                        "{port} = {value} on {lane}"
                    );
                    assert_eq!(bank.issued(), 0);
                    let mut one = slice(3);
                    assert_eq!(one.issue(&[a[lane]], &[b[lane]], &[c[lane]]), Err(expected));
                }
                // Legal at the boundary on every port.
                let mut bank = DspBank::new(128, 3);
                let mut operands = [vec![0i64; 128], vec![0i64; 128], vec![0i64; 128]];
                operands[index][77] = bound - 1;
                operands[index][78] = -bound;
                let [a, b, c] = &operands;
                assert!(bank.issue(a, b, c).is_ok());
            }
        }
        // Within a lane A is reported before B before C; across lanes the
        // lower lane wins.
        let mut bank = DspBank::new(128, 3);
        let mut a = vec![0i64; 128];
        let mut b = vec![0i64; 128];
        let mut c = vec![0i64; 128];
        c[77] = 1 << 47;
        b[77] = 1 << 17;
        a[78] = 1 << 26;
        assert_eq!(
            bank.issue(&a, &b, &c),
            Err(OperandWidthError {
                port: "B",
                value: 1 << 17,
                width: B_WIDTH
            })
        );
    }

    #[test]
    fn unsigned_widths_are_one_bit_narrower() {
        assert_eq!(A_UNSIGNED_WIDTH, 26);
        assert_eq!(B_UNSIGNED_WIDTH, 17);
    }

    #[test]
    fn p_register_wraps_at_48_bits() {
        let mut dsp = slice(1);
        // (2^26 − 1) · (2^17 − 1) fits easily; force wrap via C.
        dsp.issue(&[1], &[1], &[(1 << 47) - 1]).unwrap();
        dsp.tick();
        // 2^47 wraps to −2^47.
        assert_eq!(p(&dsp), Some(-(1i64 << 47)));
    }

    /// The P register as the model first computed it: `a·b + c` in
    /// `i128`, masked to 48 bits and sign-extended.
    fn p_reference(a: i64, b: i64, c: i64) -> i64 {
        let wide = i128::from(a) * i128::from(b) + i128::from(c);
        let wrapped = wide & ((1i128 << P_WIDTH) - 1);
        let result = if wrapped >= (1i128 << (P_WIDTH - 1)) {
            wrapped - (1i128 << P_WIDTH)
        } else {
            wrapped
        };
        result as i64
    }

    /// Seeded port-legal operands plus every combination of the port
    /// extremes of A, B and C.
    fn legal_operands() -> Vec<(i64, i64, i64)> {
        let extremes = |width: u32| {
            let bound = 1i64 << (width - 1);
            vec![-bound, -bound + 1, -1, 0, 1, bound - 2, bound - 1]
        };
        let mut ops = Vec::new();
        for &a in &extremes(A_WIDTH) {
            for &b in &extremes(B_WIDTH) {
                for &c in &extremes(P_WIDTH) {
                    ops.push((a, b, c));
                }
            }
        }
        let mut rng = saber_testkit::Rng::new(0x0D5B_48E2);
        let mut port = |width: u32| {
            let bound = 1i64 << (width - 1);
            rng.range_i64(-bound, bound - 1)
        };
        for _ in 0..4096 {
            ops.push((port(A_WIDTH), port(B_WIDTH), port(P_WIDTH)));
        }
        ops
    }

    #[test]
    fn p_register_matches_the_i128_reference_at_every_latency() {
        let ops = legal_operands();
        for latency in 1..=4 {
            let mut dsp = slice(latency);
            let mut outputs = Vec::new();
            // Back-to-back issue, then `latency` ticks to drain.
            for cycle in 0..ops.len() + latency {
                if let Some(&(a, b, c)) = ops.get(cycle) {
                    dsp.issue(&[a], &[b], &[c]).unwrap();
                }
                dsp.tick();
                outputs.extend(p(&dsp));
            }
            assert_eq!(outputs.len(), ops.len(), "latency {latency}");
            for (&(a, b, c), &p) in ops.iter().zip(&outputs) {
                assert_eq!(
                    p,
                    p_reference(a, b, c),
                    "latency {latency}: a = {a}, b = {b}, c = {c}"
                );
            }
            assert_eq!(dsp.issued(), ops.len() as u64);
        }
        // The same operations issued across the lanes of wide banks, in
        // odd-sized batches so that lanes see different operations.
        for (lanes, latency) in [(7usize, 3usize), (128, 1), (256, 4)] {
            let mut bank = DspBank::new(lanes, latency);
            for batch in ops.chunks_exact(lanes) {
                let a: Vec<i64> = batch.iter().map(|op| op.0).collect();
                let b: Vec<i64> = batch.iter().map(|op| op.1).collect();
                let c: Vec<i64> = batch.iter().map(|op| op.2).collect();
                bank.issue(&a, &b, &c).unwrap();
                for _ in 0..latency {
                    bank.tick();
                }
                let expected: Vec<i64> = batch
                    .iter()
                    .map(|&(a, b, c)| p_reference(a, b, c))
                    .collect();
                assert_eq!(bank.output(), Some(&expected[..]), "{lanes} lanes");
            }
        }
    }

    #[test]
    fn results_emerge_after_exactly_latency_ticks() {
        for latency in 1..=4 {
            let mut dsp = slice(latency);
            // Issue every other cycle: bubbles must stay bubbles.
            let mut seen = Vec::new();
            for cycle in 0..12usize {
                if cycle % 2 == 0 && cycle < 8 {
                    dsp.issue(&[cycle as i64 + 1], &[3], &[0]).unwrap();
                }
                dsp.tick();
                if let Some(p) = p(&dsp) {
                    seen.push((cycle, p));
                }
            }
            let expected: Vec<(usize, i64)> = (0..8)
                .step_by(2)
                .map(|c| (c + latency - 1, 3 * (c as i64 + 1)))
                .collect();
            assert_eq!(seen, expected, "latency {latency}");
        }
    }

    #[test]
    #[should_panic(expected = "latency out of range")]
    fn latency_beyond_four_rejected() {
        let _ = slice(5);
    }

    #[test]
    #[should_panic(expected = "already issued")]
    fn double_issue_panics() {
        let mut dsp = slice(3);
        dsp.issue(&[1], &[1], &[0]).unwrap();
        let _ = dsp.issue(&[2], &[2], &[0]);
    }
}
