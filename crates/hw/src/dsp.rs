//! A cycle-accurate DSP48E2 slice model.
//!
//! Modern Xilinx Ultrascale+ DSP slices compute `P = A × B + C` with a
//! **27×18-bit signed** multiplier and a 48-bit post-adder, behind a
//! configurable pipeline (§3.2 of the paper uses the standard 3-stage
//! A/B → M → P register chain, which is where HS-II's 131 = 128 + 3
//! cycle count comes from). For unsigned operands the usable widths drop
//! to **26×17** — the constraint that forces HS-II's `A = a + a'·2^26`,
//! `S = s + s'·2^17` split.

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

#[inline]
fn fits_signed(value: i64, width: u32) -> bool {
    let bound = 1i64 << (width - 1);
    (-bound..bound).contains(&value)
}

/// Deepest configurable pipeline; also the size of the stage ring,
/// which must be a power of two so that ring indices wrap by masking.
const MAX_LATENCY: usize = 4;
const RING_MASK: usize = MAX_LATENCY - 1;
const _: () = assert!(MAX_LATENCY.is_power_of_two());

/// One in-flight DSP operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    a: i64,
    b: i64,
    c: i64,
}

impl Op {
    /// The P register: `a·b + c`, wrapped to 48 bits like the silicon.
    ///
    /// `issue` admitted only port-legal operands, so `|a·b| < 2^43` and
    /// `|c| ≤ 2^47`: the `i64` sum is exact, and shifting its low 48
    /// bits to the top and back sign-extends them.
    #[inline]
    fn p(self) -> i64 {
        let wide = self.a * self.b + self.c;
        (wide << (64 - P_WIDTH)) >> (64 - P_WIDTH)
    }
}

/// A pipelined DSP48E2 slice.
///
/// # Examples
///
/// ```
/// use saber_hw::dsp::Dsp48;
///
/// let mut dsp = Dsp48::new(3);
/// dsp.issue(1000, 200, 5)?;
/// for _ in 0..3 {
///     assert_eq!(dsp.output(), None); // still in the pipeline
///     dsp.tick();
/// }
/// assert_eq!(dsp.output(), Some(1000 * 200 + 5));
/// # Ok::<(), saber_hw::dsp::OperandWidthError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dsp48 {
    latency: usize,
    /// The pipeline stages as a ring of [`MAX_LATENCY`] slots (`None` is
    /// a bubble). With `now` the ticks so far (mod the ring size), the
    /// edge at tick `now` emerges slot `now` and `issue` writes slot
    /// `now + latency − 1`: an operation emerges exactly `latency` edges
    /// after its issue, and no slot is rewritten before it emerges
    /// because `latency ≤ MAX_LATENCY`.
    stages: [Option<Op>; MAX_LATENCY],
    now: usize,
    output: Option<i64>,
    issued: u64,
}

impl Dsp48 {
    /// Creates a slice with the given pipeline `latency` (1..=4; the
    /// full-speed configuration is 3).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is 0 or greater than 4.
    #[must_use]
    pub fn new(latency: usize) -> Self {
        assert!(
            (1..=MAX_LATENCY).contains(&latency),
            "DSP latency out of range"
        );
        Self {
            latency,
            stages: [None; MAX_LATENCY],
            now: 0,
            output: None,
            issued: 0,
        }
    }

    /// Pipeline depth.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Total operations issued (the activity input of the power model).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Presents operands for the current cycle.
    ///
    /// # Errors
    ///
    /// Returns [`OperandWidthError`] if `a`, `b` or `c` exceeds its port
    /// width — exactly the check that makes the HS-II packing proofs
    /// meaningful (a 28-bit packed operand *must* be split before it can
    /// enter the slice).
    #[inline]
    pub fn issue(&mut self, a: i64, b: i64, c: i64) -> Result<(), OperandWidthError> {
        if !fits_signed(a, A_WIDTH) {
            return Err(OperandWidthError {
                port: "A",
                value: a,
                width: A_WIDTH,
            });
        }
        if !fits_signed(b, B_WIDTH) {
            return Err(OperandWidthError {
                port: "B",
                value: b,
                width: B_WIDTH,
            });
        }
        if !fits_signed(c, P_WIDTH) {
            return Err(OperandWidthError {
                port: "C",
                value: c,
                width: P_WIDTH,
            });
        }
        let youngest = &mut self.stages[(self.now + self.latency - 1) & RING_MASK];
        assert!(youngest.is_none(), "operands already issued this cycle");
        *youngest = Some(Op { a, b, c });
        self.issued += 1;
        Ok(())
    }

    /// Advances one clock edge: the oldest stage emerges at P.
    #[inline]
    pub fn tick(&mut self) {
        self.output = self.stages[self.now].take().map(Op::p);
        self.now = (self.now + 1) & RING_MASK;
    }

    /// The result that emerged from the pipeline at the last tick, if
    /// any.
    #[must_use]
    #[inline]
    pub fn output(&self) -> Option<i64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_results_emerge_in_order() {
        let mut dsp = Dsp48::new(3);
        let inputs = [(3i64, 4i64, 1i64), (-5, 7, 0), (100, -2, 50)];
        let mut outputs = Vec::new();
        for cycle in 0..6 {
            if cycle < inputs.len() {
                let (a, b, c) = inputs[cycle];
                dsp.issue(a, b, c).unwrap();
            }
            dsp.tick();
            if let Some(p) = dsp.output() {
                outputs.push(p);
            }
        }
        assert_eq!(outputs, vec![13, -35, -150]);
        assert_eq!(dsp.issued(), 3);
    }

    #[test]
    fn bubbles_produce_no_output() {
        let mut dsp = Dsp48::new(2);
        dsp.issue(1, 1, 0).unwrap();
        dsp.tick();
        assert_eq!(dsp.output(), None);
        dsp.tick();
        assert_eq!(dsp.output(), Some(1));
        dsp.tick(); // no new issue
        assert_eq!(dsp.output(), None);
    }

    #[test]
    fn operand_width_enforced() {
        let mut dsp = Dsp48::new(3);
        // 2^26 does not fit signed 27-bit? It does: range is [-2^26, 2^26).
        assert!(dsp.issue((1 << 26) - 1, 0, 0).is_ok());
        let err = dsp.issue(1 << 26, 0, 0).unwrap_err();
        assert_eq!(err.port, "A");
        assert!(err.to_string().contains("27-bit"));
        let mut dsp2 = Dsp48::new(3);
        assert!(dsp2.issue(0, 1 << 17, 0).is_err());
        assert!(dsp2.issue(0, (1 << 17) - 1, 0).is_ok());
    }

    #[test]
    fn unsigned_widths_are_one_bit_narrower() {
        assert_eq!(A_UNSIGNED_WIDTH, 26);
        assert_eq!(B_UNSIGNED_WIDTH, 17);
    }

    #[test]
    fn p_register_wraps_at_48_bits() {
        let mut dsp = Dsp48::new(1);
        // (2^26 − 1) · (2^17 − 1) fits easily; force wrap via C.
        dsp.issue(1, 1, (1 << 47) - 1).unwrap();
        dsp.tick();
        // 2^47 wraps to −2^47.
        assert_eq!(dsp.output(), Some(-(1i64 << 47)));
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
            let mut dsp = Dsp48::new(latency);
            let mut outputs = Vec::new();
            // Back-to-back issue, then `latency` ticks to drain.
            for cycle in 0..ops.len() + latency {
                if let Some(&(a, b, c)) = ops.get(cycle) {
                    dsp.issue(a, b, c).unwrap();
                }
                dsp.tick();
                outputs.extend(dsp.output());
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
    }

    #[test]
    fn results_emerge_after_exactly_latency_ticks() {
        for latency in 1..=4 {
            let mut dsp = Dsp48::new(latency);
            // Issue every other cycle: bubbles must stay bubbles.
            let mut seen = Vec::new();
            for cycle in 0..12usize {
                if cycle % 2 == 0 && cycle < 8 {
                    dsp.issue(cycle as i64 + 1, 3, 0).unwrap();
                }
                dsp.tick();
                if let Some(p) = dsp.output() {
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
        let _ = Dsp48::new(5);
    }

    #[test]
    #[should_panic(expected = "already issued")]
    fn double_issue_panics() {
        let mut dsp = Dsp48::new(3);
        dsp.issue(1, 1, 0).unwrap();
        let _ = dsp.issue(2, 2, 0);
    }
}
