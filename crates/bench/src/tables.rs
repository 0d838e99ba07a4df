//! Table 1's measured rows and text, the canonical operands every table
//! runs on, and the `BENCH_timing.json` record.
//!
//! [`format_table1`] is the body of [`crate::paper::table1`]. The
//! measured columns of EXPERIMENTS.md are copied from the committed
//! `crates/bench/golden/` files, which `cargo test` regenerates and
//! diffs (`tests/paper_goldens.rs`): a model change that moves a number
//! fails there until the golden is rewritten, and the document is
//! updated with it.

use saber_core::{
    BaselineMultiplier, CentralizedMultiplier, DspPackedMultiplier, HwMultiplier,
    LightweightMultiplier,
};
use saber_ring::{PolyMultiplier, PolyQ, SecretPoly};

use crate::literature::{Table1Row, TABLE1_PAPER};

/// Canonical operands for the table runs (any operands give the same
/// cycle counts — the schedules are data-independent).
#[must_use]
pub fn canonical_operands() -> (PolyQ, SecretPoly) {
    (
        PolyQ::from_fn(|i| (i as u16).wrapping_mul(2718) & 0x1fff),
        SecretPoly::from_fn(|i| (((i * 5) % 9) as i8) - 4),
    )
}

/// One measured Table-1 row produced by our models.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRow {
    /// Architecture label (matches the paper's).
    pub name: String,
    /// Cycle count using the paper's accounting (compute cycles for the
    /// high-speed rows, total incl. memory for LW).
    pub cycles: u64,
    /// Modeled clock (MHz, from the critical-path model).
    pub clock_mhz: f64,
    /// Modeled LUTs.
    pub luts: u32,
    /// Modeled FFs.
    pub ffs: u32,
    /// DSP slices.
    pub dsps: u32,
}

/// Runs all our architectures and returns their measured Table-1 rows.
#[must_use]
pub fn measured_table1() -> Vec<MeasuredRow> {
    let (a, s) = canonical_operands();
    let mut rows = Vec::new();

    // LW row uses the total (the paper's LW figure includes memory
    // overhead since the design streams through memory by construction).
    let mut lw = LightweightMultiplier::new();
    let _ = lw.multiply(&a, &s);
    let r = lw.report();
    rows.push(MeasuredRow {
        name: "LW".into(),
        cycles: r.cycles.total(),
        clock_mhz: r.fmax_mhz(),
        luts: r.area.luts,
        ffs: r.area.ffs,
        dsps: r.area.dsps,
    });

    // High-speed rows use compute cycles (paper: "the high-speed results
    // do not include the overhead").
    let mut push_hs = |name: &str, hw: &mut dyn HwMultiplier| {
        let _ = hw.multiply(&a, &s);
        let r = hw.report();
        rows.push(MeasuredRow {
            name: name.into(),
            cycles: r.cycles.compute_cycles,
            clock_mhz: r.fmax_mhz(),
            luts: r.area.luts,
            ffs: r.area.ffs,
            dsps: r.area.dsps,
        });
    };
    push_hs("HS-I 256", &mut CentralizedMultiplier::new(256));
    push_hs("HS-I 512", &mut CentralizedMultiplier::new(512));
    push_hs("HS-II", &mut DspPackedMultiplier::new());
    push_hs("[10] 256", &mut BaselineMultiplier::new(256));
    push_hs("[10] 512", &mut BaselineMultiplier::new(512));

    rows
}

/// Formats the measured-vs-paper Table 1 as printable text.
#[must_use]
pub fn format_table1() -> String {
    let measured = measured_table1();
    let mut out = String::new();
    out.push_str(
        "Table 1 — polynomial multipliers, model vs paper\n\
         (cycle accounting as in the paper: LW includes memory overhead, HS rows are pure compute)\n\n",
    );
    out.push_str(&format!(
        "{:<10} {:>8} {:>8} | {:>7} {:>7} {:>7} | {:>6} {:>6} | {:>4} {:>4}\n",
        "arch", "cyc", "cyc*", "LUT", "LUT*", "ΔLUT", "FF", "FF*", "DSP", "DSP*"
    ));
    out.push_str(&format!("{}\n", "-".repeat(92)));
    for m in &measured {
        let paper: Option<&Table1Row> = TABLE1_PAPER.iter().find(|p| p.name == m.name);
        if let Some(p) = paper {
            let delta = 100.0 * (f64::from(m.luts) - f64::from(p.luts)) / f64::from(p.luts);
            out.push_str(&format!(
                "{:<10} {:>8} {:>8} | {:>7} {:>7} {:>+6.1}% | {:>6} {:>6} | {:>4} {:>4}\n",
                m.name, m.cycles, p.cycles, m.luts, p.luts, delta, m.ffs, p.ffs, m.dsps, p.dsps
            ));
        }
    }
    out.push_str("\n(* = paper-reported value; [7] is cited data only — see EXPERIMENTS.md)\n");
    out
}

/// One leakage-detector run in the timing derby: a target (engine,
/// KEM pipeline, or planted mutant), its verdict, and the final Welch
/// t-statistic behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingLeakEntry {
    /// Target label, e.g. `mul/ct`, `kem/decaps-ct`,
    /// `mutant/ct-scan-early-exit`.
    pub target: String,
    /// `negative-control` (must pass) or `positive-control` (must leak).
    pub role: String,
    /// Detector verdict: `pass`, `leak`, or `inconclusive`.
    pub verdict: String,
    /// Final Welch t-statistic (signed; |t| is what the gate compares).
    pub t_stat: f64,
    /// Samples collected before the verdict (early exit on leak).
    pub samples: usize,
    /// Samples discarded by the percentile crop.
    pub cropped: usize,
}

/// The `BENCH_timing.json` document: per-target leakage verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingReport {
    /// All detector runs, controls included.
    pub entries: Vec<TimingLeakEntry>,
}

impl TimingReport {
    /// Records one detector run.
    pub fn push(
        &mut self,
        target: &str,
        role: &str,
        verdict: &str,
        t_stat: f64,
        samples: usize,
        cropped: usize,
    ) {
        self.entries.push(TimingLeakEntry {
            target: target.into(),
            role: role.into(),
            verdict: verdict.into(),
            t_stat,
            samples,
            cropped,
        });
    }

    /// Whether every control behaved: negative controls pass, positive
    /// controls leak.
    #[must_use]
    pub fn controls_hold(&self) -> bool {
        self.entries.iter().all(|e| match e.role.as_str() {
            "negative-control" => e.verdict == "pass",
            "positive-control" => e.verdict == "leak",
            _ => true,
        })
    }

    /// Serializes as the `BENCH_timing.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"timing_leakage\",\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"target\": \"{}\", \"role\": \"{}\", \"verdict\": \"{}\", \
                 \"t_stat\": {:.3}, \"samples\": {}, \"cropped\": {}}}{}\n",
                e.target,
                e.role,
                e.verdict,
                e.t_stat,
                e.samples,
                e.cropped,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"controls_hold\": {}\n}}\n",
            self.controls_hold()
        ));
        out
    }

    /// Formats the report as a printable text table.
    #[must_use]
    pub fn format_text(&self) -> String {
        let mut out = format!(
            "{:<28} {:<18} {:<14} {:>10} {:>9} {:>9}\n",
            "target", "role", "verdict", "t", "samples", "cropped"
        );
        out.push_str(&format!("{}\n", "-".repeat(94)));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<28} {:<18} {:<14} {:>10.2} {:>9} {:>9}\n",
                e.target, e.role, e.verdict, e.t_stat, e.samples, e.cropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_report_checks_controls() {
        let mut r = TimingReport::default();
        r.push("mul/ct", "negative-control", "pass", 0.8, 2000, 160);
        r.push(
            "mutant/early-exit",
            "positive-control",
            "leak",
            64.2,
            512,
            40,
        );
        assert!(r.controls_hold());
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"timing_leakage\""));
        assert!(json.contains("\"controls_hold\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = r.format_text();
        assert!(text.contains("mutant/early-exit"));
    }

    #[test]
    fn timing_report_flags_misbehaving_controls() {
        let mut r = TimingReport::default();
        r.push("mul/ct", "negative-control", "leak", 12.0, 900, 70);
        assert!(!r.controls_hold(), "a leaking ct engine must fail");
        let mut r = TimingReport::default();
        r.push(
            "mutant/early-exit",
            "positive-control",
            "pass",
            1.0,
            2000,
            160,
        );
        assert!(!r.controls_hold(), "an undetected mutant must fail");
    }

    #[test]
    fn measured_rows_cover_the_modelable_paper_rows() {
        let rows = measured_table1();
        assert_eq!(rows.len(), 6);
        for m in &rows {
            assert!(
                TABLE1_PAPER.iter().any(|p| p.name == m.name),
                "{} not in the paper table",
                m.name
            );
        }
    }

    #[test]
    fn measured_cycles_match_paper_exactly_for_hs_rows() {
        for m in measured_table1() {
            let p = TABLE1_PAPER.iter().find(|p| p.name == m.name).unwrap();
            if m.name.starts_with("HS") || m.name.starts_with("[10]") {
                assert_eq!(m.cycles, p.cycles, "{}", m.name);
            }
        }
    }

    #[test]
    fn lw_cycles_within_5_percent() {
        let rows = measured_table1();
        let lw = rows.iter().find(|r| r.name == "LW").unwrap();
        assert!((lw.cycles as f64 - 19_471.0).abs() / 19_471.0 < 0.05);
    }

    #[test]
    fn all_lut_models_within_10_percent() {
        for m in measured_table1() {
            let p = TABLE1_PAPER.iter().find(|p| p.name == m.name).unwrap();
            let delta = (f64::from(m.luts) - f64::from(p.luts)).abs() / f64::from(p.luts);
            assert!(delta < 0.10, "{}: ΔLUT = {delta:.3}", m.name);
        }
    }

    #[test]
    fn formatted_table_mentions_every_row() {
        let text = format_table1();
        for name in [
            "LW", "HS-I 256", "HS-I 512", "HS-II", "[10] 256", "[10] 512",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
