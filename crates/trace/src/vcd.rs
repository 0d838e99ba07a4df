//! IEEE-1364 Value Change Dump (VCD) export — the waveform-viewer
//! sibling of the Chrome exporter.
//!
//! The SoC scheduler in `saber-soc` reproduces hardware whose native
//! debugging artifact is a waveform: bus grants, clock-divider strides
//! and datapath occupancy are *signals*, not aggregate totals. This
//! module writes the subset of VCD that GTKWave (and every other
//! viewer) accepts:
//!
//! - a deterministic header (`$timescale`, nested `$scope module`
//!   blocks, `$var wire` declarations) — no `$date`, so golden files
//!   are byte-stable and drift-checkable like the cycle-total KATs;
//! - an initial `$dumpvars` block giving every signal a value at time
//!   zero;
//! - `#<time>` sections with `0`/`1` scalar and `b<bits>` vector
//!   changes, emitted only when a value actually changes.
//!
//! [`parse`] reads the same subset back for validation: CI checks the
//! golden waveform re-parses, every change references a declared
//! signal, and time never goes backwards. [`VcdDoc::high_time`] and
//! [`VcdDoc::final_value`] turn a parsed waveform back into cycle
//! counts, which is how the cross-format consistency tests prove the
//! waveform agrees with the heap scheduler's `busy_cycles` totals.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A signal declared in the waveform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdSignal {
    /// Dotted hierarchical path, e.g. `"soc.mult.busy"`.
    pub path: String,
    /// Bit width (1 = scalar wire).
    pub width: u32,
    /// The short identifier code used in the change sections.
    pub id: String,
}

/// Builds a VCD document incrementally: declare signals, then record
/// value changes at non-decreasing times, then [`VcdWriter::finish`].
#[derive(Debug)]
pub struct VcdWriter {
    timescale: &'static str,
    signals: Vec<VcdSignal>,
    /// Last emitted value per signal (`$dumpvars` initializes all to 0).
    last: Vec<u64>,
    /// Pending changes for the current time step.
    pending: Vec<(usize, u64)>,
    current_time: u64,
    /// Emitted change sections (time → encoded lines), built in order.
    body: String,
    started: bool,
    change_count: usize,
    last_time: u64,
}

/// Handle to a declared signal (index into the writer's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalId(usize);

/// Encodes a signal index as a VCD identifier code (printable ASCII
/// 33..=126, little-endian base-94, multi-character beyond 94 signals).
fn id_code(mut index: usize) -> String {
    let mut out = String::new();
    loop {
        let digit = u8::try_from(index % 94).expect("mod 94 fits u8");
        out.push((33 + digit) as char);
        index /= 94;
        if index == 0 {
            return out;
        }
        index -= 1; // bijective base: "!!" follows "~", not "!"
    }
}

fn binary(value: u64, width: u32) -> String {
    let width = width.max(1) as usize;
    let mut out = String::with_capacity(width);
    for bit in (0..width).rev() {
        out.push(if (value >> bit) & 1 == 1 { '1' } else { '0' });
    }
    out
}

impl VcdWriter {
    /// A writer with a 1 ns timescale (the SoC probe maps one scheduler
    /// tick to one timescale unit).
    #[must_use]
    pub fn new() -> Self {
        VcdWriter {
            timescale: "1 ns",
            signals: Vec::new(),
            last: Vec::new(),
            pending: Vec::new(),
            current_time: 0,
            body: String::new(),
            started: false,
            change_count: 0,
            last_time: 0,
        }
    }

    /// Declares a wire under the dotted scope path in `path` (the last
    /// segment is the variable name, the rest are nested modules).
    /// All declarations must precede the first [`VcdWriter::change`].
    ///
    /// # Panics
    ///
    /// Panics if called after value changes began, or if `width` is 0
    /// or exceeds 64.
    pub fn add_wire(&mut self, path: &str, width: u32) -> SignalId {
        assert!(!self.started, "declare all signals before the first change");
        assert!((1..=64).contains(&width), "width must be 1..=64");
        let index = self.signals.len();
        self.signals.push(VcdSignal {
            path: path.to_string(),
            width,
            id: id_code(index),
        });
        self.last.push(0);
        SignalId(index)
    }

    /// Records `signal = value` at `time`. Times must be non-decreasing;
    /// within a time step the last write wins; unchanged values are
    /// elided (VCD semantics).
    ///
    /// # Panics
    ///
    /// Panics if `time` goes backwards.
    pub fn change(&mut self, time: u64, signal: SignalId, value: u64) {
        assert!(
            time >= self.current_time || !self.started,
            "time goes backwards: {time} < {}",
            self.current_time
        );
        if !self.started {
            self.started = true;
            self.current_time = time;
        } else if time > self.current_time {
            self.flush_pending();
            self.current_time = time;
        }
        // Last write wins within the step.
        if let Some(slot) = self.pending.iter_mut().find(|(idx, _)| *idx == signal.0) {
            slot.1 = value;
        } else {
            self.pending.push((signal.0, value));
        }
    }

    fn encode(&self, index: usize, value: u64) -> String {
        let sig = &self.signals[index];
        if sig.width == 1 {
            format!("{}{}\n", value & 1, sig.id)
        } else {
            format!("b{} {}\n", binary(value, sig.width), sig.id)
        }
    }

    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut lines = String::new();
        let pending = std::mem::take(&mut self.pending);
        for (index, value) in pending {
            if self.last[index] == value {
                continue;
            }
            self.last[index] = value;
            lines.push_str(&self.encode(index, value));
            self.change_count += 1;
        }
        if !lines.is_empty() {
            let _ = writeln!(self.body, "#{}", self.current_time);
            self.body.push_str(&lines);
            self.last_time = self.current_time;
        }
    }

    /// Closes the document: emits the header, `$dumpvars` (every signal
    /// initialized to 0 at time 0), the change sections, and a final
    /// `#end_time` marker so the last interval has a width.
    #[must_use]
    pub fn finish(mut self, end_time: u64) -> String {
        self.flush_pending();
        let mut out = String::new();
        let _ = writeln!(out, "$timescale {} $end", self.timescale);

        // Nested scopes from dotted paths, emitted in declaration order
        // with shared prefixes merged.
        let mut open: Vec<String> = Vec::new();
        for sig in &self.signals {
            let mut parts: Vec<&str> = sig.path.split('.').collect();
            let name = parts.pop().unwrap_or(sig.path.as_str());
            let common = open
                .iter()
                .zip(parts.iter())
                .take_while(|(a, b)| a.as_str() == **b)
                .count();
            while open.len() > common {
                open.pop();
                let _ = writeln!(out, "$upscope $end");
            }
            for part in &parts[common..] {
                let _ = writeln!(out, "$scope module {part} $end");
                open.push((*part).to_string());
            }
            let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, sig.id, name);
        }
        while open.pop().is_some() {
            let _ = writeln!(out, "$upscope $end");
        }
        let _ = writeln!(out, "$enddefinitions $end");

        let _ = writeln!(out, "$dumpvars");
        for index in 0..self.signals.len() {
            out.push_str(&self.encode(index, 0));
        }
        let _ = writeln!(out, "$end");

        out.push_str(&self.body);
        let _ = writeln!(out, "#{}", end_time.max(self.last_time));
        out
    }
}

impl Default for VcdWriter {
    fn default() -> Self {
        VcdWriter::new()
    }
}

/// A parsed VCD document: declared signals plus the flat change list.
#[derive(Debug, Clone)]
pub struct VcdDoc {
    /// Declared signals, in declaration order.
    pub signals: Vec<VcdSignal>,
    /// `(time, signal index, value)` in file order, `$dumpvars`
    /// initializations included at time 0.
    pub changes: Vec<(u64, usize, u64)>,
    /// The final `#time` marker (the waveform's right edge).
    pub end_time: u64,
}

impl VcdDoc {
    /// Index of the signal with the given dotted path.
    #[must_use]
    pub fn signal_index(&self, path: &str) -> Option<usize> {
        self.signals.iter().position(|s| s.path == path)
    }

    /// The signal's value as a function of time, as `(time, value)`
    /// steps in chronological order.
    #[must_use]
    pub fn steps(&self, path: &str) -> Vec<(u64, u64)> {
        let Some(index) = self.signal_index(path) else {
            return Vec::new();
        };
        self.changes
            .iter()
            .filter(|(_, i, _)| *i == index)
            .map(|&(t, _, v)| (t, v))
            .collect()
    }

    /// Total time units the scalar signal spent non-zero, counting the
    /// final interval up to [`VcdDoc::end_time`].
    #[must_use]
    pub fn high_time(&self, path: &str) -> u64 {
        let steps = self.steps(path);
        let mut total = 0;
        for (i, &(t, v)) in steps.iter().enumerate() {
            if v != 0 {
                let until = steps.get(i + 1).map_or(self.end_time, |&(t2, _)| t2);
                total += until.saturating_sub(t);
            }
        }
        total
    }

    /// The signal's last recorded value.
    #[must_use]
    pub fn final_value(&self, path: &str) -> Option<u64> {
        self.steps(path).last().map(|&(_, v)| v)
    }

    /// Number of value changes recorded for the signal after its
    /// `$dumpvars` initialization.
    #[must_use]
    pub fn change_count(&self, path: &str) -> usize {
        self.steps(path).len().saturating_sub(1)
    }
}

/// Parses and validates a VCD document produced by [`VcdWriter`] (the
/// GTKWave-compatible subset: `$timescale`, `$scope module`, `$var
/// wire`, `$dumpvars`, scalar and `b`-vector changes).
///
/// # Errors
///
/// Returns a message describing the first structural problem: missing
/// header sections, changes referencing undeclared identifier codes,
/// time going backwards, a `$dumpvars` block after the first `#time`,
/// a wire width outside 1..=64, malformed value lines, a vector value
/// with more bits than its wire, or an empty signal set.
pub fn parse(text: &str) -> Result<VcdDoc, String> {
    let mut signals: Vec<VcdSignal> = Vec::new();
    let mut scope: Vec<String> = Vec::new();
    let mut by_id: BTreeMap<String, usize> = BTreeMap::new();
    let mut changes: Vec<(u64, usize, u64)> = Vec::new();
    let mut saw_timescale = false;
    let mut in_definitions = true;
    let mut in_dumpvars = false;
    let mut time: u64 = 0;
    let mut saw_time = false;
    let mut end_time = 0;

    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", line_no + 1);

        if in_definitions {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.first().copied() {
                Some("$timescale") => saw_timescale = true,
                Some("$scope") => {
                    if tokens.len() < 3 || tokens[1] != "module" {
                        return Err(err("malformed $scope"));
                    }
                    scope.push(tokens[2].to_string());
                }
                Some("$upscope") => {
                    if scope.pop().is_none() {
                        return Err(err("$upscope without open scope"));
                    }
                }
                Some("$var") => {
                    // $var wire <width> <id> <name> $end
                    if tokens.len() < 6 || tokens[1] != "wire" || tokens[5] != "$end" {
                        return Err(err("malformed $var"));
                    }
                    let width: u32 = tokens[2].parse().map_err(|_| err("bad width"))?;
                    if !(1..=64).contains(&width) {
                        return Err(err("wire width outside 1..=64"));
                    }
                    let id = tokens[3].to_string();
                    let mut path = scope.join(".");
                    if !path.is_empty() {
                        path.push('.');
                    }
                    path.push_str(tokens[4]);
                    if by_id.insert(id.clone(), signals.len()).is_some() {
                        return Err(err("duplicate identifier code"));
                    }
                    signals.push(VcdSignal { path, width, id });
                }
                Some("$enddefinitions") => {
                    if !scope.is_empty() {
                        return Err(err("unclosed $scope at $enddefinitions"));
                    }
                    in_definitions = false;
                }
                _ => return Err(err("unexpected line in definitions")),
            }
            continue;
        }

        if line == "$dumpvars" {
            // Its values land at time 0, so after a `#time` they would
            // put the change list out of chronological order.
            if saw_time {
                return Err(err("$dumpvars after #time"));
            }
            in_dumpvars = true;
            continue;
        }
        if line == "$end" && in_dumpvars {
            in_dumpvars = false;
            continue;
        }
        if let Some(stamp) = line.strip_prefix('#') {
            let t: u64 = stamp.parse().map_err(|_| err("bad timestamp"))?;
            if saw_time && t < time {
                return Err(err("time goes backwards"));
            }
            time = t;
            saw_time = true;
            end_time = end_time.max(t);
            continue;
        }

        // Value change: `0<id>` / `1<id>` or `b<bits> <id>`, with no
        // more bits than the wire is wide.
        let (bits, id) = if let Some(rest) = line.strip_prefix('b') {
            let (bits, id) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| err("vector change missing identifier"))?;
            if bits.is_empty() || !bits.bytes().all(|b| b == b'0' || b == b'1') {
                return Err(err("bad binary vector"));
            }
            (bits, id.trim())
        } else if let Some(id) = line.strip_prefix(['0', '1']) {
            (&line[..1], id)
        } else {
            return Err(err("unrecognized change line"));
        };
        let &index = by_id
            .get(id)
            .ok_or_else(|| err("change references undeclared identifier"))?;
        if bits.len() > signals[index].width as usize {
            return Err(err("value wider than its wire"));
        }
        let value = u64::from_str_radix(bits, 2).map_err(|_| err("bad binary vector"))?;
        let at = if in_dumpvars { 0 } else { time };
        if !in_dumpvars && !saw_time {
            return Err(err("value change before any #time"));
        }
        changes.push((at, index, value));
    }

    if !saw_timescale {
        return Err("missing $timescale".into());
    }
    if in_definitions {
        return Err("missing $enddefinitions".into());
    }
    if signals.is_empty() {
        return Err("no signals declared".into());
    }
    Ok(VcdDoc {
        signals,
        changes,
        end_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let code = id_code(i);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code), "duplicate code at {i}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn writer_output_reparses_with_matching_waveform() {
        let mut w = VcdWriter::new();
        let busy = w.add_wire("soc.mult.busy", 1);
        let state = w.add_wire("soc.mult.state", 8);
        let grants = w.add_wire("soc.bus.read_grants", 32);
        w.change(0, busy, 1);
        w.change(0, state, 3);
        w.change(4, busy, 0);
        w.change(4, grants, 7);
        w.change(9, busy, 1);
        let text = w.finish(12);

        let doc = parse(&text).expect("writer output must validate");
        assert_eq!(doc.signals.len(), 3);
        assert_eq!(doc.end_time, 12);
        // busy: 1 over [0,4), 0 over [4,9), 1 over [9,12) → 7 high.
        assert_eq!(doc.high_time("soc.mult.busy"), 7);
        assert_eq!(doc.final_value("soc.bus.read_grants"), Some(7));
        assert_eq!(doc.final_value("soc.mult.state"), Some(3));
        // dumpvars init (0) → 1 at #0 → 0 at #4 → 1 at #9 = 3 changes.
        assert_eq!(doc.change_count("soc.mult.busy"), 3);
    }

    #[test]
    fn unchanged_values_are_elided() {
        let mut w = VcdWriter::new();
        let sig = w.add_wire("a", 1);
        w.change(1, sig, 1);
        w.change(2, sig, 1); // no-op
        w.change(3, sig, 0);
        let text = w.finish(3);
        assert_eq!(
            text.matches("#2").count(),
            0,
            "elided step emits no section"
        );
        let doc = parse(&text).unwrap();
        assert_eq!(doc.change_count("a"), 2);
    }

    #[test]
    fn scopes_nest_and_share_prefixes() {
        let mut w = VcdWriter::new();
        w.add_wire("soc.mult.busy", 1);
        w.add_wire("soc.mult.state", 4);
        w.add_wire("soc.bus.contended", 1);
        w.add_wire("top_level", 1);
        let text = w.finish(0);
        let scopes: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("$scope") || l.starts_with("$upscope"))
            .collect();
        assert_eq!(
            scopes,
            vec![
                "$scope module soc $end",
                "$scope module mult $end",
                "$upscope $end",
                "$scope module bus $end",
                "$upscope $end",
                "$upscope $end",
            ]
        );
        let doc = parse(&text).unwrap();
        assert_eq!(doc.signal_index("soc.bus.contended"), Some(2));
        assert_eq!(doc.signal_index("top_level"), Some(3));
    }

    #[test]
    fn parser_rejects_structural_faults() {
        assert!(parse("").is_err(), "empty input");
        assert!(parse("$timescale 1 ns $end\n$enddefinitions $end\n#0\n")
            .unwrap_err()
            .contains("no signals"),);
        let mut w = VcdWriter::new();
        let sig = w.add_wire("a", 1);
        w.change(0, sig, 1);
        let good = w.finish(1);
        let bad = good.replace("1!", "1?");
        assert!(parse(&bad).unwrap_err().contains("undeclared"));
        let backwards = format!("{good}#0\n1!\n");
        assert!(parse(&backwards).unwrap_err().contains("backwards"));
        // A late `$dumpvars` would record its values at time 0, after
        // later changes.
        let late_dumpvars = "$timescale 1ns $end\n$var wire 1 ! x $end\n$enddefinitions $end\n\
                             #0\n1!\n#18446744073709551615\n1!\n$dumpvars\n1!\n$end\n";
        assert!(parse(late_dumpvars)
            .unwrap_err()
            .contains("$dumpvars after #time"));
        // The writer declares 1..=64-bit wires and emits exactly `width`
        // bits per vector value.
        let wire = |width: &str, change: &str| {
            format!(
                "$timescale 1ns $end\n$var wire {width} ! x $end\n$enddefinitions $end\n\
                 #0\n{change}\n"
            )
        };
        for width in ["0", "65", "4294967296"] {
            assert!(parse(&wire(width, "1!")).is_err(), "width {width}");
        }
        assert_eq!(
            parse(&wire("64", &format!("b{} !", "1".repeat(64))))
                .unwrap()
                .final_value("x"),
            Some(u64::MAX)
        );
        assert!(parse(&wire("1", "b111111 !"))
            .unwrap_err()
            .contains("value wider than its wire"));
        assert!(parse(&wire("4", "b00101 !"))
            .unwrap_err()
            .contains("value wider than its wire"));
        assert_eq!(
            parse(&wire("4", "b101 !")).unwrap().final_value("x"),
            Some(5)
        );
        for vector in ["b !", "b+1 !", "b12 !"] {
            assert!(
                parse(&wire("4", vector))
                    .unwrap_err()
                    .contains("bad binary vector"),
                "{vector}"
            );
        }
    }

    #[test]
    fn deterministic_output_for_identical_input() {
        let build = || {
            let mut w = VcdWriter::new();
            let a = w.add_wire("m.a", 1);
            let b = w.add_wire("m.b", 16);
            w.change(0, a, 1);
            w.change(5, b, 0xBEEF);
            w.finish(10)
        };
        assert_eq!(build(), build(), "no wall-clock leaks into the file");
    }
}
