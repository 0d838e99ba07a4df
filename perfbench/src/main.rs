//! `perfbench`: the repository benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <kem_closed|kem_mixed|kem_open|hw_sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints what it measured in readable lines, then one JSON object as
//! the last line of standard output. Exits 1 when any output was wrong,
//! 2 on bad arguments or when a `SABER_*` variable is set.

mod kem;
mod ladder;
mod load;
mod schedule;
mod sim;
mod speed;
mod stats;

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <kem_closed|kem_mixed|kem_open|hw_sim> --seed <n> --seconds <s> --trace <0|1>";

/// Every workload the benchmark runs. `BENCHMARK.json` gates all but
/// `kem_open`, whose tail latency on a small shared host follows the
/// host's state more than the program (see README.md).
const WORKLOADS: [&str; 4] = ["kem_closed", "kem_mixed", "kem_open", "hw_sim"];

/// The command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Revision being measured, for the record.
    pub rev: String,
    /// Build profile, for the record.
    pub profile: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
        profile: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.1..=120.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--rev" => args.rev = value,
            "--profile" => args.profile = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// What a run reports on its last line, plus the record stamp.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or wrong.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Every wrong output or failed check, described.
    pub errors: Vec<String>,
    /// The engines the service's workers resolved.
    pub engines: Vec<String>,
}

impl Outcome {
    /// Adds a metric; a value that is not finite is an error.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.errors.push(format!("metric {name} is {value}"));
            self.metrics.push((name, 0.0, unit));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Worker threads the service gets: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Segments per run, each starting with a fresh set-up and ending with
/// a host-speed reading: four per second of measurement, short enough
/// to fall mostly inside one speed level of the host (see [`speed`]),
/// long enough for a KEM p90 over several hundred requests.
pub fn segments(seconds: f64) -> usize {
    ((seconds * 4.0).round() as usize).clamp(3, 600)
}

/// Seconds of unmeasured load every workload runs before it times
/// anything.
pub const WARM_UP_S: f64 = 2.0;

/// Prints the spread of the run's set-up times and returns their median
/// at nominal host speed (each set-up scaled by its segment's speed).
pub fn setup_median(setups: &[f64], speeds: &[f64]) -> f64 {
    let scaled: Vec<f64> = setups.iter().zip(speeds).map(|(t, s)| t * s).collect();
    println!(
        "setup_s: median of {} set-ups, raw {:.6} s (min {:.6}, max {:.6}), at nominal speed {:.6} s",
        setups.len(),
        stats::median(setups),
        stats::quantile(setups, 0.0),
        stats::quantile(setups, 1.0),
        stats::median(&scaled)
    );
    stats::median(&scaled)
}

/// Per-segment `[throughput, p50, p90]` figures scaled by the host
/// speed next to each segment (see [`speed`]): times × speed, rates ÷
/// speed. Segments that completed nothing have no latency and are left
/// out.
pub fn at_nominal_speed(raw: &[[f64; 3]], speeds: &[f64]) -> Vec<[f64; 3]> {
    raw.iter()
        .zip(speeds)
        .filter(|(r, _)| r[0] > 0.0)
        .map(|(r, &s)| [r[0] / s, r[1] * s, r[2] * s])
        .collect()
}

/// The median of each column of per-segment `[throughput, p50, p90]`
/// figures.
pub fn medians(rows: &[[f64; 3]]) -> [f64; 3] {
    std::array::from_fn(|i| stats::median(&rows.iter().map(|s| s[i]).collect::<Vec<_>>()))
}

/// Prints each column of per-segment `[throughput, p50, p90]` figures,
/// raw and at nominal host speed, and returns the [`medians`] of the
/// nominal ones.
pub fn over_segments(names: [&str; 3], raw: &[[f64; 3]], nominal: &[[f64; 3]]) -> [f64; 3] {
    for (i, name) in names.iter().enumerate() {
        for (what, rows) in [("raw", raw), ("at nominal speed", nominal)] {
            let shown: Vec<String> = rows.iter().map(|s| format!("{:.4}", s[i])).collect();
            println!("segments {name} {what}: {}", shown.join(" "));
        }
    }
    medians(nominal)
}

/// Untraced and traced stretches of the traced run alternate this many
/// times, so that drift on the host falls on both sides of the
/// tracing-overhead ratio; together they take half of `--seconds`.
pub const TRACE_ROUNDS: usize = 4;

/// Time spent on each per-layer metric of the traced run.
pub fn layer_budget(args: &Args) -> Duration {
    Duration::from_secs_f64(args.seconds * 0.012)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time of every thread of this process, seconds, to the
/// nanosecond (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer and keeps no reference.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether arithmetic overflow panics in this build, as the workspace
/// release profile ships it.
fn overflow_checks_on() -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let on = std::panic::catch_unwind(|| std::hint::black_box(u8::MAX) + std::hint::black_box(1u8))
        .is_err();
    std::panic::set_hook(hook);
    on
}

/// Writes the traced run's spans, one JSON object per line, under
/// `.perfbench_out/` in the working directory.
pub fn write_spans(
    workload: &str,
    seed: u64,
    rows: impl Iterator<Item = String>,
) -> Result<(), String> {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(fail)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(fail)?);
    let mut count = 0;
    for row in rows {
        writeln!(file, "{row}").map_err(fail)?;
        count += 1;
    }
    file.flush().map_err(fail)?;
    println!("spans: {count} written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SABER_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: the program reads these variables and must be measured as shipped",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let overflow_checks = overflow_checks_on();
    println!(
        "perfbench workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "kem_closed" => kem::run(kem::Mix::Keyring, false, &args, &mut out),
        "kem_mixed" => kem::run(kem::Mix::Spread, false, &args, &mut out),
        "kem_open" => kem::run(kem::Mix::Spread, true, &args, &mut out),
        _ => sim::run(&args, &mut out),
    };
    if let Err(e) = ran {
        out.errors.push(e);
    }
    let config = saber_service::ServiceConfig::default();
    let engines = if out.engines.is_empty() {
        vec![config.engine.label().to_string()]
    } else {
        out.engines.clone()
    };
    println!(
        "stamp: engines {engines:?}, scheduler {}, overload {}, nproc {}, cpu {:?}, rev {}, profile {:?}, overflow checks {}",
        config.scheduler.label(),
        config.overload.label(),
        nproc(),
        cpu_model(),
        args.rev,
        args.profile,
        if overflow_checks { "on" } else { "off" }
    );
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for e in &out.errors {
        println!("WRONG: {e}");
    }
    println!("{}", out.json());
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
