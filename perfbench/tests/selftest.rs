//! Self-tests that run the benchmark binary from the repository root
//! with a clean environment. The workloads are timed, so run them in
//! release mode: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};
use std::sync::Mutex;

use saber_testkit::json::{self, Value};

/// Held while a test runs the benchmark: two runs at once would share
/// the CPUs that each one measures.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn perfbench(workload: &str, seconds: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    command
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .env_clear()
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            seconds,
            "--trace",
            "0",
        ]);
    command
}

/// Runs one workload; returns its result line and everything it printed.
fn run(workload: &str, seconds: &str) -> (Value, String) {
    let guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let Output { status, stdout, .. } = perfbench(workload, seconds)
        .output()
        .expect("run perfbench");
    drop(guard);
    let stdout = String::from_utf8(stdout).expect("UTF-8 output");
    assert!(status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    (json::parse(last).expect("the last line is JSON"), stdout)
}

fn number(result: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(result, |v, key| v.get(key))
        .and_then(Value::as_number)
        .unwrap_or_else(|| panic!("no {path:?} in the result"))
}

#[test]
fn peak_memory_does_not_grow_with_the_op_count() {
    for workload in ["kem_closed", "kem_mixed"] {
        let (short, _) = run(workload, "1.5");
        // Three times as long, so that the host's speed swings between
        // the two runs still leave at least twice the work.
        let (long, _) = run(workload, "4.5");
        let ops = |r: &Value| number(r, &["attempted"]);
        assert!(
            ops(&long) > 2.0 * ops(&short),
            "{workload}: the longer run did not do twice the work"
        );
        let rss = |r: &Value| number(r, &["metrics", "rss_mb", "value"]);
        let (a, b) = (rss(&short), rss(&long));
        assert!(
            (b - a).abs() / a < 0.1,
            "{workload}: rss_mb {a} MiB, then {b} MiB at twice the ops"
        );
    }
}

#[test]
fn setup_time_excludes_input_generation() {
    // kem_mixed generates 1,024 keys and ciphertexts before any timed
    // window; a set-up that included them would take longer than that.
    let (result, lines) = run("kem_mixed", "1");
    let generation: f64 = lines
        .lines()
        .find_map(|l| l.strip_prefix("input generation: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("an input generation line");
    let setup = number(&result, &["metrics", "setup_s", "value"]);
    assert!(
        setup * 10.0 < generation,
        "setup_s {setup} s vs input generation {generation} s"
    );
}

#[test]
fn refuses_to_run_with_a_saber_variable_set() {
    let out = perfbench("kem_closed", "1")
        .env("SABER_ENGINE", "swar")
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result");
}
