#!/usr/bin/env sh
# Offline CI gate for the workspace. Everything here runs with zero
# network access — the workspace has no external dependencies.
#
#   tools/ci.sh               # every stage: lint + build + test + fuzz
#                             # + engine/timing gates + benches
#   tools/ci.sh timing_gate   # one named stage (plus its dependencies)
#
# The stage names are listed once, in STAGES below; any other name
# exits 2 and prints them.
set -eu

STAGES="lint build test kem_path sim_gate fuzz ct_engine_gate timing_gate
soc_gate service sched_gate trace obs_gate bench"

cd "$(dirname "$0")/.."

STAGE="${1:-all}"
known=0
for name in all $STAGES; do
    if [ "$name" = "$STAGE" ]; then known=1; fi
done
if [ "$known" -eq 0 ]; then
    echo "ci: unknown stage '$STAGE'; valid stages:" all $STAGES >&2
    exit 2
fi
want() { [ "$STAGE" = "all" ] || [ "$STAGE" = "$1" ]; }

if want lint; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

if want build; then
    echo "==> cargo build --release"
    cargo build --release
fi

if want test; then
    echo "==> cargo test -q"
    cargo test -q

    # Every crate's integration-test binary must be run by a stage below:
    # a whole-crate `cargo test [-q] [--release] -p <pkg>…` line (no
    # filter), or a `--test <name>` line for its package. Every crate
    # with `#[test]`s under src/ must be run by a whole-crate line or a
    # `--lib` line for its package. Continuation lines are joined first.
    echo "==> every crates/*/tests/*.rs binary and crate unit-test suite is run by a stage"
    runs=$(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' tools/ci.sh |
        grep -E '^[[:space:]]*([A-Z_]+=[^ ]+ )*cargo test ')
    pkg_of() { sed -n 's/^name = "\(.*\)"$/\1/p' "$1/Cargo.toml" | head -n 1; }
    # reached <pkg> <target regex>: a line for <pkg> names the target
    # or runs the whole crate.
    reached() {
        printf '%s\n' "$runs" | grep -E -- "-p $1( |$)" |
            grep -Eq -- "$2|cargo test( -q)?( --release)?( -p [a-z0-9-]+)+ *$"
    }
    unreached=0
    for file in crates/*/tests/*.rs; do
        if ! reached "$(pkg_of "${file%/tests/*}")" "--test $(basename "$file" .rs)( |$)"; then
            echo "ci: $file: no stage runs this test binary" >&2
            unreached=1
        fi
    done
    for crate in crates/*; do
        grep -rq '#\[test\]' "$crate/src" || continue
        if ! reached "$(pkg_of "$crate")" "--lib( |$)"; then
            echo "ci: $crate/src: no stage runs this crate's unit tests" >&2
            unreached=1
        fi
    done
    [ "$unreached" -eq 0 ]
fi

# KEM non-multiply path: the group bitstream codec against its
# bit-serial reference at every width, matrix expansion and secret
# sampling against the bit-serial expansion for all three parameter
# sets, the per-worker matrix cache, the pinned KEM regression vectors,
# the whole saber-keccak crate (Keccak/SHA-3/SHAKE known-answer and
# sponge property suites, unit and doc tests) and the whole
# saber-testkit crate (the JSON and hex codecs the KAT loaders use, and
# the seeded RNG) (release; tier-1 `cargo test -q` runs only the
# umbrella crate).
if want kem_path; then
    echo "==> kem path: codec + expansion oracles, matrix cache, regression vectors (release)"
    cargo test -q --release -p saber-ring --test group_codec
    cargo test -q --release -p saber-kem --test expansion_oracle --test matrix_cache \
        --test regression_vectors
    echo "==> kem path: saber-keccak (KATs, sponge properties) + saber-testkit (release)"
    cargo test -q --release -p saber-keccak
    cargo test -q --release -p saber-testkit
fi

# Simulator gate: host-speed work on the cycle-accurate models must
# leave every simulated statistic identical. Runs the saber-core suite
# (including the sim_fingerprint freeze of every model's products,
# cycle reports, activity and timeline phases), the ignored exhaustive
# HS-II packing sweep, the saber-hw primitive oracles (MAC, BRAM, DSP48
# P register) and the coprocessor tests, the KEM-on-hardware and
# Table 1 suites, and the fault-injection sensitivity gate, where every
# seeded mutant of the cycle-accurate datapaths must be flagged by the
# fuzzer (release; tier-1 `cargo test -q` runs only the umbrella crate).
if want sim_gate; then
    echo "==> sim gate: saber-core incl. sim_fingerprint + exhaustive packing sweep (release)"
    cargo test -q --release -p saber-core
    cargo test -q --release -p saber-core -- --ignored exhaustive
    echo "==> sim gate: saber-hw + saber-coproc (release)"
    cargo test -q --release -p saber-hw -p saber-coproc
    echo "==> sim gate: KEM on hardware + Table 1 invariants (release)"
    cargo test -q --release --test kem_on_hardware --test table1_invariants
    echo "==> sim gate: fault-injection sensitivity (release)"
    cargo test -q --release -p saber-verify --test fault_sensitivity
fi

# Differential fuzz sweep: a fixed seed and an explicit case budget
# (2,048 stratified cases per parameter set, every backend against the
# schoolbook oracle) in release, where the full budget fits the CI
# window, then saber-verify's own unit tests (the backend registry, the
# corpus, the KAT framework, the shrinker).
if want fuzz; then
    echo "==> fuzz sweep: SABER_FUZZ_CASES=2048 (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test differential_fuzz
    echo "==> fuzz: saber-verify unit tests (release)"
    cargo test -q --release -p saber-verify --lib
fi

# Constant-time engine gate: the hot-path engine must stay bit-exact
# over the full release budget, for single products and for the
# fold-once inner products (rank 2/3/4), and the planted *timing*
# mutants must be functionally invisible to the differential fuzzer
# (they leak time, not values — that separation is what makes them
# valid positive controls for the timing gate below, which depends on
# this stage). Then the whole saber-ring suite — the ct unit tests, its
# property battery (basis sweep, saturated operands, inner products of
# 0-4 pairs), the mat-vec/inner-product regression suite and the ring
# properties — and the whole saber-kem suite, which drives the engine
# through every KEM path: the transcript equivalence (ct against the
# schoolbook oracle, byte for byte, all three parameter sets), the
# regression vectors, the CCA battery, the KEM properties, the negative
# paths, serialization, zeroization and the secret distribution, in
# release (tier-1 `cargo test -q` runs only the umbrella crate).
if want ct_engine_gate || [ "$STAGE" = "timing_gate" ]; then
    echo "==> ct-engine gate: bit-exactness + mutant invisibility (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test ct_engine_gate
    echo "==> ct-engine gate: saber-ring + saber-kem suites (release)"
    cargo test -q --release -p saber-ring
    cargo test -q --release -p saber-kem
fi

# Timing-leakage gate (dudect-style fixed-vs-random Welch t-test):
# the constant-time engine, the secret sampler, and the KEM
# pipelines built on them must stay under the |t| threshold, and both planted timing mutants must be
# flagged within the sample budget — the detector is only trusted
# because its positive controls fire. The seed is pinned so a CI
# failure reproduces locally with the identical measurement schedule;
# budgets/threshold are tunable via SABER_TIMING_* (see
# saber_timing::TimingConfig::from_env). The detector's own
# statistics are checked first on a virtual clock: planted separations
# found, class-blind spikes cropped, and its trace counters exported,
# with the crate's unit tests (Welford/Welch statistics, the harness,
# the targets).
if want timing_gate; then
    echo "==> timing gate: detector self-test + trace counters + unit tests (release)"
    cargo test -q --release -p saber-timing --lib --test harness_selftest --test trace_counters
    echo "==> timing gate: ct engine clean + planted mutants flagged (release)"
    SABER_TIMING_SEED=1518301440 cargo test -q --release -p saber-timing --test timing_gate
fi

# SoC schedule-race gate: the pinned-seed tick-order fuzz sweep
# (base seed 0x5ABE_2026, 64 cases) must leave the unmutated SoC
# permutation-invariant at both clock ratios, both planted schedule
# races (insertion-order arbitration, unlatched Keccak valid flag) must
# be caught *and* shrunk to minimal reproducers within the budget, and
# every cycle model under the event scheduler must match its standalone
# paper-reconciled total, and the raw saber-hw primitives must run
# under the scheduler through the clocked adapter; the crate's unit
# tests (bus arbitration, scheduler, probe) run with them. The frozen
# cycle-total KATs replay alongside so a timing drift and a schedule
# race cannot mask each other.
if want soc_gate; then
    echo "==> soc gate: tick-order fuzz + planted races + equivalence + unit tests (release)"
    cargo test -q --release -p saber-soc --lib --test tick_fuzz --test scheduler_equivalence \
        --test cosim_scenario --test clocked_adapter
    echo "==> soc gate: frozen cycle-total KATs replay (release)"
    cargo test -q --release -p saber-verify --test golden_kats cycle_total
fi

if want service; then
    # Concurrency stress: the service's N-worker ≡ sequential
    # equivalence battery across its own matrix (workers 1/2/8 × four
    # steal seeds), then a bounded deterministic soak (10k mixed KEM ops
    # through a 4-worker pool, spot-checked against the schoolbook
    # oracle). Release mode (tier-1 `cargo test -q` runs only the
    # umbrella crate).
    echo "==> service stress: workers 1/2/8 x steal seeds (release)"
    cargo test -q --release -p saber-service --test concurrency_equivalence

    # Worker panics, shutdown races, queue edges, secret wipes at
    # shutdown and the service report: the exactly-once paths.
    echo "==> service: fault, shutdown, scheduler-edge and report suites (release)"
    cargo test -q --release -p saber-service --test fault_injection --test metrics_report \
        --test scheduler_edges --test shutdown_race --test zeroize_shutdown

    # The soak is oracle-spot-checked, so it would catch the engine
    # corrupting state across jobs.
    echo "==> service soak: SABER_SOAK_OPS=10000 (release)"
    SABER_SOAK_OPS=10000 cargo test -q --release -p saber-service --test soak
fi

# Scheduler gate: the work-stealing dispatcher's stress battery —
# seeded steal-order stress (the soc fuzzer's seeded-shuffle pattern
# applied to victim selection), forced-steal counter checks, the exact
# convoy regression (every small job overtakes the deep batch), and a
# shutdown-under-load drain check.
if want sched_gate; then
    echo "==> sched gate: steal stress battery (release)"
    cargo test -q --release -p saber-service --test sched_stress
fi

if want trace; then
    # Observability gates. The trace_profile example records one full
    # KEM round trip plus the cycle-model lanes and validates the
    # exported Chrome trace-event JSON against the schema checker (it
    # exits nonzero on any violation). The whole saber-trace suite then
    # runs, including its disabled-path test, which enforces the
    # tracing layer's core contract: with no session active a probe
    # costs at most 25 ns on average, and at most 10 ns with the flight
    # recorder off as well (fixed limits). The no-default-features
    # build proves the fully compiled-out configuration (every probe a
    # no-op at compile time) still builds.
    echo "==> trace: profile example + Chrome trace schema validation"
    cargo run -q --release --example trace_profile

    echo "==> trace: saber-trace suite incl. the disabled-path gate (release)"
    cargo test -q --release -p saber-trace

    echo "==> trace: capture feature compiled out still builds"
    cargo build -q -p saber-trace --no-default-features
fi

# Observability gate. Two checks: (1) the SoC VCD consistency battery
# — probe non-perturbation, busy/stall wires equal to scheduler totals
# at both clock ratios, Chrome-vs-VCD cross-format agreement, the
# byte-frozen golden 1:1 waveform (regenerate deliberately with
# SABER_BLESS=1), and the VCD reader on truncated and mutated copies of
# that golden, read or refused without a panic; (2) saber-service's unit tests: the metrics
# histograms, the MetricsSnapshot and ServiceReport JSON round-trips,
# schema-version refusal, truncated and mutated documents refused
# without a panic, and the Prometheus text exposition lint (metric
# names, single TYPE per family, cumulative histograms ending at
# le="+Inf" == _count). The disabled-path gate runs in `trace`.
if want obs_gate; then
    echo "==> obs gate: VCD golden waveform, cross-format consistency + hostile input (release)"
    cargo test -q --release -p saber-soc --test vcd_consistency

    echo "==> obs gate: metrics, snapshot round-trip, hostile input + Prometheus lint (release)"
    cargo test -q --release -p saber-service --lib
fi

# The paper-table harness: saber-bench's unit tests (Table 1 cycles
# exact for the HS rows, every LUT model within 10 %) and the schema of
# the committed BENCH_timing.json, then every bench target builds.
if want bench; then
    echo "==> bench: saber-bench tables + BENCH_timing.json schema (release)"
    cargo test -q --release -p saber-bench

    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run
fi

echo "==> ci: $STAGE green"
