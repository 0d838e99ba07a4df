#!/usr/bin/env sh
# Offline CI gate for the workspace. Everything here runs with zero
# network access — the workspace has no external dependencies.
#
#   tools/ci.sh               # every stage: lint + build + test + fuzz
#                             # + fault/engine/timing gates + benches
#   tools/ci.sh timing_gate   # one named stage (plus its dependencies)
#
# The stage names are listed once, in STAGES below; any other name
# exits 2 and prints them.
set -eu

STAGES="lint build test kem_path sim_gate fuzz fault_gate ct_engine_gate
timing_gate soc_gate service sched_gate trace obs_gate bench_reports bench"

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
fi

# KEM non-multiply path: the group bitstream codec against its
# bit-serial reference at every width, matrix expansion and secret
# sampling against the bit-serial expansion for all three parameter
# sets, the per-worker matrix cache, and the pinned KEM regression
# vectors (release; tier-1 `cargo test -q` runs only the umbrella crate).
if want kem_path; then
    echo "==> kem path: codec + expansion oracles, matrix cache, regression vectors (release)"
    cargo test -q --release -p saber-ring --test group_codec
    cargo test -q --release -p saber-kem --test expansion_oracle --test matrix_cache \
        --test regression_vectors
fi

# Simulator gate: host-speed work on the cycle-accurate models must
# leave every simulated statistic identical. Runs the saber-core suite
# (including the sim_fingerprint freeze of every model's products,
# cycle reports, activity and timeline phases), the ignored exhaustive
# HS-II packing sweep, the saber-hw primitive oracles (MAC, BRAM, DSP48
# P register) and the coprocessor tests, the KEM-on-hardware and
# Table 1 suites, and the fault-injection sensitivity gate (release;
# tier-1 `cargo test -q` runs only the umbrella crate).
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
# window. Plain `cargo test -q` above already ran the debug smoke sweep.
if want fuzz; then
    echo "==> fuzz sweep: SABER_FUZZ_CASES=2048 (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test differential_fuzz
fi

# Fault-injection sensitivity gate: every seeded mutant of the
# cycle-accurate datapaths must be flagged by the fuzzer — 100 %
# detection or the corpus has a blind spot.
if want fault_gate; then
    echo "==> fault-injection sensitivity gate (release)"
    cargo test -q --release -p saber-verify --test fault_sensitivity
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
# properties — and the KEM transcript equivalence (ct against the
# schoolbook oracle, byte for byte, all three parameter sets), in
# release (tier-1 `cargo test -q` runs only the umbrella crate).
if want ct_engine_gate || [ "$STAGE" = "timing_gate" ]; then
    echo "==> ct-engine gate: bit-exactness + mutant invisibility (release)"
    SABER_FUZZ_CASES=2048 cargo test -q --release -p saber-verify --test ct_engine_gate
    echo "==> ct-engine gate: saber-ring suite + KEM transcript equivalence (release)"
    cargo test -q --release -p saber-ring
    cargo test -q --release -p saber-kem --test engine_equivalence
fi

# Timing-leakage gate (dudect-style fixed-vs-random Welch t-test):
# the constant-time engine, the secret sampler, and the KEM
# pipelines built on them must stay under the |t| threshold, and both planted timing mutants must be
# flagged within the sample budget — the detector is only trusted
# because its positive controls fire. The seed is pinned so a CI
# failure reproduces locally with the identical measurement schedule;
# budgets/threshold are tunable via SABER_TIMING_* (see
# saber_timing::TimingConfig::from_env).
if want timing_gate; then
    echo "==> timing gate: ct engine clean + planted mutants flagged (release)"
    SABER_TIMING_SEED=1518301440 cargo test -q --release -p saber-timing --test timing_gate
fi

# SoC schedule-race gate: the pinned-seed tick-order fuzz sweep
# (base seed 0x5ABE_2026, 64 cases) must leave the unmutated SoC
# permutation-invariant at both clock ratios, both planted schedule
# races (insertion-order arbitration, unlatched Keccak valid flag) must
# be caught *and* shrunk to minimal reproducers within the budget, and
# every cycle model under the event scheduler must match its standalone
# paper-reconciled total. The frozen cycle-total KATs replay alongside
# so a timing drift and a schedule race cannot mask each other.
if want soc_gate; then
    echo "==> soc gate: tick-order fuzz + planted races + equivalence (release)"
    cargo test -q --release -p saber-soc --test tick_fuzz
    cargo test -q --release -p saber-soc --test scheduler_equivalence
    cargo test -q --release -p saber-soc --test cosim_scenario
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
    # exits nonzero on any violation). The overhead bench then enforces
    # the tracing layer's core contract: a probe with no session active
    # stays under SABER_TRACE_MAX_DISABLED_NS (default 25 ns — measured
    # cost is ~3 ns). The no-default-features build proves the fully
    # compiled-out configuration (every probe a no-op at compile time)
    # still builds.
    echo "==> trace: profile example + Chrome trace schema validation"
    cargo run -q --release --example trace_profile

    echo "==> trace: disabled-path overhead gate (release)"
    cargo bench -q -p saber-bench --bench trace_overhead

    echo "==> trace: capture feature compiled out still builds"
    cargo build -q -p saber-trace --no-default-features
fi

# Observability gate. Four checks: (1) the trace_overhead bench's
# flight-recorder threshold — the probe cost with the recorder OFF must
# stay under SABER_FLIGHT_MAX_DISABLED_NS (default 10 ns; measured
# ~4 ns) on top of the 25 ns trace gate it already enforces; (2) the
# SoC VCD consistency battery — probe non-perturbation, busy/stall
# wires equal to scheduler totals at both clock ratios, Chrome-vs-VCD
# cross-format agreement, and the byte-frozen golden 1:1 waveform
# (regenerate deliberately with SABER_BLESS=1); (3) the MetricsSnapshot
# JSON round-trip + schema-version refusal; (4) the Prometheus text
# exposition lint (metric names, single TYPE per family, cumulative
# histograms ending at le="+Inf" == _count).
if want obs_gate; then
    echo "==> obs gate: flight-recorder disabled-path threshold (release)"
    cargo bench -q -p saber-bench --bench trace_overhead

    echo "==> obs gate: VCD golden waveform + cross-format consistency (release)"
    cargo test -q --release -p saber-soc --test vcd_consistency

    echo "==> obs gate: metrics snapshot round-trip + Prometheus lint"
    cargo test -q -p saber-service snapshot::
    cargo test -q -p saber snapshot
fi

# Bench-report hygiene: every committed BENCH_*.json artifact must
# parse with the in-tree codec, carry its writer's schema field-by-
# field, and keep the golden cycle totals — stale or malformed reports
# fail here instead of silently poisoning later comparisons.
if want bench_reports; then
    echo "==> bench reports: schema validation of committed BENCH_*.json"
    cargo test -q -p saber-bench --test bench_reports_schema
fi

if want bench; then
    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run
fi

echo "==> ci: $STAGE green"
