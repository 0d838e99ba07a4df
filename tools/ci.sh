#!/usr/bin/env sh
# Offline CI gate for the workspace. Everything here runs with zero
# network access — the workspace has no external dependencies.
#
#   tools/ci.sh          # every stage, in order
#   tools/ci.sh test     # one named stage
#
# The root manifest's `default-members` spans every crate, so a bare
# `cargo test -q` already runs the whole suite in debug; this script
# adds only what that command cannot express. The stage names are
# listed once, in STAGES below; any other name exits 2 and prints them.
set -eu

STAGES="lint build test trace bench"

cd "$(dirname "$0")/.."

if [ -n "${SABER_BLESS+set}" ]; then
    echo "ci: SABER_BLESS is set; a blessing run rewrites the goldens instead of checking them, so it would pass on any output" >&2
    exit 2
fi

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
    # Rustdoc warnings fail the stage, so a doc link to a renamed or
    # deleted item cannot go stale.
    echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
    cargo doc --workspace --no-deps --config 'build.rustdocflags=["-D", "warnings"]'
fi

if want build; then
    echo "==> cargo build --release"
    cargo build --release
fi

# The whole suite at its release budgets (2,048 fuzz cases per set,
# the 10,000-op soak, 2,000 timing samples, 2,000 mutations per KAT
# file), plus the ignored exhaustive HS-II packing sweep.
if want test; then
    echo "==> cargo test -q --release -- --include-ignored"
    cargo test -q --release -- --include-ignored
fi

# The trace_profile example records one full KEM round trip plus the
# cycle-model lanes and validates the exported Chrome trace-event JSON
# against the schema checker (it exits nonzero on any violation).
if want trace; then
    echo "==> trace: profile example + Chrome trace schema validation"
    cargo run -q --release --example trace_profile
fi

if want bench; then
    echo "==> cargo bench --workspace --no-run"
    cargo bench --workspace --no-run
fi

echo "==> ci: $STAGE green"
