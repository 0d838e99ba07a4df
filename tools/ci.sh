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
    # `unsafe` lives at exactly two sites: the calls into the AVX2 copies
    # of the ct kernel (saber-ring) and of Keccak-f[1600] (saber-keccak),
    # each after runtime feature detection. Those two crates deny
    # `unsafe_code`, every other crate forbids it, and each site carries
    # a `// SAFETY:` comment within the four lines above it.
    echo "==> unsafe audit"
    for lib in crates/*/src/lib.rs src/lib.rs; do
        case "$lib" in
            crates/ring/*|crates/keccak/*) attr='#![deny(unsafe_code)]' ;;
            *) attr='#![forbid(unsafe_code)]' ;;
        esac
        if ! grep -qxF "$attr" "$lib"; then
            echo "ci: $lib must carry $attr" >&2
            exit 1
        fi
    done
    sites=$(grep -rnw unsafe crates/*/src src || true)
    files=$(printf '%s\n' "$sites" | cut -d: -f1 | sort | tr '\n' ' ')
    if [ "$files" != "crates/keccak/src/permutation.rs crates/ring/src/ct.rs " ]; then
        echo "ci: \`unsafe\` is allowed only at the two kernel dispatch sites; found:" >&2
        printf '%s\n' "$sites" >&2
        exit 1
    fi
    printf '%s\n' "$sites" | while IFS=: read -r file line _; do
        if ! head -n "$((line - 1))" "$file" | tail -n 4 | grep -q '// SAFETY:'; then
            echo "ci: $file:$line has no // SAFETY: comment in the four lines above it" >&2
            exit 1
        fi
    done
fi

if want build; then
    echo "==> cargo build --release"
    cargo build --release
    # The AVX2 limb product of the ct kernel must vectorize across output
    # lanes: ymm `vpmullw` and no `vextracti128`. The extract is the
    # horizontal reduction LLVM emits when it vectorizes across secret
    # lanes instead, which every test passes and which runs 3-4x slower.
    if [ "$(uname -m)" = "x86_64" ]; then
        echo "==> codegen audit: saber_ring::ct::wide::limb_product"
        if ! command -v objdump >/dev/null 2>&1; then
            echo "ci: the codegen audit needs objdump (binutils)" >&2
            exit 1
        fi
        rlib=$(ls -t "${CARGO_TARGET_DIR:-target}"/release/deps/libsaber_ring-*.rlib | head -n 1)
        body=$(objdump -d -C --no-show-raw-insn "$rlib" |
            awk '/<saber_ring::ct::wide::limb_product>:$/ { on = 1; next } on && /^$/ { exit } on')
        muls=$(printf '%s\n' "$body" | grep -c 'vpmullw.*%ymm' || true)
        extracts=$(printf '%s\n' "$body" | grep -c 'vextracti128' || true)
        echo "    $muls ymm vpmullw, $extracts vextracti128"
        if [ "$muls" -eq 0 ] || [ "$extracts" -ne 0 ]; then
            echo "ci: saber_ring::ct::wide::limb_product in $rlib is not vectorized across output lanes" >&2
            exit 1
        fi
        # The cycle models' lane passes are baseline x86-64 code whose
        # per-lane checks are folded, so LLVM vectorizes them: each must
        # add in packed SSE2 lanes (`padd*` on xmm). The folded checks
        # themselves compile to packed max/OR without an add, so a
        # per-lane `assert!` put back into a lane loop leaves it scalar
        # and fails here while every test still passes. A lane pass that
        # takes the seeded-fault parameter has one instance per defect it
        # is built with, and legacy mangling prints them all under one
        # name, so every instance is audited.
        for lane_pass in saber_core::engine::centralized_lanes saber_core::engine::baseline_lanes \
            saber_core::dsp_packed::retire_bank saber_hw::dsp::p_registers; do
            crate=${lane_pass%%::*}
            echo "==> codegen audit: $lane_pass"
            rlib=$(ls -t "${CARGO_TARGET_DIR:-target}"/release/deps/lib"$crate"-*.rlib | head -n 1)
            # One "adds packed" line per instance.
            counts=$(objdump -d -C --no-show-raw-insn "$rlib" |
                awk -v sym="<$lane_pass>:" '
                    $2 == sym { on = 1; n++; adds[n] = 0; packed[n] = 0; next }
                    on && /^$/ { on = 0; next }
                    on && /[[:space:]]padd[bwdq][[:space:]].*%xmm/ { adds[n]++ }
                    on && /[[:space:]]p[a-z]+[[:space:]].*%xmm/ { packed[n]++ }
                    END { for (i = 1; i <= n; i++) print adds[i], packed[i] }')
            instances=$(printf '%s' "$counts" | grep -c . || true)
            echo "    $instances instances (packed adds, packed integer ops):" \
                "$(printf '%s' "$counts" | tr ' \n' '/ ' | sed 's/ *$//')"
            if [ "$instances" -eq 0 ]; then
                echo "ci: $lane_pass not found in $rlib" >&2
                exit 1
            fi
            if printf '%s\n' "$counts" | grep -q '^0 '; then
                echo "ci: an instance of $lane_pass in $rlib does not run in packed lanes" >&2
                exit 1
            fi
        done
    fi
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
