#!/usr/bin/env bash
# Builds the release qsmt binary and the benchmark drivers from source,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target). --trace 0 runs the untraced end-to-end driver;
# --trace 1 runs the traced per-layer driver, which links the layer
# crates. Extra flags (e.g. --self-check) are passed through.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/e2e/Cargo.toml ]]; then
    echo "perfbench: run from the root of a qsmt source checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        trace="${args[i + 1]:-}"
    fi
done

cargo build --release --offline --quiet --bin qsmt >&2
cargo build --release --offline --quiet --manifest-path perfbench/e2e/Cargo.toml >&2
layers=(cargo build --release --offline --quiet --manifest-path perfbench/layers/Cargo.toml)
if [[ "$trace" == "1" ]]; then
    "${layers[@]}" >&2
    "$target/release/perfbench-layers" "$@" --qsmt "$target/release/qsmt"
    exit
fi
# Build the traced driver too, so a later traced run finds it ready; an
# untraced run does not depend on it.
"${layers[@]}" >&2 || echo "perfbench: traced driver did not build" >&2
# Not exec: getrusage(RUSAGE_CHILDREN) survives exec, and the cargo
# builds above would otherwise count as the benchmark's own children.
"$target/release/perfbench" "$@" --qsmt "$target/release/qsmt"
