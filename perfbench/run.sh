#!/usr/bin/env bash
# Builds the fisql binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin fisql >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --fisql "$CARGO_TARGET_DIR/release/fisql" "$@"
