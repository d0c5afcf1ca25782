#!/usr/bin/env bash
# Builds the benchmark and the `qufem` CLI from source, then runs one
# workload. Run from the repository root:
#
#   bash qbench/run.sh --workload serve-partial --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path qbench/Cargo.toml >&2
cargo build --release --offline --quiet --bin qufem >&2
exec "$CARGO_TARGET_DIR/release/qbench" "$@"
