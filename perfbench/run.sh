#!/usr/bin/env bash
# Build `predsim` and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload serve-predict --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/); the last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin predsim >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --predsim "$CARGO_TARGET_DIR/release/predsim" "$@"
