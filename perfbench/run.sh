#!/usr/bin/env bash
# Builds biaslab's `repro` and `biaslab` binaries and this benchmark from
# source, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload quick-cold --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# Binaries go to $CARGO_TARGET_DIR (default .bench_build); scratch files go
# to .bench_run/ and are removed when the run ends.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p biaslab-bench -p biaslab-cli --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
