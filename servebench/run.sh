#!/usr/bin/env bash
# Builds the shipped `solve` binary and the benchmark from source (release,
# offline), then runs the benchmark against that binary:
#
#   bash servebench/run.sh --workload hom-dup --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr, so the last stdout line is the result line.
# Both builds share one target directory: $CARGO_TARGET_DIR, or ./target.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p rpo-experiments --bin solve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --solve "$CARGO_TARGET_DIR/release/solve" \
    --spans-dir "$CARGO_TARGET_DIR/servebench-spans" \
    "$@"
