#!/usr/bin/env bash
# The repository's benchmark, one command: builds `papar` and the harness
# (release, offline), then runs the harness from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--out FILE] [--quick]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest
#   benchmark/run.sh test          # the harness's own tests, smoke test included
#
# Only the harness writes to stdout; cargo's output goes to stderr.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

build_started=$(date +%s%N)
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    -p papar-benchmark -p papar-cli 1>&2
echo "cargo build: $(( ($(date +%s%N) - build_started) / 1000000 )) ms (info; not part of any metric)" 1>&2

if [[ "${1:-}" == "test" ]]; then
    shift
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml "$@" 1>&2
fi
exec "$CARGO_TARGET_DIR/release/papar-benchmark" "$@"
