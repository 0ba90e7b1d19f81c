#!/usr/bin/env bash
# Build the benchmark and `union-exp` from source, then run the benchmark.
#   bash perfbench/run.sh --workload w3-seq --seed 42 --seconds 15 --trace 0
# Build output goes to stderr; the benchmark's result is the last stdout line.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench -p harness --bin perfbench --bin union-exp >&2
exec "$target/release/perfbench" "$@"
