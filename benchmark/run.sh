#!/usr/bin/env bash
# The one command: build the benchmark offline in release mode, then run it.
#
#   bash benchmark/run.sh                  every workload, both passes, every metric
#   bash benchmark/run.sh --check          every workload at 1/50 size, all gates (< 15 s)
#   bash benchmark/run.sh --aa             the A/A acceptance table (about 20 min)
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one pass; the last stdout line is the result object
#
# Run it from the repo root.  Everything it writes stays inside the checkout:
# the build in $CARGO_TARGET_DIR (default benchmark/target), trace files and
# the process backend's segment markers in benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Cargo reports to stderr, so stdout stays the benchmark's own.  Without the
# repo's crates beside this directory the build fails and nothing is run.
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-$here/out}"
export SMP_AGGR_SEG_DIR="$BENCH_OUT_DIR/seg"
mkdir -p "$SMP_AGGR_SEG_DIR"
exec "$target/release/benchmark" "$@"
