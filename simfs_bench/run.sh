#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash simfs_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds this package — the benchmark and, beside it, the repository's
# own simfs-simd source, which the daemon's ProcessLauncher spawns for
# every re-simulation — then runs one workload. The build is a no-op
# after the first run in a checkout. Cargo reports on standard error;
# the last line of standard output is the benchmark's result object.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/simfs_bench" "$@"
