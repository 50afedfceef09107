#!/usr/bin/env bash
# The repo's benchmark, one command. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, untraced then traced; prints `workload metric value unit`
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is one JSON object
#   benchmark/run.sh compare A.json[,A2.json...] B.json[,B2.json...]
#       applies the bounds to the medians of two sets of result files
set -euo pipefail
cd "$(dirname "$0")/.."

FSI_BENCHMARK_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
FSI_BENCHMARK_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export FSI_BENCHMARK_COMMIT FSI_BENCHMARK_RUSTC

# Standard output belongs to the benchmark's own report.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/fsi-benchmark" "$@"
