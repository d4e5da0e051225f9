#!/usr/bin/env bash
# Build the benchmark from source and run it. Every argument is passed on:
#
#   benchmark/run.sh [--seed S] [--trace] [--smoke]            full set, all workloads
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run (BENCHMARK.json contract)
#
# The last line of standard output of a one-workload run is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

# Serial unless a workload says otherwise (the benchmark raises the pool
# size itself for the two runtime.* rows); KIFMM_SIMD stays unset so the
# library picks its code path the way a user's build does.
export KIFMM_NUM_THREADS="${KIFMM_NUM_THREADS:-1}"
unset KIFMM_SIMD

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

KIFMM_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
KIFMM_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export KIFMM_BENCH_RUSTC KIFMM_BENCH_COMMIT

exec "$target/release/kifmm-benchmark" "$@"
