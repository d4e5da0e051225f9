#!/bin/bash
# Full reproduction sweep; outputs under bench_results/, one file per paper
# table or figure. Sizes chosen so one interaction evaluation is at most
# seconds on a two-core host (see EXPERIMENTS.md for the scale mapping).
# Every bin's exit status is its verdict (EXPERIMENTS.md, "Verdict
# summary"); the script runs them all and fails at the end if any failed.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline -p kifmm-bench
B=target/release
OUT=bench_results
failed=()

# run <bin> <output file> [VAR=value ...]: stdout, the FAIL lines and the
# wall time of one bin into one file.
run() {
    local bin=$1 out=$OUT/$2
    shift 2
    echo "\$ $* $bin" > "$out"
    { time env "$@" "$B/$bin"; } >> "$out" 2>&1 || failed+=("$bin")
}

# A sweep prints its table and its figure from the same runs; the
# committed files are the two views.
split() {
    awk -v table="$OUT/$2" -v figure="$OUT/$3" '
        /^Figure/ { figure_part = 1 }
        /^(\$|FAIL|real|user|sys)|shapes hold/ { print > table; print > figure; next }
        { print > (figure_part ? figure : table) }
    ' "$OUT/$1" && rm "$OUT/$1"
}

run fixed_size fixed_size.txt KIFMM_MAXP=32 KIFMM_N=48000
split fixed_size.txt table_4_1.txt figure_4_2.txt
run isogranular isogranular.txt KIFMM_MAXP=32 KIFMM_GRAIN=2500
split isogranular.txt table_4_2.txt figure_4_3.txt
run table_4_3 table_4_3.txt KIFMM_MAXP=32 KIFMM_SCALE=4
run accuracy_table accuracy_table.txt
run ablation_m2l ablation_m2l.txt KIFMM_N=40000
run ablation_balance ablation_balance.txt KIFMM_N=48000 KIFMM_MAXP=16

if [ ${#failed[@]} -ne 0 ]; then
    echo "FAILED: ${failed[*]} (see the FAIL lines in $OUT/)"
    exit 1
fi
echo ALL-DONE
