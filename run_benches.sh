#!/bin/bash
# Full reproduction sweep; outputs under bench_results/.
# Sizes chosen so one interaction evaluation is seconds, not minutes,
# on a single-core host (see EXPERIMENTS.md for the scale mapping).
set -euxo pipefail
cd "$(dirname "$0")"
cargo build --release --offline -p kifmm-bench
B=target/release
OUT=bench_results
{ time KIFMM_MAXP=32 KIFMM_N=48000 $B/table_4_1 ; }   > $OUT/table_4_1.txt 2>&1
{ time KIFMM_MAXP=32 KIFMM_N=48000 $B/figure_4_2 ; }  > $OUT/figure_4_2.txt 2>&1
{ time KIFMM_MAXP=32 KIFMM_GRAIN=2500 $B/table_4_2 ; } > $OUT/table_4_2.txt 2>&1
{ time KIFMM_MAXP=32 KIFMM_GRAIN=2500 $B/figure_4_3 ; }> $OUT/figure_4_3.txt 2>&1
{ time KIFMM_MAXP=32 KIFMM_SCALE=4 $B/table_4_3 ; }    > $OUT/table_4_3.txt 2>&1
{ time $B/accuracy_table ; }                           > $OUT/accuracy_table.txt 2>&1
{ time KIFMM_N=40000 $B/ablation_m2l ; }               > $OUT/ablation_m2l_two_mode.txt 2>&1
{ time KIFMM_N=48000 KIFMM_MAXP=16 $B/ablation_balance ; } > $OUT/ablation_balance.txt 2>&1
echo ALL-DONE
