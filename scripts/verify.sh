#!/bin/bash
# Tier-1 verification gate: the workspace must build and pass its tests
# fully offline (empty registry), and no manifest may reintroduce a
# registry (non-path) dependency — the build is hermetic by design.
set -euo pipefail
cd "$(dirname "$0")/.."

# 1. Dependency audit: inside any [dependencies*] section of any manifest,
#    every entry must be either `<crate>.workspace = true` or a
#    `{ path = ... }` table; `version`/`git`/registry-style requirements
#    fail the gate. The workspace table itself may only hold path deps.
fail=0
while IFS= read -r -d '' manifest; do
    bad=$(awk '
        /^\[/ { indep = ($0 ~ /^\[(workspace\.)?dependencies/ || $0 ~ /^\[dev-dependencies/ || $0 ~ /^\[build-dependencies/) ; next }
        indep && NF && $0 !~ /^#/ {
            if ($0 ~ /\.workspace *= *true/) next
            if ($0 ~ /path *= */ && $0 !~ /(version|git|registry) *= */) next
            print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "non-path dependency found:"
        echo "$bad"
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*' -print0)
if [ "$fail" -ne 0 ]; then
    echo "FAIL: registry dependencies are not allowed (hermetic build)"
    exit 1
fi
echo "dependency audit: OK (path-only)"

# 2. Offline release build + full test suite, once: that the AVX2
#    microkernels and their scalar twins produce identical bits is pinned
#    by the two golden-bits tests (hashed on both paths) and by step 8.
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# 3. Paper-shape + observability artifact + comm-regression gate: the
#    fixed-size sweep up to P = 4 (Table 4.1 and Figure 4.2 from one pass
#    over P; at the paper-table N, because Figure 4.2's phase mix does not
#    exist on a 3 000-point tree) checks itself (`gates::fixed_size`: Total falling with P, DownV the
#    largest phase, W/X only on the non-uniform cloud, DownU/DownW flops
#    conserved over ranks, valid phase times, at most 4·P·(P-1) evaluation
#    messages, nonzero comm bytes for ranks > 1) and leaves a chrome trace
#    to load in Perfetto. The shape of that artifact (a track per rank,
#    named events of known kinds, non-negative times, balanced async bars)
#    is the job of tests/trace_observability.rs, run in step 2.
rm -f target/bench-artifacts/TRACE_fixed_size_P4.json
KIFMM_N=48000 KIFMM_MAXP=4 \
    cargo run -q --release --offline -p kifmm-bench --bin fixed_size > /dev/null
test -s target/bench-artifacts/TRACE_fixed_size_P4.json
echo "fixed-size shape + comm-regression gate: OK (trace artifact written)"

# 5b. One-near-field-path gate: the multi-RHS loops are the only
#     hand-written near-field loops. `fn p2p(` / `fn p2p_grad(` may be
#     defined only in kernel.rs (as provided forwards with k = 1 — stable
#     Rust cannot forbid an override, this grep does), and the engine's
#     leaf passes take `grads: Option<..>`: no `_grad(` pass twin may
#     reappear under engine/. Likewise *which boxes* is an `ActiveSet`:
#     no node predicate under engine/.
p2p_defs=$(grep -rnE 'fn p2p(_grad)?\(' crates tests examples --include='*.rs' \
    | grep -v '^crates/kifmm-kernels/src/kernel.rs:' || true)
grad_twins=$(grep -rnE 'fn [a-z0-9_]+_grad\(|dyn Fn\(usize\) -> bool' crates/kifmm-core/src/engine || true)
if [ -n "$p2p_defs$grad_twins" ]; then
    echo "FAIL: single-RHS p2p override, engine _grad pass twin or node predicate reintroduced:"
    echo "$p2p_defs"
    echo "$grad_twins"
    exit 1
fi
echo "near-field gate: OK (p2p/p2p_grad defined once, no engine _grad twins, one filter)"

# 5d. One-charging-site gate: a pass is charged in exactly one place
#     (`kifmm_core::stats::Meter`) on all three drivers, and so is an
#     evaluation's traffic (`Meter::traffic`, from the substrate's one
#     ledger, `CommStats`). The hand-written forms — `add_seconds`/
#     `add_flops`/`add_comm` next to a span, a traffic counter charged
#     anywhere but stats.rs, a driver reading the clock itself, a Morton
#     permute loop outside `Octree` — may not come back. (Tests may still
#     *read* the traffic counters.)
rs() { grep -rnE "$1" crates tests examples --include='*.rs' || true; }
charges=$(rs 'add_seconds\(|add_flops\(|add_comm\(|add\(([a-z_]+::)*Counter::(Bytes|Messages)' \
    | grep -v '^crates/kifmm-core/src/stats.rs:' | grep -v '^crates/kifmm-trace/' || true)
clocks=$(grep -n 'thread_cpu_time()' crates/kifmm-core/src/plan.rs \
    crates/kifmm-parallel/src/driver.rs || true)
perms=$(rs 'perm\.iter\(\)\.enumerate\(\)' | grep -v '^crates/kifmm-tree/src/' || true)
if [ -n "$charges$clocks$perms" ]; then
    echo "FAIL: a hand-written charging site reintroduced:"
    echo "$charges"
    echo "$clocks"
    echo "$perms"
    exit 1
fi
echo "one-charging-site gate: OK (one Meter, traffic charged once)"

# 5f. One-level-rule gate: which table a level reads, times what, is
#     decided once (`operators::LevelRule`), and the box half-width lives
#     on `Domain` only. Outside `kifmm-kernels`, `homogeneity()` may be
#     read in operators.rs alone, and no struct under kifmm-core may grow
#     a `box_half` field again.
forks=$(grep -rn 'homogeneity()' crates/*/src | grep -v '^crates/kifmm-kernels/' \
    | grep -v '^crates/kifmm-core/src/operators.rs:' || true)
halves=$(grep -rn 'box_half:' crates/kifmm-core/src || true)
if [ -n "$forks$halves" ]; then
    echo "FAIL: a second level rule or a second copy of the box half-width reintroduced:"
    echo "$forks"
    echo "$halves"
    exit 1
fi
echo "level-rule gate: OK (homogeneity() read in operators.rs only, no box_half field)"

# 5g. One-tree gate: the octant-cut refinement loop is written once
#     (`kifmm_tree::refine_sorted_codes`, linearize.rs) for the serial
#     build, the incremental update and both distributed count providers,
#     and an `ExchangePlan` owns its payloads — only `ExchangeRoute::begin`
#     takes the closure, `poll`/`complete` take the communicator alone.
cuts=$(grep -rnF 'partition_point(|&c| ((c >> shift) & 7)' crates tests examples --include='*.rs' \
    | grep -v '^crates/kifmm-tree/src/linearize.rs:' || true)
closures=$(grep -rnE '\.(poll|complete)\(comm, ' crates/kifmm-parallel/src \
    tests/parallel_consistency.rs || true)
if [ -n "$cuts$closures" ]; then
    echo "FAIL: a second refinement loop or payload hand-off reintroduced:"
    echo "$cuts"
    echo "$closures"
    exit 1
fi
echo "one-tree gate: OK (one refinement loop, begin is the only payload call)"

# 5h. One-Hadamard-path gate: `M2lFft` holds its tensors as dense
#     chunk-major arrays (no `HashMap` in the struct) and the engine never
#     embeds reals as `C64::real(`. (That the transform crate and m2l.rs
#     stay safe code is `#![forbid(unsafe_code)]` at their crate roots.)
m2l_struct=$(awk '/^pub struct M2lFft/,/^}/' crates/kifmm-core/src/m2l.rs | grep -n 'HashMap' || true)
embeds=$(grep -rn 'C64::real(' crates/kifmm-core/src/engine || true)
if [ -n "$m2l_struct$embeds" ]; then
    echo "FAIL: a tensor map or a complex embedding in the M2L path:"
    echo "$m2l_struct"
    echo "$embeds"
    exit 1
fi
echo "hadamard gate: OK (dense chunk-major tensors, one Hadamard path)"

# 5i. One-inversion-site gate: outside test modules, `pinv(` /
#     `pinv_with_tol(` / `svd(` are called under crates/*/src only from
#     `kifmm-linalg` itself and from `operators.rs::build_level` — the one
#     place that knows a symmetric kernel's second inversion is the
#     transpose of its first, so no inversion can grow beside it that pays
#     for the SVD again.
inversions=$(find crates/*/src -name '*.rs' -not -path 'crates/kifmm-linalg/*' | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^fn build_level/, /^}/ { if (f == "crates/kifmm-core/src/operators.rs") next }
        /^[ \t]*\/\// { next }
        /(^|[^A-Za-z0-9_])(pinv|pinv_with_tol|svd)\(/ { print f ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$inversions" ]; then
    echo "FAIL: an SVD or pseudoinverse outside kifmm-linalg and operators.rs::build_level:"
    echo "$inversions"
    exit 1
fi
echo "inversion-site gate: OK (pinv/svd called from build_level only)"

# 6. Service-throughput gate: the plan/execute service example (small N)
#    checks itself — the repeated plan lookup must be a warm cache hit and
#    eval_many(k=8) must amortize to at most 0.55x the wall time of 8
#    sequential evaluations (the full-size run lands near 0.3) — and exits
#    nonzero otherwise.
KIFMM_N=8000 KIFMM_REQUESTS=1 \
    cargo run -q --release --offline --example service_throughput > /dev/null
echo "service-throughput gate: OK"

# 7. M2L ablation gate: the footnote-5 ablation (small N) runs every M2L
#    level of one plan twice from the same upward equivalents — the
#    engine's FFT pass and the dense reference sweep
#    (`kifmm_core::m2l::DenseM2l`) — and checks itself: each level's check
#    potentials agree to 1e-9 in every case, and at p = 6 the dense sweep
#    counts more flops and the FFT pass wins on time; it exits nonzero
#    otherwise.
KIFMM_N=3000 cargo run -q --release --offline -p kifmm-bench --bin ablation_m2l > /dev/null
echo "m2l-ablation gate: OK"

# 8. SIMD gate: the vector microkernels (`dot`, `axpy`, `inv_dist_dots`)
#    and the FMM evaluations built on them — a Laplace `eval_many` at
#    k = 9 among them — must be bit-identical to the scalar reference path
#    (flipped in-process via set_force_scalar), and — this being a release
#    binary, debug assertions off — mismatched `dot`/`axpy` lengths, a
#    short density slice or 9 right-hand sides into `inv_dist_dots`, and a
#    short density slice into `Laplace.p2p` must panic, not read out of
#    bounds.
cargo run -q --release --offline -p kifmm-bench --bin simd_check > /dev/null
echo "simd gate: OK"

# 8b. Trace-cost gate: a disabled span + counter pair must cost < 50 ns,
#     and an evaluation with tracing enabled < 1.25x the untraced one.
cargo run -q --release --offline -p kifmm-bench --bin trace_check > /dev/null
echo "trace-cost gate: OK"

# 9. Tree-build gate: the tree-construction example (small N) checks
#    itself — the sample-sort and paper per-level-Allreduce builds must be
#    bitwise identical at every rank count, and the incremental plan
#    update (1% point motion) must cost at most half of a from-scratch
#    rebuild (the 1M-point run lands near 0.18; the small-N geometry pays
#    the same fixed overheads over far less work) — and exits nonzero
#    otherwise.
KIFMM_N=30000 cargo run -q --release --offline --example tree_build > /dev/null
echo "tree-build gate: OK"

# 10. Kernel-suite gate: the five-kernel sweep (small N) checks itself —
#     per-kernel accuracy inside the order-6 envelope against the fused
#     direct sum, and the fused PotentialAndGradient eval costing at most
#     2.5x a potential-only eval (N=40k lands near 1.2; gradients ride the
#     existing equivalent densities) — and exits nonzero otherwise.
KIFMM_N=8000 cargo run -q --release --offline --example kernel_suite > /dev/null
echo "kernel-suite gate: OK"

# 11. Benchmark gate: `benchmark/` is a workspace of its own, so the root
#     `cargo test` never compiles it. Build and test it against the
#     current API, then drive a smoke-sized traced run: it calls
#     `Kernel::{p2p, p2p_many, p2p_grad}` and sequences the engine passes
#     itself, checking them bitwise against `Session::eval`.
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target
benchmark/run.sh --smoke --trace > /dev/null
echo "benchmark gate: OK"

nontest() { awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' "$1"; }
# Summed over every source file under a directory.
nontest_dir() {
    local n=0 f
    for f in $(find "$1" -name '*.rs'); do
        n=$((n + $(nontest "$f")))
    done
    echo "$n"
}
echo "non-test lines: kifmm-core/src $(nontest_dir crates/kifmm-core/src), kifmm-bench/src $(nontest_dir crates/kifmm-bench/src)"
front=0
for f in plan fmm evaluator stats targets; do
    front=$((front + $(nontest "crates/kifmm-core/src/$f.rs")))
done
echo "non-test lines: evaluation front end (plan+fmm+evaluator+stats+targets) $front, driver.rs $(nontest crates/kifmm-parallel/src/driver.rs)"
m2l=0
for f in m2l engine/mod precompute; do
    m2l=$((m2l + $(nontest "crates/kifmm-core/src/$f.rs")))
done
echo "non-test lines: M2L path (m2l+engine/mod+precompute) $m2l, kifmm-runtime lib.rs $(nontest crates/kifmm-runtime/src/lib.rs)"
echo "non-test lines: kifmm-mpi/src $(nontest_dir crates/kifmm-mpi/src), kifmm-fft/src $(nontest_dir crates/kifmm-fft/src)"
# The vector microkernels hold the workspace's `unsafe` loads: growth shows here.
echo "non-test lines: kifmm-linalg/src/simd.rs $(nontest crates/kifmm-linalg/src/simd.rs)"
echo "verify: ALL OK"
