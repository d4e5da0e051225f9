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
#     read in operators.rs alone; outside test modules a rule is made
#     (`LevelRule::new(`) in operators.rs alone — the operator table's,
#     which the M2L tensors are built from; and no struct under kifmm-core
#     may grow a `box_half` field again.
forks=$(grep -rn 'homogeneity()' crates/*/src | grep -v '^crates/kifmm-kernels/' \
    | grep -v '^crates/kifmm-core/src/operators.rs:' || true)
rules=$(find crates/*/src examples -name '*.rs' -not -path 'crates/kifmm-core/src/operators.rs' \
    | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[ \t]*\/\// { next }
        /LevelRule::new\(/ { print f ":" FNR ": " $0 }
    ' "$f"
done)
halves=$(grep -rn 'box_half:' crates/kifmm-core/src || true)
if [ -n "$forks$rules$halves" ]; then
    echo "FAIL: a second level rule or a second copy of the box half-width reintroduced:"
    echo "$forks"
    echo "$rules"
    echo "$halves"
    exit 1
fi
echo "level-rule gate: OK (homogeneity() read and LevelRule made in operators.rs only, no box_half field)"

# 5g. One-tree gate: the octant-cut refinement loop is written once
#     (`kifmm_tree::refine_sorted_codes`, linearize.rs) for the serial
#     build, the incremental update and the one distributed build (the
#     paper's per-level Allreduce) — the sample-sort count oracle may not
#     come back — and an `ExchangePlan` owns its payloads — only
#     `ExchangeRoute::begin` takes the closure, `poll`/`complete` take the
#     communicator alone.
cuts=$(grep -rnF 'partition_point(|&c| ((c >> shift) & 7)' crates tests examples --include='*.rs' \
    | grep -v '^crates/kifmm-tree/src/linearize.rs:' || true)
oracle=$(grep -rnE 'chunk_summary|GlobalCounts|SummaryEntry|build_counts_oracle|TreeBuild::SampleSort' \
    crates tests examples || true)
closures=$(grep -rnE '\.(poll|complete)\(comm, ' crates/kifmm-parallel/src \
    tests/parallel_consistency.rs || true)
if [ -n "$cuts$oracle$closures" ]; then
    echo "FAIL: a second refinement loop, a second distributed build or a payload hand-off reintroduced:"
    echo "$cuts"
    echo "$oracle"
    echo "$closures"
    exit 1
fi
echo "one-tree gate: OK (one refinement loop, one distributed build, begin is the only payload call)"

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

# 5i. One-inversion-site gate: outside test modules, `pinv(` / `svd(`
#     are called under crates/*/src only from
#     `kifmm-linalg` itself and from `operators.rs::build_level` — the one
#     place that knows a symmetric kernel's second inversion is the
#     transpose of its first, so no inversion can grow beside it that pays
#     for the SVD again.
inversions=$(find crates/*/src -name '*.rs' -not -path 'crates/kifmm-linalg/*' | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^fn build_level/, /^}/ { if (f == "crates/kifmm-core/src/operators.rs") next }
        /^[ \t]*\/\// { next }
        /(^|[^A-Za-z0-9_])(pinv|svd)\(/ { print f ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$inversions" ]; then
    echo "FAIL: an SVD or pseudoinverse outside kifmm-linalg and operators.rs::build_level:"
    echo "$inversions"
    exit 1
fi
echo "inversion-site gate: OK (pinv/svd called from build_level only)"

# 5j. One-build-boundary gate: a distributed FMM is built through one
#     validated constructor (`ParallelFmm::try_new`), the options are
#     judged by one function (`FmmOptions::validate`, fmm.rs), update
#     failures have one type (`kifmm_tree::UpdateError`), and the library
#     crates use the test-data crate `kifmm-geom` in their tests only. The
#     removed twins — the builder trait, its hidden decomposer, the
#     unreachable operator-coverage check, the second pseudoinverse
#     tolerance, the patch partitioner — may not come back.
twins=$(grep -rnwE 'BuildParallel|into_parts|try_build_parallel|check_operator_coverage|MissingOperators|PINV_TOL|SurfacePatch|partition_patches' \
    crates tests examples || true)
option_errs=$(find crates/*/src -name '*.rs' -not -path 'crates/kifmm-core/src/fmm.rs' | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /BuildError::(OrderTooSmall|ZeroLeafCapacity)/ && !/=>/ { print f ":" FNR ": " $0 }
    ' "$f"
done)
update_enums=$(grep -rn 'enum UpdateError' crates/*/src | wc -l)
geom_deps=$(for c in tree core parallel; do
    awk -v f="crates/kifmm-$c/Cargo.toml" '
        /^\[/ { deps = ($0 == "[dependencies]"); next }
        deps && /^kifmm-geom/ { print f ": " $0 }
    ' "crates/kifmm-$c/Cargo.toml"
done)
if [ -n "$twins$option_errs$geom_deps" ] || [ "$update_enums" -ne 1 ]; then
    echo "FAIL: a second build path, option check or update-error type, or a library dependency on kifmm-geom:"
    echo "$twins"
    echo "$option_errs"
    echo "enum UpdateError definitions under crates/*/src: $update_enums"
    echo "$geom_deps"
    exit 1
fi
echo "build-boundary gate: OK (one distributed constructor, one option verdict, one UpdateError, kifmm-geom in dev-dependencies)"

# 5k. One-rotation gate: every Jacobi rotation of the SVD runs through
#     `simd::rot`/`simd::rot_dot`, whose scalar twins sit beside the AVX2
#     bodies in simd.rs (gate 8 holds them bit-identical). No element-wise
#     rotation loop may come back to svd.rs outside its test module, where
#     the `plain_jacobi` oracle keeps its own.
rotations=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    /rotate_rows|iter_mut\(\)\.zip\([^)]*iter_mut\(\)\)|[A-Za-z0-9_]+ \* [A-Za-z0-9_]+ [-+] [A-Za-z0-9_]+ \* [A-Za-z0-9_]+/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/kifmm-linalg/src/svd.rs)
if [ -n "$rotations" ]; then
    echo "FAIL: a rotation loop in svd.rs outside simd::rot/rot_dot:"
    echo "$rotations"
    exit 1
fi
echo "rotation gate: OK (Jacobi rotates through simd::rot/rot_dot only)"

# 5l. One-copy gate: each fact on the set-up path is kept once — the plan
#     cache and the table cache are one map of per-key `OnceLock` slots,
#     the tracer's rank buffers one map by rank id that `RankTracer`
#     holds directly, the level rule the operator table's alone, the
#     pseudoinverse tolerance a constant. The removed second copies — the
#     resident-plan list and its flight map, the rank list and its
#     handle/dump copies, the M2L tables' own rule, the tolerance
#     argument — may not come back.
copies=$(grep -rnwE 'CacheEntry|CacheState|retire_flight|RankDump|RankHandle|sorted_ranks|NO_LEVEL|pinv_with_tol' \
    crates tests examples || true)
if [ -n "$copies" ]; then
    echo "FAIL: a removed second copy reintroduced:"
    echo "$copies"
    exit 1
fi
echo "one-copy gate: OK (one cache map, one rank map, one level rule, one pinv)"

# 5m. One-tree-build gate: a patched tree is a fresh build over the old
#     root cube — `update_octree` calls `Octree::build_in_domain` and
#     neither encodes, sorts nor refines itself outside its test module.
#     The removed second sort (the displaced-pair sort and its switch
#     percentage) and the second and third ways to shape an
#     `ExpansionStore` may not come back.
rebuilds=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    /Octree::build_in_domain\(/ { built = 1 }
    /morton_codes\(|sort_codes\(|structure_from_sorted_codes\(/ { print FILENAME ":" FNR ": " $0 }
    END { if (!built) print "update.rs: update_octree does not call Octree::build_in_domain" }
' crates/kifmm-tree/src/update.rs)
twins=$(grep -rnE 'FULL_SORT_PERCENT|sort_pairs|ExpansionStore::new|with_nrhs' \
    crates tests examples || true)
if [ -n "$rebuilds$twins" ]; then
    echo "FAIL: a second tree derivation in update.rs or a removed twin reintroduced:"
    echo "$rebuilds"
    echo "$twins"
    exit 1
fi
echo "one-tree-build gate: OK (update_octree builds through Octree::build_in_domain)"

# 5n. One-evaluation-body gate: `Session` runs every shared-memory
#     evaluation (`eval_many` at the plan's points, `evaluate_at` at binned
#     targets) through one private body, and `Plan` holds set-up data only;
#     every driver checks and permutes its batch through one engine call
#     (`PassEngine::sort_batch`). Outside test modules under crates/*/src
#     the removed twins — `Plan::execute`, `Plan::far_field`,
#     `Session::with_scratch`, a `geometry_hash()` method, the drivers'
#     own "density length" checks — may not come back, and each
#     batch-check message appears once.
nontest_src() {
    find crates/*/src -name '*.rs' | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done
}
twins=$(nontest_src \
    | grep -E 'fn (execute|far_field|with_scratch)\(|fn geometry_hash\(&|\.geometry_hash\(\)|"density length"' \
    || true)
checks=$(for m in 'a batch holds at least one density vector' \
    'each density vector must have src_dim entries per point'; do
    n=$(nontest_src | grep -cF "\"$m\"" || true)
    [ "$n" -eq 1 ] || echo "\"$m\" appears $n times"
done)
if [ -n "$twins$checks" ]; then
    echo "FAIL: a second evaluation body or a second batch check reintroduced:"
    echo "$twins"
    echo "$checks"
    exit 1
fi
echo "one-evaluation-body gate: OK (one Session body, one batch check in PassEngine::sort_batch)"

# 5o. Live-window gate: the FFT M2L's source-spectra table holds only the
#     sources live at once — a V-list source keeps its slot from the first
#     run of targets that names it to the last (`SlotPlan`). Outside test
#     modules the level-wide sorted, deduplicated source list may not come
#     back: engine/mod.rs sorts and dedups nothing and names no `needed`,
#     `EngineWorkspace` has no `needed` field, and every sizing of
#     `spectra` is by the slot plan's capacity.
window=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    /\.sort(_unstable)?\(\)|\.dedup\(|needed/ { print FILENAME ":" FNR ": " $0 }
    /spectra\.(resize|reserve|extend)|spectra *= *vec!/ {
        sized++
        if ($0 !~ /slots\.capacity\(\)/) print FILENAME ":" FNR ": " $0
    }
    END { if (!sized) print FILENAME ": the spectra table is not sized here" }
' crates/kifmm-core/src/engine/mod.rs)
fields=$(awk '/^#\[cfg\(test\)\]/ { exit } /needed *:/ { print FILENAME ":" FNR ": " $0 }' \
    crates/kifmm-core/src/engine/store.rs)
if [ -n "$window$fields" ]; then
    echo "FAIL: the level-wide source list or a table not sized by the slot plan reintroduced:"
    echo "$window"
    echo "$fields"
    exit 1
fi
echo "live-window gate: OK (the M2L spectra table is sized by SlotPlan::capacity)"

# 5p. Stored-tensor gate: the M2L tensor tables hold each distinct
#     kernel component once — a component that is bit for bit its
#     transpose's in every direction of every slot reads the transpose's
#     run through `M2lFft`'s component map — and one direction of each ±v
#     pair whose grids are reflections by value — the other reads it
#     conjugated through the direction map. Outside test modules in
#     m2l.rs: no size or stride runs over all 316 directions (`DIRS *`),
#     every one over the stored directions (`nd`, `stored_dirs(…)`) is
#     by the stored-component count (`stored`, `ns`) and `CL`, and none is
#     by the block's `kdim`, `td * sd` or `comps.len()`; `ChunkJob` reaches
#     a kernel run only through the pair's direction entry
#     (`entry & !CONJ`), reads its imaginary part only as `sg * k[F + f]`
#     with `sg` from `entry & CONJ`, and reads block component
#     `t·sd + s` only through `comps[t * sd + s]`; no spectrum is copied
#     (`copy_within`). Outside test modules under crates/*/src, the
#     direction map is decided in one function: `| CONJ` and a call of
#     `reflected_twin` appear only in `fn direction_map`, and `dir_id(`
#     is called only in m2l.rs (a pair's entry comes from
#     `M2lFft::direction`).
stored=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /DIRS \*|\* DIRS/ { print FILENAME ":" FNR ": " $0 }
    code ~ /(^|[^A-Za-z0-9_])(nd|stored_dirs\([^)]*\)) \*/ {
        sized++
        if (code !~ /(nd|stored_dirs\([^)]*\)) \* (stored|ns) \* CL/) print FILENAME ":" FNR ": " $0
    }
    code ~ /(kdim|td \* sd|comps\.len\(\)) \* CL/ { print FILENAME ":" FNR ": " $0 }
    /^impl ChunkJob/ { job = 1 }
    job && /t \* sd \+ s/ {
        if ($0 ~ /comps\[t \* sd \+ s\]/) mapped++
        else print FILENAME ":" FNR ": " $0
    }
    job && /kernels\[/ {
        if (code ~ /kernels\[\(entry & !CONJ\)/) entered++
        else print FILENAME ":" FNR ": " $0
    }
    job && /k\[F \+ f\]/ && code !~ /sg \* k\[F \+ f\]/ { print FILENAME ":" FNR ": " $0 }
    job && code ~ /sg = if entry & CONJ/ { signed++ }
    job && /^}/ { job = 0 }
    /copy_within/ { print FILENAME ":" FNR ": " $0 }
    END {
        if (!sized) print FILENAME ": no tensor table sized over the stored directions"
        if (!mapped) print FILENAME ": ChunkJob does not read kernel runs through the component map"
        if (!entered) print FILENAME ": ChunkJob does not read kernel runs through the direction entry"
        if (!signed) print FILENAME ": ChunkJob does not take the sign from the direction entry"
    }
' crates/kifmm-core/src/m2l.rs)
decided=$(nontest_src | awk '
    { split($0, a, ": "); f = a[1]; code = substr($0, length(f) + 3) }
    code ~ /^[ \t]*\/\// { next }
    f ~ /m2l\.rs:/ && code ~ /^fn direction_map/ { inmap = 1 }
    (code ~ /\| CONJ/ || (code ~ /reflected_twin\(/ && code !~ /fn reflected_twin\(/)) \
        && !(inmap && f ~ /m2l\.rs:/) { print $0 }
    code ~ /(^|[^_A-Za-z])dir_id\(/ && code !~ /fn dir_id\(/ && f !~ /m2l\.rs:/ { print $0 }
    inmap && code ~ /^}/ { inmap = 0 }
')
if [ -n "$stored$decided" ]; then
    echo "FAIL: an M2L tensor table over every direction or component, a kernel run read around the maps, or a second direction-map decision:"
    echo "$stored"
    echo "$decided"
    exit 1
fi
echo "stored-tensor gate: OK (M2L tensors sized by stored directions × stored components, read through both maps)"

# 5q. Compact-store gate: a driver's `ExpansionStore` holds rows only for
#     the boxes it touches — `up` rows for its active boxes and their V/W
#     sources, check/down rows for its active boxes — through the
#     `StoreRows` map its `ActiveSet` decides once. Outside test modules:
#     no store slab is sized by a node count (`num_nodes`) — every sizing
#     in store.rs is by the map's row counts, and no `ensure(` call names
#     `num_nodes` anywhere under crates/*/src — and engine/mod.rs reaches
#     slab rows only through the map: every index into a slab (`up`,
#     `down`, `check`, `src`, `dst`) is by a row, and no node id is
#     multiplied into an offset (`… as usize *`).
compact=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /(up|down|check)\.(resize|reserve)\(|(up|down|check) *= *vec!/ {
        sized++
        if (code ~ /num_nodes/ || code !~ /rows\.(up|local)_rows\(\)/) print FILENAME ":" FNR ": " $0
    }
    code ~ /fn ensure\(.*num_nodes/ { print FILENAME ":" FNR ": " $0 }
    END { if (!sized) print FILENAME ": no store slab is sized here" }
' crates/kifmm-core/src/engine/store.rs)
shaped=$(nontest_src | grep -E 'ensure\(.*num_nodes' || true)
rows=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /as usize \*/ { print FILENAME ":" FNR ": " $0 }
    {
        rest = code
        while (match(rest, /(^|[^A-Za-z0-9_])(up|down|check|src|dst)\[[^]]*\]/)) {
            index_expr = substr(rest, RSTART, RLENGTH)
            indexed++
            if (index_expr !~ /row/) print FILENAME ":" FNR ": " $0
            rest = substr(rest, RSTART + RLENGTH)
        }
    }
    END { if (!indexed) print FILENAME ": no slab is indexed here" }
' crates/kifmm-core/src/engine/mod.rs)
if [ -n "$compact$shaped$rows" ]; then
    echo "FAIL: an expansion store sized by the node count, or a slab indexed around the row map:"
    echo "$compact"
    echo "$shaped"
    echo "$rows"
    exit 1
fi
echo "compact-store gate: OK (store slabs sized and indexed by the StoreRows map)"

# 5r. Home-box gate: which boxes an exchange installs — the in-flight
#     boxes, every used box but the home ones this rank owns and alone
#     contributes to — is decided in exchange.rs alone
#     (`ExchangeRoute::build`). Outside its test module, driver.rs calls
#     no `contributors(` and reads no `own.owner`: it takes the in-flight
#     set from `installed_boxes()` and never re-derives the home rule.
home=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^[ \t]*\/\// { next }
    { code = $0; sub(/\/\/.*/, "", code) }
    code ~ /contributors\(|own\.owner/ { print FILENAME ":" FNR ": " $0 }
' crates/kifmm-parallel/src/driver.rs)
if [ -n "$home" ]; then
    echo "FAIL: the distributed driver re-derives which boxes an exchange installs:"
    echo "$home"
    exit 1
fi
echo "home-box gate: OK (the exchange route alone decides the in-flight boxes)"

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

# 8. SIMD gate: the vector microkernels (`dot`, `axpy`, the Jacobi
#    rotations `rot`/`rot_dot` — also on ±0, NaN and ±∞ lanes — and
#    `inv_dist_dots`) and the FMM evaluations built on them — a Laplace
#    `eval_many` at k = 9 among them — must be bit-identical to the scalar
#    reference path (flipped in-process via set_force_scalar), and — this
#    being a release binary, debug assertions off — mismatched
#    `dot`/`axpy`/`rot`/`rot_dot` lengths, a short density slice or 9
#    right-hand sides into `inv_dist_dots`, and a short density slice into
#    `Laplace.p2p` must panic, not read out of bounds.
cargo run -q --release --offline -p kifmm-bench --bin simd_check > /dev/null
echo "simd gate: OK"

# 8b. Trace-cost gate: a disabled span + counter pair must cost < 50 ns,
#     and an evaluation with tracing enabled < 1.25x the untraced one.
cargo run -q --release --offline -p kifmm-bench --bin trace_check > /dev/null
echo "trace-cost gate: OK"

# 9. Tree-build gate: the tree-construction example (small N) checks
#    itself — the distributed per-level-Allreduce build must equal the
#    serial `Octree::build` (keys, levels, global counts) at every rank
#    count P ∈ {1, 2, 4, 8}, and the incremental plan update (1% point
#    motion) must cost at most half of a from-scratch rebuild (the
#    1M-point run lands at 0.27–0.39, this N near 0.19) — and exits
#    nonzero otherwise.
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
echo "non-test lines: kifmm-mpi/src $(nontest_dir crates/kifmm-mpi/src), kifmm-fft/src $(nontest_dir crates/kifmm-fft/src), kifmm-trace/src $(nontest_dir crates/kifmm-trace/src)"
# The vector microkernels hold the workspace's `unsafe` loads: growth shows here.
echo "non-test lines: kifmm-linalg/src/simd.rs $(nontest crates/kifmm-linalg/src/simd.rs)"
echo "non-test lines: kifmm-tree/src $(nontest_dir crates/kifmm-tree/src), kifmm-parallel/src $(nontest_dir crates/kifmm-parallel/src), kifmm-geom/src $(nontest_dir crates/kifmm-geom/src)"
echo "verify: ALL OK"
