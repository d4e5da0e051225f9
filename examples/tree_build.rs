//! Tree-construction example: the distributed build against the serial
//! one, plus the incremental plan update.
//!
//! For each virtual rank count P ∈ {1, 2, 4, 8} the distributed tree —
//! the paper's level-by-level build, one Allreduce per level (§3.1) — is
//! built over the partitioned point set and compared with
//! [`Octree::build`] over all of it: the same keys, the same levels, and
//! global counts equal to the serial point counts. The build time (slowest
//! rank) and the messages it sent (summed over ranks) are printed per P.
//! Then a serial [`Plan`] is built over the full point set and patched
//! with [`Plan::update_points`] after a small 1% point motion, timing the
//! patch against an equivalent from-scratch rebuild (warm operator cache,
//! so both sides pay geometry work only).
//!
//! The example is its own gate ([`gate`]): it exits non-zero when the
//! distributed tree differs from the serial one at any P or the patch
//! costs more than half a rebuild. Build and update *times* are measured
//! by the repo benchmark (`tree.*`, `core.plan_update_s`,
//! `parallel.setup_tree_s` in `BENCHMARK.json`).
//!
//! ```text
//! cargo run --release --example tree_build
//! KIFMM_N=30000 cargo run --release --example tree_build
//! ```

use kifmm::tree::{partition_points, Octree, TreeBuild, MAX_LEVEL};
use kifmm::{FmmOptions, Laplace, Plan};
use kifmm_core::PrecomputeCache;
use kifmm_parallel::build_distributed_tree_with;
use std::sync::Arc;
use std::time::Instant;

const LEAF: usize = 60;
/// An incremental plan update (1% point motion) may cost at most this
/// fraction of a from-scratch rebuild. The 1M-point default lands near
/// 0.18; small N pays the same fixed overheads over far less work.
const MAX_UPDATE_RATIO: f64 = 0.5;

/// The example's verdict over the rank counts whose distributed tree
/// differed from the serial one and the measured update/rebuild time ratio.
fn gate(unequal_ranks: &[usize], update_ratio: f64) -> Result<(), String> {
    if !unequal_ranks.is_empty() {
        return Err(format!(
            "the distributed and serial trees disagree at P = {unequal_ranks:?} (the \
             equivalence gate failed)"
        ));
    }
    if update_ratio.is_nan() || update_ratio > MAX_UPDATE_RATIO {
        return Err(format!(
            "incremental-update regression: patching the plan took {update_ratio:.3}× a full \
             rebuild (bound {MAX_UPDATE_RATIO}) — time-stepping no longer amortizes setup"
        ));
    }
    Ok(())
}

fn main() {
    let n: usize =
        std::env::var("KIFMM_N").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000_000);
    println!("tree construction benchmark, N = {n}, s = {LEAF}\n");
    let all = kifmm::geom::uniform_cube(n, 42);

    // --- Distributed build vs the serial tree, per P. ---
    let serial = Octree::build(&all, LEAF, MAX_LEVEL);
    let serial_keys: Vec<_> = serial.nodes.iter().map(|n| n.key).collect();
    let serial_counts: Vec<u64> = serial.nodes.iter().map(|n| n.num_points() as u64).collect();
    let serial = Arc::new((serial_keys, serial.levels, serial_counts));
    println!("  P   build(s)  messages   nodes  depth");
    let mut unequal_ranks = Vec::new();
    for ranks in [1usize, 2, 4, 8] {
        let chunks = Arc::new(partition_points(&all, ranks).gather(&all));
        let out = kifmm::mpi::run(ranks, {
            let (chunks, serial) = (chunks.clone(), serial.clone());
            move |comm| {
                let local = &chunks[comm.rank()];
                let sent = comm.stats().messages_sent;
                let t0 = Instant::now();
                let dt =
                    build_distributed_tree_with(comm, local, LEAF, MAX_LEVEL, TreeBuild::Paper);
                let seconds = t0.elapsed().as_secs_f64();
                let sent = comm.stats().messages_sent - sent;
                let (keys, levels, counts) = &*serial;
                let equal = dt.tree.nodes.iter().map(|n| n.key).eq(keys.iter().copied())
                    && dt.tree.levels == *levels
                    && dt.global_counts == *counts;
                (seconds, sent, equal, dt.tree.num_nodes(), dt.tree.depth())
            }
        });
        let seconds = out.iter().map(|r| r.0).fold(0.0f64, f64::max);
        let messages: u64 = out.iter().map(|r| r.1).sum();
        let (nodes, depth) = (out[0].3, out[0].4);
        if !out.iter().all(|r| r.2) {
            unequal_ranks.push(ranks);
        }
        println!("  {ranks:<3} {seconds:>8.4}  {messages:>8}  {nodes:>6}  {depth:>5}");
    }

    // --- Incremental plan update vs from-scratch rebuild (serial). ---
    //
    // Both sides share a warm PrecomputeCache, so the comparison is
    // geometry work only (tree, lists, M2L resolution) — exactly what a
    // time-stepping application pays per step. 1% of the points are
    // nudged by a relative 1e-9: realistic small motion that leaves the
    // tree structure unchanged, letting the patch reuse the interaction
    // lists wholesale.
    let opts = FmmOptions { order: 4, max_pts_per_leaf: LEAF, ..Default::default() };
    let shared = PrecomputeCache::new();
    let base = Plan::try_new_with_cache(Laplace, &all, opts, &shared).unwrap();
    let center = base.tree.domain.center;
    let mut moved = all.clone();
    let moved_fraction = 0.01;
    let stride = (1.0 / moved_fraction) as usize;
    for p in moved.iter_mut().step_by(stride) {
        for d in 0..3 {
            p[d] += (center[d] - p[d]) * 1e-9;
        }
    }
    // Min over a few repetitions: a time-stepping app pays the *steady
    // state* per-step cost, and the first call of either path carries
    // one-time allocator warm-up that would otherwise dominate the patch
    // (which does far less real work than it allocates pages for).
    let reps: usize =
        std::env::var("KIFMM_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    let mut build_seconds = f64::INFINITY;
    let mut fresh = None;
    for r in 0..reps {
        let t0 = Instant::now();
        fresh = Some(Plan::try_new_with_cache(Laplace, &moved, opts, &shared).unwrap());
        let t = t0.elapsed().as_secs_f64();
        eprintln!("  rebuild rep {r}: {t:.4}s");
        build_seconds = build_seconds.min(t);
    }
    let fresh = fresh.unwrap();
    let mut update_seconds = f64::INFINITY;
    let mut patched = None;
    for r in 0..reps + 2 {
        let t1 = Instant::now();
        patched = Some(base.update_points(&moved).unwrap());
        let t = t1.elapsed().as_secs_f64();
        eprintln!("  patch rep {r}: {t:.4}s");
        update_seconds = update_seconds.min(t);
    }
    let patched = patched.unwrap();
    assert_eq!(
        patched.tree.nodes.len(),
        fresh.tree.nodes.len(),
        "patched and fresh trees must agree on the node count"
    );
    let ratio = update_seconds / build_seconds.max(1e-12);
    println!(
        "\nincremental update: rebuild {build_seconds:.4}s vs patch {update_seconds:.4}s \
         ({:.1}x faster, {:.0}% of points moved)",
        1.0 / ratio.max(1e-12),
        100.0 * moved_fraction
    );

    if let Err(why) = gate(&unequal_ranks, ratio) {
        eprintln!("FAIL: {why}");
        std::process::exit(1);
    }
    println!("OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_build_equivalence_and_the_update_ratio() {
        assert!(gate(&[], MAX_UPDATE_RATIO).is_ok());
        assert!(gate(&[], MAX_UPDATE_RATIO + 1e-9).is_err());
        assert!(gate(&[], f64::NAN).is_err());
        assert!(gate(&[4], 0.1).is_err());
    }
}
