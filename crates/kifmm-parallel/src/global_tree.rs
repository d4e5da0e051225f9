//! Distributed tree generation (paper §3.1): "All processors begin at
//! level 0 with the same box … At every level l, each processor puts its
//! local number of points in boxes at level l into its local copy of the
//! global tree array. Then, an `MPI_Allreduce` is used over all local
//! copies … to sum up the local number of points for each box … By
//! comparing each box's global number of points with `s`, each processor
//! can decide whether a box in level l should be further subdivided."
//!
//! [`build_distributed_tree_with`] is that algorithm. The per-level
//! Allreduce is the *count provider* of the one refinement loop,
//! [`kifmm_tree::refine_sorted_codes`] — the loop the serial build runs
//! with local counts as global counts — so a serial build over the union
//! of the points produces the same boxes, bit for bit. This module holds
//! only what is distributed: the Allreduced domain, the root count and
//! the per-level Allreduce.
//!
//! The build's collectives are `depth + 3` Allreduces — the domain's two
//! bounds, the root count, and one per refined level — so its traffic
//! grows with the tree's depth, not with the rank count alone: on the
//! rank-0-rooted substrate each costs `2(P − 1)` messages. That is the
//! paper's own non-scalable set-up phase (§4, discussion point 5),
//! reproduced on purpose.
//!
//! The result on every rank is the same *global structure tree* (the
//! paper's compact global tree array: counts + child indices), with
//! rank-local point ranges attached — the paper notes the array for a
//! 200M-point run is under 16 MB, i.e. it deliberately fits on every rank.

use kifmm_geom::Point3;
use kifmm_mpi::{allreduce_f64, allreduce_u64, Comm, ReduceOp};
use kifmm_tree::{morton_codes, refine_sorted_codes, sort_codes, Domain, Octree, TreeBuild};

/// The per-rank view of the globally agreed computation tree.
pub struct DistributedTree {
    /// Tree with global structure and rank-local point ranges.
    pub tree: Octree,
    /// Global point count per box (the global tree array payload).
    pub global_counts: Vec<u64>,
    /// This rank's points in Morton order (aligned with the tree's ranges).
    pub sorted_points: Vec<Point3>,
}

/// Build the distributed computation tree: Allreduce the domain, then
/// refine level by level with one Allreduce of the candidate children's
/// counts per level (see the module docs). The tree equals
/// `Octree::build` over the union of every rank's points — same node
/// array, same levels, global counts equal to the serial point counts.
///
/// The fifth argument survives only because `benchmark/src/traced.rs`
/// (frozen with `BENCHMARK.json`) passes `opts.tree_build`; [`TreeBuild`]
/// has one variant and is read nowhere (ROADMAP item 1(a)).
///
/// Collective: every rank must call with the same `s`/`max_level`.
/// A rank may hold zero points only if some other rank holds at least one.
pub fn build_distributed_tree_with(
    comm: &Comm,
    local_points: &[Point3],
    max_pts_per_leaf: usize,
    max_level: u8,
    _algo: TreeBuild,
) -> DistributedTree {
    assert!(max_pts_per_leaf >= 1);
    // Agree on the global domain.
    let (mut lo, mut hi) = Domain::bounds(local_points);
    allreduce_f64(comm, &mut lo, ReduceOp::Min);
    allreduce_f64(comm, &mut hi, ReduceOp::Max);
    assert!(lo[0].is_finite(), "global point set is empty");
    let domain = Domain::from_bounds(lo, hi);

    // The serial build's curve order over the local points.
    let codes = morton_codes(local_points, &domain).unwrap_or_else(|(point, dim)| {
        panic!("rank {}: point {point} is not finite along axis {dim}", comm.rank())
    });
    let (sorted_codes, perm) = sort_codes(&codes);
    let sorted_points: Vec<Point3> = perm.iter().map(|&i| local_points[i as usize]).collect();

    let mut root = [local_points.len() as u64];
    allreduce_u64(comm, &mut root, ReduceOp::Sum);
    let (nodes, global_counts, levels) =
        refine_sorted_codes(&sorted_codes, max_pts_per_leaf, max_level, root[0], |_keys, local| {
            let mut global = local.to_vec();
            allreduce_u64(comm, &mut global, ReduceOp::Sum);
            global
        });

    let tree = Octree::from_parts(domain, nodes, perm, levels);
    DistributedTree { tree, global_counts, sorted_points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_geom::uniform_cube;
    use kifmm_mpi::run;
    use kifmm_tree::{partition_points, MAX_LEVEL, NO_NODE};

    fn split(points: &[Point3], ranks: usize) -> Vec<Vec<Point3>> {
        partition_points(points, ranks).gather(points)
    }

    /// A uniform cloud, and a tight cluster over a uniform background
    /// (forces deep refinement, so whole subtrees live on few ranks).
    fn clouds() -> [Vec<Point3>; 2] {
        let mut clustered = uniform_cube(1500, 9);
        for p in uniform_cube(500, 10) {
            clustered.push([p[0] * 0.01 + 0.4, p[1] * 0.01 + 0.4, p[2] * 0.01 + 0.4]);
        }
        [uniform_cube(3000, 77), clustered]
    }

    #[test]
    fn structure_matches_serial_tree() {
        for all in clouds() {
            let serial = Octree::build(&all, 30, MAX_LEVEL);
            let serial_keys: Vec<_> = serial.nodes.iter().map(|n| n.key).collect();
            let serial_counts: Vec<u64> =
                serial.nodes.iter().map(|n| n.num_points() as u64).collect();
            for ranks in [1, 2, 4, 8] {
                let chunks = split(&all, ranks);
                let out = run(ranks, move |comm| {
                    let dt = build_distributed_tree_with(
                        comm,
                        &chunks[comm.rank()],
                        30,
                        MAX_LEVEL,
                        TreeBuild::Paper,
                    );
                    let keys: Vec<_> = dt.tree.nodes.iter().map(|n| n.key).collect();
                    (keys, dt.tree.levels, dt.global_counts)
                });
                for (keys, levels, counts) in out {
                    assert_eq!(keys, serial_keys, "P = {ranks}: keys");
                    assert_eq!(levels, serial.levels, "P = {ranks}: levels");
                    assert_eq!(counts, serial_counts, "P = {ranks}: global counts");
                }
            }
        }
    }

    #[test]
    fn build_sends_depth_plus_three_allreduces() {
        // Two domain bounds, the root count and one per refined level, each
        // a rank-0-rooted Allreduce of 2(P − 1) messages.
        for all in clouds() {
            for ranks in [1, 2, 4, 8] {
                let chunks = split(&all, ranks);
                let out = run(ranks, move |comm| {
                    let before = comm.stats().messages_sent;
                    let dt = build_distributed_tree_with(
                        comm,
                        &chunks[comm.rank()],
                        30,
                        MAX_LEVEL,
                        TreeBuild::Paper,
                    );
                    (comm.stats().messages_sent - before, dt.tree.depth() as u64)
                });
                let sent: u64 = out.iter().map(|r| r.0).sum();
                let depth = out[0].1;
                assert!(depth > 0);
                let expect = 2 * (ranks as u64 - 1) * (depth + 3);
                assert_eq!(sent, expect, "P = {ranks}, depth {depth}");
            }
        }
    }

    #[test]
    fn local_ranges_partition_local_points() {
        let all = uniform_cube(2000, 5);
        let chunks = split(&all, 3);
        run(3, move |comm| {
            let local = &chunks[comm.rank()];
            let dt = build_distributed_tree_with(comm, local, 30, MAX_LEVEL, TreeBuild::Paper);
            // Root covers all local points.
            assert_eq!(dt.tree.nodes[0].num_points(), local.len());
            // Children partition parents.
            for nd in &dt.tree.nodes {
                if nd.is_leaf() {
                    continue;
                }
                let mut cursor = nd.pt_start;
                for &c in &nd.children {
                    if c == NO_NODE {
                        continue;
                    }
                    let ch = &dt.tree.nodes[c as usize];
                    assert_eq!(ch.pt_start, cursor);
                    cursor = ch.pt_end;
                }
                assert_eq!(cursor, nd.pt_end);
            }
        });
    }

    #[test]
    fn rank_with_no_points_participates() {
        let all = uniform_cube(500, 13);
        run(3, move |comm| {
            // Rank 2 holds nothing.
            let local: Vec<Point3> = if comm.rank() == 2 { Vec::new() } else { all.clone() };
            let dt = build_distributed_tree_with(comm, &local, 50, MAX_LEVEL, TreeBuild::Paper);
            assert!(dt.global_counts[0] >= 500);
            if comm.rank() == 2 {
                assert_eq!(dt.tree.nodes[0].num_points(), 0);
            }
        });
    }

    #[test]
    fn boxes_exist_where_any_rank_has_points() {
        // Two ranks with disjoint clusters: each rank's tree must contain
        // boxes covering the *other* rank's cluster.
        let a: Vec<Point3> = uniform_cube(400, 1)
            .into_iter()
            .map(|p| [p[0] * 0.05 - 0.9, p[1] * 0.05 - 0.9, p[2] * 0.05 - 0.9])
            .collect();
        let b: Vec<Point3> = uniform_cube(400, 2)
            .into_iter()
            .map(|p| [p[0] * 0.05 + 0.9, p[1] * 0.05 + 0.9, p[2] * 0.05 + 0.9])
            .collect();
        run(2, move |comm| {
            let local = if comm.rank() == 0 { &a } else { &b };
            let dt = build_distributed_tree_with(comm, local, 20, MAX_LEVEL, TreeBuild::Paper);
            // Some box has global points but no local points.
            let ghost_boxes = dt
                .tree
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, nd)| dt.global_counts[*i] > 0 && nd.num_points() == 0)
                .count();
            assert!(ghost_boxes > 0, "must materialize remote-only boxes");
        });
    }

    #[test]
    fn coincident_points_across_ranks_stop_at_max_level() {
        // Every rank holds copies of the same point: no refinement can
        // separate them, so the build must stop at max_level with the
        // serial tree over all 40 copies.
        let serial = Octree::build(&[[0.1, 0.2, 0.3]; 40], 4, 6);
        let serial_keys: Vec<_> = serial.nodes.iter().map(|n| n.key).collect();
        run(4, move |comm| {
            let local = vec![[0.1, 0.2, 0.3]; 10];
            let dt = build_distributed_tree_with(comm, &local, 4, 6, TreeBuild::Paper);
            assert_eq!(dt.tree.depth(), 6);
            assert_eq!(dt.global_counts[0], 40);
            let keys: Vec<_> = dt.tree.nodes.iter().map(|n| n.key).collect();
            assert_eq!(keys, serial_keys);
        });
    }
}
