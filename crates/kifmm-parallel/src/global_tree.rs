//! Distributed tree generation (paper §3.1), two algorithms.
//!
//! **Paper** ([`TreeBuild::Paper`]): "All processors begin at level 0 with
//! the same box … At every level l, each processor puts its local number
//! of points in boxes at level l into its local copy of the global tree
//! array. Then, an `MPI_Allreduce` is used over all local copies … to sum
//! up the local number of points for each box … By comparing each box's
//! global number of points with `s`, each processor can decide whether a
//! box in level l should be further subdivided." One Allreduce per level,
//! i.e. O(depth) collectives.
//!
//! **SampleSort** ([`TreeBuild::SampleSort`], the default): a parallel
//! sample sort of the max-depth Morton codes replaces the per-level
//! Allreduce with O(1) collectives. Each rank receives one
//! value-contiguous chunk of the globally sorted code array, summarizes
//! it into a compact set of disjoint boxes with exact global counts
//! ([`chunk_summary`]), and allgathers the summaries once. The resulting
//! [`GlobalCounts`] oracle answers every "global points in box b" query
//! of the level-by-level loop locally.
//!
//! Both are *count providers* for the one refinement loop,
//! [`kifmm_tree::refine_sorted_codes`] — the loop the serial build runs
//! with local counts as global counts — so they produce bitwise-identical
//! structure, and a serial build over the union of the points produces the
//! same boxes. This module holds only what is distributed: the Allreduced
//! bounds, the two providers, and the collective error verdicts.
//!
//! The result on every rank is the same *global structure tree* (the
//! paper's compact global tree array: counts + child indices), with
//! rank-local point ranges attached — the paper notes the array for a
//! 200M-point run is under 16 MB, i.e. it deliberately fits on every rank.

use kifmm_geom::Point3;
use kifmm_mpi::{
    allgatherv_u64, allreduce_f64, allreduce_u64, sample_sort_u64, Comm, ReduceOp,
};
use kifmm_tree::{
    chunk_summary, morton_codes, refine_sorted_codes, sort_codes, Domain, GlobalCounts, MortonKey,
    Octree, SummaryEntry, TreeBuild,
};

/// The per-rank view of the globally agreed computation tree.
pub struct DistributedTree {
    /// Tree with global structure and rank-local point ranges.
    pub tree: Octree,
    /// Global point count per box (the global tree array payload).
    pub global_counts: Vec<u64>,
    /// This rank's points in Morton order (aligned with the tree's ranges).
    pub sorted_points: Vec<Point3>,
}

/// Build the distributed computation tree with `algo`
/// (`TreeBuild::default()` is [`TreeBuild::SampleSort`]).
///
/// Both algorithms produce bitwise-identical structure (same node array,
/// same levels, same global counts); they differ only in how the global
/// per-box counts are obtained (see the module docs).
///
/// Collective: every rank must call with the same `s`/`max_level`/`algo`.
/// A rank may hold zero points only if some other rank holds at least one.
pub fn build_distributed_tree_with(
    comm: &Comm,
    local_points: &[Point3],
    max_pts_per_leaf: usize,
    max_level: u8,
    algo: TreeBuild,
) -> DistributedTree {
    assert!(max_pts_per_leaf >= 1);
    // Agree on the global domain.
    let (mut lo, mut hi) = Domain::bounds(local_points);
    allreduce_f64(comm, &mut lo, ReduceOp::Min);
    allreduce_f64(comm, &mut hi, ReduceOp::Max);
    assert!(lo[0].is_finite(), "global point set is empty");
    let domain = Domain::from_bounds(lo, hi);

    // The serial build's curve order over the local points.
    let n = local_points.len();
    let codes = morton_codes(local_points, &domain).unwrap_or_else(|(point, dim)| {
        panic!("rank {}: point {point} is not finite along axis {dim}", comm.rank())
    });
    let (sorted_codes, perm) = sort_codes(&codes);
    let sorted_points: Vec<Point3> = perm.iter().map(|&i| local_points[i as usize]).collect();

    let (nodes, global_counts, levels) = match algo {
        TreeBuild::Paper => {
            let root_global = {
                let mut c = vec![n as u64];
                allreduce_u64(comm, &mut c, ReduceOp::Sum);
                c[0]
            };
            refine_sorted_codes(
                &sorted_codes,
                max_pts_per_leaf,
                max_level,
                root_global,
                |_keys, local| {
                    let mut g = local.to_vec();
                    allreduce_u64(comm, &mut g, ReduceOp::Sum);
                    g
                },
            )
        }
        TreeBuild::SampleSort => {
            let oracle = build_counts_oracle(comm, &sorted_codes, max_pts_per_leaf, max_level);
            refine_sorted_codes(
                &sorted_codes,
                max_pts_per_leaf,
                max_level,
                oracle.total(),
                |keys, _local| keys.iter().map(|k| oracle.count(k)).collect(),
            )
        }
    };

    let tree = Octree::from_parts(domain, nodes, perm, levels);
    DistributedTree { tree, global_counts, sorted_points }
}

/// Sample-sort the max-depth codes and allgather per-chunk summaries into
/// a [`GlobalCounts`] oracle. O(1) collectives: one inside the sample
/// sort's sampling step, one alltoallv for the exchange, and two
/// allgathers here (chunk ranges, then summaries).
fn build_counts_oracle(
    comm: &Comm,
    sorted_codes: &[u64],
    max_pts_per_leaf: usize,
    max_level: u8,
) -> GlobalCounts {
    let chunk = sample_sort_u64(comm, sorted_codes);
    // Every rank's chunk is a value-contiguous range of the global sorted
    // array; publish [first, last] so each rank knows which of its boxes
    // are *private* (no other rank holds codes inside them).
    let my_range: Vec<u64> = match (chunk.first(), chunk.last()) {
        (Some(&f), Some(&l)) => vec![f, l],
        _ => Vec::new(),
    };
    let ranges = allgatherv_u64(comm, &my_range);
    let me = comm.rank();
    let others: Vec<(u64, u64)> = ranges
        .iter()
        .enumerate()
        .filter(|&(r, v)| r != me && v.len() == 2)
        .map(|(_, v)| (v[0], v[1]))
        .collect();
    // A half-open code range [lo, hi) is private iff every other rank's
    // inclusive [first, last] range misses it entirely.
    let private = |lo: u64, hi: u64| others.iter().all(|&(f, l)| l < lo || f >= hi);
    let summaries = chunk_summary(&chunk, max_pts_per_leaf, max_level, &private);
    // Wire format: (morton code, count) pairs.
    let wire: Vec<u64> =
        summaries.iter().flat_map(|e| [e.key.morton_code(), e.count]).collect();
    let entries: Vec<SummaryEntry> = allgatherv_u64(comm, &wire)
        .iter()
        .flat_map(|v| {
            v.chunks_exact(2)
                .map(|c| SummaryEntry { key: MortonKey::from_code(c[0]), count: c[1] })
        })
        .collect();
    GlobalCounts::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_geom::uniform_cube;
    use kifmm_mpi::run;
    use kifmm_tree::{partition_points, MAX_LEVEL, NO_NODE};

    const ALGOS: [TreeBuild; 2] = [TreeBuild::SampleSort, TreeBuild::Paper];

    fn split(points: &[Point3], ranks: usize) -> Vec<Vec<Point3>> {
        partition_points(points, ranks).gather(points)
    }

    #[test]
    fn structure_matches_serial_tree() {
        let all = uniform_cube(3000, 77);
        let ranks = 4;
        let chunks = split(&all, ranks);
        let serial = Octree::build(&all, 40, MAX_LEVEL);
        let serial_keys: Vec<_> = serial.nodes.iter().map(|n| n.key).collect();
        for algo in ALGOS {
            let chunks = chunks.clone();
            let out = run(ranks, move |comm| {
                let dt =
                    build_distributed_tree_with(comm, &chunks[comm.rank()], 40, MAX_LEVEL, algo);
                let keys: Vec<_> = dt.tree.nodes.iter().map(|n| n.key).collect();
                let counts = dt.global_counts.clone();
                (keys, counts)
            });
            for (keys, counts) in out {
                assert_eq!(keys, serial_keys, "distributed {algo:?} structure equals serial");
                for (i, &c) in counts.iter().enumerate() {
                    assert_eq!(c as usize, serial.nodes[i].num_points(), "global counts");
                }
            }
        }
    }

    #[test]
    fn sample_sort_and_paper_builds_are_bitwise_identical() {
        // The tentpole gate, at unit level: identical node arrays, levels,
        // permutations and global counts, including for clustered inputs
        // that force deep refinement.
        let mut all = uniform_cube(1500, 9);
        for p in uniform_cube(500, 10) {
            all.push([p[0] * 0.01 + 0.4, p[1] * 0.01 + 0.4, p[2] * 0.01 + 0.4]);
        }
        for ranks in [1, 2, 4, 8] {
            let chunks = split(&all, ranks);
            let out = run(ranks, move |comm| {
                let a = build_distributed_tree_with(
                    comm,
                    &chunks[comm.rank()],
                    30,
                    MAX_LEVEL,
                    TreeBuild::SampleSort,
                );
                let b = build_distributed_tree_with(
                    comm,
                    &chunks[comm.rank()],
                    30,
                    MAX_LEVEL,
                    TreeBuild::Paper,
                );
                assert!(a.tree.structure_eq(&b.tree), "P={} structure differs", comm.size());
                assert_eq!(a.global_counts, b.global_counts, "global counts differ");
                assert_eq!(a.sorted_points, b.sorted_points);
            });
            drop(out);
        }
    }

    #[test]
    fn local_ranges_partition_local_points() {
        let all = uniform_cube(2000, 5);
        let chunks = split(&all, 3);
        for algo in ALGOS {
            let chunks = chunks.clone();
            run(3, move |comm| {
                let local = &chunks[comm.rank()];
                let dt = build_distributed_tree_with(comm, local, 30, MAX_LEVEL, algo);
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
    }

    #[test]
    fn rank_with_no_points_participates() {
        let all = uniform_cube(500, 13);
        for algo in ALGOS {
            let all = all.clone();
            run(3, move |comm| {
                // Rank 2 holds nothing.
                let local: Vec<Point3> =
                    if comm.rank() == 2 { Vec::new() } else { all.clone() };
                let dt = build_distributed_tree_with(comm, &local, 50, MAX_LEVEL, algo);
                assert!(dt.global_counts[0] >= 500);
                if comm.rank() == 2 {
                    assert_eq!(dt.tree.nodes[0].num_points(), 0);
                }
            });
        }
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
        for algo in ALGOS {
            let (a2, b2) = (a.clone(), b.clone());
            run(2, move |comm| {
                let local = if comm.rank() == 0 { &a2 } else { &b2 };
                let dt = build_distributed_tree_with(comm, local, 20, MAX_LEVEL, algo);
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
    }

    #[test]
    fn coincident_points_across_ranks_stop_at_max_level() {
        // Every rank holds copies of the same two points: no refinement
        // can separate them, so both algorithms must stop at max_level
        // and still agree.
        run(4, |comm| {
            let local = vec![[0.1, 0.2, 0.3]; 10];
            let a =
                build_distributed_tree_with(comm, &local, 4, 6, TreeBuild::SampleSort);
            let b = build_distributed_tree_with(comm, &local, 4, 6, TreeBuild::Paper);
            assert!(a.tree.structure_eq(&b.tree));
            assert_eq!(a.tree.depth(), 6);
            assert_eq!(a.global_counts, b.global_counts);
        });
    }
}
