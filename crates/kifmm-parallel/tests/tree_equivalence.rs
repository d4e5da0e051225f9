//! Property sweep for the distributed tree build: for random point
//! distributions (uniform, clustered, degenerate plane/line,
//! duplicate-heavy) scattered across random rank counts by random
//! ownership strategies, the paper's per-level-Allreduce build and the
//! serial [`Octree::build`] over the union must agree exactly: the same
//! node array, the same global counts, and — for every node — the same
//! multiset of points, the union over ranks of each rank's slice
//! `sorted_points[pt_start..pt_end]` against the serial tree's slice.
//!
//! The serial comparison only holds when every point is inside the
//! distributed domain *and* the domains match; the distributed build
//! computes its bounding cube by Allreduce over exactly the same points,
//! so it does. What the sweep is really hunting is ownership
//! pathologies: duplicate Morton keys split across ranks, empty ranks,
//! one rank hoarding everything, or clusters so tight that whole subtrees
//! live on one rank while the others see none of it.

use kifmm_mpi::run;
use kifmm_parallel::build_distributed_tree_with;
use kifmm_testkit::{check, Gen};
use kifmm_tree::{MortonKey, Octree, TreeBuild, MAX_LEVEL};
use std::sync::Arc;

/// Random point cloud of one of four shapes (uniform cube, tight
/// cluster + background, degenerate plane/line, duplicate-heavy).
fn random_points(g: &mut Gen) -> Vec<[f64; 3]> {
    let n = g.usize(40, 700);
    let shape = g.usize(0, 4);
    let mut pts = Vec::with_capacity(n);
    match shape {
        // Uniform cube.
        0 => {
            for _ in 0..n {
                pts.push([g.f64(0.0, 1.0), g.f64(0.0, 1.0), g.f64(0.0, 1.0)]);
            }
        }
        // Tight cluster (forces deep refinement) over a sparse background.
        1 => {
            let c = [g.f64(0.2, 0.8), g.f64(0.2, 0.8), g.f64(0.2, 0.8)];
            let w = g.f64(1e-5, 1e-2);
            for i in 0..n {
                if i % 4 == 0 {
                    pts.push([g.f64(0.0, 1.0), g.f64(0.0, 1.0), g.f64(0.0, 1.0)]);
                } else {
                    pts.push([
                        c[0] + g.f64(-w, w),
                        c[1] + g.f64(-w, w),
                        c[2] + g.f64(-w, w),
                    ]);
                }
            }
        }
        // Degenerate: all points on an axis-aligned plane or line.
        2 => {
            let fixed = g.f64(0.0, 1.0);
            let line = g.usize(0, 2) == 0;
            for _ in 0..n {
                let (a, b) = (g.f64(0.0, 1.0), g.f64(0.0, 1.0));
                pts.push(if line { [a, fixed, fixed] } else { [a, b, fixed] });
            }
        }
        // Duplicate-heavy: few distinct sites, many copies each — the
        // worst case for splitter selection (equal keys must never
        // straddle a rank boundary).
        _ => {
            let sites = g.usize(1, 8);
            let base: Vec<[f64; 3]> = (0..sites)
                .map(|_| [g.f64(0.0, 1.0), g.f64(0.0, 1.0), g.f64(0.0, 1.0)])
                .collect();
            for i in 0..n {
                pts.push(base[i % sites]);
            }
        }
    }
    pts
}

/// Scatter `all` across `ranks` by one of four ownership strategies.
fn random_split(g: &mut Gen, all: &[[f64; 3]], ranks: usize) -> Vec<Vec<[f64; 3]>> {
    let mut chunks = vec![Vec::new(); ranks];
    match g.usize(0, 4) {
        // Contiguous equal chunks.
        0 => {
            for (i, &p) in all.iter().enumerate() {
                chunks[i * ranks / all.len().max(1)].push(p);
            }
        }
        // Round-robin.
        1 => {
            for (i, &p) in all.iter().enumerate() {
                chunks[i % ranks].push(p);
            }
        }
        // One rank hoards everything; the rest start empty.
        2 => {
            let hoarder = g.usize(0, ranks);
            chunks[hoarder].extend_from_slice(all);
        }
        // Independent random owner per point (some ranks may be empty).
        _ => {
            for &p in all {
                let r = g.usize(0, ranks);
                chunks[r].push(p);
            }
        }
    }
    chunks
}

/// A point's exact bits, so multisets of points compare exactly.
fn bits(p: &[f64; 3]) -> [u64; 3] {
    p.map(f64::to_bits)
}

#[test]
fn distributed_and_serial_agree_on_random_inputs() {
    check("tree_equivalence", 24, |g| {
        let all = random_points(g);
        let ranks = [1usize, 2, 4, 8][g.usize(0, 4)];
        let leaf = g.usize(4, 64);
        let max_level = [6u8, MAX_LEVEL][g.usize(0, 2)];
        let chunks = Arc::new(random_split(g, &all, ranks));

        // Serial reference over the union (the distributed domain is the
        // Allreduce bounding cube of the same points, so they coincide).
        let serial = Octree::build(&all, leaf, max_level);
        let serial_keys: Vec<MortonKey> = serial.nodes.iter().map(|n| n.key).collect();
        let serial_counts: Vec<u64> =
            serial.nodes.iter().map(|n| n.num_points() as u64).collect();

        let out = run(ranks, {
            let chunks = chunks.clone();
            move |comm| {
                let local = &chunks[comm.rank()];
                let dt =
                    build_distributed_tree_with(comm, local, leaf, max_level, TreeBuild::Paper);
                let keys: Vec<MortonKey> = dt.tree.nodes.iter().map(|n| n.key).collect();
                let slices: Vec<Vec<[u64; 3]>> = dt
                    .tree
                    .nodes
                    .iter()
                    .map(|n| {
                        dt.sorted_points[n.pt_start as usize..n.pt_end as usize]
                            .iter()
                            .map(bits)
                            .collect()
                    })
                    .collect();
                (keys, dt.global_counts, slices)
            }
        });
        // Per node, the multiset of points every rank placed in it.
        let mut placed: Vec<Vec<[u64; 3]>> = vec![Vec::new(); serial.num_nodes()];
        for (keys, counts, slices) in out {
            kifmm_testkit::prop_assert_eq!(
                keys,
                serial_keys,
                "distributed vs serial keys (P={ranks}, n={}, s={leaf})",
                all.len()
            );
            kifmm_testkit::prop_assert_eq!(
                counts,
                serial_counts,
                "distributed vs serial counts"
            );
            for (node, slice) in placed.iter_mut().zip(slices) {
                node.extend(slice);
            }
        }
        for (i, (nd, mut got)) in serial.nodes.iter().zip(placed).enumerate() {
            let mut expect: Vec<[u64; 3]> = serial.perm[nd.pt_start as usize..nd.pt_end as usize]
                .iter()
                .map(|&j| bits(&all[j as usize]))
                .collect();
            got.sort_unstable();
            expect.sort_unstable();
            kifmm_testkit::prop_assert_eq!(
                got,
                expect,
                "points of node {i} ({:?}), union over ranks vs serial",
                nd.key
            );
        }
    });
}
