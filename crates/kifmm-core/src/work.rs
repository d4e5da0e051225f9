//! Per-point workload estimation — the paper's stated future work.
//!
//! §3.1: "No additional load balancing information is used besides the
//! number of particles. Work estimates from a previous time step could be
//! used to obtain more balanced partitioning." §5 lists the "inefficient
//! load balancing algorithm" as one of the two known problems and plans to
//! "use workload information from previous time steps for load balancing".
//!
//! This module supplies those work estimates: given a built tree and its
//! interaction lists, it predicts the flops each *point* will cost in one
//! interaction evaluation — U-list density (the term particle counts miss
//! entirely), V/X traffic of every ancestor box, W-list and translation
//! overheads. Feeding the result into the weighted Morton partitioner
//! (`kifmm_tree::partition_weighted_points`) re-balances the next
//! evaluation; the `ablation_balance` bench measures the improvement on
//! the paper's non-uniform corner-clustered workload.

use crate::surface::num_surface_points;
use kifmm_kernels::Kernel;
use kifmm_tree::{InteractionLists, Octree, NO_NODE};

/// Predicted flops per point of each *leaf*, indexed by node id (zero for
/// internal boxes). `count` supplies the per-box point count — pass global
/// counts in the distributed setting, where the local tree only holds this
/// rank's ranges.
pub fn leaf_work_rates<K: Kernel>(
    kernel: &K,
    tree: &Octree,
    lists: &InteractionLists,
    order: usize,
    count: impl Fn(u32) -> f64,
) -> Vec<f64> {
    let ns = num_surface_points(order) as f64;
    let kf = kernel.flops_per_eval() as f64;
    let es = ns * kernel.src_dim() as f64;
    let cs = ns * kernel.trg_dim() as f64;
    let m3 = (2 * order).pow(3) as f64;
    let hadamard = (kernel.src_dim() * kernel.trg_dim()) as f64 * m3 * 8.0;
    let nn = tree.num_nodes();

    // Box-level work spread over the box's points, accumulated down the
    // tree so a leaf's rate includes every ancestor's share.
    let mut rate = vec![0.0_f64; nn];
    for ni in 0..nn as u32 {
        let node = &tree.nodes[ni as usize];
        let cnt = count(ni).max(1.0);
        let mut w = 0.0;
        // Up + down check-to-equivalent inversions and L2L/M2M shares.
        w += 6.0 * cs * es;
        // M2L: Hadamard products plus amortized FFTs.
        let nv = lists.v[ni as usize].len() as f64;
        if nv > 0.0 {
            w += nv * hadamard + 10.0 * m3 * m3.log2();
        }
        // X list: sources of coarser leaves onto this box's check surface.
        for &a in &lists.x[ni as usize] {
            w += count(a) * ns * kf;
        }
        let parent_rate =
            if node.parent == NO_NODE { 0.0 } else { rate[node.parent as usize] };
        rate[ni as usize] = parent_rate + w / cnt;
    }

    // Leaf-level per-point terms.
    let mut out = vec![0.0_f64; nn];
    for ni in tree.leaves() {
        let mut w = rate[ni as usize];
        // S2M + L2T per point.
        w += 2.0 * ns * kf;
        // Dense U interactions: each target visits every source of every
        // U member — the dominant term for crowded leaves.
        for &a in &lists.u[ni as usize] {
            w += count(a) * kf;
        }
        // W members evaluated at each target.
        w += lists.w[ni as usize].len() as f64 * ns * kf;
        out[ni as usize] = w;
    }
    out
}

/// Per-point work estimates in the caller's original point order
/// (the weights to hand to `partition_weighted_points`).
pub fn point_work_estimates<K: Kernel>(
    kernel: &K,
    tree: &Octree,
    lists: &InteractionLists,
    order: usize,
    count: impl Fn(u32) -> f64,
) -> Vec<f64> {
    let rates = leaf_work_rates(kernel, tree, lists, order, count);
    let mut sorted = vec![0.0; tree.perm.len()];
    for ni in tree.leaves() {
        let node = &tree.nodes[ni as usize];
        for i in node.pt_start..node.pt_end {
            sorted[i as usize] = rates[ni as usize];
        }
    }
    tree.from_morton(&sorted, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::Laplace;
    use kifmm_tree::build_lists;

    fn clustered(n: usize) -> Vec<[f64; 3]> {
        let mut s = 5u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            if i % 2 == 0 {
                pts.push([next(), next(), next()]);
            } else {
                pts.push([0.9 + next() * 0.05, 0.9 + next() * 0.05, 0.9 + next() * 0.05]);
            }
        }
        pts
    }

    #[test]
    fn estimates_cover_every_point_and_are_positive() {
        let pts = clustered(2000);
        let tree = Octree::build(&pts, 20, 19);
        let lists = build_lists(&tree);
        let w = point_work_estimates(&Laplace, &tree, &lists, 6, |b| {
            tree.nodes[b as usize].num_points() as f64
        });
        assert_eq!(w.len(), 2000);
        assert!(w.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn clustered_points_cost_more() {
        // Points in the dense corner cluster sit in crowded leaves with
        // fat U lists; their per-point estimate must exceed the sparse
        // bulk's median.
        let pts = clustered(4000);
        let tree = Octree::build(&pts, 30, 19);
        let lists = build_lists(&tree);
        let w = point_work_estimates(&Laplace, &tree, &lists, 6, |b| {
            tree.nodes[b as usize].num_points() as f64
        });
        let cluster: Vec<f64> = pts
            .iter()
            .zip(&w)
            .filter(|(p, _)| p[0] > 0.8 && p[1] > 0.8 && p[2] > 0.8)
            .map(|(_, &v)| v)
            .collect();
        let bulk: Vec<f64> = pts
            .iter()
            .zip(&w)
            .filter(|(p, _)| p[0] < 0.5)
            .map(|(_, &v)| v)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&cluster) > 1.5 * mean(&bulk),
            "cluster {} vs bulk {}",
            mean(&cluster),
            mean(&bulk)
        );
    }

    #[test]
    fn estimates_track_total_measured_flops() {
        // The summed estimate should land within a factor ~2 of the real
        // counted flops (it is an a-priori model, not an exact charge).
        let pts = clustered(3000);
        let dens = vec![1.0; 3000];
        let fmm = crate::Fmm::builder(Laplace)
            .points(&pts)
            .options(crate::FmmOptions { order: 6, max_pts_per_leaf: 30, ..Default::default() })
            .build();
        let lists = build_lists(&fmm.tree);
        let w = point_work_estimates(&Laplace, &fmm.tree, &lists, 6, |b| {
            fmm.tree.nodes[b as usize].num_points() as f64
        });
        let predicted: f64 = w.iter().sum();
        let stats = fmm.eval(&dens).stats;
        let measured = stats.total_flops() as f64;
        let ratio = predicted / measured;
        assert!(
            (0.4..2.5).contains(&ratio),
            "prediction {predicted:.3e} vs measured {measured:.3e} (ratio {ratio:.2})"
        );
    }
}
