//! Incremental octree update for time-stepping workloads.
//!
//! When points move a little between time steps (the sedimentation
//! example's spheres), rebuilding the tree from scratch repeats a full
//! sort and structure derivation whose answer is almost unchanged. This
//! module re-sorts the new Morton codes using the *old permutation as a
//! near-sorted hint* — points that stayed in curve order ride along for
//! free, only the displaced minority is sorted and merged back — and then
//! re-derives the structure from the sorted array with the same
//! refinement loop a fresh build runs
//! ([`crate::linearize::structure_from_sorted_codes`]), so only the sort
//! is incremental. The order is the `(code, index)` order of
//! [`crate::morton::sort_codes`] on every branch: the patched tree *is*
//! the fresh build's tree over the same domain, permutation included.
//!
//! Out-of-domain drift is a hard error, not a clamp: the old domain is
//! fixed (operator tables are scaled to it), so a point outside it must
//! force a re-root/rebuild. See [`crate::morton::morton_codes`].

use crate::linearize::structure_from_sorted_codes;
use crate::morton::{morton_codes, sort_codes, sort_pairs};
use crate::octree::Octree;
use kifmm_runtime::{num_threads, par_each, zip_eq};

/// Why an incremental update could not be applied. Both cases mean the
/// caller must fall back to a full rebuild over a fresh domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// `points[point]` drifted outside the tree's computational domain in
    /// dimension `dim`; the domain (and the operator tables scaled to it)
    /// no longer covers the cloud.
    DomainOverflow {
        /// Index of the first offending point.
        point: usize,
        /// Dimension (0/1/2) in which it left the cube.
        dim: usize,
    },
    /// The update re-bins the *same* point set; the count changed.
    PointCountChanged {
        /// Points the tree was built over.
        old: usize,
        /// Points handed to the update.
        new: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DomainOverflow { point, dim } => write!(
                f,
                "point {point} drifted outside the computational domain in dimension {dim}; \
                 rebuild over a fresh containing domain"
            ),
            UpdateError::PointCountChanged { old, new } => write!(
                f,
                "incremental update re-bins the same point set: tree has {old} points, got {new}"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Result of a successful [`update_octree`].
pub struct TreeUpdate {
    /// The patched tree (same domain as the old one).
    pub tree: Octree,
    /// True when the box structure — keys, levels, parent/child links —
    /// is unchanged, so interaction lists derived from the old tree
    /// remain valid wholesale. (Point ranges and the permutation may
    /// still differ.)
    pub same_structure: bool,
    /// Number of points displaced out of the old Morton order (0 means
    /// the re-sort was a single verification pass).
    pub moved: usize,
}

/// Above this displaced fraction (percent) the near-sorted merge loses to
/// a plain full sort, so the update falls back to one.
const FULL_SORT_PERCENT: usize = 25;

/// Patch `old` for the moved point set `new_points` (same length, same
/// identity — `new_points[i]` is the new position of point `i`).
///
/// The old permutation orders the new `(code, index)` pairs almost-sorted;
/// a greedy backbone scan keeps the in-order majority, sorts only the
/// displaced pairs, and merges. The order is the one [`sort_codes`] gives
/// and the structure is re-derived from the sorted codes, so the result is
/// exactly the tree a fresh build over `new_points` in the *same domain*
/// would produce, permutation included.
pub fn update_octree(
    old: &Octree,
    new_points: &[[f64; 3]],
    max_pts_per_leaf: usize,
    max_level: u8,
) -> Result<TreeUpdate, UpdateError> {
    let n = old.perm.len();
    if new_points.len() != n {
        return Err(UpdateError::PointCountChanged { old: n, new: new_points.len() });
    }
    let domain = old.domain;
    let codes = morton_codes(new_points, &domain)
        .map_err(|(point, dim)| UpdateError::DomainOverflow { point, dim })?;

    // Gather the codes into the old curve order (random access into the
    // compact code array, not the 3× wider point array), recording per
    // chunk whether its `(code, index)` pairs stayed increasing; a scan of
    // the chunk seams completes the sortedness verdict without another
    // pass over the permutation.
    const CHUNK: usize = 1 << 16;
    let chunks = n.div_ceil(CHUNK);
    let pair_at = |k: usize| (codes[old.perm[k] as usize], old.perm[k]);
    let mut in_old_order = vec![0u64; n];
    let mut chunk_sorted = vec![0u8; chunks];
    let pieces = zip_eq(in_old_order.chunks_mut(CHUNK), chunk_sorted.iter_mut());
    par_each(num_threads(), pieces, || (), |(), ci, (chunk, flag)| {
        let mut sorted = true;
        let mut last = (0u64, 0u32);
        for (slot, &i) in chunk.iter_mut().zip(&old.perm[ci * CHUNK..]) {
            let pair = (codes[i as usize], i);
            sorted &= last <= pair;
            last = pair;
            *slot = pair.0;
        }
        *flag = sorted as u8;
    });
    let still_sorted = chunk_sorted.iter().all(|&f| f == 1)
        && (1..chunks).all(|c| pair_at(c * CHUNK - 1) < pair_at(c * CHUNK));

    let (sorted_codes, perm, moved) = if still_sorted {
        // Fast path: motion below code resolution (or preserving the
        // curve order) leaves the old permutation valid — no pair vectors,
        // no sort, no merge.
        (in_old_order, old.perm.clone(), 0)
    } else {
        // Greedy backbone: walk the old permutation, keep every pair that
        // continues an increasing run, peel off the rest.
        let mut kept: Vec<(u64, u32)> = Vec::with_capacity(n);
        let mut displaced: Vec<(u64, u32)> = Vec::new();
        for pair in in_old_order.iter().copied().zip(old.perm.iter().copied()) {
            if kept.last().is_none_or(|&last| last < pair) {
                kept.push(pair);
            } else {
                displaced.push(pair);
            }
        }
        let moved = displaced.len();
        let (sorted_codes, perm) = if moved * 100 > n * FULL_SORT_PERCENT {
            // Too much motion for the hint to pay.
            sort_codes(&codes)
        } else {
            sort_pairs(&mut displaced);
            // Two sorted runs, which the standard stable sort detects
            // and merges.
            kept.append(&mut displaced);
            kept.sort();
            kept.into_iter().unzip()
        };
        (sorted_codes, perm, moved)
    };
    let (nodes, levels) = structure_from_sorted_codes(&sorted_codes, max_pts_per_leaf, max_level);
    let same_structure = nodes.len() == old.nodes.len()
        && nodes.iter().zip(&old.nodes).all(|(a, b)| {
            a.key == b.key && a.parent == b.parent && a.children == b.children
        });
    let tree = Octree::from_parts(domain, nodes, perm, levels);
    Ok(TreeUpdate { tree, same_structure, moved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::MAX_LEVEL;

    fn cloud(n: usize, mut seed: u64) -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
            })
            .collect()
    }

    /// Shrink toward the domain center and jitter: guaranteed in-domain
    /// motion of bounded size.
    fn perturb(pts: &[[f64; 3]], domain: &crate::octree::Domain, scale: f64) -> Vec<[f64; 3]> {
        let mut seed = 0x7717u64;
        pts.iter()
            .map(|p| {
                std::array::from_fn(|d| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let jitter = (((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * scale;
                    domain.center[d] + (p[d] - domain.center[d]) * (1.0 - 2.0 * scale) + jitter
                })
            })
            .collect()
    }

    /// The update must *be* the fresh build over the same domain:
    /// structure, point ranges and permutation.
    fn assert_matches_fresh(upd: &TreeUpdate, new_pts: &[[f64; 3]], s: usize, max_level: u8) {
        let fresh = Octree::build_in_domain(upd.tree.domain, new_pts, s, max_level);
        assert_eq!(upd.tree.nodes, fresh.nodes, "node arrays differ from fresh build");
        assert_eq!(upd.tree.perm, fresh.perm, "permutation differs from fresh build");
        assert!(upd.tree.structure_eq(&fresh));
    }

    #[test]
    fn small_motion_patches_to_fresh_structure() {
        let pts = cloud(1200, 99);
        let s = 30;
        let old = Octree::build(&pts, s, MAX_LEVEL);
        let new_pts = perturb(&pts, &old.domain, 1e-4);
        let upd = update_octree(&old, &new_pts, s, MAX_LEVEL).unwrap();
        assert!(
            upd.moved * 100 <= new_pts.len() * FULL_SORT_PERCENT,
            "tiny motion must stay on the near-sorted path (moved {})",
            upd.moved
        );
        assert_matches_fresh(&upd, &new_pts, s, MAX_LEVEL);
    }

    #[test]
    fn identical_points_reproduce_the_tree_exactly() {
        let pts = cloud(800, 3);
        let old = Octree::build(&pts, 25, MAX_LEVEL);
        let upd = update_octree(&old, &pts, 25, MAX_LEVEL).unwrap();
        assert_eq!(upd.moved, 0);
        assert!(upd.same_structure);
        assert!(upd.tree.structure_eq(&old), "no motion must reproduce the tree bitwise");
    }

    #[test]
    fn large_motion_falls_back_to_full_sort() {
        let pts = cloud(1000, 11);
        let s = 20;
        let old = Octree::build(&pts, s, MAX_LEVEL);
        // Strong shuffle: reflect through the center (stays in-domain).
        let new_pts: Vec<[f64; 3]> = pts
            .iter()
            .map(|p| std::array::from_fn(|d| 2.0 * old.domain.center[d] - p[d]))
            .collect();
        let upd = update_octree(&old, &new_pts, s, MAX_LEVEL).unwrap();
        assert!(upd.moved * 100 > new_pts.len() * FULL_SORT_PERCENT);
        assert_matches_fresh(&upd, &new_pts, s, MAX_LEVEL);
    }

    #[test]
    fn domain_overflow_is_a_typed_error() {
        // Regression for the silent point_key clamp: drift outside the
        // domain must surface as DomainOverflow, not a corrupted tree.
        let pts = cloud(300, 5);
        let old = Octree::build(&pts, 20, MAX_LEVEL);
        let mut new_pts = pts.clone();
        new_pts[137][2] = old.domain.center[2] + old.domain.half * 1.001;
        let err = update_octree(&old, &new_pts, 20, MAX_LEVEL).map(|_| ()).unwrap_err();
        assert_eq!(err, UpdateError::DomainOverflow { point: 137, dim: 2 });
    }

    #[test]
    fn point_count_change_is_rejected() {
        let pts = cloud(100, 8);
        let old = Octree::build(&pts, 10, MAX_LEVEL);
        let err = update_octree(&old, &pts[..99], 10, MAX_LEVEL).map(|_| ()).unwrap_err();
        assert_eq!(err, UpdateError::PointCountChanged { old: 100, new: 99 });
    }

    /// Coincident points tie on their max-depth code; every branch must
    /// leave them in index order, as the fresh build does.
    #[test]
    fn coincident_points_update_cleanly() {
        let mut pts = cloud(400, 21);
        for i in (0..400).step_by(7) {
            pts[i] = [0.125, 0.125, 0.125];
        }
        let old = Octree::build(&pts, 5, 6);
        // Still sorted: nothing moves.
        let upd = update_octree(&old, &pts, 5, 6).unwrap();
        assert_eq!(upd.moved, 0);
        assert_matches_fresh(&upd, &pts, 5, 6);
        // Backbone merge: one more point joins the pile, between piled
        // points of lower and higher index.
        let mut joined = pts.clone();
        joined[3] = [0.125, 0.125, 0.125];
        let upd = update_octree(&old, &joined, 5, 6).unwrap();
        assert!(upd.moved > 0 && upd.moved * 100 <= 400 * FULL_SORT_PERCENT, "moved {}", upd.moved);
        assert_matches_fresh(&upd, &joined, 5, 6);
        // Full sort: reflect everything through the center.
        let flipped: Vec<[f64; 3]> = pts
            .iter()
            .map(|p| std::array::from_fn(|d| 2.0 * old.domain.center[d] - p[d]))
            .collect();
        let upd = update_octree(&old, &flipped, 5, 6).unwrap();
        assert!(upd.moved * 100 > 400 * FULL_SORT_PERCENT);
        assert_matches_fresh(&upd, &flipped, 5, 6);
    }

    /// Two neighbours of the old order land in one max-depth cell with
    /// their indices the wrong way round: the codes alone are still
    /// non-decreasing, the `(code, index)` pairs are not.
    #[test]
    fn points_moving_into_one_cell_are_reordered_by_index() {
        let pts = cloud(600, 31);
        let old = Octree::build(&pts, 20, MAX_LEVEL);
        let k = (0..599).find(|&k| old.perm[k] > old.perm[k + 1]).unwrap();
        let mut new_pts = pts.clone();
        new_pts[old.perm[k + 1] as usize] = pts[old.perm[k] as usize];
        let upd = update_octree(&old, &new_pts, 20, MAX_LEVEL).unwrap();
        assert_eq!(upd.moved, 1, "the pair order, not the code order, decides");
        assert_eq!((upd.tree.perm[k], upd.tree.perm[k + 1]), (old.perm[k + 1], old.perm[k]));
        assert_matches_fresh(&upd, &new_pts, 20, MAX_LEVEL);
    }
}
