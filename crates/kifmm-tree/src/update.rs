//! Incremental octree update for time-stepping workloads.
//!
//! When points move a little between time steps (the sedimentation
//! example's spheres), rebuilding the tree from scratch repeats a full
//! sort and structure derivation whose answer is almost unchanged. This
//! module re-sorts the new Morton codes using the *old permutation as a
//! near-sorted hint* — points that stayed in Morton order ride along for
//! free, only the displaced minority is sorted and merged back — and then
//! re-derives the structure from the sorted array with the same
//! refinement loop a fresh build runs
//! ([`crate::linearize::structure_from_sorted_codes`]), so only the sort
//! is incremental.
//!
//! Out-of-domain drift is a hard error, not a clamp: the old domain is
//! fixed (operator tables are scaled to it), so a point outside it must
//! force a re-root/rebuild. See [`crate::morton::try_point_key`].

use crate::linearize::structure_from_sorted_codes;
use crate::morton::{try_point_key, MAX_LEVEL};
use crate::octree::Octree;
use std::sync::atomic::{AtomicU64, Ordering};

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
/// The old permutation orders the new codes almost-sorted; a greedy
/// backbone scan keeps the in-order majority, sorts only the displaced
/// points, and merges. Structure is re-derived from the sorted codes, so
/// the result is exactly the tree a fresh build over `new_points` in the
/// *same domain* would produce (up to permutation order among coincident
/// codes).
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
    const CHUNK: usize = 1 << 16;
    // Pass 1 streams the points in storage order — the cache-friendly
    // direction for the coordinate reads — computing every new Morton
    // code and noting the first out-of-domain point, encoded
    // (point << 2) | dim so the atomic min picks the smallest offending
    // point index regardless of which worker saw it.
    let mut codes = vec![0u64; n];
    let overflow = AtomicU64::new(u64::MAX);
    kifmm_runtime::par_chunks_mut(&mut codes, CHUNK, |ci, chunk| {
        let base = ci * CHUNK;
        for (j, slot) in chunk.iter_mut().enumerate() {
            let i = base + j;
            match try_point_key(new_points[i], domain.center, domain.half, MAX_LEVEL) {
                Ok(k) => *slot = k.morton_code(),
                Err(dim) => {
                    overflow.fetch_min(((i as u64) << 2) | dim as u64, Ordering::Relaxed);
                }
            }
        }
    });
    let first = overflow.load(Ordering::Relaxed);
    if first != u64::MAX {
        return Err(UpdateError::DomainOverflow {
            point: (first >> 2) as usize,
            dim: (first & 3) as usize,
        });
    }

    // Pass 2 gathers the codes into the old Morton order (random access
    // into the compact code array, not the 3× wider point array),
    // recording per-chunk whether the chunk stayed non-decreasing; a
    // scan of the chunk seams completes the sortedness verdict without
    // another pass over the permutation.
    let chunks = n.div_ceil(CHUNK);
    let mut in_old_order = vec![0u64; n];
    let mut chunk_sorted = vec![0u8; chunks];
    kifmm_runtime::par_chunks2_mut(
        &mut in_old_order,
        CHUNK,
        &mut chunk_sorted,
        1,
        |ci, chunk, flag| {
            let base = ci * CHUNK;
            let mut sorted = true;
            let mut last = 0u64;
            for (j, slot) in chunk.iter_mut().enumerate() {
                let c = codes[old.perm[base + j] as usize];
                sorted &= last <= c;
                last = c;
                *slot = c;
            }
            flag[0] = sorted as u8;
        },
    );
    let still_sorted = chunk_sorted.iter().all(|&f| f == 1)
        && (1..chunks).all(|c| in_old_order[c * CHUNK - 1] <= in_old_order[c * CHUNK]);

    let (sorted_codes, perm, moved) = if still_sorted {
        // Fast path: motion below code resolution (or preserving Morton
        // order) leaves the old permutation valid — no pair vectors, no
        // sort, no merge.
        (in_old_order, old.perm.clone(), 0)
    } else {
        // Greedy backbone: walk the old permutation, keep every point
        // whose new code continues a non-decreasing run, peel off the
        // rest.
        let mut kept: Vec<(u64, u32)> = Vec::with_capacity(n);
        let mut displaced: Vec<(u64, u32)> = Vec::new();
        for (k, &c) in in_old_order.iter().enumerate() {
            let i = old.perm[k];
            if kept.last().map_or(true, |&(last, _)| last <= c) {
                kept.push((c, i));
            } else {
                displaced.push((c, i));
            }
        }
        let moved = displaced.len();

        let pairs: Vec<(u64, u32)> = if moved * 100 > n * FULL_SORT_PERCENT {
            // Too much motion for the hint to pay: full parallel sort
            // (the (code, index) multiset is order-independent, so
            // sorting the gathered array is sorting the codes).
            let mut pairs: Vec<(u64, u32)> =
                in_old_order.iter().zip(&old.perm).map(|(&c, &i)| (c, i)).collect();
            kifmm_runtime::par_sort_unstable(&mut pairs);
            pairs
        } else {
            displaced.sort_unstable();
            merge_runs(&kept, &displaced)
        };

        let sorted_codes: Vec<u64> = pairs.iter().map(|&(c, _)| c).collect();
        let perm: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
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

/// Merge two sorted runs of (code, original index) pairs, taking from the
/// backbone on code ties so unmoved points keep their old relative order.
fn merge_runs(kept: &[(u64, u32)], displaced: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(kept.len() + displaced.len());
    let (mut i, mut j) = (0, 0);
    while i < kept.len() && j < displaced.len() {
        if kept[i].0 <= displaced[j].0 {
            out.push(kept[i]);
            i += 1;
        } else {
            out.push(displaced[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&kept[i..]);
    out.extend_from_slice(&displaced[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::point_key;

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

    /// The update must equal a fresh build over the same domain: identical
    /// structure and point ranges, and a permutation placing every point
    /// in a box that contains its code.
    fn assert_matches_fresh(upd: &TreeUpdate, new_pts: &[[f64; 3]], s: usize, max_level: u8) {
        let fresh =
            Octree::build_in_domain(upd.tree.domain, new_pts, s, max_level);
        assert_eq!(upd.tree.nodes, fresh.nodes, "node arrays differ from fresh build");
        assert_eq!(upd.tree.levels, fresh.levels);
        // Permutations may order coincident codes differently, but each
        // point must land in a box covering its code.
        for (i, nd) in upd.tree.nodes.iter().enumerate() {
            let (lo, hi) = crate::linearize::code_range(&nd.key);
            for &pi in upd.tree.point_indices(i as u32) {
                let code = point_key(
                    new_pts[pi as usize],
                    upd.tree.domain.center,
                    upd.tree.domain.half,
                    MAX_LEVEL,
                )
                .morton_code();
                assert!(code >= lo && code < hi, "point {pi} outside its box");
            }
        }
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

    #[test]
    fn coincident_points_update_cleanly() {
        let mut pts = cloud(50, 21);
        for i in 0..20 {
            pts[i] = [0.125, 0.125, 0.125];
        }
        let old = Octree::build(&pts, 5, 6);
        let new_pts = perturb(&pts, &old.domain, 1e-5);
        let upd = update_octree(&old, &new_pts, 5, 6).unwrap();
        assert_matches_fresh(&upd, &new_pts, 5, 6);
    }
}
