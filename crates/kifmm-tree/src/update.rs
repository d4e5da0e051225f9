//! Incremental octree update for time-stepping workloads.
//!
//! When points move between time steps (the sedimentation example's
//! spheres), the operator tables scaled to the old root cube stay valid as
//! long as every point stays inside it. The update keeps that cube and
//! builds the tree over it the one way every tree is built
//! ([`Octree::build_in_domain`]: sort along the curve, refine from the
//! counts), so the patched tree *is* the fresh build's tree over the same
//! domain, permutation included. What it adds is the verdict a plan needs
//! to reuse its interaction lists: whether the box structure changed.
//!
//! Out-of-domain drift is a hard error, not a clamp: the old domain is
//! fixed (operator tables are scaled to it), so a point outside it must
//! force a re-root/rebuild. See [`crate::morton::morton_codes`].

use crate::octree::Octree;

/// Why an incremental update could not be applied: [`update_octree`]
/// returns the first two, `kifmm_core::Plan::update_points` adds the
/// third. Every case means the caller must fall back to a full rebuild
/// (`kifmm_core::PlanCache::get_or_update` does so itself).
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
    /// The patched tree is deeper than the plan's operator tables cover
    /// (points clustered more tightly than at plan time).
    StructureOutgrown {
        /// Depth the updated tree reached.
        depth: u8,
        /// Deepest level the existing operator tables cover.
        covered: u8,
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
            UpdateError::StructureOutgrown { depth, covered } => write!(
                f,
                "updated tree reaches depth {depth} but operators cover only level {covered}; \
                 rebuild required"
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
}

/// Patch `old` for the moved point set `new_points` (same length, same
/// identity — `new_points[i]` is the new position of point `i`): the tree
/// [`Octree::build_in_domain`] builds over `new_points` in `old`'s domain,
/// and whether its box structure is `old`'s.
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
    let tree = Octree::build_in_domain(old.domain, new_points, max_pts_per_leaf, max_level)
        .map_err(|(point, dim)| UpdateError::DomainOverflow { point, dim })?;
    let same_structure = tree.nodes.len() == old.nodes.len()
        && tree.nodes.iter().zip(&old.nodes).all(|(a, b)| {
            a.key == b.key && a.parent == b.parent && a.children == b.children
        });
    Ok(TreeUpdate { tree, same_structure })
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
        let fresh = Octree::build_in_domain(upd.tree.domain, new_pts, s, max_level).unwrap();
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
        assert_matches_fresh(&upd, &new_pts, s, MAX_LEVEL);
    }

    #[test]
    fn identical_points_reproduce_the_tree_exactly() {
        let pts = cloud(800, 3);
        let old = Octree::build(&pts, 25, MAX_LEVEL);
        let upd = update_octree(&old, &pts, 25, MAX_LEVEL).unwrap();
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

    /// Coincident points tie on their max-depth code; whatever the motion,
    /// the update leaves them in index order, as the fresh build does.
    #[test]
    fn coincident_points_update_cleanly() {
        let mut pts = cloud(400, 21);
        for i in (0..400).step_by(7) {
            pts[i] = [0.125, 0.125, 0.125];
        }
        let old = Octree::build(&pts, 5, 6);
        // No motion.
        let upd = update_octree(&old, &pts, 5, 6).unwrap();
        assert_matches_fresh(&upd, &pts, 5, 6);
        // One more point joins the pile, between piled points of lower
        // and higher index.
        let mut joined = pts.clone();
        joined[3] = [0.125, 0.125, 0.125];
        let upd = update_octree(&old, &joined, 5, 6).unwrap();
        assert_matches_fresh(&upd, &joined, 5, 6);
        // Reflect everything through the center.
        let flipped: Vec<[f64; 3]> = pts
            .iter()
            .map(|p| std::array::from_fn(|d| 2.0 * old.domain.center[d] - p[d]))
            .collect();
        let upd = update_octree(&old, &flipped, 5, 6).unwrap();
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
        assert_eq!((upd.tree.perm[k], upd.tree.perm[k + 1]), (old.perm[k + 1], old.perm[k]));
        assert_matches_fresh(&upd, &new_pts, 20, MAX_LEVEL);
    }
}
