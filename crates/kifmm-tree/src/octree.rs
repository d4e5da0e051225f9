//! Adaptive octree construction.
//!
//! The computation tree of the paper (§2.1): a cube large enough to contain
//! all points, refined so that no box holds more than `s` points. Leaves
//! exist only where points are — the tree is fully adaptive, with no 2:1
//! balance constraint (the U/V/W/X lists of [`crate::lists`] handle
//! arbitrary level jumps).

use crate::morton::{morton_codes, sort_codes, MortonKey};
use std::collections::HashMap;

/// Sentinel for "no child".
pub const NO_NODE: u32 = u32::MAX;

/// The cubic computational domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Domain {
    /// Cube center.
    pub center: [f64; 3],
    /// Half side length.
    pub half: f64,
}

impl Domain {
    /// Smallest axis-aligned cube containing all points (with a hair of
    /// padding so boundary points land strictly inside).
    pub fn containing(points: &[[f64; 3]]) -> Domain {
        assert!(!points.is_empty(), "domain of an empty point set");
        let (lo, hi) = Domain::bounds(points);
        Domain::from_bounds(lo, hi)
    }

    /// Bounding box `(lo, hi)` of the points — `(+∞, −∞)` for none, the
    /// identity of the Min/Max Allreduce the distributed build folds the
    /// per-rank boxes with.
    pub fn bounds(points: &[[f64; 3]]) -> ([f64; 3], [f64; 3]) {
        points.iter().fold(([f64::INFINITY; 3], [f64::NEG_INFINITY; 3]), |(lo, hi), p| {
            (std::array::from_fn(|d| lo[d].min(p[d])), std::array::from_fn(|d| hi[d].max(p[d])))
        })
    }

    /// The cube around the bounding box `[lo, hi]`: centred on it, half
    /// side the longest half extent plus a hair of padding. The one place
    /// the formula lives — the distributed build calls it on Allreduced
    /// bounds, so every rank gets the serial build's domain bit for bit.
    pub fn from_bounds(lo: [f64; 3], hi: [f64; 3]) -> Domain {
        let center: [f64; 3] = std::array::from_fn(|d| 0.5 * (lo[d] + hi[d]));
        let mut half = (0..3).map(|d| 0.5 * (hi[d] - lo[d])).fold(0.0_f64, f64::max);
        if half == 0.0 {
            half = 0.5; // degenerate single-point cloud
        }
        half *= 1.0 + 1e-12;
        // Far from the origin the rounding of `center` outgrows the
        // padding; the cube must still pass `point_in_domain` for every
        // point of the box, which is monotone in the coordinate.
        for d in 0..3 {
            half = half.max(hi[d] - center[d]).max(center[d] - lo[d]);
        }
        Domain { center, half }
    }

    /// Center of the box identified by `key`.
    pub fn box_center(&self, key: &MortonKey) -> [f64; 3] {
        let h = self.box_half(key.level);
        std::array::from_fn(|d| {
            self.center[d] - self.half + (2.0 * key.coords[d] as f64 + 1.0) * h
        })
    }

    /// Half side length of boxes at `level`.
    pub fn box_half(&self, level: u8) -> f64 {
        self.half / (1u64 << level) as f64
    }
}

/// `(point, axis)` of the first NaN or infinite coordinate, if any.
/// [`Domain::containing`]'s min/max skip NaN and an infinite bound has no
/// cube, so a tree build over such a point panics — callers taking points
/// from outside reject them with this scan first, as a typed error.
pub fn first_non_finite(points: &[[f64; 3]]) -> Option<(usize, usize)> {
    points
        .iter()
        .enumerate()
        .find_map(|(i, p)| p.iter().position(|c| !c.is_finite()).map(|d| (i, d)))
}

/// One box of the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// The box identity.
    pub key: MortonKey,
    /// Index of the parent node ([`NO_NODE`] for the root).
    pub parent: u32,
    /// Child node index per octant; [`NO_NODE`] where no child exists
    /// (empty octants are not materialized).
    pub children: [u32; 8],
    /// Start of this box's points in [`Octree::perm`].
    pub pt_start: u32,
    /// One past the end of this box's points in [`Octree::perm`].
    pub pt_end: u32,
}

impl Node {
    /// True when the box was not subdivided.
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == NO_NODE)
    }

    /// Number of points in the box's subtree.
    pub fn num_points(&self) -> usize {
        (self.pt_end - self.pt_start) as usize
    }
}

/// An adaptive octree over a point set.
///
/// Points are not stored; the tree keeps a permutation [`Octree::perm`]
/// sorting the caller's point indices into Morton order so that every box
/// owns a contiguous index range.
pub struct Octree {
    /// The computational domain.
    pub domain: Domain,
    /// All boxes, root first, in level-by-level (BFS) order.
    pub nodes: Vec<Node>,
    /// `perm[i]` = original index of the i-th point in Morton order.
    pub perm: Vec<u32>,
    /// Node indices per level.
    pub levels: Vec<Vec<u32>>,
    /// Key → node index.
    map: HashMap<MortonKey, u32>,
}

impl Octree {
    /// Build the adaptive tree: subdivide while a box holds more than
    /// `max_pts_per_leaf` points (the paper's `s`), up to `max_level`.
    ///
    /// # Panics
    /// On a NaN or infinite coordinate, naming the point and the axis
    /// ([`first_non_finite`]); the containing cube holds every finite point.
    pub fn build(points: &[[f64; 3]], max_pts_per_leaf: usize, max_level: u8) -> Octree {
        let domain = Domain::containing(points);
        Self::build_in_domain(domain, points, max_pts_per_leaf, max_level).unwrap_or_else(|_| {
            let (point, dim) =
                first_non_finite(points).expect("the containing cube holds every finite point");
            panic!("Octree::build: point {point} is not finite along axis {dim}")
        })
    }

    /// Build within a caller-specified domain: sort the points along the
    /// curve ([`sort_codes`]), then refine from the counts — the one
    /// derivation every tree, the incremental update's included, runs.
    ///
    /// # Errors
    /// `(point, axis)` of the first point outside the closed `domain` cube
    /// (`NaN` included) and the first axis it leaves the cube along, the
    /// convention of [`morton_codes`]. No point is clamped into a boundary
    /// box.
    pub fn build_in_domain(
        domain: Domain,
        points: &[[f64; 3]],
        max_pts_per_leaf: usize,
        max_level: u8,
    ) -> Result<Octree, (usize, usize)> {
        let (sorted_codes, perm) = sort_codes(&morton_codes(points, &domain)?);

        // The refinement loop shared with the distributed build; local
        // counts are global here.
        let (nodes, levels) =
            crate::linearize::structure_from_sorted_codes(&sorted_codes, max_pts_per_leaf, max_level);
        Ok(Self::from_parts(domain, nodes, perm, levels))
    }

    /// Assemble a tree from prebuilt parts (used by the distributed driver,
    /// whose box structure comes from globally `Allreduce`d counts while the
    /// point ranges refer to rank-local points).
    ///
    /// Invariants assumed: `nodes[0]` is the root; `levels[l]` lists the
    /// node indices of level `l`; child point ranges partition their
    /// parent's range. Debug builds validate them ([`Octree::check_parts`])
    /// instead of trusting the caller.
    pub fn from_parts(
        domain: Domain,
        nodes: Vec<Node>,
        perm: Vec<u32>,
        levels: Vec<Vec<u32>>,
    ) -> Octree {
        #[cfg(debug_assertions)]
        if let Err(e) = Self::check_parts(&nodes, &perm, &levels) {
            panic!("Octree::from_parts: invariant violated: {e}");
        }
        let map = nodes.iter().enumerate().map(|(i, nd)| (nd.key, i as u32)).collect();
        Octree { domain, nodes, perm, levels, map }
    }

    /// Validate the structural invariants [`Octree::from_parts`] documents:
    /// a root node covering the whole permutation, level arrays consistent
    /// with node key levels and covering every node exactly once,
    /// parent/child links mutual and key-consistent, child point ranges
    /// partitioning their parent's range in octant order, and `perm` an
    /// actual permutation.
    pub fn check_parts(nodes: &[Node], perm: &[u32], levels: &[Vec<u32>]) -> Result<(), String> {
        if nodes.is_empty() {
            return Err("no nodes (the root must exist)".into());
        }
        let root = &nodes[0];
        if root.key != MortonKey::ROOT || root.parent != NO_NODE {
            return Err(format!("nodes[0] is not a parentless root: {root:?}"));
        }
        if (root.pt_start, root.pt_end) != (0, perm.len() as u32) {
            return Err(format!(
                "root range {}..{} does not cover the {} permuted points",
                root.pt_start,
                root.pt_end,
                perm.len()
            ));
        }
        if levels.is_empty() || levels[0] != [0] {
            return Err("levels[0] must be exactly [root]".into());
        }
        let mut seen_in_levels = vec![false; nodes.len()];
        for (l, idxs) in levels.iter().enumerate() {
            for &i in idxs {
                let nd = nodes.get(i as usize).ok_or_else(|| {
                    format!("levels[{l}] references node {i} out of bounds")
                })?;
                if nd.key.level as usize != l {
                    return Err(format!(
                        "node {i} (key level {}) listed in levels[{l}]",
                        nd.key.level
                    ));
                }
                if std::mem::replace(&mut seen_in_levels[i as usize], true) {
                    return Err(format!("node {i} appears twice in the level arrays"));
                }
            }
        }
        if let Some(i) = seen_in_levels.iter().position(|&b| !b) {
            return Err(format!("node {i} missing from the level arrays"));
        }
        for (i, nd) in nodes.iter().enumerate() {
            if nd.pt_start > nd.pt_end || nd.pt_end as usize > perm.len() {
                return Err(format!("node {i} has invalid point range"));
            }
            let mut cursor = nd.pt_start;
            let mut any_child = false;
            for (oct, &c) in nd.children.iter().enumerate() {
                if c == NO_NODE {
                    continue;
                }
                any_child = true;
                let ch = nodes.get(c as usize).ok_or_else(|| {
                    format!("node {i} child {oct} references node {c} out of bounds")
                })?;
                if ch.key != nd.key.child(oct as u8) {
                    return Err(format!(
                        "node {i} child slot {oct} holds key {:?}, expected {:?}",
                        ch.key,
                        nd.key.child(oct as u8)
                    ));
                }
                if ch.parent != i as u32 {
                    return Err(format!("child {c} does not point back to parent {i}"));
                }
                if ch.pt_start != cursor {
                    return Err(format!(
                        "node {i} children do not tile the parent range: child {c} starts at {} but cursor is {cursor}",
                        ch.pt_start
                    ));
                }
                cursor = ch.pt_end;
            }
            if any_child && cursor != nd.pt_end {
                return Err(format!(
                    "node {i} children cover ..{cursor}, parent range ends at {}",
                    nd.pt_end
                ));
            }
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            match seen.get_mut(p as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(format!("perm is not a permutation (index {p})")),
            }
        }
        Ok(())
    }

    /// True when two trees have identical structure *and* identical local
    /// point assignment: same domain, node array (keys, links, point
    /// ranges), level arrays, and permutation. This is the bitwise gate
    /// between an updated tree and a fresh build.
    pub fn structure_eq(&self, other: &Octree) -> bool {
        self.domain == other.domain
            && self.nodes == other.nodes
            && self.levels == other.levels
            && self.perm == other.perm
    }

    /// Number of boxes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth (deepest populated level).
    pub fn depth(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// Node index for a key, if the box exists.
    pub fn find(&self, key: &MortonKey) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// The deepest existing box containing `key` (i.e. `key` itself if
    /// present, else its nearest existing ancestor; the root always exists).
    pub fn deepest_ancestor(&self, key: &MortonKey) -> u32 {
        let mut k = *key;
        loop {
            if let Some(i) = self.find(&k) {
                return i;
            }
            k = k.parent().expect("root always exists");
        }
    }

    /// Iterator over leaf node indices.
    pub fn leaves(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.nodes.len() as u32).filter(move |&i| self.nodes[i as usize].is_leaf())
    }

    /// Gather per-point data (`dim` interleaved components per point) from
    /// the caller's original point order into Morton order — densities as
    /// `f64` rows, or the points themselves (`dim = 1`).
    pub fn to_morton<T: Copy>(&self, orig: &[T], dim: usize) -> Vec<T> {
        let mut sorted = Vec::with_capacity(self.perm.len() * dim);
        for &o in &self.perm {
            sorted.extend_from_slice(&orig[o as usize * dim..(o as usize + 1) * dim]);
        }
        sorted
    }

    /// Scatter Morton-ordered per-point data back to the caller's original
    /// point order (the inverse of [`Octree::to_morton`]).
    pub fn from_morton(&self, sorted: &[f64], dim: usize) -> Vec<f64> {
        let mut orig = vec![0.0; self.perm.len() * dim];
        for (row, &o) in sorted.chunks_exact(dim).zip(&self.perm) {
            orig[o as usize * dim..(o as usize + 1) * dim].copy_from_slice(row);
        }
        orig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::MAX_LEVEL;

    fn cloud(n: usize) -> Vec<[f64; 3]> {
        // Deterministic pseudo-random cloud.
        let mut seed = 0xabcdefu64;
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
            })
            .collect()
    }

    #[test]
    fn domain_contains_all_points() {
        let pts = cloud(500);
        let d = Domain::containing(&pts);
        for p in &pts {
            for dim in 0..3 {
                assert!((p[dim] - d.center[dim]).abs() <= d.half);
            }
        }
    }

    /// Far from the origin the rounding of the center exceeds the relative
    /// padding; the cube must still contain its own points.
    #[test]
    fn domain_contains_points_far_from_the_origin() {
        for offset in [1e4, 1e6, -3e8] {
            let pts: Vec<[f64; 3]> = cloud(200)
                .into_iter()
                .map(|p| [p[0] + offset, p[1] - 0.7 * offset, p[2] + 1.3 * offset])
                .collect();
            let d = Domain::containing(&pts);
            assert_eq!(morton_codes(&pts, &d).map(|c| c.len()), Ok(200), "offset {offset}");
            assert_eq!(Octree::build(&pts, 20, MAX_LEVEL).perm.len(), 200);
        }
    }

    /// A caller's domain that misses a point is refused, naming the first
    /// one: clamping the point into a boundary leaf would pass every
    /// `check_parts` invariant and evaluate the wrong geometry.
    #[test]
    fn build_in_domain_refuses_a_point_outside_the_domain() {
        let mut pts = cloud(100);
        let domain = Domain::containing(&pts);
        pts[41][1] = domain.center[1] - 1.5 * domain.half;
        pts[77][0] = domain.center[0] + 2.0 * domain.half;
        let built = Octree::build_in_domain(domain, &pts, 10, MAX_LEVEL);
        assert_eq!(built.map(|t| t.perm.len()), Err((41, 1)));
    }

    /// `build` fits the cube to the points, so only a non-finite
    /// coordinate can fall outside it — named even when infinities of
    /// both signs leave the fitted cube with a NaN centre, outside which
    /// every point (point 0 first) lies.
    #[test]
    #[should_panic(expected = "Octree::build: point 17 is not finite along axis 2")]
    fn build_panics_naming_a_non_finite_point() {
        let mut pts = cloud(50);
        pts[17][2] = f64::NAN;
        pts[30][0] = f64::INFINITY;
        pts[31][0] = f64::NEG_INFINITY;
        Octree::build(&pts, 10, MAX_LEVEL);
    }

    #[test]
    fn leaf_capacity_respected() {
        let pts = cloud(2000);
        let s = 40;
        let t = Octree::build(&pts, s, MAX_LEVEL);
        for i in t.leaves() {
            assert!(t.nodes[i as usize].num_points() <= s, "leaf over capacity");
        }
        // Internal boxes exceed s (that is why they were split).
        for (i, nd) in t.nodes.iter().enumerate() {
            if !nd.is_leaf() {
                assert!(nd.num_points() > s, "internal node {i} should exceed s");
            }
        }
    }

    #[test]
    fn children_partition_parent_ranges() {
        let pts = cloud(3000);
        let t = Octree::build(&pts, 25, MAX_LEVEL);
        for nd in &t.nodes {
            if nd.is_leaf() {
                continue;
            }
            let mut covered = 0;
            let mut cursor = nd.pt_start;
            for &c in &nd.children {
                if c == NO_NODE {
                    continue;
                }
                let ch = &t.nodes[c as usize];
                assert_eq!(ch.pt_start, cursor, "child ranges must be contiguous");
                cursor = ch.pt_end;
                covered += ch.num_points();
            }
            assert_eq!(cursor, nd.pt_end);
            assert_eq!(covered, nd.num_points());
        }
    }

    #[test]
    fn points_inside_their_boxes() {
        let pts = cloud(1500);
        let t = Octree::build(&pts, 30, MAX_LEVEL);
        for (i, nd) in t.nodes.iter().enumerate() {
            let c = t.domain.box_center(&nd.key);
            let h = t.domain.box_half(nd.key.level);
            for &pi in &t.perm[nd.pt_start as usize..nd.pt_end as usize] {
                let p = pts[pi as usize];
                for d in 0..3 {
                    assert!(
                        (p[d] - c[d]).abs() <= h * (1.0 + 1e-9),
                        "point {pi} escapes box {i} in dim {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn perm_is_permutation() {
        let pts = cloud(800);
        let t = Octree::build(&pts, 20, MAX_LEVEL);
        let mut seen = vec![false; 800];
        for &i in &t.perm {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn morton_gather_and_scatter_are_inverse() {
        let pts = cloud(300);
        let t = Octree::build(&pts, 20, MAX_LEVEL);
        let data: Vec<f64> = (0..900).map(|i| i as f64).collect();
        let sorted = t.to_morton(&data, 3);
        for (si, &o) in t.perm.iter().enumerate() {
            assert_eq!(sorted[si * 3..si * 3 + 3], data[o as usize * 3..o as usize * 3 + 3]);
        }
        assert_eq!(t.from_morton(&sorted, 3), data);
        // Whole points gather as one row each: the same order.
        let sorted_pts = t.to_morton(&pts, 1);
        assert_eq!(sorted_pts.len(), pts.len());
        for (si, &o) in t.perm.iter().enumerate() {
            assert_eq!(sorted_pts[si], pts[o as usize]);
        }
    }

    #[test]
    fn find_and_deepest_ancestor() {
        let pts = cloud(1000);
        let t = Octree::build(&pts, 10, MAX_LEVEL);
        for (i, nd) in t.nodes.iter().enumerate() {
            assert_eq!(t.find(&nd.key), Some(i as u32));
        }
        // A key far below any leaf resolves to an existing ancestor.
        let leaf = t.leaves().next().unwrap();
        let mut k = t.nodes[leaf as usize].key;
        k = k.child(0).child(0);
        let anc = t.deepest_ancestor(&k);
        assert!(t.nodes[anc as usize].key.contains(&k));
    }

    #[test]
    fn single_box_tree_when_under_capacity() {
        let pts = cloud(10);
        let t = Octree::build(&pts, 64, MAX_LEVEL);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.nodes[0].is_leaf());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn max_level_caps_depth() {
        // Identical points cannot be separated: depth must stop at max_level.
        let pts = vec![[0.25, 0.25, 0.25]; 100];
        let t = Octree::build(&pts, 10, 4);
        assert!(t.depth() <= 4);
        for i in t.leaves() {
            // The capacity cannot be honored here; all points share a leaf.
            assert_eq!(t.nodes[i as usize].num_points(), 100);
        }
    }

    #[test]
    fn check_parts_accepts_built_trees_and_catches_corruption() {
        let pts = cloud(900);
        let t = Octree::build(&pts, 25, MAX_LEVEL);
        assert_eq!(Octree::check_parts(&t.nodes, &t.perm, &t.levels), Ok(()));

        // Child range no longer tiling the parent.
        let mut bad = t.nodes.clone();
        let victim = bad
            .iter()
            .position(|nd| !nd.is_leaf())
            .and_then(|i| bad[i].children.iter().find(|&&c| c != NO_NODE).copied())
            .unwrap() as usize;
        bad[victim].pt_start += 1;
        assert!(Octree::check_parts(&bad, &t.perm, &t.levels).is_err());

        // Wrong key in a child slot.
        let mut bad = t.nodes.clone();
        bad[victim].key = bad[victim].key.parent().unwrap();
        assert!(Octree::check_parts(&bad, &t.perm, &t.levels).is_err());

        // Broken back-link.
        let mut bad = t.nodes.clone();
        bad[victim].parent = NO_NODE;
        assert!(Octree::check_parts(&bad, &t.perm, &t.levels).is_err());

        // Level array listing a node at the wrong level.
        let mut bad_levels = t.levels.clone();
        let moved = bad_levels[1].pop().unwrap();
        bad_levels[0].push(moved);
        assert!(Octree::check_parts(&t.nodes, &t.perm, &bad_levels).is_err());

        // A node missing from the level arrays.
        let mut bad_levels = t.levels.clone();
        bad_levels.last_mut().unwrap().pop();
        assert!(Octree::check_parts(&t.nodes, &t.perm, &bad_levels).is_err());

        // perm with a duplicated index.
        let mut bad_perm = t.perm.clone();
        bad_perm[0] = bad_perm[1];
        assert!(Octree::check_parts(&t.nodes, &bad_perm, &t.levels).is_err());
    }

    #[test]
    fn structure_eq_flags_any_difference() {
        let pts = cloud(600);
        let a = Octree::build(&pts, 30, MAX_LEVEL);
        let b = Octree::build(&pts, 30, MAX_LEVEL);
        assert!(a.structure_eq(&b));
        let mut perm2 = a.perm.clone();
        perm2.swap(0, 1);
        let c = Octree::from_parts(a.domain, a.nodes.clone(), perm2, a.levels.clone());
        assert!(!a.structure_eq(&c), "a permuted point order must not compare equal");
    }

    #[test]
    fn levels_index_is_consistent() {
        let pts = cloud(1200);
        let t = Octree::build(&pts, 15, MAX_LEVEL);
        let mut count = 0;
        for (l, idxs) in t.levels.iter().enumerate() {
            for &i in idxs {
                assert_eq!(t.nodes[i as usize].key.level as usize, l);
                count += 1;
            }
        }
        assert_eq!(count, t.num_nodes());
    }
}
