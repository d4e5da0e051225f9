//! Linearized-octree derivation from sorted Morton codes: the one
//! refinement loop every tree in the workspace comes from.
//!
//! The paper builds the tree "level by level", every rank taking the same
//! subdivision decision from the same global counts (§3.1) — one loop,
//! parameterised only by where the counts come from.
//! [`refine_sorted_codes`] is that loop; its `counts_of` argument is the
//! count provider:
//!
//! * **identity** ([`structure_from_sorted_codes`]) — the caller holds
//!   every point, so local counts are global: the serial
//!   [`crate::Octree::build`] and the incremental [`crate::update_octree`];
//! * **Allreduce** — one collective per level, the paper's distributed
//!   build, wired to `kifmm-mpi` in `kifmm-parallel::global_tree`.
//!
//! Everything here is communication-free.

use crate::morton::{MortonKey, MAX_LEVEL};
use crate::octree::{Node, NO_NODE};

/// The distributed tree-construction algorithm: the paper's
/// level-by-level build, one `Allreduce` of candidate-child counts per
/// level (§3.1). It has one variant and nothing reads it:
/// `FmmOptions::tree_build` and the fifth argument of
/// `build_distributed_tree_with` survive only because
/// `benchmark/src/traced.rs` (frozen with `BENCHMARK.json`) passes them
/// on. Goes with ROADMAP item 1(a).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TreeBuild {
    /// The paper's per-level Allreduce build.
    #[default]
    Paper,
}

/// The refinement loop — the paper's §3.1 level-by-level construction,
/// written once for every driver. From this caller's Morton-sorted
/// max-depth codes it subdivides every box whose *global* count exceeds
/// `max_pts_per_leaf`, up to `max_level`, and materializes every globally
/// nonempty child with this caller's (possibly empty) point range.
///
/// `counts_of(keys, local_counts)` answers one level's candidate children
/// — eight per splitting box, in frontier then octant order — with their
/// global counts, and is the only thing that differs between drivers: the
/// serial build and the incremental update return `local_counts`
/// ([`structure_from_sorted_codes`]), the paper's distributed build
/// Allreduces them. The loop reads nothing but the returned counts, so
/// providers that agree produce bitwise-identical structure. `root_global`
/// is the global point count.
///
/// Returns `(nodes, global count per node, node indices per level)`, nodes
/// in level-by-level order. Octant boundaries inside a box's contiguous
/// range are binary searches, so the derivation is O(boxes · log s) after
/// the sort.
pub fn refine_sorted_codes(
    sorted_codes: &[u64],
    max_pts_per_leaf: usize,
    max_level: u8,
    root_global: u64,
    mut counts_of: impl FnMut(&[MortonKey], &[u64]) -> Vec<u64>,
) -> (Vec<Node>, Vec<u64>, Vec<Vec<u32>>) {
    assert!(max_pts_per_leaf >= 1, "s must be at least 1");
    debug_assert!(sorted_codes.windows(2).all(|w| w[0] <= w[1]), "codes must be sorted");
    let max_level = max_level.min(MAX_LEVEL);
    let s = max_pts_per_leaf as u64;
    let mut nodes = vec![Node {
        key: MortonKey::ROOT,
        parent: NO_NODE,
        children: [NO_NODE; 8],
        pt_start: 0,
        pt_end: sorted_codes.len() as u32,
    }];
    let mut global_counts = vec![root_global];
    let mut levels: Vec<Vec<u32>> = vec![vec![0]];
    // The boxes of the current level that split.
    let mut frontier: Vec<u32> =
        if root_global > s && max_level > 0 { vec![0] } else { Vec::new() };

    for depth in 1..=max_level {
        if frontier.is_empty() {
            break;
        }
        let shift = 3 * (MAX_LEVEL - depth) as u32 + 5;
        // Local counts and ranges of the 8 candidate children of every
        // splitting box — this level's slice of the paper's global tree
        // array. The octant digit is non-decreasing inside a parent's
        // sorted range, so each cut is a binary search.
        let mut cand_keys = Vec::with_capacity(frontier.len() * 8);
        let mut cand_local = Vec::with_capacity(frontier.len() * 8);
        let mut cand_ranges = Vec::with_capacity(frontier.len() * 8);
        for &ni in &frontier {
            let nd = &nodes[ni as usize];
            let mut lo = nd.pt_start;
            for oct in 0..8u8 {
                let hi = lo
                    + sorted_codes[lo as usize..nd.pt_end as usize]
                        .partition_point(|&c| ((c >> shift) & 7) as u8 <= oct)
                        as u32;
                cand_keys.push(nd.key.child(oct));
                cand_local.push((hi - lo) as u64);
                cand_ranges.push((lo, hi));
                lo = hi;
            }
            debug_assert_eq!(lo, nd.pt_end, "children must partition the parent range");
        }
        let cand_global = counts_of(&cand_keys, &cand_local);
        debug_assert_eq!(cand_global.len(), cand_local.len());
        debug_assert!(
            cand_global.iter().zip(&cand_local).all(|(&g, &l)| g >= l),
            "global candidate counts must dominate local counts"
        );

        // Materialize the globally nonempty children; pick the next splits.
        let mut this_level = Vec::new();
        let mut next = Vec::new();
        for (ci, &g) in cand_global.iter().enumerate() {
            if g == 0 {
                continue;
            }
            let parent = frontier[ci / 8];
            let child_idx = nodes.len() as u32;
            nodes.push(Node {
                key: cand_keys[ci],
                parent,
                children: [NO_NODE; 8],
                pt_start: cand_ranges[ci].0,
                pt_end: cand_ranges[ci].1,
            });
            global_counts.push(g);
            nodes[parent as usize].children[ci % 8] = child_idx;
            this_level.push(child_idx);
            if g > s && depth < max_level {
                next.push(child_idx);
            }
        }
        if this_level.is_empty() {
            break;
        }
        levels.push(this_level);
        frontier = next;
    }
    (nodes, global_counts, levels)
}

/// [`refine_sorted_codes`] over the whole point set: local counts *are*
/// the global counts. The serial [`crate::Octree::build`] and
/// [`crate::update_octree`] derive their structure here.
pub fn structure_from_sorted_codes(
    sorted_codes: &[u64],
    max_pts_per_leaf: usize,
    max_level: u8,
) -> (Vec<Node>, Vec<Vec<u32>>) {
    let (n, s) = (sorted_codes.len() as u64, max_pts_per_leaf);
    let (nodes, _, levels) =
        refine_sorted_codes(sorted_codes, s, max_level, n, |_, local| local.to_vec());
    (nodes, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::point_key;
    use crate::octree::{Domain, Octree};

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

    /// Half-open interval `[base, end)` of max-depth point codes covered by
    /// box `key`. Valid because point codes carry `MAX_LEVEL` in their low
    /// 5 bits, and `MAX_LEVEL < 32 ≤ end − base` for every box level.
    fn code_range(key: &MortonKey) -> (u64, u64) {
        let span = 1u64 << (3 * (MAX_LEVEL - key.level) as u32 + 5);
        let base = (key.morton_code() >> 5) << 5;
        (base, base + span)
    }

    fn sorted_codes(pts: &[[f64; 3]], domain: &Domain) -> Vec<u64> {
        let mut codes: Vec<u64> = pts
            .iter()
            .map(|&p| point_key(p, domain.center, domain.half, MAX_LEVEL).morton_code())
            .collect();
        codes.sort_unstable();
        codes
    }

    #[test]
    fn code_range_contains_exactly_the_descendant_point_codes() {
        let key = MortonKey::new(3, [5, 2, 7]);
        let (base, end) = code_range(&key);
        // Every max-depth descendant's code is in range; a sibling's is not.
        let descendant_code = {
            let mut kk = key;
            while kk.level < MAX_LEVEL {
                kk = kk.child(6);
            }
            kk.morton_code()
        };
        assert!(descendant_code >= base && descendant_code < end);
        let sibling_code = {
            let mut kk = MortonKey::new(3, [5, 2, 6]);
            while kk.level < MAX_LEVEL {
                kk = kk.child(0);
            }
            kk.morton_code()
        };
        assert!(!(sibling_code >= base && sibling_code < end));
        // The box's own (non-max-depth) code also lies in its range.
        let own = key.morton_code();
        assert!(own >= base && own < end);
    }

    #[test]
    fn refinement_with_a_remote_count_provider_matches_the_union_build() {
        // The loop at its seam, without a communicator: "rank" A holds a
        // sub-sequence of the sorted codes (every other code of the first
        // half), "rank" B the rest, and the provider answers each
        // candidate with its count in A ∪ B.
        let pts = cloud(2400, 0xa11);
        let s = 25;
        let union = sorted_codes(&pts, &Domain::containing(&pts));
        let a: Vec<u64> = union[..union.len() / 2].iter().step_by(2).copied().collect();
        let count_in = |codes: &[u64], key: &MortonKey| {
            let (lo, hi) = code_range(key);
            (codes.partition_point(|&c| c < lo), codes.partition_point(|&c| c < hi))
        };
        let (nodes, global, levels) =
            refine_sorted_codes(&a, s, MAX_LEVEL, union.len() as u64, |keys, local| {
                let g: Vec<u64> = keys
                    .iter()
                    .map(|k| {
                        let (lo, hi) = count_in(&union, k);
                        (hi - lo) as u64
                    })
                    .collect();
                assert!(g.iter().zip(local).all(|(g, l)| g >= l));
                g
            });

        // (i) Same boxes, links and levels as the build over the union.
        let (ref_nodes, ref_levels) = structure_from_sorted_codes(&union, s, MAX_LEVEL);
        assert_eq!(levels, ref_levels);
        assert_eq!(nodes.len(), ref_nodes.len());
        for (nd, r) in nodes.iter().zip(&ref_nodes) {
            assert_eq!((nd.key, nd.parent, nd.children), (r.key, r.parent, r.children));
        }
        // (ii) A's ranges partition A: every box holds exactly A's codes
        // inside its code range (so children tile their parent), and boxes
        // only B populates exist with empty ranges.
        let perm: Vec<u32> = (0..a.len() as u32).collect();
        assert_eq!(Octree::check_parts(&nodes, &perm, &levels), Ok(()));
        for nd in &nodes {
            let (lo, hi) = count_in(&a, &nd.key);
            assert_eq!((nd.pt_start as usize, nd.pt_end as usize), (lo, hi), "box {:?}", nd.key);
        }
        assert!(
            nodes.iter().any(|nd| nd.num_points() == 0),
            "globally nonempty, locally empty children must be materialized"
        );
        // (iii) The returned global counts are the union's.
        for (g, r) in global.iter().zip(&ref_nodes) {
            assert_eq!(*g, r.num_points() as u64);
        }
    }

    #[test]
    fn structure_matches_octree_build() {
        // Octree::build delegates here, so this pins the delegation: the
        // derived structure must satisfy every from_parts invariant and
        // reproduce the level-loop reference counts.
        for (n, s) in [(500, 20), (2000, 60), (64, 1)] {
            let pts = cloud(n, 0x5eed + n as u64);
            let t = Octree::build(&pts, s, MAX_LEVEL);
            assert_eq!(Octree::check_parts(&t.nodes, &t.perm, &t.levels), Ok(()));
            for i in t.leaves() {
                let nd = &t.nodes[i as usize];
                assert!(nd.num_points() <= s || nd.key.level == MAX_LEVEL);
            }
        }
    }
}
