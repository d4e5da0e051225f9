//! The four adaptive-FMM interaction lists (paper §3.1, following
//! Greengard and Cheng–Greengard–Rokhlin):
//!
//! * **U list** (leaf `B` only): `B` itself and all leaves adjacent to `B`
//!   — handled by dense (P2P) interaction.
//! * **V list**: children of `B`'s parent's colleagues that are not
//!   adjacent to `B` — handled by M2L translation.
//! * **W list** (leaf `B` only): descendants `A` of `B`'s colleagues with
//!   `parent(A)` adjacent to `B` but `A` not adjacent to `B` — `A`'s
//!   upward equivalent density is evaluated directly at `B`'s targets.
//! * **X list**: all `A` with `B ∈ W(A)` — `A`'s sources are evaluated on
//!   `B`'s downward check surface.
//!
//! Enumeration of `W` stops at the first non-adjacent box (its equivalent
//! density covers the whole subtree), so `W` members may be internal boxes;
//! `X` members are always leaves.
//!
//! Box keys resolve through [`Octree::find`] — the key → node hash map
//! every tree carries — for every caller; a per-level binary-search index
//! over the sorted level arrays was measured against it and lost
//! (DESIGN.md §4.2), so there is one builder.

use crate::octree::{Octree, NO_NODE};

/// Interaction lists for every box of a tree, indexed by node id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InteractionLists {
    /// Dense-interaction partners of each leaf (includes the leaf itself).
    pub u: Vec<Vec<u32>>,
    /// M2L partners (same level, well separated).
    pub v: Vec<Vec<u32>>,
    /// Finer, separated boxes whose equivalent densities act on this
    /// leaf's targets.
    pub w: Vec<Vec<u32>>,
    /// Coarser leaves whose raw sources act on this box's downward check
    /// surface.
    pub x: Vec<Vec<u32>>,
}

/// Build all four lists for `tree`. Every key resolves through
/// [`Octree::find`], the hash map each tree already carries.
pub fn build_lists(tree: &Octree) -> InteractionLists {
    let n = tree.num_nodes();
    let mut lists = InteractionLists {
        u: vec![Vec::new(); n],
        v: vec![Vec::new(); n],
        w: vec![Vec::new(); n],
        x: vec![Vec::new(); n],
    };

    for b in 0..n as u32 {
        let node = &tree.nodes[b as usize];
        let key = node.key;

        // V list: children of parent's colleagues, not adjacent to B.
        if node.parent != NO_NODE {
            let parent_key = tree.nodes[node.parent as usize].key;
            for pc in parent_key.neighbors().iter().filter_map(|k| tree.find(k)) {
                for &c in &tree.nodes[pc as usize].children {
                    if c == NO_NODE {
                        continue;
                    }
                    let ck = tree.nodes[c as usize].key;
                    if !key.is_adjacent(&ck) {
                        lists.v[b as usize].push(c);
                    }
                }
            }
        }

        if node.is_leaf() {
            // U list: adjacent leaves of any level, including B itself.
            // Same-or-finer adjacent leaves come from recursing colleagues;
            // coarser ones from resolving non-existent neighbor keys to
            // their deepest existing ancestor.
            let mut u = vec![b];
            // W list filled during the same downward recursion.
            let mut w = Vec::new();
            for nk in key.neighbors() {
                match tree.find(&nk) {
                    Some(nb) => collect_adjacent_descendants(tree, b, nb, &mut u, &mut w),
                    None => {
                        let anc = tree.deepest_ancestor(&nk);
                        let anc_nd = &tree.nodes[anc as usize];
                        if anc_nd.is_leaf() && anc_nd.key.is_adjacent(&key) {
                            u.push(anc);
                        }
                    }
                }
            }
            u.sort_unstable();
            u.dedup();
            lists.u[b as usize] = u;
            lists.w[b as usize] = w;
        }
    }

    // X list by duality: A ∈ X(B) ⇔ B ∈ W(A).
    for a in 0..n as u32 {
        // Take the W list out to appease the borrow checker.
        let w = std::mem::take(&mut lists.w[a as usize]);
        for &b in &w {
            lists.x[b as usize].push(a);
        }
        lists.w[a as usize] = w;
    }

    lists
}

/// Recurse into colleague `nb` of leaf `b`: adjacent leaves go to `u`,
/// adjacent internals are recursed, and the first non-adjacent descendant
/// goes to `w` (its subtree is covered by its equivalent density).
fn collect_adjacent_descendants(
    tree: &Octree,
    b: u32,
    current: u32,
    u: &mut Vec<u32>,
    w: &mut Vec<u32>,
) {
    let bkey = tree.nodes[b as usize].key;
    let cur = &tree.nodes[current as usize];
    if !bkey.is_adjacent(&cur.key) {
        w.push(current);
        return;
    }
    if cur.is_leaf() {
        u.push(current);
        return;
    }
    for &c in &cur.children {
        if c != NO_NODE {
            collect_adjacent_descendants(tree, b, c, u, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::MAX_LEVEL;

    fn cloud(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                std::array::from_fn(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
            })
            .collect()
    }

    /// Clustered cloud producing strong level jumps (exercises W/X).
    fn clustered(n: usize) -> Vec<[f64; 3]> {
        let mut pts = cloud(n / 2, 11);
        for p in cloud(n / 2, 22) {
            pts.push([0.9 + p[0] * 0.05, 0.9 + p[1] * 0.05, 0.9 + p[2] * 0.05]);
        }
        pts
    }

    #[test]
    fn u_contains_self_and_is_leaves() {
        let pts = cloud(2000, 3);
        let t = Octree::build(&pts, 30, MAX_LEVEL);
        let l = build_lists(&t);
        for b in t.leaves() {
            assert!(l.u[b as usize].contains(&b), "U must contain the leaf itself");
            for &m in &l.u[b as usize] {
                assert!(t.nodes[m as usize].is_leaf(), "U members are leaves");
                assert!(t.nodes[m as usize]
                    .key
                    .is_adjacent(&t.nodes[b as usize].key));
            }
        }
        // Non-leaves have empty U and W.
        for (i, nd) in t.nodes.iter().enumerate() {
            if !nd.is_leaf() {
                assert!(l.u[i].is_empty());
                assert!(l.w[i].is_empty());
            }
        }
    }

    #[test]
    fn u_is_symmetric_between_leaves() {
        let t = Octree::build(&clustered(3000), 25, MAX_LEVEL);
        let l = build_lists(&t);
        for b in t.leaves() {
            for &m in &l.u[b as usize] {
                assert!(
                    l.u[m as usize].contains(&b),
                    "U symmetry violated between {b} and {m}"
                );
            }
        }
    }

    #[test]
    fn v_members_same_level_not_adjacent() {
        let t = Octree::build(&cloud(4000, 5), 30, MAX_LEVEL);
        let l = build_lists(&t);
        for (b, vs) in l.v.iter().enumerate() {
            let bk = t.nodes[b].key;
            for &m in vs {
                let mk = t.nodes[m as usize].key;
                assert_eq!(bk.level, mk.level, "V members share the level");
                assert!(!bk.is_adjacent(&mk), "V members are separated");
                // Parents are adjacent (they are colleagues).
                assert!(bk
                    .parent()
                    .unwrap()
                    .is_adjacent(&mk.parent().unwrap()));
                // Offset within the 316-direction stencil.
                let off = bk.offset_to(&mk);
                assert!(off.iter().all(|&o| (-3..=3).contains(&o)));
                assert!(off.iter().any(|&o| o.abs() > 1));
            }
        }
    }

    #[test]
    fn v_is_symmetric() {
        let t = Octree::build(&clustered(3000), 20, MAX_LEVEL);
        let l = build_lists(&t);
        for (b, vs) in l.v.iter().enumerate() {
            for &m in vs {
                assert!(l.v[m as usize].contains(&(b as u32)), "V symmetry");
            }
        }
    }

    #[test]
    fn w_x_duality_and_shape() {
        let t = Octree::build(&clustered(4000), 15, MAX_LEVEL);
        let l = build_lists(&t);
        let mut any_w = false;
        for b in 0..t.num_nodes() as u32 {
            let bk = t.nodes[b as usize].key;
            for &m in &l.w[b as usize] {
                any_w = true;
                let mk = t.nodes[m as usize].key;
                assert!(mk.level > bk.level, "W members are finer");
                assert!(!bk.is_adjacent(&mk));
                assert!(bk.is_adjacent(&t.nodes[t.nodes[m as usize].parent as usize].key));
                // Duality with X.
                assert!(l.x[m as usize].contains(&b));
            }
            for &m in &l.x[b as usize] {
                let mk = t.nodes[m as usize].key;
                assert!(t.nodes[m as usize].is_leaf(), "X members are leaves");
                assert!(mk.level < bk.level, "X members are coarser");
                assert!(l.w[m as usize].contains(&b));
            }
        }
        assert!(any_w, "clustered cloud should produce nonempty W lists");
    }

    /// The fundamental covering property: for every (target leaf T, source
    /// leaf S) pair, the sources of S reach the targets of T through
    /// exactly one mechanism.
    #[test]
    fn every_leaf_pair_covered_exactly_once() {
        let t = Octree::build(&clustered(1200), 12, MAX_LEVEL);
        let l = build_lists(&t);
        let leaves: Vec<u32> = t.leaves().collect();
        for &target in &leaves {
            // Ancestor-or-self chain of the target.
            let mut chain = vec![target];
            let mut cur = target;
            while t.nodes[cur as usize].parent != NO_NODE {
                cur = t.nodes[cur as usize].parent;
                chain.push(cur);
            }
            for &source in &leaves {
                let skey = t.nodes[source as usize].key;
                let mut count = 0;
                // 1. dense
                if l.u[target as usize].contains(&source) {
                    count += 1;
                }
                // 2. M2L into any ancestor-or-self of T from a box
                //    containing S.
                for &b in &chain {
                    for &m in &l.v[b as usize] {
                        if t.nodes[m as usize].key.contains(&skey) {
                            count += 1;
                        }
                    }
                    // 4. X: S's own sources onto b's check surface.
                    if l.x[b as usize].contains(&source) {
                        count += 1;
                    }
                }
                // 3. W: equivalent density of a box containing S.
                for &m in &l.w[target as usize] {
                    if t.nodes[m as usize].key.contains(&skey) {
                        count += 1;
                    }
                }
                assert_eq!(
                    count, 1,
                    "pair (T={target}, S={source}) covered {count} times"
                );
            }
        }
    }
}
