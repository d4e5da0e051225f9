//! Contributor/user roles and owner assignment (paper §3.2).
//!
//! A rank *contributes* to a box when it holds points inside it; it *uses*
//! a box when that box appears in the U/V/W/X lists of a box it contributes
//! to. The box's *owner* coordinates communication: sole contributors own
//! their boxes outright ("taken"); multiply-contributed boxes are assigned
//! by a deterministic sequential pass, identical on all ranks, that
//! balances communication load.
//!
//! Two separate user relations are tracked, because they move different
//! payloads: **source users** (U/X members: need the box's global source
//! points and densities) and **equivalent users** (V/W members: need the
//! box's summed upward equivalent density).

use kifmm_mpi::{allreduce_u64, Comm, ReduceOp};
use kifmm_tree::InteractionLists;

/// Rank-set bitmasks and owners for every box.
pub struct Ownership {
    /// Owner rank per box.
    pub owner: Vec<u32>,
    words: usize,
    size: usize,
    contributors: Vec<u64>,
    src_users: Vec<u64>,
    equiv_users: Vec<u64>,
}

impl Ownership {
    /// Collective: build masks from this rank's local point counts and the
    /// (globally identical) interaction lists, then assign owners.
    pub fn build(
        comm: &Comm,
        local_counts: impl Fn(usize) -> usize,
        global_counts: &[u64],
        lists: &InteractionLists,
        num_nodes: usize,
    ) -> Ownership {
        let size = comm.size();
        let words = size.div_ceil(64);
        let me = comm.rank();
        let my_bit = |mask: &mut [u64], node: usize| {
            mask[node * words + me / 64] |= 1u64 << (me % 64);
        };

        let mut contributors = vec![0u64; num_nodes * words];
        let mut src_users = vec![0u64; num_nodes * words];
        let mut equiv_users = vec![0u64; num_nodes * words];
        for b in 0..num_nodes {
            if local_counts(b) == 0 {
                continue;
            }
            my_bit(&mut contributors, b);
            // I use the lists of boxes I contribute to.
            for &a in &lists.u[b] {
                my_bit(&mut src_users, a as usize);
            }
            for &a in &lists.x[b] {
                my_bit(&mut src_users, a as usize);
            }
            for &a in &lists.v[b] {
                my_bit(&mut equiv_users, a as usize);
            }
            for &a in &lists.w[b] {
                my_bit(&mut equiv_users, a as usize);
            }
        }
        // One allreduce over the three mask arrays concatenated instead of
        // three — same bits, a third of the collective latency.
        let section = num_nodes * words;
        let mut masks = Vec::with_capacity(3 * section);
        masks.extend_from_slice(&contributors);
        masks.extend_from_slice(&src_users);
        masks.extend_from_slice(&equiv_users);
        allreduce_u64(comm, &mut masks, ReduceOp::BitOr);
        contributors.copy_from_slice(&masks[..section]);
        src_users.copy_from_slice(&masks[section..2 * section]);
        equiv_users.copy_from_slice(&masks[2 * section..]);

        // Owner assignment: sole contributors own; the rest are assigned by
        // an identical sequential min-load pass on every rank.
        let mut owner = vec![u32::MAX; num_nodes];
        let mut load = vec![0u64; size];
        let popcount = |mask: &[u64], node: usize| -> u32 {
            mask[node * words..(node + 1) * words]
                .iter()
                .map(|w| w.count_ones())
                .sum()
        };
        let first_rank = |mask: &[u64], node: usize| -> u32 {
            for (wi, &w) in mask[node * words..(node + 1) * words].iter().enumerate() {
                if w != 0 {
                    return (wi * 64 + w.trailing_zeros() as usize) as u32;
                }
            }
            u32::MAX
        };
        // Step 1+2: boxes taken by sole contributors.
        for b in 0..num_nodes {
            if popcount(&contributors, b) == 1 {
                let r = first_rank(&contributors, b);
                owner[b] = r;
                load[r as usize] += global_counts[b].max(1);
            }
        }
        // Step 3: deterministic balance pass over the rest, choosing the
        // least-loaded contributor (ties to the lowest rank).
        for b in 0..num_nodes {
            if owner[b] != u32::MAX {
                continue;
            }
            let mut best = u32::MAX;
            let mut best_load = u64::MAX;
            for r in 0..size {
                let bit = contributors[b * words + r / 64] >> (r % 64) & 1;
                if bit == 1 && load[r] < best_load {
                    best = r as u32;
                    best_load = load[r];
                }
            }
            assert!(best != u32::MAX, "every box has a contributor");
            owner[b] = best;
            load[best as usize] += global_counts[b].max(1);
        }
        Ownership { owner, words, size, contributors, src_users, equiv_users }
    }

    /// True when `rank` contributes to `node`.
    pub fn is_contributor(&self, node: usize, rank: usize) -> bool {
        self.contributors[node * self.words + rank / 64] >> (rank % 64) & 1 == 1
    }

    /// True when `rank` needs the global sources of `node`.
    pub fn is_src_user(&self, node: usize, rank: usize) -> bool {
        self.src_users[node * self.words + rank / 64] >> (rank % 64) & 1 == 1
    }

    /// True when `rank` needs the global upward equivalent density of
    /// `node`.
    pub fn is_equiv_user(&self, node: usize, rank: usize) -> bool {
        self.equiv_users[node * self.words + rank / 64] >> (rank % 64) & 1 == 1
    }

    /// Ranks contributing to `node`, ascending.
    pub fn contributors(&self, node: usize) -> Vec<usize> {
        self.ranks_of(&self.contributors, node)
    }

    /// Ranks needing the global sources of `node`, ascending.
    pub fn src_users(&self, node: usize) -> Vec<usize> {
        self.ranks_of(&self.src_users, node)
    }

    /// Ranks needing the global equivalent density of `node`, ascending.
    pub fn equiv_users(&self, node: usize) -> Vec<usize> {
        self.ranks_of(&self.equiv_users, node)
    }

    /// True when anyone needs the global sources of `node`.
    pub fn has_src_users(&self, node: usize) -> bool {
        self.src_users[node * self.words..(node + 1) * self.words]
            .iter()
            .any(|&w| w != 0)
    }

    /// True when anyone needs the global equivalent density of `node`.
    pub fn has_equiv_users(&self, node: usize) -> bool {
        self.equiv_users[node * self.words..(node + 1) * self.words]
            .iter()
            .any(|&w| w != 0)
    }

    fn ranks_of(&self, mask: &[u64], node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for r in 0..self.size {
            if mask[node * self.words + r / 64] >> (r % 64) & 1 == 1 {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_tree::build_distributed_tree_with;
    use kifmm_geom::uniform_cube;
    use kifmm_mpi::run;
    use kifmm_tree::{build_lists, partition_points, TreeBuild, MAX_LEVEL};

    #[test]
    fn owners_consistent_and_contributing() {
        let all = uniform_cube(2000, 3);
        let chunks = partition_points(&all, 4).gather(&all);
        let out = run(4, |comm| {
            let local = &chunks[comm.rank()];
            let dt = build_distributed_tree_with(comm, local, 30, MAX_LEVEL, TreeBuild::default());
            let lists = build_lists(&dt.tree);
            let nn = dt.tree.num_nodes();
            let own = Ownership::build(
                comm,
                |b| dt.tree.nodes[b].num_points(),
                &dt.global_counts,
                &lists,
                nn,
            );
            // Every owner contributes to its box.
            for b in 0..nn {
                assert!(own.is_contributor(b, own.owner[b] as usize));
            }
            // I am marked as contributor exactly where I have points.
            for b in 0..nn {
                assert_eq!(
                    own.is_contributor(b, comm.rank()),
                    dt.tree.nodes[b].num_points() > 0
                );
            }
            own.owner.clone()
        });
        // All ranks agree on owners.
        for o in &out[1..] {
            assert_eq!(o, &out[0]);
        }
    }

    #[test]
    fn user_masks_cover_own_leaves() {
        // A rank with points in a leaf is a source user of that leaf
        // (B ∈ U(B)).
        let all = uniform_cube(800, 9);
        let chunks = partition_points(&all, 2).gather(&all);
        run(2, |comm| {
            let local = &chunks[comm.rank()];
            let dt = build_distributed_tree_with(comm, local, 25, MAX_LEVEL, TreeBuild::default());
            let lists = build_lists(&dt.tree);
            let nn = dt.tree.num_nodes();
            let own = Ownership::build(
                comm,
                |b| dt.tree.nodes[b].num_points(),
                &dt.global_counts,
                &lists,
                nn,
            );
            for b in 0..nn {
                if dt.tree.nodes[b].is_leaf() && dt.tree.nodes[b].num_points() > 0 {
                    assert!(own.is_src_user(b, comm.rank()));
                }
            }
        });
    }
}
