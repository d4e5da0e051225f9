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
//! * **Allreduce** ([`TreeBuild::Paper`]) — one collective per level, the
//!   paper's algorithm, O(depth) collectives;
//! * **oracle** ([`TreeBuild::SampleSort`]) — following Hu, Gumerov &
//!   Duraiswami (arXiv:1301.1704), a *parallel sample sort* of the
//!   max-depth codes gives rank `r` a contiguous chunk of the global code
//!   array, [`chunk_summary`] compresses it into a small set of disjoint
//!   (box, count) entries, and one Allgather of those summaries gives every
//!   rank an exact [`GlobalCounts`] oracle: O(1) collectives.
//!
//! The two distributed providers are wired to `kifmm-mpi` in
//! `kifmm-parallel::global_tree`; everything here is communication-free.
//! [`code_range`] is the half-open max-depth code interval a box covers.

use crate::morton::{MortonKey, MAX_LEVEL};
use crate::octree::{Node, NO_NODE};

/// Which distributed tree-construction algorithm to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TreeBuild {
    /// Morton sample-sort construction (Hu–Gumerov–Duraiswami): O(1)
    /// collectives regardless of tree depth. The default.
    #[default]
    SampleSort,
    /// The paper's level-by-level construction: one `Allreduce` of
    /// candidate-child counts per level (§3.1). Kept as the Table 4.2
    /// ablation path; produces bitwise-identical structure.
    Paper,
}

/// Half-open interval `[base, end)` of max-depth point codes covered by
/// box `key`. Valid because point codes carry `MAX_LEVEL` in their low 5
/// bits, and `MAX_LEVEL < 32 ≤ end − base` for every box level.
pub fn code_range(key: &MortonKey) -> (u64, u64) {
    let span = 1u64 << (3 * (MAX_LEVEL - key.level) as u32 + 5);
    let base = (key.morton_code() >> 5) << 5;
    (base, base + span)
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
/// Allreduces them, the sample-sort build asks its [`GlobalCounts`] oracle
/// about `keys`. The loop reads nothing but the returned counts, so
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

/// One entry of a rank's chunk summary: a box and the exact number of
/// chunk codes inside it. Wire format: two `u64`s (`key.morton_code()`,
/// `count`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryEntry {
    /// The summarized box.
    pub key: MortonKey,
    /// Number of this chunk's codes inside the box.
    pub count: u64,
}

/// Compress a sorted, *value-contiguous* chunk of the global code array
/// into disjoint (box, count) entries, recursing from the root:
///
/// * an empty box publishes nothing;
/// * a box at `max_level` publishes a leaf entry (the global build never
///   examines anything deeper);
/// * a box with ≤ `max_pts_per_leaf` codes publishes a leaf entry *iff*
///   `chunk_private(base, end)` — no other rank's chunk intersects its
///   code range, so the local count is already the global count;
/// * every other box recurses into its children.
///
/// The split-until-private rule is what makes [`GlobalCounts`] exact: a
/// published leaf can never strictly contain a box the global build
/// examines (such a box's parent would have global count > s while lying
/// inside a ≤ s private leaf — a contradiction), so every oracle query
/// decomposes into whole entries.
pub fn chunk_summary(
    chunk: &[u64],
    max_pts_per_leaf: usize,
    max_level: u8,
    chunk_private: &dyn Fn(u64, u64) -> bool,
) -> Vec<SummaryEntry> {
    debug_assert!(chunk.windows(2).all(|w| w[0] <= w[1]), "chunk must be sorted");
    let max_level = max_level.min(MAX_LEVEL);
    let mut out = Vec::new();
    descend(chunk, MortonKey::ROOT, max_pts_per_leaf, max_level, chunk_private, &mut out);
    out
}

/// DFS worker for [`chunk_summary`]: `slice` is the sub-range of the
/// chunk inside `key`. Emits entries in ascending code-range order.
fn descend(
    slice: &[u64],
    key: MortonKey,
    s: usize,
    max_level: u8,
    chunk_private: &dyn Fn(u64, u64) -> bool,
    out: &mut Vec<SummaryEntry>,
) {
    if slice.is_empty() {
        return;
    }
    let (base, end) = code_range(&key);
    if key.level == max_level || (slice.len() <= s && chunk_private(base, end)) {
        out.push(SummaryEntry { key, count: slice.len() as u64 });
        return;
    }
    let shift = 3 * (MAX_LEVEL - (key.level + 1)) as u32 + 5;
    let mut lo = 0usize;
    for oct in 0..8u8 {
        let hi = lo + slice[lo..].partition_point(|&c| ((c >> shift) & 7) as u8 <= oct);
        if hi > lo {
            descend(&slice[lo..hi], key.child(oct), s, max_level, chunk_private, out);
            lo = hi;
        }
    }
    debug_assert_eq!(lo, slice.len());
}

/// Exact global-count oracle over the merged chunk summaries of all
/// ranks. Entries from different ranks are pairwise disjoint except for
/// identical `max_level` boxes straddling a chunk boundary, whose counts
/// are additive — so every query that respects the split contract (see
/// [`chunk_summary`]) decomposes into whole entries and a prefix-sum
/// range gives the exact answer.
pub struct GlobalCounts {
    /// Entry code-range starts, ascending.
    bases: Vec<u64>,
    /// Entry code-range ends, aligned with `bases` (ascending too, since
    /// entries are disjoint-or-equal).
    ends: Vec<u64>,
    /// Prefix sums of entry counts; `prefix[i]` = total count of entries
    /// `..i`.
    prefix: Vec<u64>,
}

impl GlobalCounts {
    /// Merge the gathered summaries of all ranks into the oracle.
    pub fn new(mut entries: Vec<SummaryEntry>) -> GlobalCounts {
        entries.sort_unstable_by_key(|e| code_range(&e.key).0);
        let mut bases = Vec::with_capacity(entries.len());
        let mut ends = Vec::with_capacity(entries.len());
        let mut prefix = Vec::with_capacity(entries.len() + 1);
        prefix.push(0u64);
        for e in &entries {
            let (b, en) = code_range(&e.key);
            bases.push(b);
            ends.push(en);
            prefix.push(prefix.last().unwrap() + e.count);
        }
        debug_assert!(
            bases.windows(2).zip(ends.windows(2)).all(|(b, e)| b[0] == b[1] || e[0] <= b[1]),
            "summary entries must be pairwise disjoint or identical"
        );
        GlobalCounts { bases, ends, prefix }
    }

    /// Total code count across all entries (the global point count).
    pub fn total(&self) -> u64 {
        *self.prefix.last().unwrap()
    }

    /// Exact number of global codes inside `key`. Only valid for boxes
    /// the global build examines (children of boxes with global count
    /// > s) — the split contract guarantees no entry strictly contains
    /// such a box, which debug builds verify.
    pub fn count(&self, key: &MortonKey) -> u64 {
        let (lo, hi) = code_range(key);
        let a = self.bases.partition_point(|&b| b < lo);
        let b = self.bases.partition_point(|&b| b < hi);
        debug_assert!(
            a == 0 || self.ends[a - 1] <= lo,
            "summary entry strictly contains queried box {key:?}"
        );
        debug_assert!(
            b == a || self.ends[b - 1] <= hi,
            "summary entry straddles queried box {key:?}"
        );
        self.prefix[b] - self.prefix[a]
    }
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

    #[test]
    fn whole_array_summary_reproduces_exact_counts() {
        // A single chunk covering everything, always private: the oracle
        // must agree with a linear count for every box of the real tree.
        let pts = cloud(1500, 42);
        let t = Octree::build(&pts, 30, MAX_LEVEL);
        let codes = sorted_codes(&pts, &t.domain);
        let summary = chunk_summary(&codes, 30, t.depth(), &|_, _| true);
        let counts = GlobalCounts::new(summary);
        assert_eq!(counts.total(), pts.len() as u64);
        for nd in &t.nodes {
            let (lo, hi) = code_range(&nd.key);
            let expect = codes.iter().filter(|&&c| c >= lo && c < hi).count() as u64;
            assert_eq!(counts.count(&nd.key), expect, "box {:?}", nd.key);
            assert_eq!(expect, nd.num_points() as u64);
        }
    }

    #[test]
    fn split_summaries_merge_to_exact_counts() {
        // Cut the sorted array into value-contiguous chunks (as the sample
        // sort would) and verify the merged per-chunk summaries stay exact,
        // including for boxes whose range straddles chunk boundaries.
        let pts = cloud(2400, 7);
        let s = 25;
        let t = Octree::build(&pts, s, MAX_LEVEL);
        let codes = sorted_codes(&pts, &t.domain);
        for cuts in [vec![800, 1600], vec![1, 2399], vec![1200]] {
            let mut bounds = vec![0];
            bounds.extend(&cuts);
            bounds.push(codes.len());
            // Value-contiguity: advance cuts past duplicate runs.
            let bounds: Vec<usize> = bounds
                .iter()
                .map(|&b| codes.partition_point(|&c| c < codes.get(b).copied().unwrap_or(u64::MAX)))
                .collect();
            let chunks: Vec<&[u64]> =
                bounds.windows(2).map(|w| &codes[w[0]..w[1]]).collect();
            let ranges: Vec<Option<(u64, u64)>> = chunks
                .iter()
                .map(|c| c.first().map(|&f| (f, *c.last().unwrap())))
                .collect();
            let mut entries = Vec::new();
            for (ci, chunk) in chunks.iter().enumerate() {
                let others: Vec<(u64, u64)> = ranges
                    .iter()
                    .enumerate()
                    .filter(|&(i, r)| i != ci && r.is_some())
                    .map(|(_, r)| r.unwrap())
                    .collect();
                let private =
                    move |lo: u64, hi: u64| others.iter().all(|&(f, l)| l < lo || f >= hi);
                entries.extend(chunk_summary(chunk, s, t.depth(), &private));
            }
            let counts = GlobalCounts::new(entries);
            assert_eq!(counts.total(), pts.len() as u64);
            for nd in &t.nodes {
                assert_eq!(
                    counts.count(&nd.key),
                    nd.num_points() as u64,
                    "box {:?} with cuts {cuts:?}",
                    nd.key
                );
            }
        }
    }

    #[test]
    fn coincident_codes_summarize_at_max_level() {
        // All codes equal: the summary must bottom out at max_level with
        // one entry holding everything, never an infinite recursion.
        let codes = vec![point_key([0.1, 0.2, 0.3], [0.0; 3], 1.0, MAX_LEVEL).morton_code(); 100];
        let summary = chunk_summary(&codes, 10, 4, &|_, _| false);
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].count, 100);
        assert_eq!(summary[0].key.level, 4);
        let counts = GlobalCounts::new(summary);
        assert_eq!(counts.total(), 100);
    }

    #[test]
    fn tree_build_default_is_sample_sort() {
        assert_eq!(TreeBuild::default(), TreeBuild::SampleSort);
        assert_ne!(TreeBuild::SampleSort, TreeBuild::Paper);
    }
}
