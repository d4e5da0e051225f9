//! Morton-curve partitioning (paper §3.1).
//!
//! The paper orders input surface patches along the Morton curve and cuts
//! them into contiguous groups of (nearly) equal weight, one per
//! processor; "alternatively, we could use Morton curve partitioning
//! directly on the particles", which is what this module does: points,
//! each weighing 1 ([`partition_points`]) or a given weight
//! ([`partition_weighted_points`]), are cut along the `(code, index)`
//! order every tree sorts its points in ([`crate::morton::sort_codes`]);
//! [`Partition::gather`] deals them out.

use crate::morton::{morton_codes, sort_codes};
use crate::octree::Domain;

/// Assignment of items to `num_parts` contiguous Morton-curve segments.
#[derive(Clone, Debug)]
pub struct Partition {
    /// `groups[r]` = indices of the items owned by rank `r`.
    pub groups: Vec<Vec<usize>>,
}

impl Partition {
    /// `items` dealt out by group: `gather(items)[r][k] == items[groups[r][k]]`.
    pub fn gather<T: Clone>(&self, items: &[T]) -> Vec<Vec<T>> {
        self.groups.iter().map(|g| g.iter().map(|&i| items[i].clone()).collect()).collect()
    }
}

/// Partition weighted items, already ordered along the curve, into
/// `num_parts` contiguous groups with nearly equal weight (greedy
/// prefix-sum cuts).
pub fn split_by_weight(weights: &[f64], num_parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(num_parts >= 1);
    let total: f64 = weights.iter().sum();
    let n = weights.len();
    if !(total > 0.0) {
        // All-zero (or otherwise degenerate) total: every greedy target
        // collapses to 0 and the first part would swallow nearly all
        // items. Fall back to an even count split, which is the balanced
        // answer when weights carry no information.
        return (0..num_parts).map(|p| n * p / num_parts..n * (p + 1) / num_parts).collect();
    }
    let mut cuts = Vec::with_capacity(num_parts);
    let mut start = 0usize;
    let mut acc = 0.0;
    for part in 0..num_parts {
        let target = total * (part as f64 + 1.0) / num_parts as f64;
        let mut end = start;
        // Advance while we are below this part's cumulative target; always
        // leave enough items for the remaining parts when possible.
        while end < n && (acc + weights[end] <= target || end == start) {
            let remaining_parts = num_parts - part - 1;
            if n - (end + 1) < remaining_parts && end > start {
                break;
            }
            acc += weights[end];
            end += 1;
        }
        if part == num_parts - 1 {
            while end < n {
                acc += weights[end];
                end += 1;
            }
        }
        cuts.push(start..end);
        start = end;
    }
    cuts
}

/// Partition points with per-point weights, each finite and ≥ 0: order
/// them by `(code, index)` ([`sort_codes`]: coincident points stay in
/// index order), then cut by weight.
///
/// This is the cut for the paper's planned fix of its non-uniform
/// imbalance. §3.1: "Work estimates from a previous time step could be used
/// to obtain more balanced partitioning"; §5: "use workload information
/// from previous time steps for load balancing". To repeat that feedback,
/// give every point of rank r the seconds rank r's last evaluation took
/// (`EvalReport::stats`) divided by its point count, and cut again. The
/// `ablation_balance` bench does this with the harness's virtual seconds.
pub fn partition_weighted_points(
    points: &[[f64; 3]],
    weights: &[f64],
    num_parts: usize,
) -> Partition {
    assert!(!points.is_empty(), "cannot partition empty input");
    assert_eq!(points.len(), weights.len(), "one weight per item");
    if let Some(i) = weights.iter().position(|w| !(w.is_finite() && *w >= 0.0)) {
        panic!("partition: item {i} has weight {}, not finite and ≥ 0", weights[i]);
    }
    let codes = morton_codes(points, &Domain::containing(points))
        .unwrap_or_else(|(i, dim)| panic!("partition: item {i} is not finite along axis {dim}"));
    let (_, order) = sort_codes(&codes);
    let along: Vec<f64> = order.iter().map(|&i| weights[i as usize]).collect();
    let groups = split_by_weight(&along, num_parts)
        .into_iter()
        .map(|r| order[r].iter().map(|&i| i as usize).collect())
        .collect();
    Partition { groups }
}

/// Partition raw points directly (weight 1 each).
pub fn partition_points(points: &[[f64; 3]], num_parts: usize) -> Partition {
    partition_weighted_points(points, &vec![1.0; points.len()], num_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_geom::uniform_cube;

    #[test]
    fn split_exact_when_divisible() {
        let w = vec![1.0; 12];
        let cuts = split_by_weight(&w, 4);
        assert_eq!(cuts, vec![0..3, 3..6, 6..9, 9..12]);
    }

    #[test]
    fn split_covers_everything_once() {
        let w: Vec<f64> = (0..37).map(|i| 1.0 + (i % 5) as f64).collect();
        for parts in [1, 2, 3, 5, 8, 37, 50] {
            let cuts = split_by_weight(&w, parts);
            assert_eq!(cuts.len(), parts);
            let mut expect = 0;
            for c in &cuts {
                assert_eq!(c.start, expect);
                expect = c.end;
            }
            assert_eq!(expect, w.len());
        }
    }

    #[test]
    fn weights_must_be_finite_and_non_negative() {
        let pts = uniform_cube(10, 3);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut w = vec![1.0; 10];
            w[6] = bad;
            let err = std::panic::catch_unwind(|| partition_weighted_points(&pts, &w, 3))
                .expect_err(&format!("weight {bad} was accepted"));
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("item 6"), "{msg}");
        }
    }

    #[test]
    fn point_partition_is_contiguous_in_space() {
        let pts = uniform_cube(4000, 9);
        let p = partition_points(&pts, 8);
        let total: usize = p.groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 4000);
        // Every point appears exactly once.
        let mut seen = vec![false; 4000];
        for g in &p.groups {
            for &i in g {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Weight balance within one point.
        for g in &p.groups {
            assert!((g.len() as i64 - 500).abs() <= 1, "group size {}", g.len());
        }
    }

    /// The body each entry point carried before they shared one cut: a
    /// stable by-key sort, the key recomputed per compare.
    fn by_key_groups(keys: &[[f64; 3]], domain: Domain, weights: &[f64], parts: usize) -> Vec<Vec<usize>> {
        use crate::morton::{point_key, MAX_LEVEL};
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| point_key(keys[i], domain.center, domain.half, MAX_LEVEL).morton_code());
        let w: Vec<f64> = order.iter().map(|&i| weights[i]).collect();
        split_by_weight(&w, parts).into_iter().map(|r| r.map(|k| order[k]).collect()).collect()
    }

    #[test]
    fn both_entry_points_cut_one_curve() {
        let pts = uniform_cube(3000, 4);
        let domain = Domain::containing(&pts);
        let weights: Vec<f64> = (0..3000).map(|i| 1.0 + (i % 7) as f64).collect();
        for parts in [1, 3, 8] {
            assert_eq!(partition_points(&pts, parts).groups, by_key_groups(&pts, domain, &vec![1.0; 3000], parts));
            assert_eq!(
                partition_weighted_points(&pts, &weights, parts).groups,
                by_key_groups(&pts, domain, &weights, parts)
            );
        }
    }

    #[test]
    fn coincident_items_stay_in_index_order() {
        // Three piles of coincident points: inside a pile the codes tie,
        // so the curve order is the index order.
        let pile = |i: usize| [[0.7, 0.1, 0.2], [-0.5, 0.3, 0.9], [0.1, -0.8, -0.4]][i % 3];
        let pts: Vec<[f64; 3]> = (0..600).map(pile).collect();
        let flat: Vec<usize> = partition_points(&pts, 4).groups.concat();
        for run in flat.chunk_by(|&a, &b| pile(a) == pile(b)) {
            assert_eq!(run.len(), 200, "a pile is contiguous on the curve");
            assert!(run.windows(2).all(|w| w[0] < w[1]), "pile out of index order");
        }
        let part = partition_points(&pts, 4);
        assert_eq!(part.gather(&pts).concat(), flat.iter().map(|&i| pts[i]).collect::<Vec<_>>());
    }

    #[test]
    fn more_parts_than_items() {
        let w = vec![1.0; 3];
        let cuts = split_by_weight(&w, 5);
        assert_eq!(cuts.len(), 5);
        let nonempty = cuts.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    /// Ranges must tile `0..n` exactly, in order.
    fn assert_covers(cuts: &[std::ops::Range<usize>], n: usize) {
        let mut expect = 0;
        for c in cuts {
            assert_eq!(c.start, expect, "ranges must be contiguous");
            assert!(c.end >= c.start);
            expect = c.end;
        }
        assert_eq!(expect, n, "ranges must cover all items");
    }

    #[test]
    fn all_zero_weights_split_evenly() {
        // Regression: the greedy targets all collapse to 0 on a zero
        // total, which used to hand part 0 nearly every item.
        for (n, parts) in [(10, 4), (7, 3), (3, 5), (0, 2), (16, 1)] {
            let w = vec![0.0; n];
            let cuts = split_by_weight(&w, parts);
            assert_eq!(cuts.len(), parts);
            assert_covers(&cuts, n);
            let max = cuts.iter().map(|c| c.len()).max().unwrap();
            let min_expected = n / parts;
            assert!(
                max <= min_expected + 1,
                "zero weights must split evenly: {n} items over {parts} parts gave a group of {max}"
            );
        }
    }

    #[test]
    fn single_heavy_item_keeps_ranges_valid() {
        let mut w = vec![0.0; 9];
        w[4] = 100.0;
        for parts in [1, 2, 3, 9, 12] {
            let cuts = split_by_weight(&w, parts);
            assert_eq!(cuts.len(), parts);
            assert_covers(&cuts, w.len());
            // Exactly one part holds the heavy item.
            let holders = cuts.iter().filter(|c| c.contains(&4)).count();
            assert_eq!(holders, 1);
        }
        // Heavy item first/last (boundary positions).
        for pos in [0, 8] {
            let mut w = vec![0.0; 9];
            w[pos] = 5.0;
            let cuts = split_by_weight(&w, 4);
            assert_covers(&cuts, 9);
        }
    }

    #[test]
    fn zero_weights_with_more_parts_than_items() {
        let cuts = split_by_weight(&[0.0, 0.0], 6);
        assert_eq!(cuts.len(), 6);
        assert_covers(&cuts, 2);
    }
}
