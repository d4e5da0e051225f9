//! Morton (Z-order) keys for hierarchical octrees.
//!
//! A key identifies one box of the octree by its refinement level and its
//! integer anchor coordinates at that level. The linear order of keys at
//! the maximum depth is the Morton space-filling curve the paper uses for
//! partitioning and load balancing (§3.1, following Warren & Salmon).
//!
//! [`morton_codes`] and [`sort_codes`] are the one way from points to
//! that order: every tree build, the incremental update and the
//! partitioner sort `(code, index)` pairs here, so a cloud has one
//! permutation — ties on coincident codes included — whoever asks.

use crate::octree::Domain;
use kifmm_runtime::{num_threads, par_each};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum refinement level representable: the linearized code packs
/// 3·`MAX_LEVEL` interleaved coordinate bits plus 5 level bits into a
/// `u64`, so 19 is the deepest level that fits (3·19 + 5 = 62).
pub const MAX_LEVEL: u8 = 19;

/// One octree box: a refinement level and integer coordinates in
/// `[0, 2^level)³`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MortonKey {
    /// Refinement level; the root is level 0.
    pub level: u8,
    /// Anchor coordinates at `level` (x, y, z).
    pub coords: [u32; 3],
}

impl MortonKey {
    /// The root box.
    pub const ROOT: MortonKey = MortonKey { level: 0, coords: [0, 0, 0] };

    /// Construct, asserting validity in debug builds.
    #[inline]
    pub fn new(level: u8, coords: [u32; 3]) -> Self {
        debug_assert!(level <= MAX_LEVEL);
        debug_assert!(coords.iter().all(|&c| c < (1u32 << level) || level == 0 && c == 0));
        MortonKey { level, coords }
    }

    /// The parent box (None for the root).
    #[inline]
    pub fn parent(&self) -> Option<MortonKey> {
        if self.level == 0 {
            return None;
        }
        Some(MortonKey {
            level: self.level - 1,
            coords: [self.coords[0] >> 1, self.coords[1] >> 1, self.coords[2] >> 1],
        })
    }

    /// Child `octant ∈ [0, 8)`: bit 0 → x, bit 1 → y, bit 2 → z.
    #[inline]
    pub fn child(&self, octant: u8) -> MortonKey {
        debug_assert!(octant < 8);
        debug_assert!(self.level < MAX_LEVEL);
        MortonKey {
            level: self.level + 1,
            coords: [
                (self.coords[0] << 1) | u32::from(octant & 1),
                (self.coords[1] << 1) | u32::from((octant >> 1) & 1),
                (self.coords[2] << 1) | u32::from((octant >> 2) & 1),
            ],
        }
    }

    /// Which child of its parent this box is.
    #[inline]
    pub fn octant(&self) -> u8 {
        ((self.coords[0] & 1) | ((self.coords[1] & 1) << 1) | ((self.coords[2] & 1) << 2)) as u8
    }

    /// All 8 children.
    pub fn children(&self) -> [MortonKey; 8] {
        std::array::from_fn(|i| self.child(i as u8))
    }

    /// True when `self` is an ancestor of `other` (strict) or equal.
    pub fn contains(&self, other: &MortonKey) -> bool {
        if other.level < self.level {
            return false;
        }
        let shift = other.level - self.level;
        (0..3).all(|d| (other.coords[d] >> shift) == self.coords[d])
    }

    /// The ancestor of this key at `level` (≤ self.level).
    pub fn ancestor_at(&self, level: u8) -> MortonKey {
        assert!(level <= self.level);
        let shift = self.level - level;
        MortonKey {
            level,
            coords: [self.coords[0] >> shift, self.coords[1] >> shift, self.coords[2] >> shift],
        }
    }

    /// Same-level boxes whose closed cubes touch this one (≤ 26, fewer at
    /// domain boundaries); does not include `self`.
    pub fn neighbors(&self) -> Vec<MortonKey> {
        let mut out = Vec::with_capacity(26);
        let n = 1i64 << self.level;
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let x = self.coords[0] as i64 + dx;
                    let y = self.coords[1] as i64 + dy;
                    let z = self.coords[2] as i64 + dz;
                    if x < 0 || y < 0 || z < 0 || x >= n || y >= n || z >= n {
                        continue;
                    }
                    out.push(MortonKey {
                        level: self.level,
                        coords: [x as u32, y as u32, z as u32],
                    });
                }
            }
        }
        out
    }

    /// True when the closed cubes of the two boxes (possibly at different
    /// levels) intersect — the FMM notion of *adjacent*. A box is adjacent
    /// to itself and to its ancestors/descendants.
    pub fn is_adjacent(&self, other: &MortonKey) -> bool {
        // Compare the integer extents scaled to the finer level.
        let lvl = self.level.max(other.level);
        let (a_lo, a_hi) = self.extent_at(lvl);
        let (b_lo, b_hi) = other.extent_at(lvl);
        (0..3).all(|d| a_lo[d] <= b_hi[d] && b_lo[d] <= a_hi[d])
    }

    /// Inclusive integer extent `[lo, hi]` of this box at the finer
    /// `level`, per axis: `lo = c·2^Δ` and `hi = (c+1)·2^Δ`, where `c` is
    /// the box coordinate and `Δ = level − self.level`. The bounds are
    /// grid *vertices*, not cells, so boxes that touch share a coordinate.
    fn extent_at(&self, level: u8) -> ([u64; 3], [u64; 3]) {
        let shift = level - self.level;
        let lo = [
            (self.coords[0] as u64) << shift,
            (self.coords[1] as u64) << shift,
            (self.coords[2] as u64) << shift,
        ];
        let hi = [
            ((self.coords[0] as u64) + 1) << shift,
            ((self.coords[1] as u64) + 1) << shift,
            ((self.coords[2] as u64) + 1) << shift,
        ];
        (lo, hi)
    }

    /// Interleaved 63-bit Morton code of the box anchor at [`MAX_LEVEL`],
    /// with the level in the low bits — totally ordered along the
    /// space-filling curve, ancestors sorting before descendants.
    pub fn morton_code(&self) -> u64 {
        let shift = MAX_LEVEL - self.level;
        let x = (self.coords[0] as u64) << shift;
        let y = (self.coords[1] as u64) << shift;
        let z = (self.coords[2] as u64) << shift;
        (interleave3(x) | (interleave3(y) << 1) | (interleave3(z) << 2)) << 5
            | self.level as u64
    }

    /// Offset `(other − self)` in units of this box's side, when both boxes
    /// are at the same level (used to index the 316 M2L directions).
    pub fn offset_to(&self, other: &MortonKey) -> [i32; 3] {
        debug_assert_eq!(self.level, other.level);
        [
            other.coords[0] as i32 - self.coords[0] as i32,
            other.coords[1] as i32 - self.coords[1] as i32,
            other.coords[2] as i32 - self.coords[2] as i32,
        ]
    }
}

/// Spread the low 21 bits of `v` so consecutive bits land 3 apart.
#[inline]
fn interleave3(mut v: u64) -> u64 {
    v &= (1 << 21) - 1;
    v = (v | (v << 32)) & 0x1f00000000ffff;
    v = (v | (v << 16)) & 0x1f0000ff0000ff;
    v = (v | (v << 8)) & 0x100f00f00f00f00f;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

/// Map a point in the unit domain cube to its Morton key at `level`.
///
/// `center`/`half` describe the computational domain (a cube containing
/// all points); coordinates are clamped so boundary points stay inside.
pub fn point_key(p: [f64; 3], center: [f64; 3], half: f64, level: u8) -> MortonKey {
    let n = 1u32 << level;
    let coords = std::array::from_fn(|d| {
        let t = (p[d] - (center[d] - half)) / (2.0 * half);
        ((t * n as f64) as i64).clamp(0, n as i64 - 1) as u32
    });
    MortonKey { level, coords }
}

/// True when `p` lies inside the closed domain cube `center ± half`.
/// `NaN` coordinates count as outside.
pub fn point_in_domain(p: [f64; 3], center: [f64; 3], half: f64) -> bool {
    (0..3).all(|d| (p[d] - center[d]).abs() <= half)
}

/// As [`point_key`], but refusing points outside the domain cube instead
/// of silently clamping them into boundary boxes. Returns the first
/// offending dimension on failure.
///
/// A point outside the cube — drifted out of an updated tree's fixed
/// domain, or never inside a caller-supplied one — would otherwise be
/// silently folded into a boundary box, corrupting the tree while every
/// invariant check still passes. After this test the clamp only rescues
/// boundary points from rounding.
pub fn try_point_key(
    p: [f64; 3],
    center: [f64; 3],
    half: f64,
    level: u8,
) -> Result<MortonKey, usize> {
    if point_in_domain(p, center, half) {
        return Ok(point_key(p, center, half, level));
    }
    // The cube test with the other two axes held at the centre is the
    // one-axis test.
    let outside = |d: usize| {
        let mut q = center;
        q[d] = p[d];
        !point_in_domain(q, center, half)
    };
    Err((0..3).find(|&d| outside(d)).expect("a point outside the cube is outside along an axis"))
}

/// Max-depth Morton code of every point, in storage order. A point
/// outside the closed `domain` cube (`NaN` included) is refused as
/// `Err((point, dim))`: the smallest offending index and its first
/// offending axis, whichever worker saw it.
pub fn morton_codes(points: &[[f64; 3]], domain: &Domain) -> Result<Vec<u64>, (usize, usize)> {
    const CHUNK: usize = 1 << 16;
    let mut codes = vec![0u64; points.len()];
    // Encoded (point << 2) | dim, so the atomic min is the smallest index.
    let outside = AtomicU64::new(u64::MAX);
    par_each(num_threads(), codes.chunks_mut(CHUNK), || (), |(), ci, chunk| {
        let base = ci * CHUNK;
        for (j, (slot, &p)) in chunk.iter_mut().zip(&points[base..]).enumerate() {
            match try_point_key(p, domain.center, domain.half, MAX_LEVEL) {
                Ok(k) => *slot = k.morton_code(),
                Err(dim) => {
                    outside.fetch_min((((base + j) as u64) << 2) | dim as u64, Ordering::Relaxed);
                }
            }
        }
    });
    match outside.into_inner() {
        u64::MAX => Ok(codes),
        first => Err(((first >> 2) as usize, (first & 3) as usize)),
    }
}

/// Sort `(code, index)` pairs: the curve order, ties on equal codes broken
/// by index, so the order is total and the same for any thread count.
pub(crate) fn sort_pairs(pairs: &mut [(u64, u32)]) {
    kifmm_runtime::par_sort_unstable(pairs);
}

/// Curve order of `codes`: `(sorted_codes, perm)` with
/// `sorted_codes[k] == codes[perm[k]]`, equal codes in index order
/// ([`sort_pairs`]). The pair vector is dropped before returning.
pub fn sort_codes(codes: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let mut pairs: Vec<(u64, u32)> = codes.iter().copied().zip(0u32..).collect();
    sort_pairs(&mut pairs);
    pairs.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_roundtrip() {
        let k = MortonKey::new(3, [5, 2, 7]);
        for oct in 0..8 {
            let c = k.child(oct);
            assert_eq!(c.parent(), Some(k));
            assert_eq!(c.octant(), oct);
            assert!(k.contains(&c));
            assert!(!c.contains(&k));
        }
        assert_eq!(MortonKey::ROOT.parent(), None);
    }

    #[test]
    fn containment_and_ancestors() {
        let k = MortonKey::new(4, [9, 3, 14]);
        assert!(MortonKey::ROOT.contains(&k));
        assert!(k.contains(&k));
        assert_eq!(k.ancestor_at(0), MortonKey::ROOT);
        assert_eq!(k.ancestor_at(4), k);
        let a2 = k.ancestor_at(2);
        assert_eq!(a2.coords, [2, 0, 3]);
        assert!(a2.contains(&k));
    }

    #[test]
    fn neighbor_counts() {
        // Interior box: 26 neighbors.
        assert_eq!(MortonKey::new(2, [1, 1, 1]).neighbors().len(), 26);
        // Corner box: 7.
        assert_eq!(MortonKey::new(2, [0, 0, 0]).neighbors().len(), 7);
        // Face-center box on a 4-grid boundary: depends; level-1 corner: 7.
        assert_eq!(MortonKey::new(1, [0, 0, 0]).neighbors().len(), 7);
        // Root has no neighbors.
        assert!(MortonKey::ROOT.neighbors().is_empty());
    }

    #[test]
    fn adjacency_same_level() {
        let a = MortonKey::new(2, [1, 1, 1]);
        assert!(a.is_adjacent(&a));
        assert!(a.is_adjacent(&MortonKey::new(2, [2, 2, 2]))); // corner touch
        assert!(a.is_adjacent(&MortonKey::new(2, [1, 1, 2]))); // face
        assert!(!a.is_adjacent(&MortonKey::new(2, [1, 1, 3]))); // gap
        assert!(!a.is_adjacent(&MortonKey::new(2, [3, 1, 1])));
    }

    #[test]
    fn adjacency_cross_level() {
        let coarse = MortonKey::new(1, [0, 0, 0]); // covers [0,2)^3 at level 2
        let fine_touching = MortonKey::new(2, [2, 0, 0]); // shares the x=2 face
        let fine_far = MortonKey::new(2, [3, 0, 0]);
        assert!(coarse.is_adjacent(&fine_touching));
        assert!(!coarse.is_adjacent(&fine_far));
        // A box is adjacent to its descendants (overlapping closures).
        assert!(coarse.is_adjacent(&MortonKey::new(2, [1, 1, 1])));
    }

    #[test]
    fn morton_order_groups_children() {
        // The children of a box, at max-depth code, sort within the parent's
        // curve segment and outside no other's.
        let p = MortonKey::new(2, [1, 2, 3]);
        let sibling = MortonKey::new(2, [1, 2, 2]);
        for c in p.children() {
            let code = c.morton_code() >> 5;
            let lo = p.morton_code() >> 5;
            let hi = lo + (1 << (3 * (MAX_LEVEL - 2)));
            assert!(code >= lo && code < hi);
            let slo = sibling.morton_code() >> 5;
            let shi = slo + (1 << (3 * (MAX_LEVEL - 2)));
            assert!(!(code >= slo && code < shi));
        }
    }

    #[test]
    fn point_key_mapping() {
        let c = [0.0, 0.0, 0.0];
        let h = 1.0;
        assert_eq!(point_key([-1.0, -1.0, -1.0], c, h, 3).coords, [0, 0, 0]);
        assert_eq!(point_key([1.0, 1.0, 1.0], c, h, 3).coords, [7, 7, 7]);
        assert_eq!(point_key([0.0, 0.0, 0.0], c, h, 1).coords, [1, 1, 1]);
        // A point is always inside the box of its key.
        let k = point_key([0.3, -0.7, 0.9], c, h, 5);
        assert!(k.coords.iter().all(|&v| v < 32));
    }

    #[test]
    fn offset_to() {
        let a = MortonKey::new(3, [2, 3, 4]);
        let b = MortonKey::new(3, [5, 1, 4]);
        assert_eq!(a.offset_to(&b), [3, -2, 0]);
        assert_eq!(b.offset_to(&a), [-3, 2, 0]);
    }

    #[test]
    fn interleave_bit_pattern() {
        assert_eq!(interleave3(0b11), 0b1001);
        assert_eq!(interleave3(0b101), 0b1000001);
    }

    #[test]
    fn try_point_key_accepts_boundary_rejects_drift() {
        let c = [0.5, -0.5, 0.0];
        let h = 2.0;
        // Interior and exact-boundary points succeed and agree with the
        // clamping map.
        for p in [[0.5, -0.5, 0.0], [2.5, 1.5, 2.0], [-1.5, -2.5, -2.0]] {
            assert!(point_in_domain(p, c, h));
            assert_eq!(try_point_key(p, c, h, 4), Ok(point_key(p, c, h, 4)));
        }
        // Drift outside reports the first offending dimension; the clamping
        // map would have silently folded these into boundary boxes.
        assert_eq!(try_point_key([2.5 + 1e-9, 0.0, 0.0], c, h, 4), Err(0));
        assert_eq!(try_point_key([0.5, -2.6, 0.0], c, h, 4), Err(1));
        assert_eq!(try_point_key([0.5, 0.0, 2.1], c, h, 4), Err(2));
        assert!(!point_in_domain([0.5, 0.0, 2.1], c, h));
        // NaN is never inside.
        assert_eq!(try_point_key([0.5, f64::NAN, 0.0], c, h, 4), Err(1));
    }
}
