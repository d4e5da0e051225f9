//! Translation operators (paper §2.1, equations (2.1)–(2.5)) and the one
//! rule for which table a level reads, times what.
//!
//! All boxes of one level share the same geometry up to translation, so the
//! four dense operators are precomputed once per level:
//!
//! * `UC2UE` — upward check potential → upward equivalent density: the
//!   (regularized pseudo-)inverse of the first-kind system (2.1)/(2.3);
//! * `UE2UC[oct]` — child upward equivalent → parent upward check (the
//!   forward map of the M2M translation (2.3)), one per octant;
//! * `DC2DE` — downward check potential → downward equivalent density
//!   (inverse of (2.2)/(2.4)/(2.5));
//! * `DE2DC[oct]` — parent downward equivalent → child downward check (the
//!   forward map of the L2L translation (2.5)).
//!
//! [`LevelRule`] is the only place outside `kifmm-kernels` that looks at
//! [`Kernel::homogeneity`]. For a kernel homogeneous of degree `d`
//! (Laplace, Stokes: `d = −1`) every table — these operators, the FFT M2L
//! tensors, the dense M2L matrices — is assembled **once**, at the
//! reference level, and level `l` multiplies it by `fwd = (r_l/r_ref)^d`
//! (forward maps) or `inv = (r_l/r_ref)^−d` (inversions) as it is applied:
//! the engine hands the factor to `gemm_slices` as `alpha`, which forms
//! `alpha · a[i][p]` — the very product a pre-scaled copy would have
//! stored — so the result is bit-identical to scaling the table, for any
//! degree. A kernel with a physical length scale (modified Laplace,
//! Gaussian) gets one table per level and factors of exactly 1.

use crate::surface::{surface_points, RAD_INNER, RAD_OUTER};
use kifmm_kernels::{assemble, Kernel};
use kifmm_linalg::{pinv_with_tol, Mat};

/// The coarsest level that carries equivalent densities.
pub const FIRST_FMM_LEVEL: u8 = 2;

/// Relative singular-value truncation of the check-to-equivalent
/// pseudoinverses. A constant, not an option: the operator tables are
/// cached by `(kernel, depth, root half-width, order, M2L mode)`, so a
/// settable tolerance that is not part of those keys would be served stale
/// tables.
pub const PINV_TOL: f64 = 1e-10;

/// What one level reads: table slot `slot`, forward maps times `fwd`,
/// inversions times `inv`.
#[derive(Clone, Copy, Debug)]
pub struct LevelScale {
    /// Index of the table the level shares (operators, M2L tensors).
    pub slot: usize,
    /// `λ^deg`, `λ` = level half-width / slot half-width (exactly 1 when
    /// every level has its own slot).
    pub fwd: f64,
    /// `λ^−deg`.
    pub inv: f64,
}

/// Level → [`LevelScale`] for levels `2..=depth` (coarser levels have no
/// well-separated boxes, hence no equivalent densities — the redundant
/// near-root work the paper accepts is skipped entirely in serial), plus
/// the box half-width each table slot is assembled at.
#[derive(Clone, Debug)]
pub struct LevelRule {
    /// Entry `i` is level `FIRST_FMM_LEVEL + i`.
    levels: Vec<LevelScale>,
    slot_halves: Vec<f64>,
}

impl LevelRule {
    /// The rule for `kernel` over a tree of the given depth whose root box
    /// has half-width `root_half`: one slot at [`FIRST_FMM_LEVEL`] for a
    /// homogeneous kernel, one slot per level otherwise.
    pub fn new<K: Kernel>(kernel: &K, root_half: f64, depth: u8) -> LevelRule {
        let half = |l: u8| root_half / (1u64 << l) as f64;
        let deg = kernel.homogeneity();
        let levels: Vec<LevelScale> = (FIRST_FMM_LEVEL..=depth)
            .map(|l| match deg {
                Some(deg) => {
                    let lam = half(l) / half(FIRST_FMM_LEVEL);
                    LevelScale { slot: 0, fwd: lam.powf(deg), inv: lam.powf(-deg) }
                }
                None => LevelScale { slot: (l - FIRST_FMM_LEVEL) as usize, fwd: 1.0, inv: 1.0 },
            })
            .collect();
        // Slot `s` is assembled at the first level that reads it.
        let slots = levels.last().map_or(0, |s| s.slot + 1);
        let slot_halves = (0..slots).map(|s| half(FIRST_FMM_LEVEL + s as u8)).collect();
        LevelRule { levels, slot_halves }
    }

    /// What `level` reads, or `None` when it carries no expansions (coarser
    /// than [`FIRST_FMM_LEVEL`], or beyond the rule's depth).
    pub fn at(&self, level: u8) -> Option<LevelScale> {
        let i = level.checked_sub(FIRST_FMM_LEVEL)?;
        self.levels.get(i as usize).copied()
    }

    /// Box half-width of each table slot, in slot order.
    pub fn slot_halves(&self) -> &[f64] {
        &self.slot_halves
    }
}

/// The four operators for boxes of one half-width.
#[derive(Clone, Debug)]
pub struct LevelOps {
    /// Upward check potential → upward equivalent density,
    /// `(n_s·SRC) × (n_s·TRG)`.
    pub uc2ue: Mat,
    /// Child (octant `o`, one level finer) upward equivalent → this box's
    /// upward check potential, `(n_s·TRG) × (n_s·SRC)`.
    pub ue2uc: Vec<Mat>,
    /// Downward check potential → downward equivalent density.
    pub dc2de: Mat,
    /// Parent (one level coarser) downward equivalent → this box's
    /// (octant `o`) downward check potential.
    pub de2dc: Vec<Mat>,
}

/// One [`LevelOps`] per slot of a [`LevelRule`].
pub struct OperatorTable {
    slots: Vec<LevelOps>,
    rule: LevelRule,
}

impl OperatorTable {
    /// Assemble operators for a tree of the given depth whose root box has
    /// half-width `root_half`.
    pub fn build<K: Kernel>(kernel: &K, order: usize, root_half: f64, depth: u8) -> OperatorTable {
        let rule = LevelRule::new(kernel, root_half, depth);
        let slots = rule.slot_halves().iter().map(|&h| build_level(kernel, order, h)).collect();
        OperatorTable { slots, rule }
    }

    /// Operators `level` reads and the factors it applies them with, or
    /// `None` when the level carries none.
    pub fn try_at(&self, level: u8) -> Option<(&LevelOps, LevelScale)> {
        self.rule.at(level).map(|s| (&self.slots[s.slot], s))
    }

    /// As [`OperatorTable::try_at`]; panics if the level carries none. Plan
    /// construction validates coverage up front (surfacing gaps as a
    /// typed `BuildError`), so reaching this panic from an engine pass
    /// means a caller bypassed that validation — use
    /// [`OperatorTable::try_at`] where absence is an expected outcome.
    pub fn at(&self, level: u8) -> (&LevelOps, LevelScale) {
        self.try_at(level).unwrap_or_else(|| {
            panic!(
                "no operators at level {level} (table covers {}..={})",
                FIRST_FMM_LEVEL,
                FIRST_FMM_LEVEL as usize + self.rule.levels.len() - 1
            )
        })
    }

    /// Bytes of matrix entries held.
    pub fn bytes(&self) -> usize {
        let mats = self.slots.iter().flat_map(|o| {
            [&o.uc2ue, &o.dc2de].into_iter().chain(&o.ue2uc).chain(&o.de2dc)
        });
        mats.map(|m| m.rows() * m.cols() * std::mem::size_of::<f64>()).sum()
    }
}

/// Assemble the four operators for boxes of half-width `half`.
fn build_level<K: Kernel>(kernel: &K, order: usize, half: f64) -> LevelOps {
    let origin = [0.0; 3];
    // This box's surfaces.
    let ue = surface_points(order, RAD_INNER, origin, half);
    let uc = surface_points(order, RAD_OUTER, origin, half);
    let de = surface_points(order, RAD_OUTER, origin, half);
    let dc = surface_points(order, RAD_INNER, origin, half);

    let uc2ue = pinv_with_tol(&assemble(kernel, &uc, &ue), PINV_TOL);
    let dc2de = pinv_with_tol(&assemble(kernel, &dc, &de), PINV_TOL);

    // Children of this box (for UE2UC): half-width half/2, offset ±half/2.
    let mut ue2uc = Vec::with_capacity(8);
    for oct in 0..8u8 {
        let cc = child_center(origin, half, oct);
        let child_ue = surface_points(order, RAD_INNER, cc, half / 2.0);
        ue2uc.push(assemble(kernel, &uc, &child_ue));
    }

    // This box as a child of its parent (for DE2DC): parent half-width
    // 2·half centered so that this box sits at octant `oct`.
    let mut de2dc = Vec::with_capacity(8);
    for oct in 0..8u8 {
        let parent_center = parent_center_of(origin, half, oct);
        let parent_de = surface_points(order, RAD_OUTER, parent_center, 2.0 * half);
        de2dc.push(assemble(kernel, &dc, &parent_de));
    }

    LevelOps { uc2ue, ue2uc, dc2de, de2dc }
}

/// Center of child `oct` of a box at `c` with half-width `half`.
pub fn child_center(c: [f64; 3], half: f64, oct: u8) -> [f64; 3] {
    let q = half / 2.0;
    [
        c[0] + if oct & 1 == 0 { -q } else { q },
        c[1] + if oct & 2 == 0 { -q } else { q },
        c[2] + if oct & 4 == 0 { -q } else { q },
    ]
}

/// Center of the parent of a box at `c` (half-width `half`) sitting in the
/// parent's octant `oct`.
fn parent_center_of(c: [f64; 3], half: f64, oct: u8) -> [f64; 3] {
    [
        c[0] - if oct & 1 == 0 { -half } else { half },
        c[1] - if oct & 2 == 0 { -half } else { half },
        c[2] - if oct & 4 == 0 { -half } else { half },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::{Laplace, ModifiedLaplace, Point3, Stokes};

    /// Random points strictly inside a box.
    fn points_in_box(c: Point3, half: f64, n: usize, seed: u64) -> Vec<Point3> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                std::array::from_fn(|d| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    c[d] + (((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0) * 0.9 * half
                })
            })
            .collect()
    }

    /// End-to-end check of the S2M construction: the equivalent density on
    /// the upward equivalent surface reproduces the source potential in the
    /// far range.
    fn s2m_far_field_error<K: Kernel>(kernel: &K, order: usize) -> f64 {
        let half = 0.5;
        let srcs = points_in_box([0.0; 3], half, 40, 123);
        let dens: Vec<f64> = (0..40 * kernel.src_dim()).map(|i| ((i * 7) % 11) as f64 / 11.0).collect();
        let ue = surface_points(order, RAD_INNER, [0.0; 3], half);
        let uc = surface_points(order, RAD_OUTER, [0.0; 3], half);
        // Check potential from sources, then invert.
        let mut check = vec![0.0; uc.len() * kernel.trg_dim()];
        kernel.p2p(&uc, &srcs, &dens, &mut check);
        let uc2ue = pinv_with_tol(&assemble(kernel, &uc, &ue), PINV_TOL);
        let equiv = uc2ue.matvec(&check);
        // Compare fields at far points (outside the 3r near range).
        let far: Vec<Point3> = vec![
            [2.5, 0.0, 0.0],
            [0.0, -3.0, 0.5],
            [2.0, 2.0, 2.0],
            [-2.2, 1.8, -1.9],
        ];
        let mut truth = vec![0.0; far.len() * kernel.trg_dim()];
        kernel.p2p(&far, &srcs, &dens, &mut truth);
        let mut approx = vec![0.0; far.len() * kernel.trg_dim()];
        kernel.p2p(&far, &ue, &equiv, &mut approx);
        let num: f64 = truth
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den
    }

    #[test]
    fn equivalent_density_converges_with_order_laplace() {
        let e4 = s2m_far_field_error(&Laplace, 4);
        let e6 = s2m_far_field_error(&Laplace, 6);
        let e8 = s2m_far_field_error(&Laplace, 8);
        assert!(e4 < 1e-3, "p=4 error {e4}");
        assert!(e6 < 1e-5, "p=6 error {e6}");
        assert!(e8 < 1e-7, "p=8 error {e8}");
        assert!(e6 < e4 && e8 < e6, "errors must decrease with p");
    }

    #[test]
    fn equivalent_density_works_for_all_kernels() {
        assert!(s2m_far_field_error(&ModifiedLaplace::new(1.0), 6) < 1e-4);
        assert!(s2m_far_field_error(&Stokes::new(1.0), 6) < 1e-4);
    }

    #[test]
    fn homogeneous_scaling_matches_direct_assembly() {
        // The shared reference table times the level's factors must equal
        // operators assembled at the target level directly.
        let table = OperatorTable::build(&Laplace, 4, 1.0, 4);
        let direct = build_level(&Laplace, 4, 1.0 / 16.0);
        let (base, s) = table.at(4);
        for (a, b) in [
            (&base.ue2uc[3], &direct.ue2uc[3]),
            (&base.de2dc[5], &direct.de2dc[5]),
        ] {
            let mut diff = a.clone();
            diff.scale(s.fwd);
            diff.add_scaled(-1.0, b);
            assert!(diff.max_abs() < 1e-10 * b.max_abs(), "forward operator mismatch");
        }
        // Pseudoinverses can differ in null directions; compare their
        // action composed with the forward map instead.
        let ue = surface_points(4, RAD_INNER, [0.0; 3], 1.0 / 16.0);
        let uc = surface_points(4, RAD_OUTER, [0.0; 3], 1.0 / 16.0);
        let k = assemble(&Laplace, &uc, &ue);
        let x: Vec<f64> = (0..ue.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let chk = k.matvec(&x);
        let a: Vec<f64> = base.uc2ue.matvec(&chk).iter().map(|v| s.inv * v).collect();
        let b = direct.uc2ue.matvec(&chk);
        // Both must reproduce the same check potential.
        let ka = k.matvec(&a);
        let kb = k.matvec(&b);
        for (u, v) in ka.iter().zip(&kb) {
            assert!((u - v).abs() < 1e-8, "pinv action mismatch {u} vs {v}");
        }
    }

    #[test]
    fn one_table_per_slot() {
        let homog = OperatorTable::build(&Laplace, 3, 1.0, 6);
        assert_eq!(homog.slots.len(), 1, "homogeneous: one LevelOps at any depth");
        let inhomog = OperatorTable::build(&ModifiedLaplace::new(1.0), 3, 1.0, 6);
        assert_eq!(inhomog.slots.len(), 5, "one LevelOps per level 2..=6");
        assert_eq!(inhomog.bytes(), 5 * homog.bytes());
        let ns = crate::surface::num_surface_points(3);
        assert_eq!(homog.bytes(), 18 * ns * ns * 8);
    }

    /// `(r_l / r_2)^deg` — the expression `M2lFft` scaled its check
    /// potentials by before it read the rule.
    fn m2l_scale(root_half: f64, l: u8, deg: f64) -> f64 {
        ((root_half / (1u64 << l) as f64) / (root_half / 4.0)).powf(deg)
    }

    #[test]
    fn rule_covers_the_fmm_levels_with_reciprocal_factors() {
        let (root_half, depth) = (0.7, 9u8);
        for deg in [-1.0, -2.0, -1.5] {
            let kernel = kifmm_kernels::CustomKernel::new("deg", 1, 1, Some(deg), |_, _, _| {});
            let rule = LevelRule::new(&kernel, root_half, depth);
            assert_eq!(rule.slot_halves(), [root_half / 4.0]);
            for l in 0..=depth + 2 {
                let fmm_level = (FIRST_FMM_LEVEL..=depth).contains(&l);
                assert_eq!(rule.at(l).is_some(), fmm_level, "level {l}");
                let Some(s) = rule.at(l) else { continue };
                assert_eq!(s.slot, 0);
                assert_eq!(s.fwd.to_bits(), m2l_scale(root_half, l, deg).to_bits(), "level {l}");
                // Exact for the dyadic degrees, one rounding each otherwise.
                let tol = if deg == -1.5 { 4.0 * f64::EPSILON } else { 0.0 };
                assert!((s.fwd * s.inv - 1.0).abs() <= tol, "deg {deg} level {l}");
            }
        }
        let rule = LevelRule::new(&ModifiedLaplace::new(1.0), root_half, depth);
        assert_eq!(rule.slot_halves().len(), depth as usize - 1);
        assert!(rule.at(1).is_none() && rule.at(depth + 1).is_none());
        for l in FIRST_FMM_LEVEL..=depth {
            let s = rule.at(l).unwrap();
            assert_eq!((s.slot, s.fwd, s.inv), ((l - 2) as usize, 1.0, 1.0));
            assert_eq!(rule.slot_halves()[s.slot], root_half / (1u64 << l) as f64);
        }
        assert!(LevelRule::new(&Laplace, 1.0, 1).slot_halves().is_empty());
    }

    #[test]
    fn m2m_preserves_far_field() {
        // Child equivalent density translated to the parent reproduces the
        // same far potential.
        let kernel = Laplace;
        let order = 6;
        let parent_half = 0.5;
        let oct = 6u8;
        let cc = child_center([0.0; 3], parent_half, oct);
        let srcs = points_in_box(cc, parent_half / 2.0, 30, 9);
        let dens: Vec<f64> = (0..30).map(|i| 1.0 - (i as f64 * 0.05)).collect();

        // Child S2M.
        let cue = surface_points(order, RAD_INNER, cc, parent_half / 2.0);
        let cuc = surface_points(order, RAD_OUTER, cc, parent_half / 2.0);
        let c_uc2ue = pinv_with_tol(&assemble(&kernel, &cuc, &cue), PINV_TOL);
        let mut c_check = vec![0.0; cuc.len()];
        kernel.p2p(&cuc, &srcs, &dens, &mut c_check);
        let c_equiv = c_uc2ue.matvec(&c_check);

        // M2M via the operator table geometry.
        let ops = build_level(&kernel, order, parent_half);
        let p_check = ops.ue2uc[oct as usize].matvec(&c_equiv);
        let p_equiv = ops.uc2ue.matvec(&p_check);

        // Far-field comparison.
        let pue = surface_points(order, RAD_INNER, [0.0; 3], parent_half);
        let far = [[3.0, 1.0, -2.0], [-2.5, -2.5, 2.5], [0.0, 4.0, 0.0]];
        let mut truth = vec![0.0; 3];
        kernel.p2p(&far, &srcs, &dens, &mut truth);
        let mut approx = vec![0.0; 3];
        kernel.p2p(&far, &pue, &p_equiv, &mut approx);
        for (t, a) in truth.iter().zip(&approx) {
            assert!((t - a).abs() < 1e-5 * t.abs().max(1e-3), "M2M far field: {t} vs {a}");
        }
    }

    #[test]
    fn child_center_octants() {
        let c = child_center([0.0; 3], 1.0, 0);
        assert_eq!(c, [-0.5, -0.5, -0.5]);
        let c = child_center([0.0; 3], 1.0, 7);
        assert_eq!(c, [0.5, 0.5, 0.5]);
        let c = child_center([2.0, 0.0, -2.0], 1.0, 1);
        assert_eq!(c, [2.5, -0.5, -2.5]);
        // parent_center_of inverts child_center.
        for oct in 0..8 {
            let child = child_center([1.0, -1.0, 0.5], 2.0, oct);
            let back = parent_center_of(child, 1.0, oct);
            assert_eq!(back, [1.0, -1.0, 0.5]);
        }
    }

    #[test]
    fn shallow_tree_has_no_operators() {
        let t = OperatorTable::build(&Laplace, 4, 1.0, 1);
        assert!(t.slots.is_empty() && (0..4).all(|l| t.try_at(l).is_none()));
    }

    #[test]
    fn try_at_covers_exactly_the_fmm_levels() {
        let t = OperatorTable::build(&Laplace, 3, 1.0, 4);
        assert!(t.try_at(0).is_none() && t.try_at(1).is_none());
        for level in FIRST_FMM_LEVEL..=4 {
            assert!(t.try_at(level).is_some(), "level {level} missing");
        }
        assert!(t.try_at(5).is_none(), "beyond the table's depth");
    }

    #[test]
    #[should_panic(expected = "no operators at level 1")]
    fn at_panics_with_level_and_coverage() {
        let t = OperatorTable::build(&Laplace, 3, 1.0, 3);
        let _ = t.at(1);
    }
}
