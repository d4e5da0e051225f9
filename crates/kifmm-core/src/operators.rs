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
//!   (inverse of (2.2)/(2.4)/(2.5)); `UC2UEᵀ` whenever the kernel's two
//!   check systems are transposes of each other, which `build_level`
//!   observes rather than being told;
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
/// cached by `(kernel, depth, root half-width, order)`, so a
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
                "no operators at level {level} (table covers {FIRST_FMM_LEVEL}..={})",
                self.depth()
            )
        })
    }

    /// The deepest tree the table serves: its finest level, or
    /// `FIRST_FMM_LEVEL − 1` when it has none (shallower trees read no
    /// operators).
    pub fn depth(&self) -> u8 {
        FIRST_FMM_LEVEL + self.rule.levels.len() as u8 - 1
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

    // `dc` is the surface `ue` is and `de` the surface `uc` is, so a kernel
    // with `K(x, y) = K(y, x)ᵀ` makes the downward system the transpose of
    // the upward one entry for entry, and `pinv(Aᵀ) = pinv(A)ᵀ`: one
    // inversion serves both. The symmetry is read off the two assembled
    // matrices, not declared, so a kernel without it (`LaplaceDipole`, an
    // asymmetric closure) simply takes the second inversion.
    let up = assemble(kernel, &uc, &ue);
    let uc2ue = pinv_with_tol(&up, PINV_TOL);
    let down = assemble(kernel, &dc, &de);
    let dc2de =
        if down == up.transpose() { uc2ue.transpose() } else { pinv_with_tol(&down, PINV_TOL) };

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
    use kifmm_kernels::{
        CustomKernel, Gaussian, Kelvin, Laplace, LaplaceDipole, ModifiedLaplace, Point3, Stokes,
    };

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

    /// M2M through the built operators: a child's equivalent density
    /// translated to the parent reproduces the child's sources far away.
    /// Largest error relative to the largest true potential.
    fn m2m_far_field_error<K: Kernel>(kernel: &K, order: usize) -> f64 {
        let parent_half = 0.5;
        let oct = 6u8;
        let cc = child_center([0.0; 3], parent_half, oct);
        let srcs = points_in_box(cc, parent_half / 2.0, 30, 9);
        let dens: Vec<f64> = (0..30 * kernel.src_dim()).map(|i| 1.0 - (i as f64 * 0.05)).collect();

        // Child S2M.
        let cuc = surface_points(order, RAD_OUTER, cc, parent_half / 2.0);
        let mut c_check = vec![0.0; cuc.len() * kernel.trg_dim()];
        kernel.p2p(&cuc, &srcs, &dens, &mut c_check);
        let c_equiv = build_level(kernel, order, parent_half / 2.0).uc2ue.matvec(&c_check);

        // M2M via the operator table geometry.
        let ops = build_level(kernel, order, parent_half);
        let p_check = ops.ue2uc[oct as usize].matvec(&c_equiv);
        let p_equiv = ops.uc2ue.matvec(&p_check);

        let pue = surface_points(order, RAD_INNER, [0.0; 3], parent_half);
        let far = [[3.0, 1.0, -2.0], [-2.5, -2.5, 2.5], [0.0, 4.0, 0.0]];
        let mut truth = vec![0.0; far.len() * kernel.trg_dim()];
        kernel.p2p(&far, &srcs, &dens, &mut truth);
        let mut approx = vec![0.0; truth.len()];
        kernel.p2p(&far, &pue, &p_equiv, &mut approx);
        max_error(&truth, &approx)
    }

    /// L2L through the built operators: far sources enter the parent's
    /// downward equivalent density, are translated to child `oct` and read
    /// off inside it.
    fn l2l_local_field_error<K: Kernel>(kernel: &K, order: usize) -> f64 {
        let parent_half = 0.5;
        let oct = 3u8;
        let cc = child_center([0.0; 3], parent_half, oct);
        let srcs = points_in_box([2.5, -2.0, 2.2], 0.5, 30, 17);
        let dens: Vec<f64> =
            (0..30 * kernel.src_dim()).map(|i| ((i * 5) % 7) as f64 / 7.0 - 0.3).collect();

        let pdc = surface_points(order, RAD_INNER, [0.0; 3], parent_half);
        let mut p_check = vec![0.0; pdc.len() * kernel.trg_dim()];
        kernel.p2p(&pdc, &srcs, &dens, &mut p_check);
        let p_equiv = build_level(kernel, order, parent_half).dc2de.matvec(&p_check);

        let ops = build_level(kernel, order, parent_half / 2.0);
        let c_check = ops.de2dc[oct as usize].matvec(&p_equiv);
        let c_equiv = ops.dc2de.matvec(&c_check);

        let cde = surface_points(order, RAD_OUTER, cc, parent_half / 2.0);
        let inside = points_in_box(cc, parent_half / 2.0, 5, 3);
        let mut truth = vec![0.0; inside.len() * kernel.trg_dim()];
        kernel.p2p(&inside, &srcs, &dens, &mut truth);
        let mut approx = vec![0.0; truth.len()];
        kernel.p2p(&inside, &cde, &c_equiv, &mut approx);
        max_error(&truth, &approx)
    }

    fn max_error(truth: &[f64], approx: &[f64]) -> f64 {
        let scale = truth.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        truth.iter().zip(approx).fold(0.0_f64, |m, (t, a)| m.max((t - a).abs())) / scale
    }

    #[test]
    fn m2m_preserves_far_field() {
        let e = m2m_far_field_error(&Laplace, 6);
        assert!(e < 1e-5, "M2M far field: {e}");
    }

    /// `K(dc, de) · dc2de · K(dc, de) · x = K(dc, de) · x` on a smooth
    /// density — what `dc2de` must do however it was obtained. Actions, not
    /// entries: pseudoinverses differ freely in the truncated directions.
    fn assert_inverts_the_downward_system<K: Kernel>(
        kernel: &K,
        ops: &LevelOps,
        order: usize,
        half: f64,
    ) {
        let de = surface_points(order, RAD_OUTER, [0.0; 3], half);
        let dc = surface_points(order, RAD_INNER, [0.0; 3], half);
        let down = assemble(kernel, &dc, &de);
        let x: Vec<f64> = (0..down.cols()).map(|i| 1.0 + 0.5 * (i as f64 * 0.37).sin()).collect();
        let kx = down.matvec(&x);
        let back = down.matvec(&ops.dc2de.matvec(&kx));
        let scale = kx.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        for (u, v) in back.iter().zip(&kx) {
            assert!((u - v).abs() <= 1e-8 * scale, "{}: K K⁺ K x = {u} vs {v}", kernel.name());
        }
    }

    /// Bitwise equality with the transpose also proves no second SVD ran:
    /// computed separately, `pinv(Aᵀ)` and `pinv(A)ᵀ` agree in action
    /// only (at order 6 their entries differed by up to 0.33).
    #[test]
    fn symmetric_kernels_share_one_inversion() {
        fn check<K: Kernel>(kernel: K) {
            let (order, half) = (4, 0.5);
            let ops = build_level(&kernel, order, half);
            let (a, b) = (ops.dc2de.as_slice(), ops.uc2ue.transpose());
            assert_eq!(ops.dc2de.shape(), b.shape(), "{}", kernel.name());
            assert!(
                a.iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: dc2de is not uc2ueᵀ bit for bit",
                kernel.name()
            );
            assert_inverts_the_downward_system(&kernel, &ops, order, half);
        }
        check(Laplace);
        check(ModifiedLaplace::new(1.0));
        check(Gaussian::new(0.7));
        check(Stokes::new(1.0));
        check(Kelvin::default());
    }

    #[test]
    fn asymmetric_kernels_take_the_second_inversion() {
        // K(x, y) = e^{x₀ − y₀}/|x − y|: a Laplace potential with weighted
        // sources and targets, so the FMM machinery applies, but
        // K(x, y) ≠ K(y, x).
        let skewed = CustomKernel::new("skewed-inv-r", 1, 1, None, |x, y, block| {
            let d = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            block[0] = if r == 0.0 { 0.0 } else { (x[0] - y[0]).exp() / r };
        });
        let (order, half) = (6, 0.5);
        let ops = build_level(&skewed, order, half);
        assert_ne!(ops.dc2de, ops.uc2ue.transpose(), "square blocks, asymmetric entries");
        assert_inverts_the_downward_system(&skewed, &ops, order, half);
        let (m2m, l2l) =
            (m2m_far_field_error(&skewed, order), l2l_local_field_error(&skewed, order));
        assert!(m2m < 1e-6 && l2l < 1e-6, "skewed closure: M2M {m2m}, L2L {l2l}");

        // 1 × 3 blocks: the two systems are not even transposes in shape.
        let ops = build_level(&LaplaceDipole, order, half);
        assert_ne!(ops.dc2de.shape(), ops.uc2ue.transpose().shape());
        assert_inverts_the_downward_system(&LaplaceDipole, &ops, order, half);
        let (m2m, l2l) = (
            m2m_far_field_error(&LaplaceDipole, order),
            l2l_local_field_error(&LaplaceDipole, order),
        );
        assert!(m2m < 1e-4 && l2l < 1e-4, "LaplaceDipole: M2M {m2m}, L2L {l2l}");
        // The same translations through a shared inversion, for scale.
        let l2l = l2l_local_field_error(&Laplace, order);
        assert!(l2l < 1e-6, "Laplace: L2L {l2l}");
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
