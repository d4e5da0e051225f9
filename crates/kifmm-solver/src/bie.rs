//! Boundary integral equations driven by FMM matvecs.
//!
//! The paper's applications solve boundary integral formulations of the
//! Stokes equations: "the particle positions and densities are associated
//! to discretizations of integral equations, and at each time step the
//! interaction computation (matrix vector multiplication within a Krylov
//! method) is carried out multiple times" (§3). This module provides that
//! setup at library scale: a Nyström-discretized single-layer operator
//! whose matvec is one FMM interaction evaluation, plus the rigid-body
//! velocity BVP used by the sedimentation example (the paper's Figure 4.1
//! scenario).

use crate::gmres::{gmres, GmresOptions, GmresResult};
use kifmm_core::{direct_eval, FmmOptions, Plan, PlanCache, Session};
use kifmm_geom::{fibonacci_sphere, Point3};
use kifmm_kernels::Kernel;

/// A Nyström discretization of a closed surface: quadrature points and
/// weights.
#[derive(Clone, Debug)]
pub struct SurfaceQuadrature {
    /// Quadrature nodes on the surface.
    pub points: Vec<Point3>,
    /// Quadrature weight per node (sums to the surface area).
    pub weights: Vec<f64>,
}

impl SurfaceQuadrature {
    /// Quasi-uniform sphere quadrature: Fibonacci nodes with equal weights
    /// `4πR²/n`.
    pub fn sphere(center: Point3, radius: f64, n: usize) -> Self {
        let points = fibonacci_sphere(center, radius, n);
        let w = 4.0 * std::f64::consts::PI * radius * radius / n as f64;
        SurfaceQuadrature { points, weights: vec![w; n] }
    }

    /// Concatenate several surfaces into one quadrature (multi-body
    /// problems).
    pub fn union(parts: &[SurfaceQuadrature]) -> Self {
        let mut points = Vec::new();
        let mut weights = Vec::new();
        for p in parts {
            points.extend_from_slice(&p.points);
            weights.extend_from_slice(&p.weights);
        }
        SurfaceQuadrature { points, weights }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the quadrature holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total surface area represented.
    pub fn area(&self) -> f64 {
        self.weights.iter().sum()
    }
}

/// `density` (`src_dim` interleaved components per node) scaled by the
/// quadrature weights: the charge vector of the Nyström sum.
fn weighted(quad: &SurfaceQuadrature, density: &[f64], src_dim: usize) -> Vec<f64> {
    assert_eq!(density.len(), quad.len() * src_dim, "src_dim density entries per node");
    density.iter().enumerate().map(|(i, &v)| v * quad.weights[i / src_dim]).collect()
}

/// The discretized single-layer operator `(Sφ)(x_i) = Σ_j G(x_i, y_j) w_j
/// φ_j` with the FMM as the summation engine.
pub struct SingleLayerOperator<K: Kernel> {
    fmm: Session<K>,
    quad: SurfaceQuadrature,
    /// Matvecs performed so far (the paper's "tens of interaction
    /// calculations per solve").
    pub matvecs: std::cell::Cell<usize>,
}

impl<K: Kernel> SingleLayerOperator<K> {
    /// Build the FMM over the quadrature nodes.
    pub fn new(kernel: K, quad: SurfaceQuadrature, opts: FmmOptions) -> Self {
        let fmm = Session::builder(kernel).points(&quad.points).options(opts).build();
        SingleLayerOperator { fmm, quad, matvecs: std::cell::Cell::new(0) }
    }

    /// As [`SingleLayerOperator::new`], but resolving the evaluation plan
    /// through a [`PlanCache`]: a geometry the cache has seen before
    /// (same kernel, order, output, leaf bound and point set — e.g. a
    /// rigid body expressed in its own body frame at every time step)
    /// skips tree, list and operator setup entirely and shares the cached
    /// plan's memory.
    ///
    /// # Panics
    /// On invalid build inputs (empty quadrature, order < 2).
    pub fn with_plan_cache(
        kernel: K,
        quad: SurfaceQuadrature,
        opts: FmmOptions,
        cache: &PlanCache<K>,
    ) -> Self {
        let plan = cache
            .get_or_plan(&kernel, &quad.points, opts)
            .unwrap_or_else(|e| panic!("{e}"));
        Self::with_plan(quad, plan)
    }

    /// Wrap an already-resolved plan (e.g. one obtained from
    /// [`PlanCache::get_or_update`] after patching a previous time step's
    /// plan for the moved quadrature nodes). The plan must have been
    /// built over exactly `quad.points`.
    pub fn with_plan(quad: SurfaceQuadrature, plan: std::sync::Arc<Plan<K>>) -> Self {
        assert_eq!(
            plan.len(),
            quad.len(),
            "plan was built over a different number of points than the quadrature"
        );
        SingleLayerOperator { fmm: Session::new(plan), quad, matvecs: std::cell::Cell::new(0) }
    }

    /// The quadrature.
    pub fn quadrature(&self) -> &SurfaceQuadrature {
        &self.quad
    }

    /// Apply the operator: weight the density, evaluate one FMM
    /// interaction.
    pub fn apply(&self, density: &[f64]) -> Vec<f64> {
        self.matvecs.set(self.matvecs.get() + 1);
        self.fmm.eval(&weighted(&self.quad, density, self.fmm.kernel().src_dim())).potentials
    }

    /// Solve the first-kind equation `Sφ = u_bc` by GMRES.
    pub fn solve(&self, u_bc: &[f64], opts: GmresOptions) -> GmresResult {
        gmres(|x| self.apply(x), u_bc, None, opts)
    }

    /// Evaluate the layer potential at off-surface points, reusing the
    /// FMM's equivalent densities ([`Session::evaluate_at`]).
    pub fn evaluate_off_surface(&self, density: &[f64], targets: &[Point3]) -> Vec<f64> {
        self.fmm.evaluate_at(&weighted(&self.quad, density, self.fmm.kernel().src_dim()), targets)
    }
}

/// Rigid-body boundary condition `u(x) = U + Ω × (x − c)` sampled at the
/// quadrature nodes (3 components per node).
pub fn rigid_body_velocity(
    quad: &SurfaceQuadrature,
    center: Point3,
    linear: [f64; 3],
    angular: [f64; 3],
) -> Vec<f64> {
    let mut u = Vec::with_capacity(quad.len() * 3);
    for p in &quad.points {
        let r = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
        u.push(linear[0] + angular[1] * r[2] - angular[2] * r[1]);
        u.push(linear[1] + angular[2] * r[0] - angular[0] * r[2]);
        u.push(linear[2] + angular[0] * r[1] - angular[1] * r[0]);
    }
    u
}

/// Net traction force `F = Σ_j w_j φ_j` of a single-layer density
/// (3-vector kernels).
pub fn net_force(quad: &SurfaceQuadrature, density: &[f64]) -> [f64; 3] {
    let mut f = [0.0; 3];
    for (j, w) in quad.weights.iter().enumerate() {
        for c in 0..3 {
            f[c] += w * density[3 * j + c];
        }
    }
    f
}

/// Reference matvec without the FMM (small problems / validation).
pub fn apply_single_layer_direct<K: Kernel>(
    kernel: &K,
    quad: &SurfaceQuadrature,
    density: &[f64],
) -> Vec<f64> {
    direct_eval(kernel, &quad.points, &weighted(quad, density, kernel.src_dim()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::{Laplace, Stokes};

    #[test]
    fn sphere_quadrature_area() {
        let q = SurfaceQuadrature::sphere([0.0; 3], 2.0, 500);
        let expect = 4.0 * std::f64::consts::PI * 4.0;
        assert!((q.area() - expect).abs() < 1e-10);
        assert_eq!(q.len(), 500);
    }

    #[test]
    fn fmm_matvec_matches_direct_matvec() {
        let q = SurfaceQuadrature::sphere([0.1, -0.2, 0.3], 1.0, 800);
        let density: Vec<f64> = (0..800).map(|i| (i as f64 * 0.01).sin()).collect();
        let op = SingleLayerOperator::new(
            Laplace,
            q.clone(),
            FmmOptions { order: 6, max_pts_per_leaf: 30, ..Default::default() },
        );
        let via_fmm = op.apply(&density);
        let via_direct = apply_single_layer_direct(&Laplace, &q, &density);
        let err = kifmm_core::rel_l2_error(&via_fmm, &via_direct);
        assert!(err < 1e-5, "FMM matvec error {err}");
        assert_eq!(op.matvecs.get(), 1);
    }

    /// Physics regression: Stokes drag on a translating sphere is
    /// `F = −6πμRU` (we solve for the traction that *produces* velocity U,
    /// so the net single-layer force equals +6πμRU).
    #[test]
    fn stokes_drag_of_translating_sphere() {
        let mu = 1.3;
        let radius = 0.8;
        let u_inf = [0.0, 0.0, 1.0];
        let q = SurfaceQuadrature::sphere([0.0; 3], radius, 400);
        let op = SingleLayerOperator::new(
            Stokes::new(mu),
            q.clone(),
            FmmOptions { order: 6, max_pts_per_leaf: 40, ..Default::default() },
        );
        let bc = rigid_body_velocity(&q, [0.0; 3], u_inf, [0.0; 3]);
        // First-kind Fredholm systems stagnate in GMRES near the quadrature
        // noise floor; a 1e-4 residual already determines the net force far
        // better than the O(1/√n) Nyström error does.
        let res = op.solve(&bc, GmresOptions { tol: 1e-4, max_iter: 250, restart: 60 });
        assert!(res.converged, "GMRES residual {}", res.residual);
        let f = net_force(&q, &res.x);
        let expect = 6.0 * std::f64::consts::PI * mu * radius;
        assert!(f[0].abs() < 0.05 * expect, "no lateral force: {f:?}");
        assert!(f[1].abs() < 0.05 * expect);
        // The plain Nyström rule (singular self-term excluded) carries an
        // O(h) quadrature bias, ~6% at 400 nodes.
        let rel = (f[2] - expect).abs() / expect;
        assert!(rel < 0.08, "drag {} vs Stokes law {expect} (rel {rel})", f[2]);
    }

    /// The drag error is quadrature-limited and must shrink as the surface
    /// is refined.
    #[test]
    fn stokes_drag_converges_with_refinement() {
        let mu = 1.0;
        let radius = 1.0;
        let expect = 6.0 * std::f64::consts::PI * mu * radius;
        let mut errs = Vec::new();
        for n in [100usize, 400] {
            let q = SurfaceQuadrature::sphere([0.0; 3], radius, n);
            let op = SingleLayerOperator::new(
                Stokes::new(mu),
                q.clone(),
                FmmOptions { order: 6, max_pts_per_leaf: 40, ..Default::default() },
            );
            let bc = rigid_body_velocity(&q, [0.0; 3], [0.0, 0.0, 1.0], [0.0; 3]);
            // 1e-3 residual suffices: the force comparison is dominated by
            // the quadrature bias (~12% at n=100, ~6% at n=400).
            let res = op.solve(&bc, GmresOptions { tol: 1e-3, max_iter: 250, restart: 60 });
            assert!(res.converged, "n={n}: residual {}", res.residual);
            let f = net_force(&q, &res.x);
            errs.push((f[2] - expect).abs() / expect);
        }
        assert!(
            errs[1] < errs[0],
            "drag error must decrease with refinement: {errs:?}"
        );
    }

    /// Two operators over the same quadrature share one cached plan: the
    /// second construction is a cache hit (no setup) and both produce
    /// bit-identical matvecs.
    #[test]
    fn plan_cache_reuse_across_operators() {
        let cache = PlanCache::unbounded();
        let q = SurfaceQuadrature::sphere([0.0; 3], 1.0, 300);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 40, ..Default::default() };
        let op1 = SingleLayerOperator::with_plan_cache(Laplace, q.clone(), opts, &cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let op2 = SingleLayerOperator::with_plan_cache(Laplace, q.clone(), opts, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "second build is a warm hit");
        let density: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).cos()).collect();
        assert_eq!(op1.apply(&density), op2.apply(&density));
    }

    /// `evaluate_off_surface` on an operator opened over a `PlanCache`d
    /// plan: the session reads the shared plan's expansions through its
    /// own pooled scratch.
    #[test]
    fn off_surface_through_plan_cache_matches_direct() {
        let cache = PlanCache::unbounded();
        let q = SurfaceQuadrature::sphere([0.0; 3], 1.0, 900);
        let opts = FmmOptions { order: 6, max_pts_per_leaf: 30, ..Default::default() };
        let op = SingleLayerOperator::with_plan_cache(Laplace, q.clone(), opts, &cache);
        let density: Vec<f64> = (0..900).map(|i| (i as f64 * 0.02).sin()).collect();
        // Just inside the surface: in leaf boxes of the tree, so the
        // U/W/L2T read-off runs (outside the root cube it would be the
        // exact fallback sum).
        let targets = fibonacci_sphere([0.0; 3], 0.9, 60);
        let via_fmm = op.evaluate_off_surface(&density, &targets);
        let charges = weighted(&q, &density, 1);
        let truth = kifmm_core::direct_eval_src_trg(&Laplace, &q.points, &charges, &targets);
        let err = kifmm_core::rel_l2_error(&via_fmm, &truth);
        assert!(err < 1e-5, "off-surface error through a cached plan: {err}");
        assert!(err > 1e-14, "targets must exercise the expansions, not only the exact fallback");
        // The plan stays shared and the matvec path is unaffected.
        assert_eq!(op.apply(&density), op.apply(&density));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn rigid_body_velocity_rotation() {
        let q = SurfaceQuadrature::sphere([0.0; 3], 1.0, 10);
        let u = rigid_body_velocity(&q, [0.0; 3], [0.0; 3], [0.0, 0.0, 2.0]);
        // Ω = 2ẑ: u = Ω × r = (−2y, 2x, 0).
        for (j, p) in q.points.iter().enumerate() {
            assert!((u[3 * j] + 2.0 * p[1]).abs() < 1e-12);
            assert!((u[3 * j + 1] - 2.0 * p[0]).abs() < 1e-12);
            assert!(u[3 * j + 2].abs() < 1e-12);
        }
    }

    #[test]
    fn union_concatenates() {
        let a = SurfaceQuadrature::sphere([0.0; 3], 1.0, 10);
        let b = SurfaceQuadrature::sphere([3.0, 0.0, 0.0], 0.5, 20);
        let u = SurfaceQuadrature::union(&[a.clone(), b.clone()]);
        assert_eq!(u.len(), 30);
        assert!((u.area() - a.area() - b.area()).abs() < 1e-12);
    }
}
