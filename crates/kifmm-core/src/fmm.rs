//! The kernel-independent FMM evaluator.
//!
//! [`FmmBuilder::build`](crate::FmmBuilder::build) builds the adaptive
//! tree, interaction lists and per-level operators for a point set
//! (sources ≡ targets, the setting of the paper's experiments, where the
//! same discretization points carry densities and receive potentials
//! across tens of Krylov iterations) and returns a [`Session`] over them.
//! [`Session::eval`] then computes `u_i = Σ_j G(x_i, x_j) φ_j` in `O(N)`:
//!
//! 1. **Upward pass** — S2M at leaves (evaluate the upward check potential
//!    from the sources, invert to the upward equivalent density, eq. 2.1)
//!    and M2M up the tree (eq. 2.3);
//! 2. **Downward pass** — M2L over V lists (eq. 2.4, FFT-accelerated),
//!    X-list sources onto downward check surfaces, L2L down the tree
//!    (eq. 2.5);
//! 3. **Leaf evaluation** — dense U-list interactions, W-list equivalent
//!    densities, and the downward equivalent density, all evaluated at the
//!    targets.
//!
//! All pass mathematics lives in [`crate::engine`]; set-up ([`Plan`]) and
//! evaluation ([`Session`]) live in [`crate::plan`]. [`Fmm`] is an alias
//! of [`Session`]:
//! `Fmm::builder(kernel).points(&pts).build()` returns a `Session` over a
//! freshly built [`Plan`], ready for `eval`/`eval_many`/`evaluate_at`.
//! Callers that evaluate from many threads or reuse setup across requests
//! share the `Arc<Plan>` between sessions, or resolve it through a
//! [`PlanCache`].
//!
//! [`Plan`]: crate::plan::Plan
//! [`PlanCache`]: crate::plan::PlanCache

use crate::evaluator::OutputSpec;
use crate::plan::{BuildError, Session};
use kifmm_tree::TreeBuild;

/// Evaluator configuration.
#[derive(Clone, Copy, Debug)]
pub struct FmmOptions {
    /// Surface discretization order `p` (points per cube edge). The
    /// paper's 10⁻⁵-accuracy experiments correspond to `p = 6`.
    pub order: usize,
    /// Maximum points per leaf box (the paper's `s`; 60 in most
    /// experiments, 120 in the 3000-processor runs).
    pub max_pts_per_leaf: usize,
    /// Depth cap for the octree.
    pub max_level: u8,
    /// Distributed tree construction algorithm: one value, the paper's
    /// per-level Allreduce, and nothing reads it. Kept only because
    /// `benchmark/src/traced.rs` (frozen with `BENCHMARK.json`) passes it
    /// to `build_distributed_tree_with`; goes with ROADMAP item 1(a).
    pub tree_build: TreeBuild,
    /// What each evaluation produces: potentials only (default), or
    /// potentials plus gradients (far field read off the equivalent
    /// densities; see [`crate::evaluator::OutputSpec`]).
    pub output: OutputSpec,
}

impl Default for FmmOptions {
    fn default() -> Self {
        FmmOptions {
            order: 6,
            max_pts_per_leaf: 60,
            max_level: 12,
            tree_build: TreeBuild::default(),
            output: OutputSpec::Potential,
        }
    }
}

impl FmmOptions {
    /// Option set with surface order `p`.
    pub fn with_order(order: usize) -> Self {
        FmmOptions { order, ..Default::default() }
    }

    /// The verdict on the options alone, shared by every constructor: a
    /// surface needs at least 2 points per cube edge (it has `p³ − (p−2)³`
    /// points), and a leaf must hold at least one point. Every rank of a
    /// distributed build holds the same options, so this verdict needs no
    /// collective.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.order < 2 {
            return Err(BuildError::OrderTooSmall(self.order));
        }
        if self.max_pts_per_leaf == 0 {
            return Err(BuildError::ZeroLeafCapacity);
        }
        Ok(())
    }
}

/// The build-and-evaluate spelling of [`Session`]: `Fmm::builder(..)` is
/// [`Session::builder`].
pub type Fmm<K> = Session<K>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_eval;
    use crate::stats::Phase;
    use kifmm_kernels::{Laplace, ModifiedLaplace, Stokes};
    use kifmm_testkit::cloud;

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den
    }

    fn densities(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim).map(|i| ((i * 31 % 101) as f64) / 101.0).collect()
    }

    #[test]
    fn validate_refuses_each_bad_option_and_passes_the_default() {
        assert_eq!(FmmOptions::default().validate(), Ok(()));
        assert_eq!(FmmOptions::with_order(2).validate(), Ok(()));
        for order in [0, 1] {
            let opts = FmmOptions::with_order(order);
            assert_eq!(opts.validate(), Err(BuildError::OrderTooSmall(order)));
        }
        let opts = FmmOptions { max_pts_per_leaf: 0, ..Default::default() };
        assert_eq!(opts.validate(), Err(BuildError::ZeroLeafCapacity));
        let opts = FmmOptions { max_pts_per_leaf: 1, ..Default::default() };
        assert_eq!(opts.validate(), Ok(()));
    }

    #[test]
    fn laplace_matches_direct_uniform() {
        let pts = cloud(600, 17);
        let dens = densities(600, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        assert!(fmm.tree.depth() >= 2, "tree must be deep enough to exercise M2L");
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&Laplace, &pts, &dens);
        let e = rel_err(&u, &truth);
        assert!(e < 1e-5, "relative error {e}");
    }

    #[test]
    fn laplace_accuracy_improves_with_order() {
        let pts = cloud(400, 3);
        let dens = densities(400, 1);
        let truth = direct_eval(&Laplace, &pts, &dens);
        let mut last = f64::INFINITY;
        for p in [4usize, 6, 8] {
            let fmm = Fmm::builder(Laplace)
                .points(&pts)
                .options(FmmOptions { order: p, max_pts_per_leaf: 15, ..Default::default() })
                .build();
            let e = rel_err(&fmm.eval(&dens).potentials, &truth);
            assert!(e < last, "p={p}: error {e} should beat {last}");
            last = e;
        }
        assert!(last < 1e-7, "p=8 error {last}");
    }

    #[test]
    fn modified_laplace_matches_direct() {
        let k = ModifiedLaplace::new(1.5);
        let pts = cloud(500, 29);
        let dens = densities(500, 1);
        let fmm = Fmm::builder(k)
            .points(&pts)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&k, &pts, &dens);
        let e = rel_err(&u, &truth);
        assert!(e < 1e-5, "relative error {e}");
    }

    #[test]
    fn stokes_matches_direct() {
        let k = Stokes::new(0.8);
        let pts = cloud(400, 41);
        let dens = densities(400, 3);
        let fmm = Fmm::builder(k)
            .points(&pts)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&k, &pts, &dens);
        let e = rel_err(&u, &truth);
        assert!(e < 1e-4, "relative error {e}");
    }

    #[test]
    fn clustered_distribution_exercises_w_and_x() {
        // Corner-clustered points force level jumps → nonempty W/X lists.
        let mut pts = cloud(300, 5);
        for p in cloud(300, 6) {
            pts.push([0.95 + p[0] * 0.04, 0.95 + p[1] * 0.04, 0.95 + p[2] * 0.04]);
        }
        let dens = densities(600, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 10, ..Default::default() })
            .build();
        let has_w = fmm.lists.w.iter().any(|w| !w.is_empty());
        let has_x = fmm.lists.x.iter().any(|x| !x.is_empty());
        assert!(has_w && has_x, "test geometry must exercise W and X lists");
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&Laplace, &pts, &dens);
        let e = rel_err(&u, &truth);
        assert!(e < 1e-5, "relative error {e}");
    }

    #[test]
    fn shallow_tree_falls_back_to_dense() {
        // Few points: depth < 2, everything goes through U lists.
        let pts = cloud(50, 8);
        let dens = densities(50, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 60, ..Default::default() })
            .build();
        assert!(fmm.tree.depth() < 2);
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&Laplace, &pts, &dens);
        let e = rel_err(&u, &truth);
        assert!(e < 1e-13, "shallow tree is exact: {e}");
    }

    #[test]
    fn linearity_of_evaluation() {
        let pts = cloud(300, 15);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let d1 = densities(300, 1);
        let d2: Vec<f64> = (0..300).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let combined: Vec<f64> = d1.iter().zip(&d2).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let u1 = fmm.eval(&d1).potentials;
        let u2 = fmm.eval(&d2).potentials;
        let uc = fmm.eval(&combined).potentials;
        for i in 0..300 {
            let expect = 2.0 * u1[i] - 0.5 * u2[i];
            assert!((uc[i] - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn stats_are_populated() {
        let pts = cloud(800, 21);
        let dens = densities(800, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let stats = fmm.eval(&dens).stats;
        assert!(stats.flops[Phase::Up as usize] > 0);
        assert!(stats.flops[Phase::DownU as usize] > 0);
        assert!(stats.flops[Phase::DownV as usize] > 0);
        assert!(stats.flops[Phase::Eval as usize] > 0);
        assert_eq!(stats.flops[Phase::Comm as usize], 0, "serial run has no comm");
        assert!(stats.total_seconds() > 0.0);
    }

    #[test]
    fn repeated_evaluations_reuse_scratch_and_agree() {
        // The pooled store/workspace must not leak state between calls.
        let pts = cloud(500, 91);
        let dens = densities(500, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let first = fmm.eval(&dens).potentials;
        for _ in 0..3 {
            assert_eq!(fmm.eval(&dens).potentials, first);
        }
    }

    #[test]
    fn zero_density_gives_zero_potential() {
        let pts = cloud(200, 33);
        let fmm = Fmm::builder(Laplace).points(&pts).options(FmmOptions::with_order(4)).build();
        let u = fmm.eval(&vec![0.0; 200]).potentials;
        assert!(u.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eval_many_single_rhs_equals_eval() {
        let pts = cloud(400, 51);
        let dens = densities(400, 1);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let single = fmm.eval(&dens).potentials;
        let batch = fmm.eval_many(&[&dens]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].potentials, single);
    }
}

#[cfg(test)]
mod dipole_tests {
    use super::*;
    use crate::direct::{direct_eval, rel_l2_error};
    use kifmm_kernels::LaplaceDipole;
    use kifmm_testkit::cloud;

    /// Kernel-independence stress test: a kernel outside the paper's
    /// evaluation set (rectangular 1×3 blocks, 1/r² decay, homogeneity
    /// degree −2) runs through the identical machinery.
    #[test]
    fn laplace_dipole_matches_direct() {
        let pts = cloud(600, 77);
        let dens: Vec<f64> = (0..600 * 3).map(|i| ((i * 19 % 23) as f64) / 23.0 - 0.4).collect();
        let fmm = Fmm::builder(LaplaceDipole)
            .points(&pts)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        assert!(fmm.tree.depth() >= 2);
        let u = fmm.eval(&dens).potentials;
        let truth = direct_eval(&LaplaceDipole, &pts, &dens);
        let e = rel_l2_error(&u, &truth);
        assert!(e < 1e-4, "dipole kernel relative error {e}");
    }

    /// The dipole kernel's rectangular blocks through the batched path.
    #[test]
    fn laplace_dipole_eval_many_bitwise() {
        let pts = cloud(400, 78);
        let dens: Vec<Vec<f64>> = (0..3)
            .map(|q| {
                (0..400 * 3)
                    .map(|i| (((i * 19 + q * 7) % 23) as f64) / 23.0 - 0.4)
                    .collect()
            })
            .collect();
        let fmm = Fmm::builder(LaplaceDipole)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
        for (q, rep) in fmm.eval_many(&refs).iter().enumerate() {
            assert_eq!(rep.potentials, fmm.eval(&dens[q]).potentials, "RHS {q}");
        }
    }
}
