//! Gradient output correctness: `OutputSpec::PotentialAndGradient`
//! against the fused direct reference `direct_eval_grad`, for every
//! kernel in the family.
//!
//! Two regimes per kernel:
//!
//! * **shallow tree** (depth < 2): everything flows through the dense
//!   U path, so the FMM *is* the fused direct sum — the gradients must
//!   match `direct_eval_grad` essentially exactly (the 1e-9 gate at
//!   order 6, met with orders of magnitude to spare);
//! * **deep tree**: far-field gradients are read off the equivalent
//!   densities (∇G from equivalent sources in L2T/W), so they carry the
//!   same discretization error as the potentials.
//!
//! Plus invariants: requesting gradients must not change the potentials
//! (bitwise), and a potential-only report carries no gradients.

use kifmm::{
    direct_eval_grad, rel_l2_error, Fmm, FmmOptions, Gaussian, Kelvin, Kernel, Laplace,
    ModifiedLaplace, OutputSpec, Stokes,
};

fn cloud(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::uniform_cube(n, seed)
}

/// Shallow tree: the whole evaluation is the dense fused path, so FMM
/// gradients equal the direct fused sum to round-off — far below the
/// 1e-9 acceptance gate at order 6.
fn check_shallow_exact<K: Kernel>(kernel: K) {
    let pts = cloud(90, 31);
    let dens = kifmm::geom::random_densities(90, kernel.src_dim(), 5);
    let (truth_pot, truth_grad) = direct_eval_grad(&kernel, &pts, &dens);
    let name = kernel.name().to_string();
    let fmm = Fmm::builder(kernel)
        .points(&pts)
        .order(6)
        .max_pts_per_leaf(120)
        .output(OutputSpec::PotentialAndGradient)
        .build();
    assert!(fmm.tree.depth() < 2, "{name}: config must stay dense-only");
    let report = fmm.eval(&dens);
    let ep = rel_l2_error(&report.potentials, &truth_pot);
    let eg = rel_l2_error(&report.gradients, &truth_grad);
    assert!(ep < 1e-12, "{name}: shallow potentials {ep}");
    assert!(eg < 1e-9, "{name}: shallow gradients {eg} (order-6 1e-9 gate)");
}

/// Deep tree: gradients read from equivalent densities carry the
/// discretization error of the surface representation.
fn check_deep_tree<K: Kernel>(kernel: K, n: usize, tol: f64) {
    let pts = cloud(n, 77);
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), 9);
    let (truth_pot, truth_grad) = direct_eval_grad(&kernel, &pts, &dens);
    let name = kernel.name().to_string();
    let fmm = Fmm::builder(kernel)
        .points(&pts)
        .order(6)
        .max_pts_per_leaf(30)
        .output(OutputSpec::PotentialAndGradient)
        .build();
    assert!(fmm.tree.depth() >= 2, "{name}: workload must exercise the far field");
    let report = fmm.eval(&dens);
    assert_eq!(report.gradients.len(), report.potentials.len() * 3);
    let ep = rel_l2_error(&report.potentials, &truth_pot);
    let eg = rel_l2_error(&report.gradients, &truth_grad);
    assert!(ep < tol, "{name}: deep-tree potentials {ep} (tol {tol})");
    assert!(eg < tol, "{name}: deep-tree gradients {eg} (tol {tol})");
}

mod shallow_exact {
    use super::*;

    #[test]
    fn laplace() {
        check_shallow_exact(Laplace);
    }

    #[test]
    fn modified_laplace() {
        check_shallow_exact(ModifiedLaplace::new(1.5));
    }

    #[test]
    fn stokes() {
        check_shallow_exact(Stokes::default());
    }

    #[test]
    fn kelvin() {
        check_shallow_exact(Kelvin::new(1.0, 0.3));
    }

    #[test]
    fn gaussian() {
        check_shallow_exact(Gaussian::new(0.8));
    }
}

mod deep_tree {
    use super::*;

    #[test]
    fn laplace() {
        check_deep_tree(Laplace, 2000, 1e-4);
    }

    #[test]
    fn modified_laplace() {
        check_deep_tree(ModifiedLaplace::new(1.5), 2000, 1e-4);
    }

    #[test]
    fn stokes() {
        check_deep_tree(Stokes::default(), 1200, 1e-3);
    }

    #[test]
    fn kelvin() {
        check_deep_tree(Kelvin::new(1.0, 0.3), 1200, 1e-3);
    }

    #[test]
    fn gaussian() {
        check_deep_tree(Gaussian::new(0.8), 2000, 1e-4);
    }
}

/// Requesting gradients must not perturb the potentials beyond round-off:
/// the U/W/L2T passes switch from the SIMD `p2p*` chain to the fused
/// scalar `p2p_grad*` loop, so the accumulation order (and thus the last
/// few ULPs) may differ, but nothing else can.
#[test]
fn gradient_request_keeps_potentials() {
    let pts = cloud(1500, 3);
    let dens = kifmm::geom::random_densities(1500, 1, 7);
    let base = FmmOptions { order: 4, max_pts_per_leaf: 25, ..Default::default() };
    let plain = Fmm::builder(Laplace).points(&pts).options(base).build();
    let grad = Fmm::builder(Laplace)
        .points(&pts)
        .options(FmmOptions { output: OutputSpec::PotentialAndGradient, ..base })
        .build();
    let rp = plain.eval(&dens);
    let rg = grad.eval(&dens);
    let drift = rel_l2_error(&rg.potentials, &rp.potentials);
    assert!(drift < 1e-14, "fused path may only differ in round-off: {drift}");
    assert!(rp.gradients.is_empty(), "potential-only report carries no gradients");
    assert_eq!(rg.gradients.len(), 1500 * 3);
}

/// Batched gradient evaluation: each RHS's fused report is bit-identical
/// to its independent single-RHS evaluation.
#[test]
fn eval_many_gradients_bitwise_per_rhs() {
    let pts = cloud(900, 13);
    let k = Stokes::default();
    let dens: Vec<Vec<f64>> =
        (0..3).map(|q| kifmm::geom::random_densities(900, 3, 20 + q)).collect();
    let fmm = Fmm::builder(k)
        .points(&pts)
        .order(4)
        .max_pts_per_leaf(30)
        .output(OutputSpec::PotentialAndGradient)
        .build();
    let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
    for (q, rep) in fmm.eval_many(&refs).iter().enumerate() {
        let one = fmm.eval(&dens[q]);
        assert_eq!(rep.potentials, one.potentials, "RHS {q} potentials");
        assert_eq!(rep.gradients, one.gradients, "RHS {q} gradients");
    }
}

/// Serial vs shared-memory pool with gradients on: bit-identical, the
/// same contract the potential-only paths hold.
#[test]
fn pool_gradients_bitwise() {
    let pts = cloud(1200, 23);
    let dens = kifmm::geom::random_densities(1200, 1, 3);
    let mut fmm = Fmm::builder(Laplace)
        .points(&pts)
        .order(4)
        .max_pts_per_leaf(25)
        .output(OutputSpec::PotentialAndGradient)
        .build();
    let serial = fmm.eval(&dens);
    fmm.set_parallel_eval(true);
    let pool = fmm.eval(&dens);
    assert_eq!(serial.potentials, pool.potentials);
    assert_eq!(serial.gradients, pool.gradients);
}

/// Every kernel's analytic `eval_grad` against the central difference of
/// its own `eval` — the independent, representation-free check.
#[test]
fn central_difference_validates_every_kernel() {
    fn check<K: Kernel>(kernel: K, tol: f64) {
        let x = [0.31, -0.22, 0.47];
        let y = [-0.55, 0.63, -0.09];
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let mut analytic = vec![0.0; td * 3 * sd];
        kernel.eval_grad(x, y, &mut analytic);
        let mut numeric = vec![0.0; td * 3 * sd];
        kifmm::kernels::central_difference_grad(&kernel, x, y, &mut numeric);
        for (i, (a, b)) in analytic.iter().zip(&numeric).enumerate() {
            assert!(
                (a - b).abs() < tol * b.abs().max(1.0),
                "{}: entry {i} analytic {a} vs central-diff {b}",
                kernel.name()
            );
        }
    }
    check(Laplace, 1e-7);
    check(ModifiedLaplace::new(1.5), 1e-7);
    check(Stokes::default(), 1e-7);
    check(Kelvin::new(1.0, 0.3), 1e-7);
    check(Gaussian::new(0.8), 1e-7);
}
