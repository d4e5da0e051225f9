//! End-to-end accuracy: the full FMM pipeline against direct summation on
//! the paper's two particle distributions, for all three kernels of
//! Appendix A, at the paper's accuracy setting (relative error ~1e-5,
//! `p = 6`).

use kifmm::kernels::LaplaceDipole;
use kifmm::{
    direct_eval, direct_eval_grad, rel_l2_error, Fmm, FmmOptions, Gaussian, Kelvin, Laplace,
    ModifiedLaplace, OutputSpec, Stokes,
};

const N: usize = 4000;

fn check<K: kifmm::Kernel>(kernel: K, points: Vec<[f64; 3]>, tol: f64) {
    let dens = kifmm::geom::random_densities(points.len(), kernel.src_dim(), 11);
    let fmm = Fmm::builder(kernel.clone())
        .points(&points)
        .options(FmmOptions { max_pts_per_leaf: 40, ..Default::default() })
        .build();
    assert!(fmm.tree.depth() >= 2, "workload must exercise the far field");
    let approx = fmm.eval(&dens).potentials;
    let truth = direct_eval(&kernel, &points, &dens);
    let err = rel_l2_error(&approx, &truth);
    assert!(err < tol, "{}: relative error {err} (tol {tol})", kernel.name());
}

#[test]
fn laplace_sphere_grid() {
    check(Laplace, kifmm::geom::sphere_grid(N, 8), 1e-5);
}

#[test]
fn laplace_corner_clusters() {
    check(Laplace, kifmm::geom::corner_clusters(N, 5), 1e-5);
}

#[test]
fn modified_laplace_sphere_grid() {
    check(ModifiedLaplace::new(1.0), kifmm::geom::sphere_grid(N, 8), 1e-5);
}

#[test]
fn modified_laplace_strong_screening_corners() {
    check(ModifiedLaplace::new(4.0), kifmm::geom::corner_clusters(N, 6), 1e-5);
}

#[test]
fn stokes_sphere_grid() {
    check(Stokes::new(1.0), kifmm::geom::sphere_grid(N, 8), 1e-4);
}

#[test]
fn stokes_corner_clusters() {
    check(Stokes::new(0.5), kifmm::geom::corner_clusters(N, 7), 1e-4);
}

/// The paper's headline accuracy claim: "the relative error in all
/// experiments is 1e-5" at the default settings (p = 6, s = 60).
#[test]
fn paper_accuracy_setting() {
    let points = kifmm::geom::sphere_grid(8000, 8);
    let dens = kifmm::geom::random_densities(points.len(), 1, 3);
    let fmm = Fmm::builder(Laplace).points(&points).build();
    let approx = fmm.eval(&dens).potentials;
    let truth = direct_eval(&Laplace, &points, &dens);
    let err = rel_l2_error(&approx, &truth);
    assert!(err < 1e-5, "paper setting must deliver 1e-5: got {err}");
}

/// FMM must beat direct summation asymptotically: counted flops grow
/// far slower than quadratically. (The growth is a staircase, not a
/// smooth line — whenever a size crosses a refinement threshold a whole
/// tree level appears and V-list work jumps — so the assertion uses a
/// 4× size span and compares against the O(N²) direct count.)
#[test]
fn linear_complexity_in_counted_flops() {
    let opts = FmmOptions { order: 4, ..Default::default() };
    let mut flops = Vec::new();
    for n in [8000usize, 32000] {
        let points = kifmm::geom::sphere_grid(n, 8);
        let dens = vec![1.0; n];
        let fmm = Fmm::builder(Laplace).points(&points).options(opts).build();
        let stats = fmm.eval(&dens).stats;
        flops.push(stats.total_flops() as f64);
    }
    let ratio = flops[1] / flops[0];
    assert!(ratio < 10.0, "4× points must cost ≪ 16× flops: ratio {ratio}");
    // At 32k points the FMM is already a few× below direct summation and
    // the gap widens linearly in N (the ~10⁵ flops/point here match the
    // paper's ~10⁵ cycles/point scale).
    let direct_flops = 32000.0f64 * 32000.0 * 12.0;
    assert!(
        flops[1] < direct_flops / 3.0,
        "FMM ({}) must beat direct ({direct_flops})",
        flops[1]
    );
}

/// A kernel output homogeneous of degree −`degree` (the potentials when
/// `gradients` is false) once the kernel's own length scale, if it has
/// one, scales with the cloud: on a cloud scaled by s, with the kernel
/// `kernel_at(s)`, s^degree × the output is the unit-scale one. At
/// s = 1e±150 the direct sum and the FMM must stay as close to the
/// unit-scale direct sum as they are at unit scale: the direct sum loses
/// only rounding, the FMM its order-6 error (`fmm_tol`).
fn holds_at_extreme_scales<K: kifmm::Kernel>(
    kernel_at: impl Fn(f64) -> K,
    gradients: bool,
    degree: i32,
    fmm_tol: f64,
) {
    let output = |kernel: &K, points: &[[f64; 3]], dens: &[f64]| {
        if gradients {
            direct_eval_grad(kernel, points, dens).1
        } else {
            direct_eval(kernel, points, dens)
        }
    };
    let unit = kifmm::geom::uniform_cube(3000, 12);
    let dens = kifmm::geom::random_densities(unit.len(), kernel_at(1.0).src_dim(), 13);
    let truth = output(&kernel_at(1.0), &unit, &dens);
    let spec = if gradients { OutputSpec::PotentialAndGradient } else { OutputSpec::Potential };
    for s in [1e-150, 1e150] {
        let kernel = kernel_at(s);
        let points: Vec<[f64; 3]> = unit.iter().map(|p| p.map(|c| c * s)).collect();
        let fmm = Fmm::builder(kernel.clone()).points(&points).order(6).output(spec).build();
        let report = fmm.eval(&dens);
        let approx = if gradients { report.gradients } else { report.potentials };
        let direct = output(&kernel, &points, &dens);
        for (path, u, tol) in [("direct", direct, 1e-12), ("FMM", approx, fmm_tol)] {
            let scaled: Vec<f64> = u.iter().map(|v| v * s.powi(degree)).collect();
            let err = rel_l2_error(&scaled, &truth);
            assert!(err < tol, "{}, s = {s:e}, {path}: error {err:e}", kernel.name());
        }
    }
}

/// The Stokeslet family is homogeneous of degree −1. At s = 1e±150, 1/r³
/// leaves f64's range (it overflows at 1e−150, where the plan's check
/// matrices would come out infinite, and vanishes at 1e150, dropping the
/// r⊗r term from the direct sum and the FMM alike).
#[test]
fn stokeslet_potentials_hold_at_extreme_scales() {
    holds_at_extreme_scales(|_| Stokes::default(), false, 1, 1e-3);
    holds_at_extreme_scales(|_| Kelvin::default(), false, 1, 1e-3);
}

/// The two kernels with a length scale, scaled with the cloud: the
/// screening length 1/λ (λ/s, potentials of degree −1) and the Gaussian's
/// bandwidth σ (σ·s, potentials of degree 0). The scaled problem is the
/// unit one, so the check above applies.
#[test]
fn scaled_length_scales_hold_at_extreme_scales() {
    holds_at_extreme_scales(|s| ModifiedLaplace::new(1.0 / s), false, 1, 1e-5);
    holds_at_extreme_scales(Gaussian::new, false, 0, 1e-5);
}

/// The gradients of Laplace, Stokes and Kelvin and the Laplace dipole's
/// potential are homogeneous of degree −2. Their blocks form 1/r³ or 1/r⁵,
/// which leave f64's range at s = 1e±150 well before the potentials' 1/r
/// does. The FMM bounds are the deep-tree ones of tests/gradients.rs.
#[test]
fn gradients_hold_at_extreme_scales() {
    holds_at_extreme_scales(|_| Laplace, true, 2, 1e-4);
    holds_at_extreme_scales(|_| Stokes::default(), true, 2, 1e-3);
    holds_at_extreme_scales(|_| Kelvin::default(), true, 2, 1e-3);
    holds_at_extreme_scales(|_| LaplaceDipole, false, 2, 1e-4);
}

/// The FMM against the direct sum on one cloud: finite, and within `tol`.
fn matches_direct<K: kifmm::Kernel>(kernel: K, cloud: &str, points: &[[f64; 3]], tol: f64) {
    let dens = kifmm::geom::random_densities(points.len(), kernel.src_dim(), 11);
    let fmm = Fmm::builder(kernel.clone())
        .points(points)
        .options(FmmOptions { max_pts_per_leaf: 40, ..Default::default() })
        .build();
    let approx = fmm.eval(&dens).potentials;
    assert!(approx.iter().all(|v| v.is_finite()), "{} on {cloud}: non-finite", kernel.name());
    let err = rel_l2_error(&approx, &direct_eval(&kernel, points, &dens));
    assert!(err < tol, "{} on {cloud}: relative error {err:e} (tol {tol:e})", kernel.name());
}

/// Degenerate clouds keep the paper's accuracy: points on one line, on
/// one tilted plane, on the six faces of their own bounding cube (the
/// root box's faces), a single point, and fewer points than a leaf holds.
#[test]
fn degenerate_clouds_match_direct() {
    let cube = kifmm::geom::uniform_cube(3000, 21);
    let line: Vec<[f64; 3]> = cube.iter().map(|p| [p[0], 0.3 * p[0], -0.7 * p[0]]).collect();
    let plane: Vec<[f64; 3]> = cube.iter().map(|p| [p[0], p[1], 0.2 * p[0] - 0.5 * p[1]]).collect();
    let faces: Vec<[f64; 3]> = cube
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let mut q = p;
            q[i % 3] = p[i % 3].signum();
            q
        })
        .collect();
    let clouds = [
        ("a line", line),
        ("a plane", plane),
        ("the cube faces", faces),
        ("one point", cube[..1].to_vec()),
        ("seven points", cube[..7].to_vec()),
    ];
    for (cloud, points) in &clouds {
        matches_direct(Laplace, cloud, points, 1e-5);
        matches_direct(Stokes::default(), cloud, points, 1e-3);
    }
}
