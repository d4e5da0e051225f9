//! Direct `O(N²)` summation — the exact reference the FMM approximates,
//! used for accuracy measurements and as the small-`N` baseline in the
//! benches. Parallelized over targets with the in-tree runtime (targets
//! are embarrassingly parallel).

use kifmm_kernels::{Kernel, Point3};
use kifmm_runtime::{num_threads, par_each, zip_eq};

/// `u_i = Σ_j G(x_i, x_j) φ_j` with the self term excluded, exactly.
pub fn direct_eval<K: Kernel>(kernel: &K, points: &[Point3], densities: &[f64]) -> Vec<f64> {
    direct_eval_src_trg(kernel, points, densities, points)
}

/// Direct summation with distinct source and target sets.
pub fn direct_eval_src_trg<K: Kernel>(
    kernel: &K,
    sources: &[Point3],
    densities: &[f64],
    targets: &[Point3],
) -> Vec<f64> {
    direct_sum(kernel, sources, densities, targets, false).0
}

/// Exact potentials *and* gradients: `(u_i, ∇u_i)` with the self term
/// excluded — the reference for the FMM's `PotentialAndGradient` output.
/// Returns `(potentials, gradients)` with `trg_dim` and `trg_dim·3`
/// components per target respectively.
pub fn direct_eval_grad<K: Kernel>(
    kernel: &K,
    points: &[Point3],
    densities: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    direct_eval_grad_src_trg(kernel, points, densities, points)
}

/// Direct gradient summation with distinct source and target sets.
pub fn direct_eval_grad_src_trg<K: Kernel>(
    kernel: &K,
    sources: &[Point3],
    densities: &[f64],
    targets: &[Point3],
) -> (Vec<f64>, Vec<f64>) {
    direct_sum(kernel, sources, densities, targets, true)
}

/// The one chunked body of the direct sums: potentials, plus gradients
/// when `with_grad` (empty otherwise). Targets are chunked so tasks have
/// useful grain without per-target overhead; each task owns one disjoint
/// target range of both output buffers.
fn direct_sum<K: Kernel>(
    kernel: &K,
    sources: &[Point3],
    densities: &[f64],
    targets: &[Point3],
    with_grad: bool,
) -> (Vec<f64>, Vec<f64>) {
    const CHUNK: usize = 64;
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    assert_eq!(densities.len(), sources.len() * sd);
    let mut pots = vec![0.0; targets.len() * td];
    let mut grads = vec![0.0; if with_grad { targets.len() * td * 3 } else { 0 }];
    let mut gchunks = with_grad.then(|| grads.chunks_mut(CHUNK * td * 3));
    let tasks = zip_eq(targets.chunks(CHUNK), pots.chunks_mut(CHUNK * td))
        .map(|(t, p)| (t, p, gchunks.as_mut().and_then(Iterator::next)));
    par_each(num_threads(), tasks, || (), |(), _, (t, p, g)| match g {
        Some(g) => kernel.p2p_grad(t, sources, densities, p, g),
        None => kernel.p2p(t, sources, densities, p),
    });
    (pots, grads)
}

/// Relative ℓ² error between an approximation and a reference.
pub fn rel_l2_error(approx: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(approx.len(), truth.len());
    let num: f64 = approx.iter().zip(truth).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let den: f64 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::{Laplace, Stokes};

    #[test]
    fn two_body_laplace() {
        let pts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]];
        let u = direct_eval(&Laplace, &pts, &[1.0, 2.0]);
        let c = 1.0 / (4.0 * std::f64::consts::PI);
        assert!((u[0] - 2.0 * c).abs() < 1e-15);
        assert!((u[1] - c).abs() < 1e-15);
    }

    #[test]
    fn matches_sequential_summation() {
        let pts: Vec<[f64; 3]> = (0..137)
            .map(|i| {
                let t = i as f64;
                [t.sin(), (t * 0.7).cos(), (t * 0.3).sin()]
            })
            .collect();
        let dens: Vec<f64> = (0..137 * 3).map(|i| (i as f64 * 0.01).cos()).collect();
        let k = Stokes::default();
        let par = direct_eval(&k, &pts, &dens);
        let mut seq = vec![0.0; 137 * 3];
        k.p2p(&pts, &pts, &dens, &mut seq);
        for (a, b) in par.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn rel_error_basics() {
        assert_eq!(rel_l2_error(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((rel_l2_error(&[1.1, 0.0], &[1.0, 0.0]) - 0.1).abs() < 1e-12);
        assert_eq!(rel_l2_error(&[0.5], &[0.0]), 0.5);
    }

    #[test]
    fn grad_matches_sequential_fused_loop() {
        let pts: Vec<[f64; 3]> = (0..97)
            .map(|i| {
                let t = i as f64;
                [(t * 0.9).sin(), (t * 0.4).cos(), (t * 0.2).sin()]
            })
            .collect();
        let dens: Vec<f64> = (0..97 * 3).map(|i| (i as f64 * 0.05).sin()).collect();
        let k = Stokes::default();
        let (pu, pg) = direct_eval_grad(&k, &pts, &dens);
        let mut su = vec![0.0; 97 * 3];
        let mut sg = vec![0.0; 97 * 9];
        k.p2p_grad(&pts, &pts, &dens, &mut su, &mut sg);
        for (a, b) in pu.iter().zip(&su) {
            assert!((a - b).abs() < 1e-14);
        }
        for (a, b) in pg.iter().zip(&sg) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn separate_targets() {
        let src = [[0.0, 0.0, 0.0]];
        let trg = [[2.0, 0.0, 0.0], [0.0, 4.0, 0.0]];
        let u = direct_eval_src_trg(&Laplace, &src, &[8.0], &trg);
        let c = 1.0 / (4.0 * std::f64::consts::PI);
        assert!((u[0] - 4.0 * c).abs() < 1e-14);
        assert!((u[1] - 2.0 * c).abs() < 1e-14);
    }
}
