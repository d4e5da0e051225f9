//! The Gaussian (squared-exponential / RBF) kernel
//! `G(x, y) = exp(−|x − y|²/(2σ²))`.
//!
//! Not a PDE fundamental solution: this is the covariance kernel of the
//! kernel-matrix matvec market (Gaussian-process regression, kriging,
//! RBF interpolation) that black-box FMMs like PBBFMM3D target. It is
//! smooth everywhere and rapidly decaying, so its far field is extremely
//! low-rank and the equivalent-density machinery compresses it well —
//! but the bandwidth `σ` introduces a length scale, so like
//! [`crate::ModifiedLaplace`] it is **inhomogeneous** and gets per-level
//! operator tables.
//!
//! Following the FMM convention used throughout this crate, the coincident
//! pair contributes **zero** (not `G(0) = 1`): the diagonal of a kernel
//! matrix is excluded from the N-body sum, and GP users add the
//! `1 + noise` diagonal themselves.

use crate::fused::{radial_p2p_grad_many, radial_p2p_many};
use crate::kernel::{displacement, Kernel};
use crate::Point3;

/// Squared-exponential kernel `exp(−r²/(2σ²))` with bandwidth `σ`.
#[derive(Clone, Copy, Debug)]
pub struct Gaussian {
    /// Bandwidth `σ > 0`. For FMM accuracy, `σ` should be comparable to
    /// the domain size (very small bandwidths make the kernel numerically
    /// local — dense near-field work covers it, but there is little far
    /// field left to compress).
    pub sigma: f64,
}

impl Gaussian {
    /// Gaussian kernel with bandwidth `σ`.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0, "bandwidth must be positive");
        Gaussian { sigma }
    }

    #[inline]
    fn inv_two_sigma2(&self) -> f64 {
        0.5 / (self.sigma * self.sigma)
    }

    #[inline]
    fn inv_sigma2(&self) -> f64 {
        1.0 / (self.sigma * self.sigma)
    }
}

impl Default for Gaussian {
    /// `σ = 1`: bandwidth comparable to the unit computational box.
    fn default() -> Self {
        Gaussian::new(1.0)
    }
}

impl Kernel for Gaussian {
    fn src_dim(&self) -> usize {
        1
    }

    fn trg_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "Gaussian"
    }

    /// The bandwidth `σ` sets a physical scale: not homogeneous — the
    /// operator tables are built per level (the ModifiedLaplace path).
    fn homogeneity(&self) -> Option<f64> {
        None
    }

    /// r² (8), scale (1), exp (1), multiply-accumulate (2) ⇒ 12.
    fn flops_per_eval(&self) -> u64 {
        12
    }

    /// Fused pair: the 12 of the potential plus the shared `e/σ²` factor
    /// (1) and three gradient macs (9) ⇒ 22.
    fn flops_per_grad_eval(&self) -> u64 {
        22
    }

    /// The operator tables depend on `σ`.
    fn id_bits(&self) -> u64 {
        self.sigma.to_bits()
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        let (_, _, _, r2) = displacement(x, y);
        block[0] = if r2 == 0.0 { 0.0 } else { (-r2 * self.inv_two_sigma2()).exp() };
    }

    /// `∂G/∂x_d = −(r_d/σ²)·exp(−r²/(2σ²))`, `r = x − y`.
    #[inline]
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        debug_assert_eq!(block.len(), 3);
        let (dx, dy, dz, r2) = displacement(x, y);
        if r2 == 0.0 {
            block.fill(0.0);
            return;
        }
        let s = (-r2 * self.inv_two_sigma2()).exp() * self.inv_sigma2();
        block[0] = -dx * s;
        block[1] = -dy * s;
        block[2] = -dz * s;
    }

    /// Weight buffer `w = e^{−r²/(2σ²)}` (the `exp` stays scalar for
    /// determinism, as in ModifiedLaplace; `w = 0` marks a coincident
    /// pair — the FMM convention, not `G(0) = 1`).
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        let inv2s2 = self.inv_two_sigma2();
        radial_p2p_many(targets, sources, densities, potentials, 1.0, |w| {
            for r2 in w.iter_mut() {
                *r2 = if *r2 == 0.0 { 0.0 } else { (-*r2 * inv2s2).exp() };
            }
        });
    }

    /// Shares the `exp` between the potential and the three gradient
    /// components.
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let (inv2s2, invs2) = (self.inv_two_sigma2(), self.inv_sigma2());
        let weights = |r2: f64| {
            let e = (-r2 * inv2s2).exp();
            (e, e * invs2)
        };
        radial_p2p_grad_many(targets, sources, densities, potentials, gradients, 1.0, weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointwise_value_and_self_exclusion() {
        let k = Gaussian::new(0.5);
        let mut b = [0.0];
        k.eval([1.0, 0.0, 0.0], [0.0; 3], &mut b);
        assert!((b[0] - (-2.0f64).exp()).abs() < 1e-15);
        let mut z = [1.0];
        k.eval([0.2; 3], [0.2; 3], &mut z);
        assert_eq!(z[0], 0.0, "diagonal excluded from the N-body sum");
    }

    #[test]
    fn monotone_decay_and_positivity() {
        let k = Gaussian::new(0.8);
        let mut prev = f64::INFINITY;
        for i in 1..10 {
            let mut b = [0.0];
            k.eval([0.3 * i as f64, 0.0, 0.0], [0.0; 3], &mut b);
            assert!(b[0] > 0.0 && b[0] < prev);
            prev = b[0];
        }
    }

    #[test]
    fn gradient_known_value() {
        // ∂G/∂x at (r,0,0): −(r/σ²) e^{−r²/(2σ²)}.
        let k = Gaussian::new(0.7);
        let mut g = [0.0; 3];
        k.eval_grad([0.9, 0.0, 0.0], [0.0; 3], &mut g);
        let expect = -(0.9 / (0.7 * 0.7)) * (-0.81f64 / (2.0 * 0.49)).exp();
        assert!((g[0] - expect).abs() < 1e-15);
        assert!(g[1].abs() < 1e-15 && g[2].abs() < 1e-15);
    }

    #[test]
    fn p2p_matches_eval_sum() {
        let k = Gaussian::new(0.6);
        let targets = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]];
        let sources = [[1.0, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.4]];
        let dens = [1.0, -2.0, 0.5];
        let mut fast = vec![0.0; 2];
        k.p2p(&targets, &sources, &dens, &mut fast);
        for (ti, &x) in targets.iter().enumerate() {
            let mut expect = 0.0;
            let mut b = [0.0];
            for (si, &y) in sources.iter().enumerate() {
                k.eval(x, y, &mut b);
                expect += b[0] * dens[si];
            }
            assert!((fast[ti] - expect).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_sigma() {
        let _ = Gaussian::new(0.0);
    }
}
