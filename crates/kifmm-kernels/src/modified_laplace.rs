//! The modified Laplace (screened Coulomb / Yukawa) kernel
//! `G(x, y) = e^{−λ|x−y|}/(4π|x−y|)`.
//!
//! This is the fundamental solution of `αu − Δu = 0` with `λ = √α`
//! (paper Appendix A) — the kernel of screened Coulombic interactions in
//! molecular dynamics, one of the motivating applications in the
//! introduction.

use crate::fused::{radial_p2p_grad_many, radial_p2p_many};
use crate::kernel::{displacement, Kernel};
use crate::Point3;

const FOUR_PI_INV: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Fundamental solution of `αu − Δu = 0` in 3-D, `λ = √α`.
#[derive(Clone, Copy, Debug)]
pub struct ModifiedLaplace {
    /// Screening parameter `λ > 0`.
    pub lambda: f64,
}

impl ModifiedLaplace {
    /// Kernel with screening length `1/λ`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "screening parameter must be positive");
        ModifiedLaplace { lambda }
    }

    /// The PDE coefficient `α = λ²`.
    pub fn alpha(&self) -> f64 {
        self.lambda * self.lambda
    }
}

impl Default for ModifiedLaplace {
    /// `λ = 1`: screening length comparable to the unit computational box,
    /// the interesting regime (for `λ → 0` this degenerates to Laplace).
    fn default() -> Self {
        ModifiedLaplace::new(1.0)
    }
}

impl Kernel for ModifiedLaplace {
    fn src_dim(&self) -> usize {
        1
    }

    fn trg_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "ModifiedLaplace"
    }

    /// `e^{−λr}` couples the kernel to the physical scale: not homogeneous.
    fn homogeneity(&self) -> Option<f64> {
        None
    }

    /// Laplace's 12 plus `λ·r` (1), `exp` (1), extra multiply (1) ⇒ 15.
    fn flops_per_eval(&self) -> u64 {
        15
    }

    /// Fused pair: r² (8), sqrt (1), exp (1), shared factors (6),
    /// potential mac (2), three gradient macs (9) ⇒ 27.
    fn flops_per_grad_eval(&self) -> u64 {
        27
    }

    /// The operator tables depend on `λ`.
    fn id_bits(&self) -> u64 {
        self.lambda.to_bits()
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        let (_, _, _, r2) = displacement(x, y);
        block[0] = if r2 == 0.0 {
            0.0
        } else {
            let r = r2.sqrt();
            FOUR_PI_INV * (-self.lambda * r).exp() / r
        };
    }

    /// `∂G/∂x_d = −e^{−λr}(1 + λr)·r_d/(4π r³)`, `r = x − y`.
    #[inline]
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        debug_assert_eq!(block.len(), 3);
        let (dx, dy, dz, r2) = displacement(x, y);
        if r2 == 0.0 {
            block.fill(0.0);
            return;
        }
        let r = r2.sqrt();
        let e = (-self.lambda * r).exp();
        let s = FOUR_PI_INV * e * (1.0 + self.lambda * r) / (r2 * r);
        block[0] = -dx * s;
        block[1] = -dy * s;
        block[2] = -dz * s;
    }

    /// Weight buffer `w = e^{−λr}/r` — the expensive `exp` is paid once per
    /// pair, not per RHS, and stays scalar (`libm` exp is not required to be
    /// correctly rounded, so a vector variant could drift from the scalar
    /// path); `w = 0` marks a coincident pair.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        let lambda = self.lambda;
        radial_p2p_many(targets, sources, densities, potentials, FOUR_PI_INV, |w| {
            for r2 in w.iter_mut() {
                *r2 = if *r2 == 0.0 {
                    0.0
                } else {
                    let r = r2.sqrt();
                    (-lambda * r).exp() / r
                };
            }
        });
    }

    /// Shares `e^{−λr}` between the potential and the three gradient
    /// components.
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let lambda = self.lambda;
        let weights = |r2: f64| {
            let r = r2.sqrt();
            let e = (-lambda * r).exp();
            (e / r, e * (1.0 + lambda * r) / (r2 * r))
        };
        radial_p2p_grad_many(
            targets, sources, densities, potentials, gradients, FOUR_PI_INV, weights,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_laplace_at_lambda_zero_limit() {
        let k = ModifiedLaplace::new(1e-12);
        let mut b = [0.0];
        k.eval([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], &mut b);
        assert!((b[0] - FOUR_PI_INV).abs() < 1e-12);
    }

    #[test]
    fn satisfies_screened_pde() {
        // (α − Δ)u = 0 away from the pole, via central differences.
        let k = ModifiedLaplace::new(1.7);
        let h = 1e-4;
        let u = |p: Point3| {
            let mut b = [0.0];
            k.eval(p, [0.0, 0.0, 0.0], &mut b);
            b[0]
        };
        let c = [0.6, -0.3, 0.45];
        let mut lap = -6.0 * u(c);
        for d in 0..3 {
            let mut p = c;
            p[d] += h;
            lap += u(p);
            p[d] -= 2.0 * h;
            lap += u(p);
        }
        lap /= h * h;
        let residual = k.alpha() * u(c) - lap;
        assert!(residual.abs() < 1e-4, "PDE residual = {residual}");
    }

    #[test]
    fn decays_faster_than_laplace() {
        let k = ModifiedLaplace::new(2.0);
        let mut near = [0.0];
        let mut far = [0.0];
        k.eval([1.0, 0.0, 0.0], [0.0; 3], &mut near);
        k.eval([4.0, 0.0, 0.0], [0.0; 3], &mut far);
        // Laplace ratio would be 4; screening makes it much larger.
        assert!(near[0] / far[0] > 4.0 * (2.0f64 * 3.0).exp() * 0.9);
    }

    #[test]
    fn self_interaction_zero() {
        let k = ModifiedLaplace::default();
        let mut b = [5.0];
        k.eval([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], &mut b);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn p2p_matches_eval_sum() {
        let k = ModifiedLaplace::new(0.8);
        let targets = [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]];
        let sources = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]];
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
    fn rejects_nonpositive_lambda() {
        let _ = ModifiedLaplace::new(0.0);
    }
}
