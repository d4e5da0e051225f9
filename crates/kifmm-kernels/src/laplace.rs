//! The 3-D Laplace single-layer kernel `G(x, y) = 1/(4π|x − y|)`.

use crate::fused::{radial_p2p_grad_many, radial_p2p_many};
use crate::kernel::{displacement, Kernel};
use crate::Point3;
use kifmm_linalg::simd;

const FOUR_PI_INV: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Fundamental solution of `−Δu = 0` in 3-D.
#[derive(Clone, Copy, Debug, Default)]
pub struct Laplace;

impl Kernel for Laplace {
    fn src_dim(&self) -> usize {
        1
    }

    fn trg_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "Laplace"
    }

    fn homogeneity(&self) -> Option<f64> {
        Some(-1.0)
    }

    /// 3 subs + 3 muls + 2 adds (r²), 1 rsqrt, 1 scale, 2 for the
    /// multiply-accumulate ⇒ 12.
    fn flops_per_eval(&self) -> u64 {
        12
    }

    /// Fused pair: r² (8), rsqrt (1), 1/r³ (2), potential mac (3),
    /// three gradient macs (9) ⇒ 23.
    fn flops_per_grad_eval(&self) -> u64 {
        23
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        let (_, _, _, r2) = displacement(x, y);
        block[0] = if r2 == 0.0 { 0.0 } else { FOUR_PI_INV / r2.sqrt() };
    }

    /// `∂G/∂x_d = −r_d/(4π r³)`, `r = x − y`.
    #[inline]
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        debug_assert_eq!(block.len(), 3);
        let (dx, dy, dz, r2) = displacement(x, y);
        if r2 == 0.0 {
            block.fill(0.0);
            return;
        }
        let inv_r3 = FOUR_PI_INV / (r2 * r2.sqrt());
        block[0] = -dx * inv_r3;
        block[1] = -dy * inv_r3;
        block[2] = -dz * inv_r3;
    }

    /// Weight buffer `w = 1/√r²` from the vector [`simd::recip_sqrt`]
    /// microkernel (`w = 0` marks a coincident pair), reduced per RHS with
    /// [`simd::dot`].
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        radial_p2p_many(targets, sources, densities, potentials, FOUR_PI_INV, simd::recip_sqrt);
    }

    /// Shares `1/r` and `1/r³` between the potential and the three
    /// gradient components.
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let weights = |r2: f64| {
            let inv_r = 1.0 / r2.sqrt();
            (inv_r, inv_r / r2)
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
    fn pointwise_value() {
        let k = Laplace;
        let mut b = [0.0];
        k.eval([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], &mut b);
        assert!((b[0] - FOUR_PI_INV).abs() < 1e-15);
        k.eval([0.0, 2.0, 0.0], [0.0, 0.0, 0.0], &mut b);
        assert!((b[0] - FOUR_PI_INV / 2.0).abs() < 1e-15);
    }

    #[test]
    fn self_interaction_is_zero() {
        let k = Laplace;
        let mut b = [1.0];
        k.eval([0.3, 0.4, 0.5], [0.3, 0.4, 0.5], &mut b);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn gradient_known_value() {
        // u(x) = G(x, 0): ∇u at (r, 0, 0) is (−1/(4πr²), 0, 0).
        let k = Laplace;
        let mut g = [0.0; 3];
        k.eval_grad([2.0, 0.0, 0.0], [0.0; 3], &mut g);
        assert!((g[0] + FOUR_PI_INV / 4.0).abs() < 1e-15);
        assert!(g[1].abs() < 1e-15 && g[2].abs() < 1e-15);
    }

    #[test]
    fn p2p_grad_matches_eval_grad_sum() {
        let k = Laplace;
        let targets: Vec<Point3> =
            (0..4).map(|i| [i as f64 * 0.2, 0.3, -0.1 * i as f64]).collect();
        let sources: Vec<Point3> =
            (0..6).map(|i| [1.0 + 0.1 * i as f64, -0.2, 0.5]).collect();
        let dens: Vec<f64> = (0..6).map(|i| (i as f64).sin() + 0.2).collect();
        let mut pot = vec![0.0; 4];
        let mut grad = vec![0.0; 12];
        k.p2p_grad(&targets, &sources, &dens, &mut pot, &mut grad);
        let mut g = [0.0; 3];
        let mut b = [0.0];
        for (ti, &x) in targets.iter().enumerate() {
            let (mut eu, mut eg) = (0.0, [0.0; 3]);
            for (si, &y) in sources.iter().enumerate() {
                k.eval(x, y, &mut b);
                k.eval_grad(x, y, &mut g);
                eu += b[0] * dens[si];
                for d in 0..3 {
                    eg[d] += g[d] * dens[si];
                }
            }
            assert!((pot[ti] - eu).abs() < 1e-13);
            for d in 0..3 {
                assert!((grad[3 * ti + d] - eg[d]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn harmonic_away_from_pole() {
        // Finite-difference Laplacian of u(x) = G(x, 0) vanishes off the pole.
        let k = Laplace;
        let h = 1e-4;
        let u = |p: Point3| {
            let mut b = [0.0];
            k.eval(p, [0.0, 0.0, 0.0], &mut b);
            b[0]
        };
        let c = [0.7, -0.4, 0.55];
        let mut lap = -6.0 * u(c);
        for d in 0..3 {
            let mut p = c;
            p[d] += h;
            lap += u(p);
            p[d] -= 2.0 * h;
            lap += u(p);
        }
        lap /= h * h;
        assert!(lap.abs() < 1e-4, "discrete Laplacian = {lap}");
    }

    #[test]
    fn p2p_matches_generic_path() {
        let k = Laplace;
        let targets: Vec<Point3> = (0..5)
            .map(|i| [i as f64 * 0.1, 0.2, -0.3 + i as f64 * 0.05])
            .collect();
        let sources: Vec<Point3> = (0..7)
            .map(|i| [1.0 + i as f64 * 0.2, -0.1 * i as f64, 0.4])
            .collect();
        let dens: Vec<f64> = (0..7).map(|i| (i as f64).cos()).collect();
        let mut fast = vec![0.0; 5];
        k.p2p(&targets, &sources, &dens, &mut fast);
        // Generic (eval-based) path from the trait default.
        let mut slow = vec![0.0; 5];
        struct Generic;
        impl Clone for Generic {
            fn clone(&self) -> Self {
                Generic
            }
        }
        impl Kernel for Generic {
            fn src_dim(&self) -> usize {
                1
            }
            fn trg_dim(&self) -> usize {
                1
            }
            fn name(&self) -> &str {
                "generic-laplace"
            }
            fn homogeneity(&self) -> Option<f64> {
                Some(-1.0)
            }
            fn flops_per_eval(&self) -> u64 {
                12
            }
            fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
                Laplace.eval(x, y, block)
            }
        }
        Generic.p2p(&targets, &sources, &dens, &mut slow);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn superposition_and_decay() {
        let k = Laplace;
        let src = [[0.0, 0.0, 0.0]];
        let mut u1 = vec![0.0];
        k.p2p(&[[10.0, 0.0, 0.0]], &src, &[2.0], &mut u1);
        let mut u2 = vec![0.0];
        k.p2p(&[[20.0, 0.0, 0.0]], &src, &[2.0], &mut u2);
        assert!((u1[0] / u2[0] - 2.0).abs() < 1e-12, "1/r decay");
    }
}
