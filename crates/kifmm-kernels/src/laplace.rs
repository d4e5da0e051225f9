//! The 3-D Laplace single-layer kernel `G(x, y) = 1/(4π|x − y|)`.

use crate::fused::radial_p2p_grad_many;
use crate::kernel::{check_shapes, displacement, Kernel};
use crate::Point3;
use kifmm_linalg::simd::{self, SWEEP};

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
        let (mut dx, mut dy, mut dz, r2) = displacement(x, y);
        if r2 == 0.0 {
            block.fill(0.0);
            return;
        }
        let r = r2.sqrt();
        let mut inv_r3 = FOUR_PI_INV / (r2 * r);
        if !inv_r3.is_normal() {
            // `r³` left f64's normal range (|r| beyond about 1e±102): the
            // same term as (d/r)/(4π r²).
            (dx, dy, dz, inv_r3) = (dx / r, dy / r, dz / r, FOUR_PI_INV / r2);
        }
        block[0] = -dx * inv_r3;
        block[1] = -dy * inv_r3;
        block[2] = -dz * inv_r3;
    }

    /// One [`simd::inv_dist_dots`] pass per target and batch of up to
    /// [`SWEEP`] right-hand sides: `1/√r²` stays in a register (0 at a
    /// coincident pair) and feeds every right-hand side's lane
    /// accumulators; each sum is bit-for-bit [`simd::dot`] over the weights.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        check_shapes((1, 1), targets.len(), sources.len(), densities, potentials, None);
        let mut sums = [0.0; SWEEP];
        for (dens, pots) in densities.chunks(SWEEP).zip(potentials.chunks_mut(SWEEP)) {
            let sums = &mut sums[..dens.len()];
            for (ti, &x) in targets.iter().enumerate() {
                simd::inv_dist_dots(x, sources, dens, sums);
                for (pot, s) in pots.iter_mut().zip(&*sums) {
                    pot[ti] += FOUR_PI_INV * s;
                }
            }
        }
    }

    /// Shares `1/r` and `1/r³` between the potential and the three
    /// gradient components (`1/r²` on the unit vector where `1/r³` is out
    /// of range, as in [`Laplace::eval_grad`]).
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
            let inv_r3 = inv_r / r2;
            if inv_r3.is_normal() {
                (inv_r, inv_r3, 1.0)
            } else {
                (inv_r, inv_r * inv_r, inv_r)
            }
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

    /// The weight-buffer formula as an oracle — per target an `r²` buffer,
    /// then `1/√r²` (0 at `r² = 0`), then one `dot_scalar` per right-hand
    /// side — over every source remainder class, batch widths across the
    /// `SWEEP` boundary, and a coincident pair: `p2p_many` must equal it
    /// bit for bit.
    #[test]
    fn p2p_many_bitwise_equals_weight_buffer_oracle() {
        let targets: Vec<Point3> = (0..5)
            .map(|i| [(i as f64 * 0.7).sin(), 0.3 - 0.1 * i as f64, (i as f64 * 0.4).cos()])
            .collect();
        for ns in (0..=9).chain([61, 129, 1003]) {
            let mut sources: Vec<Point3> = (0..ns)
                .map(|i| {
                    let t = i as f64 + 0.25;
                    [(t * 0.37).cos(), (t * 0.19).sin() * 0.8, (t * 0.29).cos() * 0.6]
                })
                .collect();
            if ns > 3 {
                sources[3] = targets[1];
            }
            for k in [1, 3, 8, 9, 17] {
                let dens: Vec<Vec<f64>> = (0..k)
                    .map(|q| {
                        (0..ns).map(|i| ((i * 5 + q * 11) % 23) as f64 / 23.0 - 0.45).collect()
                    })
                    .collect();
                let seed: Vec<f64> = (0..targets.len()).map(|i| (i as f64 * 0.9).cos()).collect();
                let mut want: Vec<Vec<f64>> = vec![seed.clone(); k];
                for (ti, &x) in targets.iter().enumerate() {
                    let mut w: Vec<f64> = sources.iter().map(|&y| displacement(x, y).3).collect();
                    for r2 in w.iter_mut() {
                        *r2 = if *r2 == 0.0 { 0.0 } else { 1.0 / r2.sqrt() };
                    }
                    for (pot, d) in want.iter_mut().zip(&dens) {
                        pot[ti] += FOUR_PI_INV * simd::dot_scalar(d, &w);
                    }
                }
                let mut got: Vec<Vec<f64>> = vec![seed.clone(); k];
                let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
                let mut outs: Vec<&mut [f64]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                Laplace.p2p_many(&targets, &sources, &refs, &mut outs);
                let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                for (q, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(g), bits(w), "ns = {ns} k = {k} q = {q}");
                }
            }
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
