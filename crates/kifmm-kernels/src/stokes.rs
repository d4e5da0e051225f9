//! The 3-D Stokes single-layer (Stokeslet) kernel
//! `G(x, y) = (1/(8πμ)) (I/r + r⊗r/r³)`.
//!
//! Fundamental solution of the velocity in `−μΔu + ∇p = 0, ∇·u = 0`
//! (paper Appendix A) — the kernel behind the viscous-flow and
//! fluid–structure problems that motivate the paper, including the 2.1
//! billion-unknown runs of Table 4.3 (each particle carries 3 force
//! components and receives 3 velocity components, hence "unknowns = 3N").

use crate::fused::{
    stokeslet_block, stokeslet_grad_block, stokeslet_p2p_grad_many, stokeslet_p2p_many,
};
use crate::kernel::Kernel;
use crate::Point3;

/// The Stokeslet: 3×3 matrix-valued kernel mapping point forces to fluid
/// velocities.
#[derive(Clone, Copy, Debug)]
pub struct Stokes {
    /// Dynamic viscosity `μ > 0`.
    pub mu: f64,
}

impl Stokes {
    /// Stokeslet with viscosity `μ`.
    pub fn new(mu: f64) -> Self {
        assert!(mu > 0.0, "viscosity must be positive");
        Stokes { mu }
    }

    #[inline]
    fn prefactor(&self) -> f64 {
        1.0 / (8.0 * std::f64::consts::PI * self.mu)
    }
}

impl Default for Stokes {
    fn default() -> Self {
        Stokes::new(1.0)
    }
}

impl Kernel for Stokes {
    fn src_dim(&self) -> usize {
        3
    }

    fn trg_dim(&self) -> usize {
        3
    }

    fn name(&self) -> &str {
        "Stokes"
    }

    fn homogeneity(&self) -> Option<f64> {
        Some(-1.0)
    }

    /// Displacement + r² (8), rsqrt + 1/r³ (4), 9 tensor entries (~12),
    /// 3×3 matvec accumulate (18) ⇒ 42 per pair (≈ the 3.5× Laplace work
    /// ratio visible in the paper's per-kernel cycle counts).
    fn flops_per_eval(&self) -> u64 {
        42
    }

    /// Fused pair: the 42 of the potential plus `1/r⁵` (1), `f_k`/`δ_ik`
    /// cross terms and the rank-3 correction — 9 gradient entries at ~6
    /// flops each ⇒ 97.
    fn flops_per_grad_eval(&self) -> u64 {
        97
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        stokeslet_block(x, y, block, self.prefactor(), 1.0);
    }

    /// `∂G_ij/∂x_k = (1/(8πμ))(−δ_ij r_k/r³ + (δ_ik r_j + δ_jk r_i)/r³
    /// − 3 r_i r_j r_k/r⁵)`, `r = x − y` — the velocity gradient of the
    /// Stokeslet. Rows are `(i·3 + k)`, columns `j`.
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        stokeslet_grad_block(x, y, block, self.prefactor(), 1.0);
    }

    /// The operator tables depend on `μ`.
    fn id_bits(&self) -> u64 {
        self.mu.to_bits()
    }

    /// The Stokeslet is the Kelvin form with unit isotropic weight.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        stokeslet_p2p_many(targets, sources, densities, potentials, self.prefactor(), 1.0);
    }

    /// Velocity + velocity gradient, see [`Stokes::p2p_many`].
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let c = self.prefactor();
        stokeslet_p2p_grad_many(targets, sources, densities, potentials, gradients, c, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velocity(k: &Stokes, x: Point3, y: Point3, f: [f64; 3]) -> [f64; 3] {
        let mut b = [0.0; 9];
        k.eval(x, y, &mut b);
        [
            b[0] * f[0] + b[1] * f[1] + b[2] * f[2],
            b[3] * f[0] + b[4] * f[1] + b[5] * f[2],
            b[6] * f[0] + b[7] * f[1] + b[8] * f[2],
        ]
    }

    #[test]
    fn block_symmetric() {
        let k = Stokes::default();
        let mut b = [0.0; 9];
        k.eval([0.3, 0.7, -0.2], [1.0, 0.1, 0.4], &mut b);
        for i in 0..3 {
            for j in 0..3 {
                assert!((b[3 * i + j] - b[3 * j + i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn known_axis_value() {
        // On the x-axis at distance r with force e_x:
        // u_x = (1/(8πμ)) (1/r + r²/r³) = 2/(8πμ r).
        let k = Stokes::new(2.0);
        let u = velocity(&k, [3.0, 0.0, 0.0], [0.0; 3], [1.0, 0.0, 0.0]);
        let expect = 2.0 / (8.0 * std::f64::consts::PI * 2.0 * 3.0);
        assert!((u[0] - expect).abs() < 1e-15);
        assert!(u[1].abs() < 1e-15 && u[2].abs() < 1e-15);
    }

    #[test]
    fn divergence_free() {
        // ∇·u = 0 away from the pole for any force direction.
        let k = Stokes::default();
        let f = [0.3, -1.1, 0.7];
        let h = 1e-5;
        let c = [0.8, 0.5, -0.6];
        let mut div = 0.0;
        for d in 0..3 {
            let mut p = c;
            p[d] += h;
            let up = velocity(&k, p, [0.0; 3], f)[d];
            p[d] -= 2.0 * h;
            let um = velocity(&k, p, [0.0; 3], f)[d];
            div += (up - um) / (2.0 * h);
        }
        assert!(div.abs() < 1e-8, "div u = {div}");
    }

    #[test]
    fn self_interaction_zero_block() {
        let k = Stokes::default();
        let mut b = [1.0; 9];
        k.eval([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn p2p_matches_eval_sum() {
        let k = Stokes::new(0.7);
        let targets = [[0.0, 0.0, 0.0], [0.2, -0.4, 0.9]];
        let sources = [[1.0, 0.2, 0.0], [0.1, 1.5, -0.3], [-0.7, 0.0, 1.1]];
        let dens = [0.5, -1.0, 0.25, 2.0, 0.0, -0.5, 1.0, 1.0, 1.0];
        let mut fast = vec![0.0; 6];
        k.p2p(&targets, &sources, &dens, &mut fast);
        let mut block = [0.0; 9];
        for (ti, &x) in targets.iter().enumerate() {
            let mut expect = [0.0; 3];
            for (si, &y) in sources.iter().enumerate() {
                k.eval(x, y, &mut block);
                for a in 0..3 {
                    for bcomp in 0..3 {
                        expect[a] += block[3 * a + bcomp] * dens[3 * si + bcomp];
                    }
                }
            }
            for a in 0..3 {
                assert!((fast[3 * ti + a] - expect[a]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn viscosity_scales_inversely() {
        let u1 = velocity(&Stokes::new(1.0), [2.0, 1.0, 0.0], [0.0; 3], [1.0, 0.0, 0.0]);
        let u4 = velocity(&Stokes::new(4.0), [2.0, 1.0, 0.0], [0.0; 3], [1.0, 0.0, 0.0]);
        for a in 0..3 {
            assert!((u1[a] - 4.0 * u4[a]).abs() < 1e-15);
        }
    }
}
