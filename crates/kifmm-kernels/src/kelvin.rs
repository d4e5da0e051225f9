//! The 3-D Kelvin (elastostatics) kernel
//! `U(x, y) = (1/(16πμ(1−ν))) ((3−4ν) I/r + r⊗r/r³)`.
//!
//! Fundamental solution of the Navier (linear isotropic elasticity)
//! equations `μΔu + μ/(1−2ν) ∇(∇·u) = 0` — the displacement at `x` due to
//! a point force at `y` in an infinite elastic medium with shear modulus
//! `μ` and Poisson ratio `ν`. Structurally a Stokeslet with the factor
//! `3−4ν` on the isotropic term (Stokes is the incompressible limit
//! `ν → 1/2` up to the `1/(2μ)` prefactor), so the same equivalent-density
//! machinery applies: homogeneous of degree −1, 3×3 blocks.

use crate::fused::{
    stokeslet_block, stokeslet_grad_block, stokeslet_p2p_grad_many, stokeslet_p2p_many,
};
use crate::kernel::Kernel;
use crate::Point3;

/// The Kelvin solution: 3×3 matrix-valued kernel mapping point forces to
/// elastic displacements.
#[derive(Clone, Copy, Debug)]
pub struct Kelvin {
    /// Shear modulus `μ > 0`.
    pub mu: f64,
    /// Poisson ratio `ν ∈ [0, 1/2)` (the incompressible limit `ν = 1/2`
    /// degenerates to Stokes flow).
    pub nu: f64,
}

impl Kelvin {
    /// Kelvin kernel with shear modulus `μ` and Poisson ratio `ν`.
    pub fn new(mu: f64, nu: f64) -> Self {
        assert!(mu > 0.0, "shear modulus must be positive");
        assert!((0.0..0.5).contains(&nu), "Poisson ratio must lie in [0, 1/2)");
        Kelvin { mu, nu }
    }

    #[inline]
    fn prefactor(&self) -> f64 {
        1.0 / (16.0 * std::f64::consts::PI * self.mu * (1.0 - self.nu))
    }

    /// The `3−4ν` weight of the isotropic `I/r` term.
    #[inline]
    fn a(&self) -> f64 {
        3.0 - 4.0 * self.nu
    }
}

impl Default for Kelvin {
    /// Steel-like `ν = 0.3` at unit shear modulus.
    fn default() -> Self {
        Kelvin::new(1.0, 0.3)
    }
}

impl Kernel for Kelvin {
    fn src_dim(&self) -> usize {
        3
    }

    fn trg_dim(&self) -> usize {
        3
    }

    fn name(&self) -> &str {
        "Kelvin"
    }

    fn homogeneity(&self) -> Option<f64> {
        Some(-1.0)
    }

    /// Same shape as Stokes (42) plus the `3−4ν` weighting ⇒ 43.
    fn flops_per_eval(&self) -> u64 {
        43
    }

    /// Same shape as the Stokes fused pair (97) plus the weighted
    /// isotropic term ⇒ 98.
    fn flops_per_grad_eval(&self) -> u64 {
        98
    }

    /// The operator tables depend on `μ` and `ν`.
    fn id_bits(&self) -> u64 {
        self.mu.to_bits() ^ self.nu.to_bits().rotate_left(17)
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        stokeslet_block(x, y, block, self.prefactor(), self.a());
    }

    /// `∂U_ij/∂x_k = C(−(3−4ν) δ_ij r_k/r³ + (δ_ik r_j + δ_jk r_i)/r³
    /// − 3 r_i r_j r_k/r⁵)`, `r = x − y`. Rows are `(i·3 + k)`, columns `j`.
    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        stokeslet_grad_block(x, y, block, self.prefactor(), self.a());
    }

    /// Displacement loop with the `3−4ν` weight on the isotropic term.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        stokeslet_p2p_many(targets, sources, densities, potentials, self.prefactor(), self.a());
    }

    /// Displacement + displacement gradient, see [`Kelvin::p2p_many`].
    fn p2p_grad_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
        gradients: &mut [&mut [f64]],
    ) {
        let (c, a) = (self.prefactor(), self.a());
        stokeslet_p2p_grad_many(targets, sources, densities, potentials, gradients, c, a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn displacement_of(k: &Kelvin, x: Point3, y: Point3, f: [f64; 3]) -> [f64; 3] {
        let mut b = [0.0; 9];
        k.eval(x, y, &mut b);
        [
            b[0] * f[0] + b[1] * f[1] + b[2] * f[2],
            b[3] * f[0] + b[4] * f[1] + b[5] * f[2],
            b[6] * f[0] + b[7] * f[1] + b[8] * f[2],
        ]
    }

    #[test]
    fn block_symmetric_and_zero_at_pole() {
        let k = Kelvin::default();
        let mut b = [0.0; 9];
        k.eval([0.3, 0.7, -0.2], [1.0, 0.1, 0.4], &mut b);
        for i in 0..3 {
            for j in 0..3 {
                assert!((b[3 * i + j] - b[3 * j + i]).abs() < 1e-15);
            }
        }
        let mut z = [1.0; 9];
        k.eval([0.5; 3], [0.5; 3], &mut z);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn known_axis_value() {
        // On the x-axis at distance r with force e_x:
        // u_x = C ((3−4ν)/r + r²/r³) = C (4 − 4ν)/r.
        let k = Kelvin::new(2.0, 0.25);
        let u = displacement_of(&k, [3.0, 0.0, 0.0], [0.0; 3], [1.0, 0.0, 0.0]);
        let c = 1.0 / (16.0 * std::f64::consts::PI * 2.0 * 0.75);
        let expect = c * (4.0 - 4.0 * 0.25) / 3.0;
        assert!((u[0] - expect).abs() < 1e-15);
        assert!(u[1].abs() < 1e-15 && u[2].abs() < 1e-15);
    }

    #[test]
    fn satisfies_navier_equation() {
        // μ Δu + μ/(1−2ν) ∇(∇·u) = 0 away from the pole, via central
        // differences of the displacement field u(x) = U(x, 0)·f.
        let k = Kelvin::new(1.3, 0.27);
        let f = [0.4, -0.9, 0.6];
        let u = |p: Point3| displacement_of(&k, p, [0.0; 3], f);
        let c = [0.62, 0.41, -0.55];
        let h = 1e-4;
        // Δu_i and ∂_i(∇·u) by second differences.
        let mut residual: f64 = 0.0;
        for i in 0..3 {
            let mut lap = -6.0 * u(c)[i];
            for d in 0..3 {
                let mut p = c;
                p[d] += h;
                lap += u(p)[i];
                p[d] -= 2.0 * h;
                lap += u(p)[i];
            }
            lap /= h * h;
            // ∂_i (∇·u) via mixed central differences.
            let mut grad_div = 0.0;
            for d in 0..3 {
                let mut pp = c;
                pp[i] += h;
                pp[d] += h;
                let mut pm = c;
                pm[i] += h;
                pm[d] -= h;
                let mut mp = c;
                mp[i] -= h;
                mp[d] += h;
                let mut mm = c;
                mm[i] -= h;
                mm[d] -= h;
                grad_div += (u(pp)[d] - u(pm)[d] - u(mp)[d] + u(mm)[d]) / (4.0 * h * h);
            }
            residual = residual
                .max((k.mu * lap + k.mu / (1.0 - 2.0 * k.nu) * grad_div).abs());
        }
        assert!(residual < 1e-3, "Navier residual {residual}");
    }

    #[test]
    fn reduces_toward_stokes_form_at_high_nu() {
        // As ν → 1/2 the (3−4ν) factor → 1, matching the Stokeslet's
        // isotropic weight (up to the 1/(2μ(1−ν)) prefactor ratio).
        let k = Kelvin::new(1.0, 0.499999);
        let mut b = [0.0; 9];
        k.eval([2.0, 0.0, 0.0], [0.0; 3], &mut b);
        let c = 1.0 / (16.0 * std::f64::consts::PI * (1.0 - 0.499999));
        assert!((b[0] - c * (1.000004 / 2.0 + 4.0 / 8.0)).abs() < 1e-4 * b[0].abs());
    }

    #[test]
    fn p2p_matches_eval_sum() {
        let k = Kelvin::new(0.9, 0.31);
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
                    for bc in 0..3 {
                        expect[a] += block[3 * a + bc] * dens[3 * si + bc];
                    }
                }
            }
            for a in 0..3 {
                assert!((fast[3 * ti + a] - expect[a]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn p2p_grad_matches_eval_grad_sum() {
        let k = Kelvin::new(1.2, 0.22);
        let targets = [[0.0, 0.1, 0.0], [0.3, -0.2, 0.7]];
        let sources = [[1.0, 0.4, 0.1], [-0.5, 1.1, -0.6]];
        let dens = [0.7, -0.3, 1.2, -0.8, 0.5, 0.9];
        let mut pot = vec![0.0; 6];
        let mut grad = vec![0.0; 18];
        k.p2p_grad(&targets, &sources, &dens, &mut pot, &mut grad);
        let mut gb = [0.0; 27];
        for (ti, &x) in targets.iter().enumerate() {
            let mut eg = [0.0; 9];
            for (si, &y) in sources.iter().enumerate() {
                k.eval_grad(x, y, &mut gb);
                for row in 0..9 {
                    for j in 0..3 {
                        eg[row] += gb[row * 3 + j] * dens[3 * si + j];
                    }
                }
            }
            for row in 0..9 {
                assert!(
                    (grad[9 * ti + row] - eg[row]).abs() < 1e-13,
                    "target {ti} row {row}: {} vs {}",
                    grad[9 * ti + row],
                    eg[row]
                );
            }
        }
    }
}
