//! The Laplace dipole (double-layer-type) kernel
//! `G(x, y)·μ = (r·μ)/(4π|r|³)`, `r = x − y`.
//!
//! Sources carry vector dipole moments (3 components), targets receive a
//! scalar potential — the kernel of double-layer boundary integral
//! formulations. It is *not* one of the paper's three evaluation kernels;
//! it is included to stress the kernel-independence claim on a kernel
//! with faster (1/r²) decay, anisotropy, and rectangular (1×3) blocks.
//! The far field of a dipole cloud carries no monopole moment, so the
//! dipole-valued equivalent densities of the KIFMM represent it.

use crate::fused::SWEEP;
use crate::kernel::{check_shapes, displacement, Kernel};
use crate::Point3;

const FOUR_PI_INV: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// Dipole kernel of the 3-D Laplacian: gradient of the single layer with
/// respect to the source point.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaplaceDipole;

impl Kernel for LaplaceDipole {
    fn src_dim(&self) -> usize {
        3
    }

    fn trg_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "LaplaceDipole"
    }

    /// `G(λr) = λ r/(λ³ r³) = λ⁻² G(r)`.
    fn homogeneity(&self) -> Option<f64> {
        Some(-2.0)
    }

    /// Displacement + r² (8), rsqrt + r³ recip (3), 3 components (3),
    /// dot-accumulate (6) ⇒ 20.
    fn flops_per_eval(&self) -> u64 {
        20
    }

    #[inline]
    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
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
        block[0] = dx * inv_r3;
        block[1] = dy * inv_r3;
        block[2] = dz * inv_r3;
    }

    /// One pass over the sources per target with `dx,dy,dz,1/r³` in
    /// registers (the unit vector and `1/r²` where `1/r³` is out of
    /// range), the batch innermost.
    fn p2p_many(
        &self,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[&[f64]],
        potentials: &mut [&mut [f64]],
    ) {
        check_shapes((3, 1), targets.len(), sources.len(), densities, potentials, None);
        for (dens, pots) in densities.chunks(SWEEP).zip(potentials.chunks_mut(SWEEP)) {
            for (ti, &x) in targets.iter().enumerate() {
                let mut acc = [0.0f64; SWEEP];
                for (si, &y) in sources.iter().enumerate() {
                    let (mut dx, mut dy, mut dz, r2) = displacement(x, y);
                    if r2 == 0.0 {
                        continue;
                    }
                    let r = r2.sqrt();
                    let mut inv_r3 = 1.0 / (r2 * r);
                    if !inv_r3.is_normal() {
                        // As in `eval`: the unit vector over r².
                        let inv_r = 1.0 / r;
                        (dx, dy, dz, inv_r3) = (dx * inv_r, dy * inv_r, dz * inv_r, inv_r * inv_r);
                    }
                    for (a, d) in acc.iter_mut().zip(dens) {
                        *a += (dx * d[3 * si] + dy * d[3 * si + 1] + dz * d[3 * si + 2]) * inv_r3;
                    }
                }
                for (a, pot) in acc.iter().zip(pots.iter_mut()) {
                    pot[ti] += FOUR_PI_INV * a;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_gradient_of_single_layer() {
        // G_dipole(x,y)·μ = −∇_y G_single(x,y) · μ = (x−y)·μ/(4π r³),
        // checked against a finite difference of the single layer.
        let k = LaplaceDipole;
        let x = [0.7, -0.2, 0.5];
        let y = [0.1, 0.3, -0.4];
        let mu = [0.3, -1.1, 0.8];
        let mut b = [0.0; 3];
        k.eval(x, y, &mut b);
        let val = b[0] * mu[0] + b[1] * mu[1] + b[2] * mu[2];
        let single = |y: Point3| {
            let (_, _, _, r2) = crate::kernel::displacement(x, y);
            FOUR_PI_INV / r2.sqrt()
        };
        let h = 1e-6;
        let mut fd = 0.0;
        for d in 0..3 {
            let mut yp = y;
            yp[d] += h;
            let mut ym = y;
            ym[d] -= h;
            fd += -(single(yp) - single(ym)) / (2.0 * h) * mu[d] * -1.0;
        }
        // −∇_y (1/4πr) = +r̂/(4πr²)… sign bookkeeping: compare magnitudes
        // through the direct formula instead.
        let r = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let rn2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        let expect =
            (r[0] * mu[0] + r[1] * mu[1] + r[2] * mu[2]) * FOUR_PI_INV / (rn2 * rn2.sqrt());
        assert!((val - expect).abs() < 1e-14);
        assert!((fd.abs() - expect.abs()).abs() < 1e-7, "fd {fd} vs {expect}");
    }

    #[test]
    fn harmonic_away_from_pole() {
        let k = LaplaceDipole;
        let mu = [1.0, -0.5, 0.25];
        let u = |p: Point3| {
            let mut b = [0.0; 3];
            k.eval(p, [0.0; 3], &mut b);
            b[0] * mu[0] + b[1] * mu[1] + b[2] * mu[2]
        };
        let c = [0.6, 0.5, -0.7];
        let h = 1e-4;
        let mut lap = -6.0 * u(c);
        for d in 0..3 {
            let mut p = c;
            p[d] += h;
            lap += u(p);
            p[d] -= 2.0 * h;
            lap += u(p);
        }
        lap /= h * h;
        assert!(lap.abs() < 1e-3, "discrete Laplacian {lap}");
    }

    #[test]
    fn decays_like_inverse_square() {
        let k = LaplaceDipole;
        let mut near = [0.0; 3];
        let mut far = [0.0; 3];
        k.eval([2.0, 0.0, 0.0], [0.0; 3], &mut near);
        k.eval([4.0, 0.0, 0.0], [0.0; 3], &mut far);
        assert!((near[0] / far[0] - 4.0).abs() < 1e-12, "1/r² decay");
    }

    #[test]
    fn p2p_matches_eval() {
        let k = LaplaceDipole;
        let t = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let s = [[2.0, 0.0, 0.0], [0.0, -2.0, 1.0]];
        let dens = [0.5, -1.0, 2.0, 1.0, 0.0, -0.5];
        let mut fast = vec![0.0; 2];
        k.p2p(&t, &s, &dens, &mut fast);
        let mut block = [0.0; 3];
        for (ti, &x) in t.iter().enumerate() {
            let mut expect = 0.0;
            for (si, &y) in s.iter().enumerate() {
                k.eval(x, y, &mut block);
                for c in 0..3 {
                    expect += block[c] * dens[3 * si + c];
                }
            }
            assert!((fast[ti] - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn self_interaction_zero() {
        let k = LaplaceDipole;
        let mut b = [1.0; 3];
        k.eval([0.5; 3], [0.5; 3], &mut b);
        assert!(b.iter().all(|&v| v == 0.0));
    }
}
