//! The hand-written near-field loop bodies the analytic kernels share, and
//! the Stokeslet family's pair blocks ([`stokeslet_block`],
//! [`stokeslet_grad_block`]) behind `Stokes` and `Kelvin`'s `eval`s.
//!
//! Two shapes cover every override of [`Kernel::p2p_many`] /
//! [`Kernel::p2p_grad_many`](crate::Kernel::p2p_grad_many):
//!
//! * **weight buffer + dot** ([`radial_p2p_many`]) for the potential of a
//!   scalar radial kernel `G = scale · w(r²)` whose weight is a scalar
//!   `exp` (ModifiedLaplace, Gaussian): per target, fill a
//!   structure-of-arrays buffer of pair weights once, then every
//!   right-hand side is one vector [`simd::dot`] over it;
//! * **one pass, RHS innermost** (everything else): per target, walk the
//!   sources once with the pair geometry in registers and update up to
//!   [`SWEEP`] right-hand sides' stack accumulators per source; wider
//!   batches take another sweep over the sources. Laplace's potential is
//!   this shape vectorised — one [`simd::inv_dist_dots`] call per target
//!   with `1/√r²` in a register and no weight buffer — and lives in
//!   `laplace.rs`.
//!
//! In both, what a right-hand side accumulates — and in which source
//! order — does not depend on the batch around it, which is the rule
//! [`Kernel::p2p_many`] sets for overrides.
//!
//! [`Kernel::p2p_many`]: crate::Kernel::p2p_many

use crate::kernel::{check_shapes, displacement};
use crate::Point3;
use kifmm_linalg::simd;

/// Right-hand sides whose accumulators one source sweep keeps on the stack
/// (the batch width of [`simd::inv_dist_dots`] too).
pub(crate) use kifmm_linalg::simd::SWEEP;

/// Run `f` over a zeroed per-source weight buffer, stack-allocated when the
/// source box is small (the common U-list case — `max_pts_per_leaf`
/// defaults to 60) so the weight-buffer loop stays allocation-free.
#[inline]
fn with_weight_buf<R>(ns: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    const STACK: usize = 128;
    if ns <= STACK {
        let mut buf = [0.0f64; STACK];
        f(&mut buf[..ns])
    } else {
        let mut buf = vec![0.0f64; ns];
        f(&mut buf)
    }
}

/// Potential loop of a scalar radial kernel `G = scale · w(r²)`. `weights`
/// maps a buffer of squared distances to pair weights in place (`0` for a
/// coincident pair, `r² = 0`); the marginal cost of a right-hand side is
/// one dot product over the shared weights.
#[inline]
pub(crate) fn radial_p2p_many(
    targets: &[Point3],
    sources: &[Point3],
    densities: &[&[f64]],
    potentials: &mut [&mut [f64]],
    scale: f64,
    weights: impl Fn(&mut [f64]),
) {
    check_shapes((1, 1), targets.len(), sources.len(), densities, potentials, None);
    with_weight_buf(sources.len(), |w| {
        for (ti, &x) in targets.iter().enumerate() {
            for (wi, &y) in w.iter_mut().zip(sources) {
                *wi = displacement(x, y).3;
            }
            weights(w);
            for (dens, pot) in densities.iter().zip(potentials.iter_mut()) {
                pot[ti] += scale * simd::dot(dens, w);
            }
        }
    });
}

/// Potential + gradient loop of a scalar radial kernel: `weights(r²)`
/// returns `(w_p, w_g)` with `G = scale · w_p` and `∇ₓG = −scale · w_g ·
/// (x − y)`, shared by the potential and the three gradient components of
/// every right-hand side in the sweep.
#[inline]
pub(crate) fn radial_p2p_grad_many(
    targets: &[Point3],
    sources: &[Point3],
    densities: &[&[f64]],
    potentials: &mut [&mut [f64]],
    gradients: &mut [&mut [f64]],
    scale: f64,
    weights: impl Fn(f64) -> (f64, f64),
) {
    check_shapes((1, 1), targets.len(), sources.len(), densities, potentials, Some(gradients));
    for ((dens, pots), grads) in
        densities.chunks(SWEEP).zip(potentials.chunks_mut(SWEEP)).zip(gradients.chunks_mut(SWEEP))
    {
        for (ti, &x) in targets.iter().enumerate() {
            let mut acc = [[0.0f64; 4]; SWEEP]; // u, gx, gy, gz per RHS
            for (si, &y) in sources.iter().enumerate() {
                let (dx, dy, dz, r2) = displacement(x, y);
                if r2 == 0.0 {
                    continue;
                }
                let (wp, wg) = weights(r2);
                for (a, d) in acc.iter_mut().zip(dens) {
                    let q = d[si];
                    a[0] += q * wp;
                    let s = q * wg;
                    a[1] -= dx * s;
                    a[2] -= dy * s;
                    a[3] -= dz * s;
                }
            }
            for ((a, pot), grad) in acc.iter().zip(pots.iter_mut()).zip(grads.iter_mut()) {
                pot[ti] += scale * a[0];
                for d in 0..3 {
                    grad[3 * ti + d] += scale * a[1 + d];
                }
            }
        }
    }
}

/// One block of the Stokeslet family `c·(a·I/r + r⊗r/r³)` (row-major
/// 3×3, zero at a coincident pair): Kelvin with `a = 3 − 4ν`, Stokes with
/// `a = 1`, as in [`stokeslet_p2p_many`].
#[inline]
pub(crate) fn stokeslet_block(x: Point3, y: Point3, block: &mut [f64], c: f64, a: f64) {
    debug_assert_eq!(block.len(), 9);
    let (mut dx, mut dy, mut dz, r2) = displacement(x, y);
    if r2 == 0.0 {
        block.fill(0.0);
        return;
    }
    let r = r2.sqrt();
    let iso = c * a / r;
    let mut inv_r3 = c / (r2 * r);
    if !inv_r3.is_normal() {
        // `r³` left f64's normal range (|r| beyond about 1e±102): the
        // same term as (d/r)⊗(d/r)·c/r.
        (dx, dy, dz, inv_r3) = (dx / r, dy / r, dz / r, c / r);
    }
    block[0] = iso + dx * dx * inv_r3;
    block[1] = dx * dy * inv_r3;
    block[2] = dx * dz * inv_r3;
    block[3] = block[1];
    block[4] = iso + dy * dy * inv_r3;
    block[5] = dy * dz * inv_r3;
    block[6] = block[2];
    block[7] = block[5];
    block[8] = iso + dz * dz * inv_r3;
}

/// The gradient block of [`stokeslet_block`]: `∂G_ij/∂x_k = c(−a δ_ij
/// r_k/r³ + (δ_ik r_j + δ_jk r_i)/r³ − 3 r_i r_j r_k/r⁵)`, `r = x − y`.
/// Rows are `(i·3 + k)`, columns `j`.
pub(crate) fn stokeslet_grad_block(x: Point3, y: Point3, block: &mut [f64], c: f64, a: f64) {
    debug_assert_eq!(block.len(), 27);
    let (dx, dy, dz, r2) = displacement(x, y);
    if r2 == 0.0 {
        block.fill(0.0);
        return;
    }
    let r = r2.sqrt();
    let inv_r3 = c / (r2 * r);
    let inv_r5x3 = 3.0 * inv_r3 / r2;
    let rv = [dx, dy, dz];
    for i in 0..3 {
        for k in 0..3 {
            for j in 0..3 {
                let mut v = -inv_r5x3 * rv[i] * rv[j] * rv[k];
                if i == j {
                    v -= a * inv_r3 * rv[k];
                }
                if i == k {
                    v += inv_r3 * rv[j];
                }
                if j == k {
                    v += inv_r3 * rv[i];
                }
                block[(i * 3 + k) * 3 + j] = v;
            }
        }
    }
}

/// Potential loop of the Stokeslet family `c·(a·I/r + r⊗r/r³)`: Kelvin
/// with `a = 3 − 4ν`, Stokes with `a = 1` (`1.0 * x == x` exactly, so the
/// shared bodies — this loop and the two blocks above — cost Stokes no
/// rounding).
#[inline]
pub(crate) fn stokeslet_p2p_many(
    targets: &[Point3],
    sources: &[Point3],
    densities: &[&[f64]],
    potentials: &mut [&mut [f64]],
    c: f64,
    a: f64,
) {
    check_shapes((3, 3), targets.len(), sources.len(), densities, potentials, None);
    for (dens, pots) in densities.chunks(SWEEP).zip(potentials.chunks_mut(SWEEP)) {
        for (ti, &x) in targets.iter().enumerate() {
            let mut acc = [[0.0f64; 3]; SWEEP];
            for (si, &y) in sources.iter().enumerate() {
                let (mut dx, mut dy, mut dz, r2) = displacement(x, y);
                if r2 == 0.0 {
                    continue;
                }
                let r = r2.sqrt();
                let inv_r = 1.0 / r;
                let mut inv_r3 = inv_r / r2;
                let iso = a * inv_r;
                if !inv_r3.is_normal() {
                    // As in `stokeslet_block`: the unit vector carries the
                    // r⊗r/r³ term where 1/r³ is out of range.
                    (dx, dy, dz, inv_r3) = (dx * inv_r, dy * inv_r, dz * inv_r, inv_r);
                }
                for (u, d) in acc.iter_mut().zip(dens) {
                    let (f0, f1, f2) = (d[3 * si], d[3 * si + 1], d[3 * si + 2]);
                    let rdotf = dx * f0 + dy * f1 + dz * f2;
                    let s = rdotf * inv_r3;
                    u[0] += f0 * iso + dx * s;
                    u[1] += f1 * iso + dy * s;
                    u[2] += f2 * iso + dz * s;
                }
            }
            for (u, pot) in acc.iter().zip(pots.iter_mut()) {
                for i in 0..3 {
                    pot[3 * ti + i] += c * u[i];
                }
            }
        }
    }
}

/// Potential + gradient loop of the Stokeslet family (see
/// [`stokeslet_p2p_many`]), sharing `1/r`, `1/r³`, `3/r⁵` per pair and
/// `r·f` per right-hand side.
#[inline]
pub(crate) fn stokeslet_p2p_grad_many(
    targets: &[Point3],
    sources: &[Point3],
    densities: &[&[f64]],
    potentials: &mut [&mut [f64]],
    gradients: &mut [&mut [f64]],
    c: f64,
    a: f64,
) {
    check_shapes((3, 3), targets.len(), sources.len(), densities, potentials, Some(gradients));
    for ((dens, pots), grads) in
        densities.chunks(SWEEP).zip(potentials.chunks_mut(SWEEP)).zip(gradients.chunks_mut(SWEEP))
    {
        for (ti, &x) in targets.iter().enumerate() {
            let mut acc = [([0.0f64; 3], [0.0f64; 9]); SWEEP]; // (u, ∇u) per RHS
            for (si, &y) in sources.iter().enumerate() {
                let (dx, dy, dz, r2) = displacement(x, y);
                if r2 == 0.0 {
                    continue;
                }
                let r = r2.sqrt();
                let inv_r = 1.0 / r;
                let inv_r3 = inv_r / r2;
                let inv_r5x3 = 3.0 * inv_r3 / r2;
                let iso = a * inv_r;
                let rv = [dx, dy, dz];
                for ((u, g), d) in acc.iter_mut().zip(dens) {
                    let fv = [d[3 * si], d[3 * si + 1], d[3 * si + 2]];
                    let rdotf = rv[0] * fv[0] + rv[1] * fv[1] + rv[2] * fv[2];
                    let s = rdotf * inv_r3;
                    let s5 = rdotf * inv_r5x3;
                    for i in 0..3 {
                        u[i] += fv[i] * iso + rv[i] * s;
                        for k in 0..3 {
                            let mut v =
                                (rv[i] * fv[k] - a * fv[i] * rv[k]) * inv_r3 - rv[i] * rv[k] * s5;
                            if i == k {
                                v += s;
                            }
                            g[i * 3 + k] += v;
                        }
                    }
                }
            }
            for (((u, g), pot), grad) in acc.iter().zip(pots.iter_mut()).zip(grads.iter_mut()) {
                for i in 0..3 {
                    pot[3 * ti + i] += c * u[i];
                }
                for j in 0..9 {
                    grad[9 * ti + j] += c * g[j];
                }
            }
        }
    }
}
