//! Truncated-SVD pseudoinverse.
//!
//! The kernel-independent FMM obtains equivalent densities by inverting the
//! first-kind integral equation `∫ G(x, y) φ(y) dy = u(x)` discretized on
//! check/equivalent surfaces (paper §2.1, equations (2.1)–(2.5)). These
//! systems are exponentially ill-conditioned in the surface resolution `p`,
//! so a plain solve would amplify noise; the paper regularizes by inverting
//! with a (truncated) pseudoinverse. Singular values below
//! `DEFAULT_PINV_TOL · σ_max` are treated as exact zeros.

use crate::matrix::Mat;
use crate::svd::svd;

/// Default relative truncation threshold.
///
/// Chosen empirically as the sweet spot of the regularization tradeoff for
/// the KIFMM check systems: keeping singular values below ~1e-10·σ_max
/// amplifies rounding noise in the check potentials faster than it adds
/// far-field resolution (measured: at p = 8/10 the far-field error is
/// ~5e-9 with this cutoff but *degrades* to 1.8e-6/4e-3 at 1e-16).
///
/// A constant, not an option: the FMM's operator tables are cached by
/// `(kernel, depth, root half-width, order)`, so a settable tolerance that
/// is not part of those keys would be served stale tables.
pub const DEFAULT_PINV_TOL: f64 = 1e-10;

/// Moore–Penrose pseudoinverse: `A⁺ = V Σ⁺ Uᵀ`, zeroing singular values
/// below `DEFAULT_PINV_TOL · σ_max`. Returns an `n × m` matrix for an
/// `m × n` input.
pub fn pinv(a: &Mat) -> Mat {
    let f = svd(a);
    let (m, n) = a.shape();
    let k = f.s.len();
    let cutoff = f.s.first().copied().unwrap_or(0.0) * DEFAULT_PINV_TOL;
    // B = Σ⁺ Uᵀ (k × m), then A⁺ = Vᵀᵀ B = V B.
    let mut b = f.u.transpose();
    for i in 0..k {
        let s = f.s[i];
        let w = if s > cutoff { 1.0 / s } else { 0.0 };
        for v in b.row_mut(i) {
            *v *= w;
        }
    }
    let mut out = Mat::zeros(n, m);
    crate::blas::gemm_tn(1.0, &f.vt, &b, 0.0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Mat, b: &Mat, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn inverse_of_invertible() {
        let a = Mat::from_vec(2, 2, vec![4., 7., 2., 6.]);
        let p = pinv(&a);
        approx_eq(&a.matmul(&p), &Mat::eye(2), 1e-12);
        approx_eq(&p.matmul(&a), &Mat::eye(2), 1e-12);
    }

    #[test]
    fn moore_penrose_conditions() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &(m, n) in &[(6usize, 4usize), (4, 6), (5, 5)] {
            let a = Mat::from_fn(m, n, |_, _| next());
            let p = pinv(&a);
            assert_eq!(p.shape(), (n, m));
            // A A⁺ A = A
            approx_eq(&a.matmul(&p).matmul(&a), &a, 1e-10);
            // A⁺ A A⁺ = A⁺
            approx_eq(&p.matmul(&a).matmul(&p), &p, 1e-10);
            // (A A⁺)ᵀ = A A⁺ and (A⁺ A)ᵀ = A⁺ A
            let ap = a.matmul(&p);
            approx_eq(&ap.transpose(), &ap, 1e-10);
            let pa = p.matmul(&a);
            approx_eq(&pa.transpose(), &pa, 1e-10);
        }
    }

    #[test]
    fn truncation_regularizes_rank_deficiency() {
        // Rank-1 matrix: pinv must not blow up.
        let a = Mat::from_fn(4, 4, |i, j| ((i + 1) * (j + 1)) as f64);
        let p = pinv(&a);
        assert!(p.max_abs() < 1.0, "truncated pinv stays bounded");
        // A A⁺ A = A still holds for the rank-deficient case.
        approx_eq(&a.matmul(&p).matmul(&a), &a, 1e-9);
    }

    #[test]
    fn solves_consistent_system() {
        let a = Mat::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true);
        let x = pinv(&a).matvec(&b);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] + 1.0).abs() < 1e-12);
    }
}
