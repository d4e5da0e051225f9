//! BLAS-like building blocks.
//!
//! These are the only routines that appear in the FMM's inner loops outside
//! of raw kernel evaluation, so they are written to vectorize: contiguous
//! row-major access, 4-wide accumulator splitting for reductions, and a
//! blocked `k`-outer GEMM that keeps the `b` row hot in cache.

use crate::matrix::Mat;

/// Dot product with four-way accumulator splitting (explicit AVX2 lanes
/// where available — see [`crate::simd`]; the scalar path is bit-identical).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    crate::simd::dot(x, y)
}

/// Euclidean norm, computed with scaling to avoid overflow/underflow.
///
/// NaN elements propagate: `f64::max` would silently drop them (making a
/// poisoned vector look finite and corrupting QR/SVD rank decisions
/// downstream), so the scan checks explicitly. Any ±∞ element yields +∞.
pub fn nrm2(x: &[f64]) -> f64 {
    let mut amax = 0.0_f64;
    for &v in x {
        let a = v.abs();
        if a.is_nan() {
            return f64::NAN;
        }
        if a > amax {
            amax = a;
        }
    }
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut s = 0.0;
    for &v in x {
        let t = v / amax;
        s += t * t;
    }
    amax * s.sqrt()
}

/// `y += alpha * x` (explicit AVX2 lanes where available — see
/// [`crate::simd`]; the scalar path is bit-identical).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::simd::axpy(alpha, x, y)
}

/// `y = alpha * A * x + beta * y` for row-major `A`.
pub fn gemv(alpha: f64, a: &Mat, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(a.cols(), x.len(), "gemv: A.cols != x.len");
    assert_eq!(a.rows(), y.len(), "gemv: A.rows != y.len");
    for i in 0..a.rows() {
        let r = dot(a.row(i), x);
        y[i] = alpha * r + beta * y[i];
    }
}

/// `C = alpha * A * B + beta * C`, all row-major: [`gemm_slices`] over the
/// matrices' storage.
pub fn gemm(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dims");
    assert_eq!(c.rows(), a.rows(), "gemm: C rows");
    assert_eq!(c.cols(), b.cols(), "gemm: C cols");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    gemm_slices(alpha, a.as_slice(), b.as_slice(), beta, c.as_mut_slice(), m, k, n);
}

/// `C = alpha * A * B + beta * C` over raw row-major slices: `A` is
/// `m×k`, `B` is `k×n`, `C` is `m×n`.
///
/// Uses the `i-k-j` loop order: the innermost loop streams over a row of `B`
/// and a row of `C`, both contiguous, which is the standard cache-friendly
/// ordering for row-major GEMM. This is also the multi-RHS entry point used
/// by the FMM pass engine to apply one translation operator to a whole
/// level of expansion vectors at once (the columns of `B`): each output
/// row depends only on its own row of `A`, so callers may compute disjoint
/// row blocks of `C` on different threads and still get results
/// bit-identical to the single-call execution.
pub fn gemm_slices(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_slices: A size");
    assert_eq!(b.len(), k * n, "gemm_slices: B size");
    assert_eq!(c.len(), m * n, "gemm_slices: C size");
    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = alpha * arow[p];
            if aip == 0.0 {
                continue;
            }
            axpy(aip, &b[p * n..(p + 1) * n], crow);
        }
    }
}

/// `C = alpha * A^T * B + beta * C`, all row-major.
pub fn gemm_tn(alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    assert_eq!(a.rows(), b.rows(), "gemm_tn: inner dims");
    assert_eq!(c.rows(), a.cols(), "gemm_tn: C rows");
    assert_eq!(c.cols(), b.cols(), "gemm_tn: C cols");
    if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    for p in 0..a.rows() {
        let arow = a.row(p);
        let brow = b.row(p);
        for i in 0..a.cols() {
            let w = alpha * arow[i];
            if w == 0.0 {
                continue;
            }
            axpy(w, brow, c.row_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mm(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| i as f64 * 0.3 - 1.0).collect();
        let y: Vec<f64> = (0..13).map(|i| (i * i) as f64 * 0.01).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn nrm2_scaling_safe() {
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        // Values whose squares overflow f64.
        let big = 1e200;
        assert!((nrm2(&[big, big]) - big * 2f64.sqrt()).abs() / big < 1e-14);
    }

    #[test]
    fn nrm2_propagates_nan_and_inf() {
        // NaN anywhere — including after a larger finite element, where the
        // old `fold(max)` scan silently dropped it — must poison the norm.
        assert!(nrm2(&[f64::NAN]).is_nan());
        assert!(nrm2(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(nrm2(&[1e300, f64::NAN]).is_nan());
        assert!(nrm2(&[f64::NAN, f64::INFINITY]).is_nan());
        // Infinities (no NaN present) give +∞, regardless of sign/position.
        assert_eq!(nrm2(&[f64::INFINITY]), f64::INFINITY);
        assert_eq!(nrm2(&[1.0, f64::NEG_INFINITY, 3.0]), f64::INFINITY);
    }

    #[test]
    fn gemv_and_transpose_agree_with_matmul() {
        let a = Mat::from_fn(5, 7, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
        let x: Vec<f64> = (0..7).map(|i| (i as f64).sin()).collect();
        let mut y = vec![1.0; 5];
        gemv(2.0, &a, &x, -1.0, &mut y);
        for i in 0..5 {
            let expect = 2.0 * dot(a.row(i), &x) - 1.0;
            assert!((y[i] - expect).abs() < 1e-12);
        }
        let xt: Vec<f64> = (0..5).map(|i| (i as f64).cos()).collect();
        let mut yt = vec![0.5; 7];
        let at = a.transpose();
        gemv(1.5, &at, &xt, 2.0, &mut yt);
        for j in 0..7 {
            let expect = 1.5 * dot(at.row(j), &xt) + 1.0;
            assert!((yt[j] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let a = Mat::from_fn(6, 4, |i, j| (i as f64 - j as f64) * 0.5);
        let b = Mat::from_fn(4, 9, |i, j| ((i * j) as f64).sqrt());
        let c0 = Mat::from_fn(6, 9, |i, j| (i + j) as f64);
        let mut c = c0.clone();
        // expectation for alpha=1, beta=-0.5
        let mut expect = naive_mm(&a, &b);
        expect.add_scaled(-0.5, &c0);
        gemm(1.0, &a, &b, -0.5, &mut c);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_slices_matches_gemm_bitwise() {
        let (m, k, n) = (7, 5, 11);
        let a = Mat::from_fn(m, k, |i, j| ((i * 3 + j) as f64).sin());
        let b = Mat::from_fn(k, n, |i, j| ((i + 2 * j) as f64).cos());
        let c0 = Mat::from_fn(m, n, |i, j| (i as f64) - 0.25 * (j as f64));
        let mut c_mat = c0.clone();
        gemm(1.3, &a, &b, -0.5, &mut c_mat);
        let mut c_sl: Vec<f64> = c0.as_slice().to_vec();
        gemm_slices(1.3, a.as_slice(), b.as_slice(), -0.5, &mut c_sl, m, k, n);
        assert_eq!(c_mat.as_slice(), &c_sl[..]);
        // Row-blocked application must be bit-identical to one call.
        let mut c_blk: Vec<f64> = c0.as_slice().to_vec();
        for (bi, rows) in [(0usize, 3usize), (3, 4)] {
            gemm_slices(
                1.3,
                &a.as_slice()[bi * k..(bi + rows) * k],
                b.as_slice(),
                -0.5,
                &mut c_blk[bi * n..(bi + rows) * n],
                rows,
                k,
                n,
            );
        }
        assert_eq!(c_mat.as_slice(), &c_blk[..]);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = Mat::from_fn(5, 3, |i, j| (2 * i + 3 * j) as f64 * 0.1);
        let b = Mat::from_fn(5, 4, |i, j| (i as f64) - (j as f64) * 0.7);
        let mut c = Mat::zeros(3, 4);
        gemm_tn(1.0, &a, &b, 0.0, &mut c);
        let expect = a.transpose().matmul(&b);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
