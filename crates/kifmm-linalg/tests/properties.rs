//! Property-based tests for the linear algebra substrate.

use kifmm_linalg::{gemv, nrm2, pinv, svd, Mat};
use kifmm_testkit::{check, prop_assert, prop_assume, Gen};

fn gen_mat(g: &mut Gen, max_dim: usize) -> Mat {
    let m = g.usize(1, max_dim + 1);
    let n = g.usize(1, max_dim + 1);
    Mat::from_vec(m, n, g.vec_f64(-10.0, 10.0, m * n))
}

#[test]
fn svd_reconstructs_any_matrix() {
    check("svd_reconstructs_any_matrix", 40, |g| {
        let a = gen_mat(g, 12);
        let f = svd(&a);
        let r = f.reconstruct();
        let scale = a.max_abs().max(1.0);
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9 * scale);
        }
        // Singular values nonnegative descending.
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
        prop_assert!(f.s.windows(2).all(|w| w[0] >= w[1]));
    });
}

/// `‖G − I‖_max` for a Gram matrix `G`.
fn off_identity(gram: &Mat) -> f64 {
    let mut d = gram.clone();
    d.add_scaled(-1.0, &Mat::eye(gram.rows()));
    d.max_abs()
}

#[test]
fn svd_factors_are_orthonormal_and_ordered() {
    check("svd_factors_are_orthonormal_and_ordered", 40, |g| {
        // Continuous random entries: full rank, so no σ = 0 exemption.
        let a = gen_mat(g, 14);
        let f = svd(&a);
        let k = a.rows().min(a.cols());
        prop_assert!(f.u.shape() == (a.rows(), k) && f.vt.shape() == (k, a.cols()));
        prop_assert!(off_identity(&f.u.transpose().matmul(&f.u)) < 1e-10, "UᵀU");
        prop_assert!(off_identity(&f.vt.matmul(&f.vt.transpose())) < 1e-10, "VVᵀ");
        prop_assert!(f.s.windows(2).all(|w| w[0] >= w[1]) && f.s[k - 1] > 0.0);
    });
}

#[test]
fn degenerate_shapes_factorise() {
    check("degenerate_shapes_factorise", 20, |g| {
        let n = g.usize(1, 12);
        let x = g.vec_f64(-3.0, 3.0, n);
        let y = g.vec_f64(-3.0, 3.0, 5);
        let cases = [
            Mat::from_vec(1, n, x.clone()),
            Mat::from_vec(n, 1, x.clone()),
            Mat::from_fn(n, 5, |i, j| x[i] * y[j]),
            Mat::from_fn(5, n, |i, j| y[i] * x[j]),
            Mat::zeros(n, 3),
            Mat::zeros(3, n),
        ];
        for a in &cases {
            let f = svd(a);
            let mut r = f.reconstruct();
            r.add_scaled(-1.0, a);
            prop_assert!(r.max_abs() < 1e-12 * a.max_abs().max(1.0), "{:?} rebuilt", a.shape());
            // Rank ≤ 1: one singular value carries the Frobenius norm.
            prop_assert!((f.s[0] - nrm2(a.as_slice())).abs() < 1e-12 * f.s[0].max(1.0));
            prop_assert!(f.s[1..].iter().all(|&s| s <= 1e-12 * f.s[0]));
            // The pseudoinverse never reads the undetermined vectors.
            let p = pinv(a);
            let mut apa = a.matmul(&p).matmul(a);
            apa.add_scaled(-1.0, a);
            prop_assert!(apa.max_abs() < 1e-10 * a.max_abs().max(1.0), "{:?} A A⁺ A", a.shape());
        }
    });
}

#[test]
fn pinv_satisfies_moore_penrose() {
    check("pinv_satisfies_moore_penrose", 40, |g| {
        let a = gen_mat(g, 10);
        let p = pinv(&a);
        let apa = a.matmul(&p).matmul(&a);
        let scale = a.max_abs().max(1.0);
        for (x, y) in apa.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-7 * scale, "A A+ A = A");
        }
        let pap = p.matmul(&a).matmul(&p);
        let pscale = p.max_abs().max(1.0);
        for (x, y) in pap.as_slice().iter().zip(p.as_slice()) {
            prop_assert!((x - y).abs() < 1e-7 * pscale, "A+ A A+ = A+");
        }
    });
}

#[test]
fn nrm2_nan_propagates_at_any_position() {
    check("nrm2_nan_propagates_at_any_position", 40, |g| {
        let n = g.usize(1, 40);
        let mut v = g.vec_f64(-1e5, 1e5, n);
        let pos = g.usize(0, n);
        v[pos] = f64::NAN;
        prop_assert!(nrm2(&v).is_nan(), "NaN at index {pos} must poison the norm");
    });
}

#[test]
fn nrm2_inf_without_nan_is_inf() {
    check("nrm2_inf_without_nan_is_inf", 40, |g| {
        let n = g.usize(1, 40);
        let mut v = g.vec_f64(-1e5, 1e5, n);
        let pos = g.usize(0, n);
        v[pos] = if g.usize(0, 2) == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
        prop_assert!(nrm2(&v) == f64::INFINITY);
    });
}

#[test]
fn nrm2_scales_past_overflow_and_underflow() {
    check("nrm2_scales_past_overflow_and_underflow", 40, |g| {
        // Exact powers of two: rescaling by them is lossless, so the norm
        // of 2^e·v must equal 2^e·‖v‖ to high relative accuracy even when
        // the squares over/underflow f64.
        let n = g.usize(1, 20);
        let v = g.vec_f64(-1.0, 1.0, n);
        let base = nrm2(&v);
        prop_assume!(base > 0.0);
        for e in [600i32, -600] {
            let scale = (e as f64).exp2();
            let scaled: Vec<f64> = v.iter().map(|&x| x * scale).collect();
            let got = nrm2(&scaled);
            prop_assert!(got.is_finite(), "norm must not overflow: {got}");
            let rel = (got / scale - base).abs() / base;
            prop_assert!(rel < 1e-14, "relative error {rel} at 2^{e}");
        }
    });
}

#[test]
fn gemv_transpose_consistency() {
    check("gemv_transpose_consistency", 40, |g| {
        let a = gen_mat(g, 9);
        // x'(A y) == (A' x)' y for random vectors.
        let (m, n) = a.shape();
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut ay = vec![0.0; m];
        gemv(1.0, &a, &y, 0.0, &mut ay);
        let mut atx = vec![0.0; n];
        gemv(1.0, &a.transpose(), &x, 0.0, &mut atx);
        let lhs: f64 = x.iter().zip(&ay).map(|(u, v)| u * v).sum();
        let rhs: f64 = atx.iter().zip(&y).map(|(u, v)| u * v).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    });
}
