//! Singular value decomposition: column-pivoted Householder QR, then
//! one-sided Jacobi on the triangular factor.
//!
//! The check-to-equivalent systems KIFMM inverts are small (≤ ~10³) but
//! severely ill-conditioned — the singular values decay geometrically, which
//! is exactly the regime where Jacobi SVD shines: it computes even the tiny
//! singular values to high *relative* accuracy, unlike bidiagonalization
//! approaches. It is also where a plan's set-up time goes. Every sweep is
//! O(n³), and on the matrix itself the iteration needs 31 sweeps at
//! n = 456 (Stokes, p = 6) and 44 at n = 888 (p = 8). Hence the
//! preconditioner of Drmač & Veselić ("New fast and accurate Jacobi SVD
//! algorithm", SIAM J. Matrix Anal. Appl. 2008): with `A P = Q R`, the
//! *rows* of `R` are nearly orthogonal wherever the spectrum is graded, and
//! Jacobi on them meets the same `ε` criterion in 9–15 sweeps. (On the
//! columns of `R` it gains nothing: 31 sweeps again.)
//!
//! Where the time goes, Stokes p = 6 on one core of a 2-vCPU Xeon: the
//! pseudoinverse takes 0.44–0.47 s, the 14 Jacobi sweeps 0.34–0.38 s of it,
//! the QR 0.02 s. Sweeps 1–7 rotate 76 k–104 k of the 104 k pairs each,
//! 714 k rotations in all, and sweeps 8–14 mostly pay one `dot` per pair to
//! find nothing to rotate. Each rotation is one pass of [`simd::rot_dot`]
//! over two rows of `R` and one of [`simd::rot`] over two rows of `V_x`.
//! That one inversion is still most of a cold Stokes plan: the operator
//! table takes 0.48–0.66 s and the M2L kernel tensors 0.13–0.18 s.

use crate::matrix::Mat;
use crate::simd;

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// For an `m × n` input with `k = min(m, n)`: `u` is `m × k` with
/// orthonormal columns, `s` holds the `k` singular values in descending
/// order, and `vt` is `k × n` with orthonormal rows.
///
/// A singular value that is exactly zero determines no pair of vectors.
/// The factor on the longer side of `A` (`u` when `m ≥ n`, else `vt`)
/// keeps an orthonormal vector there; the other holds a zero vector.
/// [`Svd::reconstruct`] and [`crate::pinv()`] never read either.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k`.
    pub u: Mat,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Transposed right singular vectors, `k × n`.
    pub vt: Mat,
}

impl Svd {
    /// Reconstruct `U Σ Vᵀ` (mainly for testing).
    pub fn reconstruct(&self) -> Mat {
        let k = self.s.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..k {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&self.vt)
    }

    /// 2-norm condition number `σ_max / σ_min` (∞ when `σ_min == 0`).
    pub fn cond(&self) -> f64 {
        match (self.s.first(), self.s.last()) {
            (Some(&hi), Some(&lo)) if lo > 0.0 => hi / lo,
            (Some(_), Some(_)) => f64::INFINITY,
            _ => 0.0,
        }
    }
}

/// Sweeps after which a Jacobi iteration that still rotates is declared
/// broken. The check matrices of orders 4–8 converge in 9–15.
const MAX_SWEEPS: usize = 60;

/// Compute the thin SVD of `a`: column-pivoted Householder QR, then
/// one-sided Jacobi on the triangular factor.
///
/// A matrix whose `max|a|` lies outside the range where the Jacobi
/// iteration can neither overflow nor underflow (derived in
/// `range_exponent`) is first divided by the power of two below `max|a|`,
/// and the singular values are multiplied back by it. Both steps are exact
/// (barring a subnormal result); inside the range no bit changes.
///
/// Panics on NaN/∞ entries, and — a broken internal invariant, not an
/// input error — if the Jacobi iteration still rotates after
/// 60 sweeps.
pub fn svd(a: &Mat) -> Svd {
    assert!(
        a.as_slice().iter().all(|v| v.is_finite()),
        "svd: input must be finite"
    );
    // 2^e in two factors: |e| reaches 1074 at a subnormal max|a|.
    let e = range_exponent(a);
    let (e1, e2) = (e / 2, e - e / 2);
    let mut scaled;
    let a = if e == 0 {
        a
    } else {
        scaled = a.clone();
        scaled.scale(pow2(-e1));
        scaled.scale(pow2(-e2));
        &scaled
    };
    let mut f = if a.rows() >= a.cols() {
        svd_tall(a, MAX_SWEEPS).0
    } else {
        // SVD of the transpose, then swap the factors.
        let t = svd_tall(&a.transpose(), MAX_SWEEPS).0;
        Svd { u: t.vt.transpose(), s: t.s, vt: t.u.transpose() }
    };
    if e != 0 {
        for s in &mut f.s {
            *s = *s * pow2(e1) * pow2(e2);
        }
    }
    f
}

/// The power of two `e` that [`svd`] divides `a` by before factorising
/// it: 0 (no scaling, the same bits) while `max|a|` lies in the range
/// below, else `⌊log₂ max|a|⌋`.
///
/// Every squared row norm and Gram entry the Jacobi iteration carries is
/// at most `‖A‖_F² ≤ m·n·max|a|²`, and its threshold test multiplies two of
/// them: `(m·n·max|a|²)²` must stay finite. At the other end a row
/// `ε·max|a|` long must keep `(ε·max|a|)⁴` normal, or `√(a_pp·a_qq)`
/// underflows and no rotation can ever pass the test.
fn range_exponent(a: &Mat) -> i32 {
    let amax = a.max_abs();
    if amax == 0.0 {
        return 0;
    }
    let e = amax.log2().floor() as i32; // 2^e ≤ max|a| < 2^(e+1)
    let log_mn = ((a.rows() * a.cols()) as f64).log2().ceil() as i32;
    // (2^log_mn · 4^(e+1))² ≤ 2^(MAX_EXP − 1).
    let hi = (f64::MAX_EXP - 5 - 2 * log_mn) / 4;
    // (2^e · ε)⁴ ≥ 2^(MIN_EXP − 1), ε = 2^(1 − MANTISSA_DIGITS); `/` rounds
    // the negative quotient up.
    let lo = (f64::MIN_EXP - 1) / 4 + (f64::MANTISSA_DIGITS as i32 - 1);
    if (lo..=hi).contains(&e) {
        0
    } else {
        e
    }
}

/// `2^j` for `|j| ≤ 1022`, exactly.
fn pow2(j: i32) -> f64 {
    assert!(j.abs() <= 1022, "pow2: 2^{j} is not a normal f64");
    f64::from_bits(((j + 1023) as u64) << 52)
}

/// The factorisation of a tall (m ≥ n) matrix and the number of Jacobi
/// sweeps it took.
///
/// `A P = Q R` by [`qrcp_rows`], then `Rᵀ V_x = U_x Σ` by [`jacobi_rows`]
/// on the rows of `R`, hence `A = (Q V_x) Σ (P U_x)ᵀ`. Every matrix is
/// held so that the vectors being combined are contiguous rows.
fn svd_tall(a: &Mat, max_sweeps: usize) -> (Svd, usize) {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    let mut at = a.transpose(); // n × m, row j == column j of A
    let (tau, pivots) = qrcp_rows(&mut at);
    let mut g = Mat::from_fn(n, n, |i, j| if i <= j { at[(j, i)] } else { 0.0 }); // row i of R
    let mut vx = Mat::eye(n); // row i == column i of V_x
    let sweeps = jacobi_rows(&mut g, &mut vx, max_sweeps).unwrap_or_else(|worst| {
        panic!(
            "svd: Jacobi still rotating after {max_sweeps} sweeps on a {m}×{n} matrix \
             (largest remaining |a_pq|/√(a_pp·a_qq) = {worst:e})"
        )
    });

    // Singular values are the norms of the rotated rows; sort descending.
    let norms: Vec<f64> = (0..n).map(|i| crate::blas::nrm2(g.row(i))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    let mut ut = Mat::zeros(n, m); // row c == column c of U = Q V_x
    let mut vt = Mat::zeros(n, n);
    for (c, &i) in order.iter().enumerate() {
        // Q = H_0 ⋯ H_{n−1} applied to [V_x e_i; 0], last reflector first.
        let urow = ut.row_mut(c);
        urow[..n].copy_from_slice(vx.row(i));
        for k in (0..n).rev() {
            let v = &at.row(k)[k + 1..];
            let w = tau[k] * (urow[k] + crate::blas::dot(v, &urow[k + 1..]));
            urow[k] -= w;
            crate::blas::axpy(-w, v, &mut urow[k + 1..]);
        }
        // Column i of U_x is the normalised row i, back through P. A row
        // that is exactly zero has no direction: its `vt` row stays zero.
        if norms[i] > 0.0 {
            let inv = 1.0 / norms[i];
            for (&piv, &x) in pivots.iter().zip(g.row(i)) {
                vt[(c, piv)] = x * inv;
            }
        }
    }
    let s = order.iter().map(|&i| norms[i]).collect();
    (Svd { u: ut.transpose(), s, vt }, sweeps)
}

/// Householder QR with column pivoting, `A P = Q R`, in place on
/// `at = Aᵀ` (row `j` is column `j` of `A`, `n ≤ m` rows of length `m`).
///
/// On return row `j` holds column `j` of `R` in its first `j + 1` entries
/// and, after them, the tail of the Householder vector `v_j` (`v_j[j] = 1`
/// implied) of `H_j = I − tau_j v_j v_jᵀ`, `Q = H_0 ⋯ H_{n−1}`. Returns the
/// `tau_j` and, per row, the column of `A` it came from.
fn qrcp_rows(at: &mut Mat) -> (Vec<f64>, Vec<usize>) {
    let (n, m) = at.shape();
    let mut tau = vec![0.0; n];
    let mut pivots: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot on the largest remaining column norm, recomputed per step:
        // half the flops of applying the reflector, and unlike a downdated
        // norm it cannot cancel on these geometrically graded columns.
        let norm2 = |j: usize| crate::blas::dot(&at.row(j)[k..], &at.row(j)[k..]);
        let best = (k + 1..n).fold((k, norm2(k)), |b, j| {
            let nj = norm2(j);
            if nj > b.1 {
                (j, nj)
            } else {
                b
            }
        });
        if best.0 != k {
            let (rk, rb) = two_rows(at, k, best.0);
            rk.swap_with_slice(rb);
            pivots.swap(k, best.0);
        }
        let (head, rest) = at.as_mut_slice().split_at_mut((k + 1) * m);
        let x = &mut head[k * m + k..];
        let tail_norm = crate::blas::nrm2(&x[1..]);
        if tail_norm == 0.0 {
            continue; // H_k = I, R_kk = x[0]
        }
        let alpha = x[0];
        let beta = -alpha.signum() * alpha.hypot(tail_norm);
        tau[k] = (beta - alpha) / beta;
        let scale = 1.0 / (alpha - beta);
        for v in &mut x[1..] {
            *v *= scale;
        }
        x[0] = beta;
        let v = &x[1..];
        for row in rest.chunks_exact_mut(m) {
            let w = tau[k] * (row[k] + crate::blas::dot(v, &row[k + 1..]));
            row[k] -= w;
            crate::blas::axpy(-w, v, &mut row[k + 1..]);
        }
    }
    (tau, pivots)
}

/// `√ε`: a cached squared norm that a rotation shrinks by more than this
/// factor has cancelled its leading digits and is recomputed by a `dot`
/// (the safeguard of LAPACK's `dgesvj`).
const ROOT_EPS: f64 = 1.4901161193847656e-8;

/// One-sided Jacobi: rotate pairs of rows of `g` until all are mutually
/// orthogonal to `ε` relative to their norms, applying the same rotations
/// to the rows of `v`. `Ok(sweeps)` counts the last, rotation-free sweep;
/// `Err(worst)` is the largest `|a_pq|/√(a_pp·a_qq)` the `max_sweeps`-th
/// sweep still rotated.
///
/// The squared row norms are computed once per sweep and then carried
/// through each rotation (`a_pp ∓ t·a_pq`), so a pair costs one `dot`, not
/// three — and that one rides on the rotation before it: pair `(p, q)`
/// rotates with [`simd::rot_dot`], which also returns the next pair's
/// `a_p,q+1` (row `p` is final, row `q + 1` untouched), the same bits a
/// fresh `dot` would give. Convergence is only ever declared by a sweep
/// that rotated nothing, whose norms are therefore the freshly computed
/// ones.
fn jacobi_rows(g: &mut Mat, v: &mut Mat, max_sweeps: usize) -> Result<usize, f64> {
    let n = g.rows();
    let eps = f64::EPSILON;
    let mut sq = vec![0.0; n];
    let mut worst = 0.0_f64;
    for sweep in 1..=max_sweeps {
        for (i, s) in sq.iter_mut().enumerate() {
            *s = crate::blas::dot(g.row(i), g.row(i));
        }
        worst = 0.0;
        for p in 0..n {
            // `a_pq`, when the rotation of pair (p, q − 1) computed it.
            let mut next_apq = None;
            for q in (p + 1)..n {
                let carried = next_apq.take();
                let (app, aqq) = (sq[p], sq[q]);
                if app == 0.0 || aqq == 0.0 {
                    continue;
                }
                let apq = carried.unwrap_or_else(|| crate::blas::dot(g.row(p), g.row(q)));
                let scale = (app * aqq).sqrt();
                if apq.abs() <= eps * scale {
                    continue;
                }
                worst = worst.max(apq.abs() / scale);
                // Jacobi rotation that zeroes the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let cs = 1.0 / (1.0 + t * t).sqrt();
                let sn = cs * t;
                let (rp, rq, next) = pair_and_next(g, p, q);
                match next {
                    Some(z) => next_apq = Some(simd::rot_dot(rp, rq, z, cs, sn)),
                    None => simd::rot(rp, rq, cs, sn),
                }
                let (vp, vq) = two_rows(v, p, q);
                simd::rot(vp, vq, cs, sn);
                sq[p] = app - t * apq;
                sq[q] = aqq + t * apq;
                for (i, old) in [(p, app), (q, aqq)] {
                    if sq[i] <= ROOT_EPS * old {
                        sq[i] = crate::blas::dot(g.row(i), g.row(i));
                    }
                }
            }
        }
        if worst == 0.0 {
            return Ok(sweep);
        }
    }
    Err(worst)
}

/// Rows `p < q` of `m`, both mutable.
#[inline]
fn two_rows(m: &mut Mat, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let cols = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(q * cols);
    (&mut head[p * cols..(p + 1) * cols], &mut tail[..cols])
}

/// [`two_rows`], and row `q + 1` if `m` has one.
#[inline]
fn pair_and_next(m: &mut Mat, p: usize, q: usize) -> (&mut [f64], &mut [f64], Option<&[f64]>) {
    debug_assert!(p < q);
    let cols = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(q * cols);
    let (rq, rest) = tail.split_at_mut(cols);
    let rest: &[f64] = rest;
    (&mut head[p * cols..(p + 1) * cols], rq, rest.get(..cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinv::{pinv, DEFAULT_PINV_TOL};
    use kifmm_core::{surface_points, RAD_INNER, RAD_OUTER};
    use kifmm_kernels::{assemble, Kelvin, Kernel, Laplace, ModifiedLaplace, Stokes};

    /// The oracle: the plain one-sided Jacobi iteration on the columns of
    /// `a` itself (three `dot`s per pair, no preconditioning, its own
    /// scalar rotation rather than the `simd::rot` under test) that `svd`
    /// ran until PR 21. Singular values only, descending.
    fn plain_jacobi(a: &Mat) -> Vec<f64> {
        let mut gt = if a.rows() >= a.cols() { a.transpose() } else { a.clone() };
        let n = gt.rows();
        for sweep in 0.. {
            assert!(sweep < 100, "oracle did not converge");
            let mut rotated = false;
            for p in 0..n {
                for q in (p + 1)..n {
                    let (gp, gq) = (gt.row(p), gt.row(q));
                    let (app, aqq, apq) = (
                        crate::blas::dot(gp, gp),
                        crate::blas::dot(gq, gq),
                        crate::blas::dot(gp, gq),
                    );
                    if app == 0.0 || aqq == 0.0 || apq.abs() <= f64::EPSILON * (app * aqq).sqrt() {
                        continue;
                    }
                    rotated = true;
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let cs = 1.0 / (1.0 + t * t).sqrt();
                    let sn = cs * t;
                    let (rp, rq) = two_rows(&mut gt, p, q);
                    for (x, y) in rp.iter_mut().zip(rq.iter_mut()) {
                        let (a, b) = (*x, *y);
                        *x = cs * a - sn * b;
                        *y = sn * a + cs * b;
                    }
                }
            }
            if !rotated {
                break;
            }
        }
        let mut s: Vec<f64> = (0..n).map(|i| crate::blas::nrm2(gt.row(i))).collect();
        s.sort_by(|x, y| y.partial_cmp(x).unwrap());
        s
    }

    /// Singular values above `DEFAULT_PINV_TOL·σ_max`.
    fn kept(s: &[f64]) -> usize {
        s.iter().filter(|&&v| v > s[0] * DEFAULT_PINV_TOL).count()
    }

    /// Above the truncation cut the values agree to 1e-7 relative and the
    /// same number of them is kept; below it, to the cut itself.
    fn assert_matches_oracle(a: &Mat, s: &[f64], what: &str) {
        let oracle = plain_jacobi(a);
        assert_eq!(s.len(), oracle.len(), "{what}");
        assert_eq!(kept(s), kept(&oracle), "{what}: kept count");
        let cut = oracle[0] * DEFAULT_PINV_TOL;
        for (i, (&x, &y)) in s.iter().zip(&oracle).enumerate() {
            let tol = if y > cut { 1e-7 * y } else { cut };
            assert!((x - y).abs() <= tol, "{what}: σ[{i}] = {x:e}, oracle {y:e}");
        }
    }

    /// The upward check-to-equivalent system `K(uc, ue)` of a box of
    /// half-width 0.25 — what `OperatorTable::build` inverts at the first
    /// FMM level of a unit root. Rebuilt from its entries: `assemble`
    /// returns the `Mat` of the non-test build of this crate.
    fn check_matrix<K: Kernel>(kernel: &K, order: usize) -> Mat {
        let uc = surface_points(order, RAD_OUTER, [0.0; 3], 0.25);
        let ue = surface_points(order, RAD_INNER, [0.0; 3], 0.25);
        let k = assemble(kernel, &uc, &ue);
        Mat::from_vec(k.rows(), k.cols(), k.as_slice().to_vec())
    }

    fn check_factorization(a: &Mat, tol: f64) {
        let f = svd(a);
        let r = f.reconstruct();
        let scale = a.max_abs().max(1.0);
        for (x, y) in r.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() <= tol * scale, "reconstruction off: {x} vs {y}");
        }
        // U'U = I and VV' = I on the thin factors, except that σ = 0
        // leaves a zero vector on the shorter side.
        let k = f.s.len();
        let tall = a.rows() >= a.cols();
        let utu = f.u.transpose().matmul(&f.u);
        let vvt = f.vt.matmul(&f.vt.transpose());
        for i in 0..k {
            for j in 0..k {
                let expect = if i == j { 1.0 } else { 0.0 };
                let defined = f.s[i] > 0.0 && f.s[j] > 0.0;
                if defined || tall {
                    assert!((utu[(i, j)] - expect).abs() < 1e-10, "UtU[{i},{j}]");
                }
                if defined || !tall {
                    assert!((vvt[(i, j)] - expect).abs() < 1e-10, "VVt[{i},{j}]");
                }
            }
        }
        // Descending order.
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -5.0;
        a[(2, 2)] = 1.0;
        let f = svd(&a);
        assert!((f.s[0] - 5.0).abs() < 1e-12);
        assert!((f.s[1] - 3.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
        check_factorization(&a, 1e-12);
    }

    #[test]
    fn known_2x2() {
        // A = [[3, 0], [4, 5]] has singular values sqrt(45±... ) = (3√5, √5).
        let a = Mat::from_vec(2, 2, vec![3., 0., 4., 5.]);
        let f = svd(&a);
        assert!((f.s[0] - 3.0 * 5f64.sqrt()).abs() < 1e-12);
        assert!((f.s[1] - 5f64.sqrt()).abs() < 1e-12);
        check_factorization(&a, 1e-13);
    }

    #[test]
    fn tall_wide_and_random() {
        let mut seed = 0x12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &(m, n) in &[(7usize, 3usize), (3, 7), (10, 10), (1, 5), (5, 1), (40, 25), (25, 40)] {
            let a = Mat::from_fn(m, n, |_, _| next());
            check_factorization(&a, 1e-11);
            let f = svd(&a);
            assert_eq!(f.u.shape(), (m, m.min(n)));
            assert_eq!(f.vt.shape(), (m.min(n), n));
            assert_matches_oracle(&a, &f.s, &format!("{m}×{n}"));
        }
    }

    #[test]
    fn random_matrices_match_the_oracle() {
        kifmm_testkit::check("random_matrices_match_the_oracle", 40, |g| {
            let (m, n) = (g.usize(1, 15), g.usize(1, 15));
            let a = Mat::from_vec(m, n, g.vec_f64(-10.0, 10.0, m * n));
            assert_matches_oracle(&a, &svd(&a).s, &format!("{m}×{n}"));
        });
    }

    #[test]
    fn rank_deficient() {
        // Rank-1 outer product, tall and wide.
        let u = [1.0, 2.0, -1.0, 0.5];
        let v = [2.0, -3.0, 1.0];
        let nu = crate::blas::nrm2(&u);
        let nv = crate::blas::nrm2(&v);
        for a in [Mat::from_fn(4, 3, |i, j| u[i] * v[j]), Mat::from_fn(3, 4, |i, j| v[i] * u[j])] {
            let f = svd(&a);
            assert!((f.s[0] - nu * nv).abs() < 1e-10);
            assert!(f.s[1].abs() < 1e-10);
            assert!(f.s[2].abs() < 1e-10);
            check_factorization(&a, 1e-11);
        }
    }

    #[test]
    fn ill_conditioned_hilbert() {
        // Hilbert 8x8: condition ~1e10; reconstruction should still be good.
        let a = Mat::from_fn(8, 8, |i, j| 1.0 / ((i + j + 1) as f64));
        check_factorization(&a, 1e-12);
        let f = svd(&a);
        assert!(f.cond() > 1e9);
        assert_matches_oracle(&a, &f.s, "hilbert");
    }

    /// The contract at σ = 0: the longer side stays orthonormal (it is
    /// `Q V_x`, a product of orthogonal factors), the shorter side has no
    /// direction to report and is zero.
    #[test]
    fn zero_matrix() {
        for (m, n) in [(4, 2), (2, 4)] {
            let f = svd(&Mat::zeros(m, n));
            assert!(f.s.iter().all(|&s| s == 0.0));
            let (long, short) = if m >= n { (f.u.transpose(), f.vt) } else { (f.vt, f.u) };
            assert!(short.as_slice().iter().all(|&v| v == 0.0));
            let gram = long.matmul(&long.transpose());
            assert_eq!(gram, Mat::eye(2));
        }
    }

    #[test]
    #[should_panic(expected = "Jacobi still rotating after 1 sweeps on a 6×5 matrix")]
    fn sweep_cap_is_loud() {
        let a = Mat::from_fn(6, 5, |i, j| ((3 * i + 7 * j) % 11) as f64 - 4.0);
        let _ = svd_tall(&a, 1);
    }

    /// What `OperatorTable::build` inverts: geometric singular-value decay
    /// down to rounding, several hundred columns. The plain iteration needs
    /// 16–35 sweeps on these; preconditioned, every one stays under 20, the
    /// factors stay orthonormal, and the truncated pseudoinverse reproduces
    /// the check potential of a smooth density.
    #[test]
    fn check_matrices_take_few_sweeps_and_match_the_oracle() {
        let cases: Vec<(&str, Mat)> = vec![
            ("Laplace p=4", check_matrix(&Laplace, 4)),
            ("Laplace p=6", check_matrix(&Laplace, 6)),
            ("Laplace p=8", check_matrix(&Laplace, 8)),
            ("Stokes p=4", check_matrix(&Stokes::new(1.0), 4)),
            ("Stokes p=6", check_matrix(&Stokes::new(1.0), 6)),
            ("ModifiedLaplace p=6", check_matrix(&ModifiedLaplace::new(1.0), 6)),
            ("Kelvin p=6", check_matrix(&Kelvin::default(), 6)),
        ];
        for (what, a) in &cases {
            let (f, sweeps) = svd_tall(a, MAX_SWEEPS);
            assert!(sweeps <= 20, "{what}: {sweeps} sweeps");
            assert_matches_oracle(a, &f.s, what);
            assert!(f.s.windows(2).all(|w| w[0] >= w[1]), "{what}: descending");
            for (gram, side) in
                [(f.u.transpose().matmul(&f.u), "UtU"), (f.vt.matmul(&f.vt.transpose()), "VVt")]
            {
                let mut off = gram;
                off.add_scaled(-1.0, &Mat::eye(f.s.len()));
                assert!(off.max_abs() < 1e-10, "{what}: {side} − I = {:e}", off.max_abs());
            }
            let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + 0.5 * (i as f64 * 0.37).sin()).collect();
            let ax = a.matvec(&x);
            let back = a.matvec(&pinv(a).matvec(&ax));
            let scale = crate::blas::nrm2(&ax);
            for (u, v) in back.iter().zip(&ax) {
                assert!((u - v).abs() <= 1e-8 * scale, "{what}: A A⁺ A x = {u} vs {v}");
            }
        }
    }

    /// p = 6 has a 13× gap across the 1e-10 cut; p = 8 has clusters of
    /// singular values next to it, so a count that moves would change which
    /// directions every order-8 plan regularises away. The counts are the
    /// oracle's (Stokes p = 8 costs it 15 s, so it is not re-run here).
    #[test]
    fn order_eight_keeps_the_oracle_counts() {
        let f = svd(&check_matrix(&Laplace, 8));
        assert_eq!((kept(&f.s), f.s.len()), (266, 296));
        let f = svd(&check_matrix(&Stokes::new(1.0), 8));
        assert_eq!((kept(&f.s), f.s.len()), (806, 888));
    }

    /// FNV-1a over the IEEE-754 bit patterns of `values`.
    fn fnv1a(values: &[f64]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// The pseudoinverses every Stokes p = 6 and Laplace p = 8 plan is
    /// built from, bit for bit, on the vector and the scalar path, with
    /// their sweep counts. Captured from the rotation loop that preceded
    /// `simd::rot`/`rot_dot`: the kernels and the carried Gram entry must
    /// reproduce its arithmetic exactly.
    #[test]
    fn pinv_bits_are_pinned_on_both_paths() {
        let _flip = crate::simd::tests::FORCE_SCALAR.lock().unwrap();
        let cases = [
            ("Stokes p=6", check_matrix(&Stokes::new(1.0), 6), 0x2a51c0147c0bd12c, 14),
            ("Laplace p=8", check_matrix(&Laplace, 8), 0xe29f19adb943ee5a, 13),
        ];
        for scalar in [true, false] {
            crate::simd::set_force_scalar(scalar);
            for (what, a, hash, sweeps) in &cases {
                assert_eq!(svd_tall(a, MAX_SWEEPS).1, *sweeps, "{what}, scalar = {scalar}");
                let got = fnv1a(pinv(a).as_slice());
                assert_eq!(got, *hash, "{what}, scalar = {scalar}: pinv hash {got:#018x}");
            }
        }
        crate::simd::set_force_scalar(false);
    }

    /// Scaled far enough up, `√(a_pp·a_qq)` overflowed and every pair was
    /// skipped (σ wrong at 1e150·A, NaN norms at 1e160·A); far enough down
    /// it underflowed (1e-160·A never converged, 1e-200·A returned wrong σ).
    /// Now the singular values scale with the matrix and the pseudoinverse
    /// still inverts it.
    #[test]
    fn extreme_scales_factor_like_unit_scale() {
        let a = Mat::from_vec(3, 3, vec![1.0, 2.0, 0.5, 3.0, 4.0, 1.0, 0.2, 0.1, 5.0]);
        let s = svd(&a).s;
        let exact = [-300, -200, -150, 150, 200, 300].map(|k: i32| (2f64.powi(k), true));
        let decimal = [1e150, 1e160, 1e-160, 1e-200].map(|f| (f, false));
        for (f, pow2) in exact.into_iter().chain(decimal) {
            let mut b = a.clone();
            b.scale(f);
            let sb = svd(&b).s;
            for (x, y) in sb.iter().zip(&s) {
                let rel = (x / f - y).abs() / y;
                assert!(rel <= 1e-12, "scale {f:e}: σ = {x:e} is {rel:e} off");
                if pow2 {
                    assert_eq!(*x, y * f, "scale {f:e}: σ not exactly scaled");
                }
            }
            let (back, tol) = (b.matmul(&pinv(&b)).matmul(&b), 1e-12 * b.max_abs());
            for (x, y) in back.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() <= tol, "scale {f:e}: A A⁺ A = {x:e} vs {y:e}");
            }
        }
    }
}
