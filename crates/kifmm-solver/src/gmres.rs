//! Restarted GMRES.
//!
//! The paper runs its FMM inside "a Krylov method" (PETSc's solvers; §3,
//! §4: "at each time step we solve a linear system that requires tens of
//! interaction calculations"). This is that Krylov method: GMRES(m) with
//! modified Gram–Schmidt Arnoldi and Givens-rotation least squares, taking
//! the operator as a closure so an [`kifmm_core::Fmm`] matvec plugs in
//! directly.

/// GMRES configuration.
#[derive(Clone, Copy, Debug)]
pub struct GmresOptions {
    /// Restart length `m`.
    pub restart: usize,
    /// Maximum total matvecs.
    pub max_iter: usize,
    /// Relative residual target `‖b − Ax‖/‖b‖`.
    pub tol: f64,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions { restart: 50, max_iter: 500, tol: 1e-8 }
    }
}

/// Solver outcome.
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Matvecs performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
    /// True when `residual ≤ tol`.
    pub converged: bool,
}

/// Solve `A x = b` with `A` given as a matvec closure.
pub fn gmres(
    matvec: impl Fn(&[f64]) -> Vec<f64>,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: GmresOptions,
) -> GmresResult {
    let n = b.len();
    let bnorm = norm(b);
    if bnorm == 0.0 {
        return GmresResult { x: vec![0.0; n], iterations: 0, residual: 0.0, converged: true };
    }
    let mut x = x0.map(|v| v.to_vec()).unwrap_or_else(|| vec![0.0; n]);
    let m = opts.restart.max(1);
    // The residual r = b − A x that starts a cycle: b itself for a zero
    // guess (no product), and after every cycle the true residual, which
    // is that cycle's convergence test too.
    let mut total_iters = 0usize;
    let mut r = match x0 {
        Some(x0) => {
            total_iters += 1;
            residual(&matvec, b, x0)
        }
        None => b.to_vec(),
    };
    let mut beta = norm(&r);
    let mut rel = beta / bnorm;

    while rel > opts.tol && total_iters < opts.max_iter {
        for v in &mut r {
            *v /= beta;
        }
        // Arnoldi basis and Hessenberg factors.
        let mut basis: Vec<Vec<f64>> = vec![std::mem::take(&mut r)];
        let mut h: Vec<Vec<f64>> = Vec::new(); // h[j] has j+2 entries
        let mut cs: Vec<f64> = Vec::new();
        let mut sn: Vec<f64> = Vec::new();
        let mut g = vec![0.0; m + 1];
        g[0] = beta;
        let mut k_used = 0;

        for j in 0..m {
            if total_iters >= opts.max_iter {
                break;
            }
            let mut w = matvec(&basis[j]);
            total_iters += 1;
            // Modified Gram–Schmidt.
            let mut hj = vec![0.0; j + 2];
            for (i, vi) in basis.iter().enumerate() {
                let hij = dot(&w, vi);
                hj[i] = hij;
                for (wv, vv) in w.iter_mut().zip(vi) {
                    *wv -= hij * vv;
                }
            }
            let hlast = norm(&w);
            hj[j + 1] = hlast;
            // Apply existing Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to annihilate hj[j+1].
            let (c, s) = givens(hj[j], hj[j + 1]);
            cs.push(c);
            sn.push(s);
            hj[j] = c * hj[j] + s * hj[j + 1];
            hj[j + 1] = 0.0;
            g[j + 1] = -s * g[j];
            g[j] *= c;
            h.push(hj);
            k_used = j + 1;
            rel = g[j + 1].abs() / bnorm;
            let breakdown = hlast < 1e-14 * bnorm;
            if rel <= opts.tol || breakdown {
                break;
            }
            for v in &mut w {
                *v /= hlast;
            }
            basis.push(w);
        }
        // Back-substitute y from the triangularized system.
        let mut y = vec![0.0; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in (i + 1)..k_used {
                s -= h[j][i] * y[j];
            }
            y[i] = s / h[i][i];
        }
        for (j, yj) in y.iter().enumerate() {
            for (xv, vv) in x.iter_mut().zip(&basis[j]) {
                *xv += yj * vv;
            }
        }
        // The true residual tests this cycle (an estimate that drifted
        // below `tol` fails it) and starts the next; with the budget spent
        // and the estimate above `tol` there is no next cycle.
        if rel > opts.tol && total_iters >= opts.max_iter {
            break;
        }
        r = residual(&matvec, b, &x);
        total_iters += 1;
        beta = norm(&r);
        rel = beta / bnorm;
    }
    GmresResult { x, iterations: total_iters, residual: rel, converged: rel <= opts.tol }
}

/// `b − A x`, one product.
fn residual(matvec: impl Fn(&[f64]) -> Vec<f64>, b: &[f64], x: &[f64]) -> Vec<f64> {
    b.iter().zip(&matvec(x)).map(|(bi, ai)| bi - ai).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if a.abs() < b.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_linalg::Mat;

    fn solve_mat(a: &Mat, b: &[f64], opts: GmresOptions) -> GmresResult {
        gmres(|x| a.matvec(x), b, None, opts)
    }

    #[test]
    fn identity_converges_immediately() {
        let a = Mat::eye(5);
        let b = vec![1.0, -2.0, 3.0, 0.0, 0.5];
        let r = solve_mat(&a, &b, GmresOptions::default());
        assert!(r.converged);
        for (x, e) in r.x.iter().zip(&b) {
            assert!((x - e).abs() < 1e-10);
        }
    }

    #[test]
    fn diagonally_dominant_system() {
        let n = 30;
        let mut a = Mat::from_fn(n, n, |i, j| 0.3 / (1.0 + (i as f64 - j as f64).abs()));
        for i in 0..n {
            a[(i, i)] += 5.0;
        }
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.matvec(&xt);
        let r = solve_mat(&a, &b, GmresOptions { tol: 1e-12, ..Default::default() });
        assert!(r.converged, "residual {}", r.residual);
        for (x, e) in r.x.iter().zip(&xt) {
            assert!((x - e).abs() < 1e-9);
        }
    }

    #[test]
    fn restart_still_converges() {
        let n = 40;
        let mut a = Mat::from_fn(n, n, |i, j| if i == j { 0.0 } else { 0.5 / (1.0 + ((i * 7 + j * 3) % 11) as f64) });
        for i in 0..n {
            a[(i, i)] = 10.0 + (i % 3) as f64;
        }
        let b = vec![1.0; n];
        let r = solve_mat(&a, &b, GmresOptions { restart: 5, max_iter: 400, tol: 1e-10 });
        assert!(r.converged, "residual {}", r.residual);
        let ax = a.matvec(&r.x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_rhs() {
        let a = Mat::eye(3);
        let r = solve_mat(&a, &[0.0; 3], GmresOptions::default());
        assert!(r.converged);
        assert_eq!(r.x, vec![0.0; 3]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn respects_initial_guess() {
        let a = Mat::eye(4);
        let b = vec![2.0; 4];
        let x0 = vec![2.0; 4];
        let r = gmres(|x| a.matvec(x), &b, Some(&x0), GmresOptions::default());
        assert!(r.converged);
        assert!(r.iterations <= 1, "exact guess needs no Arnoldi steps");
    }

    /// A zero guess starts from r = b, not from a product A·0: on a matrix
    /// with three distinct eigenvalues GMRES is exact after three Arnoldi
    /// steps, and the one true residual after the cycle makes four.
    #[test]
    fn a_zero_guess_costs_no_product() {
        let n = 12;
        let a = Mat::from_fn(n, n, |i, j| if i == j { [1.0, 2.0, 5.0][i % 3] } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let products = std::cell::Cell::new(0);
        let r = gmres(
            |x| {
                products.set(products.get() + 1);
                a.matvec(x)
            },
            &b,
            None,
            GmresOptions { tol: 1e-10, ..Default::default() },
        );
        assert!(r.converged, "residual {}", r.residual);
        assert_eq!((products.get(), r.iterations), (4, 4));
    }

    #[test]
    fn nonconvergence_reported() {
        // A rotation-like, poorly conditioned system with a tiny budget.
        let n = 50;
        let a = Mat::from_fn(n, n, |i, j| {
            if (i + 1) % n == j {
                1.0
            } else if i == j {
                1e-6
            } else {
                0.0
            }
        });
        // b = e_0: the shift structure forces GMRES to walk the whole
        // cycle, impossible within a 6-matvec budget.
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        let r = solve_mat(&a, &b, GmresOptions { restart: 3, max_iter: 6, tol: 1e-14 });
        assert!(!r.converged, "residual {}", r.residual);
        assert!(r.iterations <= 7);
    }
}
