//! The 3-D complex DFT by its definition: the reference transform.

use crate::c64::C64;

/// A 3-D discrete Fourier transform over an `n0 × n1 × n2` row-major grid
/// (index `(i, j, k) → (i·n1 + j)·n2 + k`), computed axis by axis as the
/// direct sum `X_k = Σ_j x_j ω^{jk}`, `ω = e^{−2πi/n}`, from one table of
/// the `n` roots of unity per axis. At the sides the FMM grids have
/// (`2p ≤ 20`) that is no slower than a butterfly recursion.
pub struct Fft3 {
    dims: [usize; 3],
    /// `roots[a][t] = e^{−2πi·t/n_a}` for axis `a`.
    roots: [Vec<C64>; 3],
}

impl Fft3 {
    /// Plan for the given grid dimensions (each at least 1).
    pub fn new(dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&n| n >= 1), "grid dimensions must be positive");
        let roots = dims.map(|n| {
            (0..n).map(|t| C64::cis(-2.0 * std::f64::consts::PI * t as f64 / n as f64)).collect()
        });
        Fft3 { dims, roots }
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True when any dimension is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward transform (unnormalized).
    pub fn forward(&self, data: &mut [C64]) {
        self.apply(data, false);
    }

    /// In-place inverse transform, normalized by `1/(n0·n1·n2)`.
    pub fn inverse(&self, data: &mut [C64]) {
        self.apply(data, true);
        let inv = 1.0 / self.len() as f64;
        for v in data.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// In-place **unnormalized** inverse transform for callers that read
    /// only the output corner `[0, keep₀) × [0, keep₁) × [0, keep₂)` (and
    /// normalize themselves). Entries outside the corner are unspecified;
    /// this reference computes the whole unnormalized inverse.
    pub fn inverse_corner_unnormalized(&self, data: &mut [C64], keep: [usize; 3]) {
        debug_assert!(keep.iter().zip(&self.dims).all(|(k, n)| k <= n));
        self.apply(data, true);
    }

    /// Transform every line of every axis in place. The inverse is the
    /// forward sum on conjugated input, conjugated back.
    fn apply(&self, data: &mut [C64], inverse: bool) {
        assert_eq!(data.len(), self.len(), "buffer must match grid size");
        let [_, n1, n2] = self.dims;
        let flip = |v: C64| if inverse { v.conj() } else { v };
        for (axis, stride) in [(2, 1), (1, n2), (0, n1 * n2)] {
            let (n, roots) = (self.dims[axis], &self.roots[axis]);
            let mut line = vec![C64::ZERO; n];
            for outer in 0..data.len() / (n * stride) {
                for inner in 0..stride {
                    let base = outer * n * stride + inner;
                    for (j, x) in line.iter_mut().enumerate() {
                        *x = flip(data[base + j * stride]);
                    }
                    for k in 0..n {
                        // The exponent j·k, kept modulo n.
                        let (mut acc, mut t) = (C64::ZERO, 0);
                        for &x in &line {
                            acc = acc.mul_add(roots[t], x);
                            t += k;
                            if t >= n {
                                t -= n;
                            }
                        }
                        data[base + k * stride] = flip(acc);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(dims: [usize; 3]) -> Vec<C64> {
        let n = dims[0] * dims[1] * dims[2];
        (0..n)
            .map(|i| C64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() - 0.4))
            .collect()
    }

    fn naive_dft3(x: &[C64], dims: [usize; 3]) -> Vec<C64> {
        let [n0, n1, n2] = dims;
        let mut out = vec![C64::ZERO; x.len()];
        let w = |num: usize, den: usize| {
            C64::cis(-2.0 * std::f64::consts::PI * (num % den) as f64 / den as f64)
        };
        for a in 0..n0 {
            for b in 0..n1 {
                for c in 0..n2 {
                    let mut s = C64::ZERO;
                    for i in 0..n0 {
                        for j in 0..n1 {
                            for k in 0..n2 {
                                let ww = w(a * i, n0) * w(b * j, n1) * w(c * k, n2);
                                s = s.mul_add(ww, x[(i * n1 + j) * n2 + k]);
                            }
                        }
                    }
                    out[(a * n1 + b) * n2 + c] = s;
                }
            }
        }
        out
    }

    /// A 1-D signal, transformed on an `[n, 1, 1]` grid.
    fn ramp(n: usize) -> Vec<C64> {
        (0..n).map(|i| C64::new((i as f64).sin() + 0.3, (i as f64 * 0.7).cos())).collect()
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x:?} vs {y:?}");
        }
    }

    fn forward_1d(x: &[C64]) -> Vec<C64> {
        let mut y = x.to_vec();
        Fft3::new([x.len(), 1, 1]).forward(&mut y);
        y
    }

    #[test]
    fn matches_naive_3d() {
        for dims in [[2usize, 3, 4], [4, 4, 4], [3, 5, 2], [1, 6, 4]] {
            let x = grid(dims);
            let mut y = x.clone();
            Fft3::new(dims).forward(&mut y);
            let expect = naive_dft3(&x, dims);
            for (u, v) in y.iter().zip(&expect) {
                assert!((*u - *v).abs() < 1e-9, "{dims:?}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_smooth_sizes() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 27, 32, 36, 48] {
            let x = ramp(n);
            assert_close(&forward_1d(&x), &naive_dft3(&x, [n, 1, 1]), 1e-9 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_prime_sizes() {
        for n in [17usize, 19, 23, 29, 31, 37, 97] {
            let x = ramp(n);
            assert_close(&forward_1d(&x), &naive_dft3(&x, [n, 1, 1]), 1e-8 * n as f64);
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [1usize, 4, 6, 12, 16, 17, 30, 64, 97, 100] {
            let x = ramp(n);
            let mut y = forward_1d(&x);
            Fft3::new([n, 1, 1]).inverse(&mut y);
            assert_close(&y, &x, 1e-10 * (n as f64 + 1.0));
        }
    }

    #[test]
    fn parseval() {
        let n = 24;
        let x = ramp(n);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = forward_1d(&x).iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - n as f64 * ex).abs() < 1e-9 * ey.abs());
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 12;
        let mut x = vec![C64::ZERO; n];
        x[0] = C64::real(1.0);
        for v in forward_1d(&x) {
            assert!((v - C64::real(1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let n = 20;
        let a = ramp(n);
        let b: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64) * 0.5)).collect();
        let (fa, fb) = (forward_1d(&a), forward_1d(&b));
        let ab: Vec<C64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        for (i, got) in forward_1d(&ab).into_iter().enumerate() {
            assert!((got - (fa[i] + fb[i].scale(2.0))).abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip() {
        for dims in [[4usize, 4, 4], [8, 8, 8], [2, 7, 5], [12, 12, 12]] {
            let x = grid(dims);
            let mut y = x.clone();
            let plan = Fft3::new(dims);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            for (u, v) in y.iter().zip(&x) {
                assert!((*u - *v).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn convolution_theorem_3d() {
        // Circular convolution of two random grids: FFT path == direct path.
        let dims = [4usize, 4, 4];
        let (n0, n1, n2) = (dims[0], dims[1], dims[2]);
        let a = grid(dims);
        let b: Vec<C64> = grid(dims).iter().map(|v| v.conj().scale(0.5)).collect();
        // Direct circular convolution.
        let mut direct = vec![C64::ZERO; a.len()];
        for i in 0..n0 {
            for j in 0..n1 {
                for k in 0..n2 {
                    let mut s = C64::ZERO;
                    for p in 0..n0 {
                        for q in 0..n1 {
                            for r in 0..n2 {
                                let ai = (p * n1 + q) * n2 + r;
                                let bi = (((i + n0 - p) % n0) * n1 + ((j + n1 - q) % n1)) * n2
                                    + ((k + n2 - r) % n2);
                                s = s.mul_add(a[ai], b[bi]);
                            }
                        }
                    }
                    direct[(i * n1 + j) * n2 + k] = s;
                }
            }
        }
        // FFT path.
        let plan = Fft3::new(dims);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut fc: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        plan.inverse(&mut fc);
        for (u, v) in fc.iter().zip(&direct) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }
}
