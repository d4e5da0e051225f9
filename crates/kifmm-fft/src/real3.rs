//! Real-input 3-D transform on the `(2p)³` convolution grid of the FFT
//! M2L, pruned to what that convolution touches.
//!
//! The M2L embeds a `p³` cube of real surface values into a zero-padded
//! `m³` grid (`m = 2p`), multiplies spectra, and reads back only the same
//! `p³` corner of the result. So [`RealFft3`] never materialises what is
//! zero or unread:
//!
//! * **forward** takes the `p³` corner as `f64` (or, for kernel grids, the
//!   full `m³` real grid) and writes the Hermitian half-spectrum
//!   `w₂ ≤ m/2` — `m·m·(m/2+1)` entries — as a real plane followed by an
//!   imaginary plane, each row-major `[w₀][w₁][w₂]`;
//! * **inverse** reads such a half-spectrum and produces only the
//!   `[0, p)³` real corner, normalized.
//!
//! Each axis is one small DFT matrix (rows of the `m × m` cosine / sine
//! tables, the pruned axes using only their first `p` rows or columns)
//! applied as scalar-times-row updates, so every inner loop streams over
//! the contiguous trailing index: `m/2+1` entries for the two inner axes,
//! `m·(m/2+1)` for the outer one. At the sizes the FMM uses (`p ≤ 10`)
//! that beats a butterfly network run on gathered strided lines of the
//! complex-embedded grid by an order of magnitude. [`crate::Fft3`], the
//! complex 3-D DFT by its definition, is the oracle this transform is
//! tested against.

/// Pruned real-input transform plan for surface order `p` (grid side `2p`).
pub struct RealFft3 {
    p: usize,
    /// `cos(2π·a·b/m)` at `[a·m + b]`, `a, b ∈ [0, m)`.
    cos: Vec<f64>,
    /// `sin(2π·a·b/m)`, same indexing.
    sin: Vec<f64>,
    /// Last inverse stage, `[w₂][k]` for `w₂ ≤ m/2`, `k < p`: the Hermitian
    /// weight (1 at `w₂ ∈ {0, m/2}`, else 2), the `1/m³` normalization and
    /// `cos(2π·w₂·k/m)` folded together.
    inv_re: Vec<f64>,
    /// Likewise with `−sin(2π·w₂·k/m)`.
    inv_im: Vec<f64>,
}

impl RealFft3 {
    /// Plan for surface order `p ≥ 1`.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "surface order must be positive");
        let m = 2 * p;
        let h = p + 1;
        // One period, with the multiples of a quarter turn exact so that
        // real inputs give exactly real DC and Nyquist planes.
        const QUARTERS: [(f64, f64); 4] = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)];
        let unit: Vec<(f64, f64)> = (0..m)
            .map(|t| {
                if 4 * t % m == 0 {
                    return QUARTERS[4 * t / m];
                }
                let (s, c) = (2.0 * std::f64::consts::PI * t as f64 / m as f64).sin_cos();
                (c, s)
            })
            .collect();
        let table = |part: fn(&(f64, f64)) -> f64| -> Vec<f64> {
            (0..m * m).map(|ab| part(&unit[(ab / m) * (ab % m) % m])).collect()
        };
        let (cos, sin) = (table(|u| u.0), table(|u| u.1));
        let norm = 1.0 / (m * m * m) as f64;
        let weight = |w: usize| if w == 0 || w == p { norm } else { 2.0 * norm };
        let inv_re = (0..h * p).map(|i| weight(i / p) * cos[(i / p) * m + i % p]).collect();
        let inv_im = (0..h * p).map(|i| -weight(i / p) * sin[(i / p) * m + i % p]).collect();
        RealFft3 { p, cos, sin, inv_re, inv_im }
    }

    /// Surface order `p`.
    pub fn order(&self) -> usize {
        self.p
    }

    /// Padded grid side `m = 2p`.
    pub fn side(&self) -> usize {
        2 * self.p
    }

    /// Entries of one plane of the half-spectrum, `m·m·(m/2+1)`; a
    /// spectrum is `2 · half_len()` values (real plane, imaginary plane).
    pub fn half_len(&self) -> usize {
        let m = self.side();
        m * m * (m / 2 + 1)
    }

    /// Forward transform of a real grid that is zero outside its
    /// `[0, p)³` corner. `corner` holds the `p³` corner values row-major;
    /// `spec` (`2·half_len()`) receives the half-spectrum. `scratch` is
    /// grown on first use and may be shared between calls and plans.
    pub fn forward_corner(&self, corner: &[f64], spec: &mut [f64], scratch: &mut Vec<f64>) {
        self.forward(corner, self.p, spec, scratch);
    }

    /// Forward transform of a full real `m³` grid (row-major) into its
    /// half-spectrum.
    pub fn forward_full(&self, grid: &[f64], spec: &mut [f64], scratch: &mut Vec<f64>) {
        self.forward(grid, self.side(), spec, scratch);
    }

    /// Forward transform of the `n³` leading corner (`n ∈ {p, m}`, the
    /// rest of the grid zero): axis 2 real → half complex, then axes 1
    /// and 0 complex → complex, each reading only the `n` populated
    /// planes.
    fn forward(&self, input: &[f64], n: usize, spec: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.side();
        let h = m / 2 + 1;
        assert_eq!(input.len(), n * n * n, "input must be the n³ corner");
        assert_eq!(spec.len(), 2 * self.half_len(), "spectrum is two half_len planes");
        let (la, lb) = (n * n * h, n * m * h);
        scratch.clear();
        scratch.resize(2 * (la + lb), 0.0);
        let (a, b) = scratch.split_at_mut(2 * la);
        let (a_re, a_im) = a.split_at_mut(la);
        // Axis 2: row (i, j) of n reals → h complex.
        for (r, x) in input.chunks_exact(n).enumerate() {
            let (o_re, o_im) = (&mut a_re[r * h..(r + 1) * h], &mut a_im[r * h..(r + 1) * h]);
            for (k, &xk) in x.iter().enumerate() {
                let (c, s) = (&self.cos[k * m..k * m + h], &self.sin[k * m..k * m + h]);
                for w in 0..h {
                    o_re[w] += c[w] * xk;
                    o_im[w] -= s[w] * xk;
                }
            }
        }
        // Axis 1: [i][j < n][w₂] → [i][w₁ < m][w₂].
        let (b_re, b_im) = b.split_at_mut(lb);
        for i in 0..n {
            for w1 in 0..m {
                let o = (i * m + w1) * h;
                self.combine(
                    w1,
                    false,
                    (&a_re[i * n * h..(i + 1) * n * h], &a_im[i * n * h..(i + 1) * n * h]),
                    (&mut b_re[o..o + h], &mut b_im[o..o + h]),
                );
            }
        }
        // Axis 0: [i < n][w₁][w₂] → [w₀ < m][w₁][w₂].
        spec.fill(0.0);
        let (s_re, s_im) = spec.split_at_mut(m * m * h);
        let plane = m * h;
        for w0 in 0..m {
            let o = w0 * plane;
            self.combine(
                w0,
                false,
                (b_re, b_im),
                (&mut s_re[o..o + plane], &mut s_im[o..o + plane]),
            );
        }
    }

    /// Inverse transform of a half-spectrum (`2·half_len()`, as
    /// [`RealFft3::forward_corner`] writes it) into the `[0, p)³` corner
    /// of the real grid it represents, normalized by `1/m³`; `corner`
    /// (`p³`, row-major) is overwritten. The imaginary parts that the
    /// `w₂ ∈ {0, m/2}` columns hold after the two outer axes — zero for
    /// any Hermitian spectrum — meet an exactly zero weight.
    pub fn inverse_corner(&self, spec: &[f64], corner: &mut [f64], scratch: &mut Vec<f64>) {
        let (p, m) = (self.p, self.side());
        let h = m / 2 + 1;
        assert_eq!(spec.len(), 2 * self.half_len(), "spectrum is two half_len planes");
        assert_eq!(corner.len(), p * p * p, "corner is p³");
        let (la, lb) = (p * p * h, p * m * h);
        scratch.clear();
        scratch.resize(2 * (la + lb), 0.0);
        let (a, b) = scratch.split_at_mut(2 * la);
        let (s_re, s_im) = spec.split_at(m * m * h);
        // Axis 0: [w₀ < m][w₁][w₂] → [i < p][w₁][w₂].
        let (b_re, b_im) = b.split_at_mut(lb);
        let plane = m * h;
        for i in 0..p {
            let o = i * plane;
            self.combine(i, true, (s_re, s_im), (&mut b_re[o..o + plane], &mut b_im[o..o + plane]));
        }
        // Axis 1: [i][w₁ < m][w₂] → [i][j < p][w₂].
        let (a_re, a_im) = a.split_at_mut(la);
        for i in 0..p {
            for j in 0..p {
                let o = (i * p + j) * h;
                self.combine(
                    j,
                    true,
                    (&b_re[i * plane..(i + 1) * plane], &b_im[i * plane..(i + 1) * plane]),
                    (&mut a_re[o..o + h], &mut a_im[o..o + h]),
                );
            }
        }
        // Axis 2: h complex → the p leading reals of the length-m line.
        corner.fill(0.0);
        for (r, out) in corner.chunks_exact_mut(p).enumerate() {
            for w in 0..h {
                let (xr, xi) = (a_re[r * h + w], a_im[r * h + w]);
                let (c, s) = (&self.inv_re[w * p..(w + 1) * p], &self.inv_im[w * p..(w + 1) * p]);
                for k in 0..p {
                    out[k] += c[k] * xr + s[k] * xi;
                }
            }
        }
    }

    /// One output row of a complex axis stage: `out += Σ_j ω^{±row·j} ·
    /// in_j`, where `in_j` is the `j`-th `out.len()`-long block of `input`
    /// (as many blocks as it holds), `ω = e^{−2πi/m}` and the sign is `+`
    /// for `inverse`. `out` must come in zeroed.
    #[inline]
    fn combine(
        &self,
        row: usize,
        inverse: bool,
        input: (&[f64], &[f64]),
        out: (&mut [f64], &mut [f64]),
    ) {
        let m = self.side();
        let (o_re, o_im) = out;
        let len = o_re.len();
        let blocks = input.0.chunks_exact(len).zip(input.1.chunks_exact(len));
        for (j, (x_re, x_im)) in blocks.enumerate() {
            let c = self.cos[row * m + j];
            let s = if inverse { -self.sin[row * m + j] } else { self.sin[row * m + j] };
            // (c − i·s)(x + i·y) = (c·x + s·y) + i·(c·y − s·x)
            for w in 0..len {
                o_re[w] += c * x_re[w] + s * x_im[w];
                o_im[w] += c * x_im[w] - s * x_re[w];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fft3, C64};

    fn reals(len: usize, seed: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 37 + seed * 101) as f64 * 0.618).sin() * 3.0 - 0.4).collect()
    }

    /// Embed the `n³` leading corner into the complex `m³` grid.
    fn embed(input: &[f64], n: usize, m: usize) -> Vec<C64> {
        let mut grid = vec![C64::ZERO; m * m * m];
        for (i, &v) in input.iter().enumerate() {
            grid[((i / (n * n)) * m + (i / n) % n) * m + i % n] = C64::real(v);
        }
        grid
    }

    /// Half-spectrum entry `(w₀, w₁, w₂)` of `spec`.
    fn at(spec: &[f64], m: usize, w: [usize; 3]) -> C64 {
        let h = m / 2 + 1;
        let i = (w[0] * m + w[1]) * h + w[2];
        C64::new(spec[i], spec[m * m * h + i])
    }

    /// Forward against `Fft3::forward` of the embedded grid, corner-only
    /// and full real input, odd and even `p`.
    #[test]
    fn forward_matches_complex_oracle() {
        for p in 2..=10 {
            let m = 2 * p;
            let plan = RealFft3::new(p);
            let oracle = Fft3::new([m; 3]);
            let mut scratch = Vec::new();
            for n in [p, m] {
                let input = reals(n * n * n, p);
                let mut spec = vec![f64::NAN; 2 * plan.half_len()];
                if n == p {
                    plan.forward_corner(&input, &mut spec, &mut scratch);
                } else {
                    plan.forward_full(&input, &mut spec, &mut scratch);
                }
                let mut want = embed(&input, n, m);
                oracle.forward(&mut want);
                let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
                for w0 in 0..m {
                    for w1 in 0..m {
                        for w2 in 0..=p {
                            let (got, exp) =
                                (at(&spec, m, [w0, w1, w2]), want[(w0 * m + w1) * m + w2]);
                            assert!(
                                (got - exp).abs() <= 1e-12 * scale,
                                "p={p} n={n} w=({w0},{w1},{w2}): {got:?} vs {exp:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Inverse against `inverse_corner_unnormalized` on the Hermitian
    /// completion, read at the corner.
    #[test]
    fn inverse_matches_complex_oracle() {
        for p in 2..=10 {
            let m = 2 * p;
            let plan = RealFft3::new(p);
            let oracle = Fft3::new([m; 3]);
            let mut scratch = Vec::new();
            // A Hermitian spectrum that is not the transform of a
            // corner-supported grid: transform a full real grid.
            let mut spec = vec![0.0; 2 * plan.half_len()];
            plan.forward_full(&reals(m * m * m, 3 * p), &mut spec, &mut scratch);
            let mut full = vec![C64::ZERO; m * m * m];
            for w0 in 0..m {
                for w1 in 0..m {
                    for w2 in 0..m {
                        full[(w0 * m + w1) * m + w2] = if w2 <= p {
                            at(&spec, m, [w0, w1, w2])
                        } else {
                            at(&spec, m, [(m - w0) % m, (m - w1) % m, m - w2]).conj()
                        };
                    }
                }
            }
            oracle.inverse_corner_unnormalized(&mut full, [p; 3]);
            let mut corner = vec![f64::NAN; p * p * p];
            plan.inverse_corner(&spec, &mut corner, &mut scratch);
            let norm = 1.0 / (m * m * m) as f64;
            let scale = corner.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            for (i, &got) in corner.iter().enumerate() {
                let exp = full[((i / (p * p)) * m + (i / p) % p) * m + i % p];
                assert!((got - exp.re * norm).abs() <= 1e-12 * scale, "p={p} i={i}");
                assert!(exp.im.abs() * norm <= 1e-12 * scale, "oracle corner is real");
            }
        }
    }

    /// `inverse_corner ∘ forward_corner` is the identity on the corner,
    /// and `inverse_corner ∘ forward_full` reads the corner of the grid.
    #[test]
    fn round_trip() {
        for p in 1..=10 {
            let m = 2 * p;
            let plan = RealFft3::new(p);
            let mut scratch = Vec::new();
            let mut spec = vec![0.0; 2 * plan.half_len()];
            let mut back = vec![0.0; p * p * p];
            let corner = reals(p * p * p, p);
            plan.forward_corner(&corner, &mut spec, &mut scratch);
            plan.inverse_corner(&spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(&corner) {
                assert!((a - b).abs() <= 1e-14 * 4.0, "p={p}: {a} vs {b}");
            }
            let grid = reals(m * m * m, p + 1);
            plan.forward_full(&grid, &mut spec, &mut scratch);
            plan.inverse_corner(&spec, &mut back, &mut scratch);
            for (i, a) in back.iter().enumerate() {
                let b = grid[((i / (p * p)) * m + (i / p) % p) * m + i % p];
                assert!((a - b).abs() <= 1e-14 * 4.0, "p={p}: {a} vs {b}");
            }
        }
    }

    /// Real input gives exactly real DC and Nyquist entries along the
    /// halved axis at the self-conjugate corners (the quarter-turn table
    /// entries are exact).
    #[test]
    fn self_conjugate_entries_are_exactly_real() {
        let p = 5;
        let m = 2 * p;
        let plan = RealFft3::new(p);
        let mut spec = vec![0.0; 2 * plan.half_len()];
        plan.forward_corner(&reals(p * p * p, 9), &mut spec, &mut Vec::new());
        for w in [[0, 0, 0], [p, 0, 0], [0, p, p], [p, p, p]] {
            assert_eq!(at(&spec, m, w).im, 0.0, "{w:?}");
        }
    }
}
