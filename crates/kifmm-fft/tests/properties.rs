//! Property-based tests for the FFT substrate.

use kifmm_fft::{C64, Fft3, RealFft3};
use kifmm_testkit::{check, prop_assert, Gen};

fn signal(g: &mut Gen, len: usize) -> Vec<C64> {
    (0..len).map(|_| C64::new(g.f64(-5.0, 5.0), g.f64(-5.0, 5.0))).collect()
}

/// Roundtrip for every length 1..=64 (smooth, prime, mixed), on an
/// `[n, 1, 1]` grid.
#[test]
fn roundtrip_any_length() {
    check("roundtrip_any_length", 30, |g| {
        let n = g.usize(1, 65);
        let seed = g.u64_range(0, 100);
        let x: Vec<C64> = (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(seed + 1) as f64;
                C64::new((t * 0.01).sin(), (t * 0.007).cos())
            })
            .collect();
        let plan = Fft3::new([n, 1, 1]);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9 * (n as f64 + 1.0));
        }
    });
}

/// Parseval for random signals.
#[test]
fn parseval() {
    check("parseval", 30, |g| {
        let x = signal(g, 24);
        let plan = Fft3::new([24, 1, 1]);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        prop_assert!((ey - 24.0 * ex).abs() < 1e-8 * (1.0 + ey));
    });
}

/// Time shift ⇔ spectral phase ramp.
#[test]
fn shift_theorem() {
    check("shift_theorem", 30, |g| {
        let n = 16;
        let x = signal(g, n);
        let shift = g.usize(0, n);
        let plan = Fft3::new([n, 1, 1]);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let shifted: Vec<C64> = (0..n).map(|i| x[(i + shift) % n]).collect();
        let mut fs = shifted;
        plan.forward(&mut fs);
        for (k, (a, b)) in fs.iter().zip(&fx).enumerate() {
            let phase = C64::cis(2.0 * std::f64::consts::PI * (k * shift % n) as f64 / n as f64);
            let expect = *b * phase;
            prop_assert!((*a - expect).abs() < 1e-8, "bin {k}");
        }
    });
}

/// 3-D convolution theorem on random grids.
#[test]
fn convolution_theorem() {
    check("convolution_theorem", 30, |g| {
        let a = signal(g, 27);
        let b = signal(g, 27);
        let dims = [3usize, 3, 3];
        let plan = Fft3::new(dims);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut prod: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        plan.inverse(&mut prod);
        // Direct circular convolution.
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let mut s = C64::ZERO;
                    for p in 0..3 {
                        for q in 0..3 {
                            for r in 0..3 {
                                let ai = (p * 3 + q) * 3 + r;
                                let bi = (((i + 3 - p) % 3) * 3 + ((j + 3 - q) % 3)) * 3
                                    + ((k + 3 - r) % 3);
                                s = s.mul_add(a[ai], b[bi]);
                            }
                        }
                    }
                    let got = prod[(i * 3 + j) * 3 + k];
                    prop_assert!((got - s).abs() < 1e-8 * (1.0 + s.abs()));
                }
            }
        }
    });
}

/// Entry `(plane, index)` pairs of a half-spectrum with their Hermitian
/// multiplicity: the `w₂ ∈ {0, p}` columns stand for themselves, every
/// other stored entry also for its unstored conjugate.
fn hermitian_weight(p: usize, index: usize) -> f64 {
    match index % (p + 1) {
        w2 if w2 == 0 || w2 == p => 1.0,
        _ => 2.0,
    }
}

/// The real transform is linear, on corner input and on full grids.
#[test]
fn real3_linearity() {
    check("real3_linearity", 20, |g| {
        let p = g.usize(1, 7);
        let plan = RealFft3::new(p);
        let full = g.usize(0, 2) == 1;
        let len = if full { 8 * p * p * p } else { p * p * p };
        let (x, y, a) = (g.vec_f64(-3.0, 3.0, len), g.vec_f64(-3.0, 3.0, len), g.f64(-2.0, 2.0));
        let mut scratch = Vec::new();
        let mut transform = |input: &[f64]| {
            let mut spec = vec![0.0; 2 * plan.half_len()];
            if full {
                plan.forward_full(input, &mut spec, &mut scratch);
            } else {
                plan.forward_corner(input, &mut spec, &mut scratch);
            }
            spec
        };
        let (fx, fy) = (transform(&x), transform(&y));
        let mix: Vec<f64> = x.iter().zip(&y).map(|(u, v)| a * u + v).collect();
        let fmix = transform(&mix);
        for (i, got) in fmix.iter().enumerate() {
            let want = a * fx[i] + fy[i];
            prop_assert!((got - want).abs() < 1e-11 * (1.0 + want.abs()), "p={p} entry {i}");
        }
    });
}

/// Parseval on the half-spectrum: `m³ · Σ x² = Σ weight · |X|²` with the
/// Hermitian multiplicities.
#[test]
fn real3_parseval_with_hermitian_weights() {
    check("real3_parseval", 20, |g| {
        let p = g.usize(1, 7);
        let m = 2 * p;
        let plan = RealFft3::new(p);
        let grid = g.vec_f64(-2.0, 2.0, m * m * m);
        let mut spec = vec![0.0; 2 * plan.half_len()];
        plan.forward_full(&grid, &mut spec, &mut Vec::new());
        let (re, im) = spec.split_at(plan.half_len());
        let energy: f64 = grid.iter().map(|v| v * v).sum();
        let spectral: f64 = re
            .iter()
            .zip(im)
            .enumerate()
            .map(|(i, (r, s))| hermitian_weight(p, i) * (r * r + s * s))
            .sum();
        let want = (m * m * m) as f64 * energy;
        prop_assert!((spectral - want).abs() < 1e-10 * want, "p={p}: {spectral} vs {want}");
    });
}

/// The identity the FFT M2L rests on: for a source supported on the
/// `[0, p)³` corner and any real kernel grid, the circular convolution
/// read at the corner is `inverse_corner(forward_full(k) ⊙
/// forward_corner(x))`.
#[test]
fn real3_corner_convolution_theorem() {
    check("real3_corner_convolution", 12, |g| {
        let p = g.usize(1, 5);
        let m = 2 * p;
        let plan = RealFft3::new(p);
        let kernel = g.vec_f64(-1.0, 1.0, m * m * m);
        let source = g.vec_f64(-1.0, 1.0, p * p * p);
        let mut scratch = Vec::new();
        let h = plan.half_len();
        let (mut fk, mut fx) = (vec![0.0; 2 * h], vec![0.0; 2 * h]);
        plan.forward_full(&kernel, &mut fk, &mut scratch);
        plan.forward_corner(&source, &mut fx, &mut scratch);
        let mut prod = vec![0.0; 2 * h];
        for i in 0..h {
            prod[i] = fk[i] * fx[i] - fk[h + i] * fx[h + i];
            prod[h + i] = fk[i] * fx[h + i] + fk[h + i] * fx[i];
        }
        let mut got = vec![0.0; p * p * p];
        plan.inverse_corner(&prod, &mut got, &mut scratch);
        let at = |i: usize, j: usize, k: usize| (i * p + j) * p + k;
        for (i0, i1, i2) in (0..p * p * p).map(|i| (i / (p * p), (i / p) % p, i % p)) {
            let mut want = 0.0;
            for (j0, j1, j2) in (0..p * p * p).map(|j| (j / (p * p), (j / p) % p, j % p)) {
                let d = |a: usize, b: usize| (a + m - b) % m;
                want +=
                    kernel[(d(i0, j0) * m + d(i1, j1)) * m + d(i2, j2)] * source[at(j0, j1, j2)];
            }
            let v = got[at(i0, i1, i2)];
            prop_assert!((v - want).abs() < 1e-11 * (p * p * p) as f64, "p={p}: {v} vs {want}");
        }
    });
}
