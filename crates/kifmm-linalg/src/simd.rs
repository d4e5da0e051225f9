//! In-tree 4-wide SIMD microkernels (`std::arch`, no external crates).
//!
//! Every routine here has a scalar twin with the **same floating-point
//! contraction tree**, so the vector and scalar paths are bit-identical:
//!
//! * [`dot`] — four vertical lane accumulators reduced as
//!   `(s0+s1) + (s2+s3)`, exactly the 4-way accumulator split the scalar
//!   code has always used (no FMA: explicit mul then add, both correctly
//!   rounded).
//! * [`axpy`] — elementwise `y[i] += alpha·x[i]`; one rounding per element
//!   either way.
//! * [`inv_dist_dots`] — the Laplace near-field microkernel: one pass over
//!   a target's sources computes `w = 1/√r²` (0 at a coincident pair,
//!   `r² = 0`) in a register and feeds it to up to [`SWEEP`] right-hand
//!   sides' lane accumulators, each reduced like [`dot`] — so every sum is
//!   bit-for-bit `dot(dens, w)` over the weights `w`, which IEEE-754 fixes
//!   exactly because `sqrt` and `div` are correctly rounded.
//!
//! Dispatch is resolved once per process: compiled out entirely on
//! non-x86_64 targets, otherwise gated on
//! `is_x86_feature_detected!("avx2")`. [`set_force_scalar`] flips the
//! decision at runtime so one process can check SIMD ≡ scalar bitwise —
//! the `simd_check` gate in `scripts/verify.sh` and the two golden-bits
//! tests do exactly that.

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state dispatch mode: 0 = undecided, 1 = SIMD, 2 = scalar.
static MODE: AtomicU8 = AtomicU8::new(0);

const MODE_SIMD: u8 = 1;
const MODE_SCALAR: u8 = 2;

fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return MODE_SIMD;
    }
    MODE_SCALAR
}

/// Whether the vector code path is active for this process right now.
#[inline]
pub fn simd_active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => {
            let m = detect();
            MODE.store(m, Ordering::Relaxed);
            m == MODE_SIMD
        }
        m => m == MODE_SIMD,
    }
}

/// Force the scalar path (`true`) or re-run detection (`false`). The
/// switch exists for equivalence gating — both paths are bit-identical,
/// so flipping it mid-process is observable only through timing.
pub fn set_force_scalar(on: bool) {
    if on {
        MODE.store(MODE_SCALAR, Ordering::Relaxed);
    } else {
        MODE.store(detect(), Ordering::Relaxed);
    }
}

/// Scalar reference for [`dot`]: 4-way accumulator split, reduced as
/// `(s0+s1) + (s2+s3)`, scalar remainder appended left-to-right.
#[inline]
pub fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = 4 * c;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in 4 * chunks..n {
        s += x[i] * y[i];
    }
    s
}

/// Scalar reference for [`axpy`].
#[inline]
pub fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Right-hand sides one [`inv_dist_dots`] call takes: their lane
/// accumulators, the target and the pair weight together fill the sixteen
/// AVX2 registers.
pub const SWEEP: usize = 8;

/// The pair weight of [`inv_dist_dots`]: `1/√r²`, and 0 at a coincident
/// pair. Only `r² == 0` is excluded, so a NaN distance stays NaN.
#[inline(always)]
fn inv_dist(x: [f64; 3], y: [f64; 3]) -> f64 {
    let (dx, dy, dz) = (x[0] - y[0], x[1] - y[1], x[2] - y[2]);
    let r2 = dx * dx + dy * dy + dz * dz;
    if r2 == 0.0 {
        0.0
    } else {
        1.0 / r2.sqrt()
    }
}

/// Scalar reference for [`inv_dist_dots`]: per right-hand side the
/// contraction tree of [`dot_scalar`] over the weights `w_i = 1/√r²_i`.
#[inline]
pub fn inv_dist_dots_scalar(x: [f64; 3], sources: &[[f64; 3]], dens: &[&[f64]], sums: &mut [f64]) {
    let (k, n) = (dens.len(), sources.len());
    let chunks = n / 4;
    let mut acc = [[0.0f64; 4]; SWEEP];
    for c in 0..chunks {
        for lane in 0..4 {
            let i = 4 * c + lane;
            let w = inv_dist(x, sources[i]);
            for (a, d) in acc[..k].iter_mut().zip(dens) {
                a[lane] += d[i] * w;
            }
        }
    }
    for (s, a) in sums.iter_mut().zip(&acc[..k]) {
        *s = (a[0] + a[1]) + (a[2] + a[3]);
    }
    for i in 4 * chunks..n {
        let w = inv_dist(x, sources[i]);
        for (s, d) in sums.iter_mut().zip(dens) {
            *s += d[i] * w;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2 support ([`super::simd_active`]) and
    /// that `y.len() == x.len()`: `y` is read out to `x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let chunks = n / 4;
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        // One vector accumulator = the scalar path's four lane sums.
        let mut acc = _mm256_setzero_pd();
        // SAFETY (every pointer access below): all offsets are < n — the
        // vector loop reads [4c, 4c + 4) with 4c + 4 ≤ 4·⌊n/4⌋ ≤ n, the
        // tail reads single elements in [4·⌊n/4⌋, n) — and both slices hold
        // n elements (caller contract); `loadu` has no alignment demand.
        for c in 0..chunks {
            let i = 4 * c;
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, yv));
        }
        let lo = _mm256_castpd256_pd128(acc); // lanes s0, s1
        let hi = _mm256_extractf128_pd::<1>(acc); // lanes s2, s3
        let s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
        let s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
        let mut s = _mm_cvtsd_f64(_mm_add_sd(s01, s23));
        for i in 4 * chunks..n {
            s += *xp.add(i) * *yp.add(i);
        }
        s
    }

    /// # Safety
    /// Caller must have verified AVX2 support ([`super::simd_active`]) and
    /// that `y.len() == x.len()`: `y` is read and written out to `x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let chunks = n / 4;
        let av = _mm256_set1_pd(alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        // SAFETY (every pointer access below): offsets stay < n as in
        // `dot`; both slices hold n elements (caller contract) and `x`
        // cannot overlap the exclusively borrowed `y`.
        for c in 0..chunks {
            let i = 4 * c;
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
        }
        for i in 4 * chunks..n {
            *yp.add(i) += alpha * *xp.add(i);
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support ([`super::simd_active`]) and
    /// that `dens.len() == sums.len() ≤ SWEEP` and every `dens[q].len() ==
    /// sources.len()`: each density slice is read out to `sources.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn inv_dist_dots(
        x: [f64; 3],
        sources: &[[f64; 3]],
        dens: &[&[f64]],
        sums: &mut [f64],
    ) {
        // One body per batch width keeps the accumulators in registers.
        match dens.len() {
            0 => {}
            1 => inv_dist_dots_k::<1>(x, sources, dens, sums),
            2 => inv_dist_dots_k::<2>(x, sources, dens, sums),
            3 => inv_dist_dots_k::<3>(x, sources, dens, sums),
            4 => inv_dist_dots_k::<4>(x, sources, dens, sums),
            5 => inv_dist_dots_k::<5>(x, sources, dens, sums),
            6 => inv_dist_dots_k::<6>(x, sources, dens, sums),
            7 => inv_dist_dots_k::<7>(x, sources, dens, sums),
            8 => inv_dist_dots_k::<8>(x, sources, dens, sums),
            k => unreachable!("inv_dist_dots: {k} > SWEEP right-hand sides"),
        }
    }

    /// # Safety
    /// As [`inv_dist_dots`], with `dens.len() == sums.len() == K`.
    #[target_feature(enable = "avx2")]
    unsafe fn inv_dist_dots_k<const K: usize>(
        x: [f64; 3],
        sources: &[[f64; 3]],
        dens: &[&[f64]],
        sums: &mut [f64],
    ) {
        let n = sources.len();
        let chunks = n / 4;
        let (tx, ty, tz) = (_mm256_set1_pd(x[0]), _mm256_set1_pd(x[1]), _mm256_set1_pd(x[2]));
        let (one, zero) = (_mm256_set1_pd(1.0), _mm256_setzero_pd());
        let sp = sources.as_ptr() as *const f64;
        let dp: [*const f64; K] = std::array::from_fn(|q| dens[q].as_ptr());
        // acc[q] holds the scalar path's four lane sums of right-hand side q.
        let mut acc = [zero; K];
        // SAFETY (every pointer access below): `sources` is n contiguous
        // `[f64; 3]`, i.e. 3n f64s; block c reads [12c, 12c + 12) with
        // 12c + 12 ≤ 3·4·⌊n/4⌋ ≤ 3n. Each density slice holds n elements
        // (caller contract) and is read at [4c, 4c + 4) within 4·⌊n/4⌋ ≤ n.
        // `loadu` has no alignment demand.
        for c in 0..chunks {
            // AoS → SoA for sources 4c..4c+4: a = x0 y0 z0 x1, b = y1 z1 x2
            // y2, c = z2 x3 y3 z3.
            let a = _mm256_loadu_pd(sp.add(12 * c));
            let b = _mm256_loadu_pd(sp.add(12 * c + 4));
            let cc = _mm256_loadu_pd(sp.add(12 * c + 8));
            let u = _mm256_permute2f128_pd::<0x30>(a, b); // x0 y0 x2 y2
            let v = _mm256_permute2f128_pd::<0x21>(a, cc); // z0 x1 z2 x3
            let w = _mm256_permute2f128_pd::<0x30>(b, cc); // y1 z1 y3 z3
            let sx = _mm256_shuffle_pd::<0b1010>(u, v);
            let sy = _mm256_shuffle_pd::<0b0101>(u, w);
            let sz = _mm256_shuffle_pd::<0b1010>(v, w);
            let dx = _mm256_sub_pd(tx, sx);
            let dy = _mm256_sub_pd(ty, sy);
            let dz = _mm256_sub_pd(tz, sz);
            let r2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            let inv_r = _mm256_div_pd(one, _mm256_sqrt_pd(r2));
            // Zero only the r² == 0 lanes (1/√0 = ∞ → +0.0 bits); a NaN
            // lane compares unequal and stays NaN.
            let wv = _mm256_and_pd(inv_r, _mm256_cmp_pd::<_CMP_NEQ_UQ>(r2, zero));
            for q in 0..K {
                let d = _mm256_loadu_pd(dp[q].add(4 * c));
                acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(d, wv));
            }
        }
        for q in 0..K {
            let lo = _mm256_castpd256_pd128(acc[q]); // lanes s0, s1
            let hi = _mm256_extractf128_pd::<1>(acc[q]); // lanes s2, s3
            let s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
            let s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
            sums[q] = _mm_cvtsd_f64(_mm_add_sd(s01, s23));
        }
        for (i, &y) in sources.iter().enumerate().skip(4 * chunks) {
            let w = super::inv_dist(x, y);
            for q in 0..K {
                sums[q] += *dp[q].add(i) * w;
            }
        }
    }
}

/// Dot product with four-way accumulator splitting; vector and scalar
/// paths are bit-identical. Panics if the lengths differ (a real check:
/// the vector path loads both slices out to `x.len()`).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: slices must have equal lengths");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` returns true only after `detect` saw AVX2
        // on this CPU, and the lengths were asserted equal just above.
        return unsafe { x86::dot(x, y) };
    }
    dot_scalar(x, y)
}

/// `y += alpha * x`; vector and scalar paths are bit-identical. Panics
/// if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: slices must have equal lengths");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2 verified by `simd_active`; lengths asserted equal
        // just above.
        return unsafe { x86::axpy(alpha, x, y) };
    }
    axpy_scalar(alpha, x, y)
}

/// For every right-hand side `q`, `sums[q] = Σ_i dens[q][i] · w_i` with
/// `w_i = 1/√|x − sources[i]|²` (0 at a coincident pair) — one pass over
/// the sources that keeps each weight in a register for every right-hand
/// side. Each sum is bit-for-bit `dot(dens[q], w)`; vector and scalar paths
/// are bit-identical. Panics unless `dens.len() == sums.len() ≤ SWEEP` and
/// every density slice has one entry per source (real checks: the vector
/// path loads each slice out to `sources.len()`).
#[inline]
pub fn inv_dist_dots(x: [f64; 3], sources: &[[f64; 3]], dens: &[&[f64]], sums: &mut [f64]) {
    assert!(dens.len() <= SWEEP, "inv_dist_dots: at most {SWEEP} right-hand sides");
    assert_eq!(dens.len(), sums.len(), "inv_dist_dots: one sum per right-hand side");
    for d in dens {
        assert_eq!(d.len(), sources.len(), "inv_dist_dots: one density per source");
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2 verified by `simd_active`; the batch width and every
        // slice length were asserted just above.
        return unsafe { x86::inv_dist_dots(x, sources, dens, sums) };
    }
    inv_dist_dots_scalar(x, sources, dens, sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64).sin() * 1e3).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 + 1) as f64).cos() / 7.0).collect();
        (x, y)
    }

    #[test]
    fn dot_simd_matches_scalar_bitwise() {
        for n in [0, 1, 3, 4, 5, 8, 17, 64, 1023] {
            let (x, y) = vecs(n);
            let s = dot_scalar(&x, &y);
            let v = dot(&x, &y);
            assert_eq!(s.to_bits(), v.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn axpy_simd_matches_scalar_bitwise() {
        for n in [0, 1, 4, 7, 33, 1000] {
            let (x, y0) = vecs(n);
            let mut ys = y0.clone();
            axpy_scalar(-1.75, &x, &mut ys);
            let mut yv = y0.clone();
            axpy(-1.75, &x, &mut yv);
            for (a, b) in ys.iter().zip(&yv) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    /// Every remainder class of the 4-source blocks and every batch width,
    /// with a coincident source and one whose `r²` underflows to 0 (both
    /// weigh 0): the vector path equals the scalar twin, which equals
    /// `dot_scalar` over the weight buffer.
    #[test]
    fn inv_dist_dots_simd_matches_scalar_bitwise() {
        let x = [0.0, 0.3, -0.2];
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 9, 30, 257] {
            let (a, b) = vecs(3 * n);
            let mut sources: Vec<[f64; 3]> =
                (0..n).map(|i| [a[3 * i] * 1e-3, b[3 * i + 1], a[3 * i + 2] * 1e-3]).collect();
            if n > 1 {
                sources[1] = x;
            }
            if n > 2 {
                sources[n - 1] = [1e-170, 0.3, -0.2];
            }
            let w: Vec<f64> = sources.iter().map(|&y| inv_dist(x, y)).collect();
            assert!(n < 3 || w[n - 1] == 0.0, "r² underflows to 0");
            let dens: Vec<Vec<f64>> = (0..SWEEP).map(|q| vecs(n + q).1[q..].to_vec()).collect();
            for k in 0..=SWEEP {
                let refs: Vec<&[f64]> = dens[..k].iter().map(Vec::as_slice).collect();
                let (mut sv, mut ss) = (vec![f64::NAN; k], vec![f64::NAN; k]);
                inv_dist_dots(x, &sources, &refs, &mut sv);
                inv_dist_dots_scalar(x, &sources, &refs, &mut ss);
                for q in 0..k {
                    let expect = dot_scalar(&dens[q], &w).to_bits();
                    assert_eq!(sv[q].to_bits(), expect, "vector n = {n} k = {k} q = {q}");
                    assert_eq!(ss[q].to_bits(), expect, "scalar n = {n} k = {k} q = {q}");
                }
            }
        }
    }

    #[test]
    fn inv_dist_dots_checks_its_shapes() {
        let sources = [[1.0, 0.0, 0.0]; 5];
        let d = [0.5; 5];
        let panics = |dens: &[&[f64]], sums: &mut [f64]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inv_dist_dots([0.0; 3], &sources, dens, sums)
            }))
            .is_err()
        };
        assert!(panics(&[&d[..4]], &mut [0.0]), "short density slice");
        assert!(panics(&[&d, &d], &mut [0.0]), "fewer sums than right-hand sides");
        assert!(panics(&[&d[..]; SWEEP + 1], &mut [0.0; SWEEP + 1]), "more than SWEEP");
    }

    #[test]
    fn force_scalar_switch_round_trips() {
        let (x, y) = vecs(100);
        let auto = dot(&x, &y);
        set_force_scalar(true);
        assert!(!simd_active());
        let forced = dot(&x, &y);
        set_force_scalar(false);
        assert_eq!(auto.to_bits(), forced.to_bits());
        assert_eq!(dot(&x, &y).to_bits(), forced.to_bits());
    }
}
