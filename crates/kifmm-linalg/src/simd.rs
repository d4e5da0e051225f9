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
//! * [`recip_sqrt`] — `v[i] → 1/√v[i]` (0 where `v[i] ≤ 0`); IEEE-754
//!   requires `sqrt` and `div` to be correctly rounded, so the vector
//!   lanes equal the scalar results bit-for-bit.
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

/// Scalar reference for [`recip_sqrt`].
#[inline]
pub fn recip_sqrt_scalar(v: &mut [f64]) {
    for r2 in v.iter_mut() {
        *r2 = if *r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
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
    /// Caller must have verified AVX2 support ([`super::simd_active`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn recip_sqrt(v: &mut [f64]) {
        let n = v.len();
        let chunks = n / 4;
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let p = v.as_mut_ptr();
        // SAFETY (every pointer access below): offsets stay < n = v.len()
        // as in `dot`, and `v` is exclusively borrowed.
        for c in 0..chunks {
            let i = 4 * c;
            let vv = _mm256_loadu_pd(p.add(i));
            let w = _mm256_div_pd(one, _mm256_sqrt_pd(vv));
            // Zero out the w ≤ 0 lanes (1/√0 = ∞ masked to +0.0 bits).
            let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(vv, zero);
            _mm256_storeu_pd(p.add(i), _mm256_and_pd(w, mask));
        }
        for i in 4 * chunks..n {
            let r2 = *p.add(i);
            *p.add(i) = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
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

/// In place `v[i] → 1/√v[i]`, with `v[i] ≤ 0` mapped to 0 (the branchless
/// coincident-pair convention of the kernel `p2p` loops); vector and
/// scalar paths are bit-identical because IEEE `sqrt`/`div` are correctly
/// rounded.
#[inline]
pub fn recip_sqrt(v: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2 verified by `simd_active`; the kernel touches only
        // `v[..v.len()]`.
        return unsafe { x86::recip_sqrt(v) };
    }
    recip_sqrt_scalar(v)
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

    #[test]
    fn recip_sqrt_simd_matches_scalar_bitwise() {
        for n in [0, 1, 4, 6, 31, 257] {
            let v0: Vec<f64> = (0..n)
                .map(|i| if i % 5 == 0 { 0.0 } else { ((i * 11 + 1) as f64).fract() + i as f64 })
                .collect();
            let mut vs = v0.clone();
            recip_sqrt_scalar(&mut vs);
            let mut vv = v0.clone();
            recip_sqrt(&mut vv);
            for (a, b) in vs.iter().zip(&vv) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
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
