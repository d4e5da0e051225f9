//! SIMD-vs-scalar equivalence gate for `scripts/verify.sh`.
//!
//! The in-tree vector microkernels (`kifmm_linalg::simd`) were written to
//! be *bit-identical* to their scalar references: the scalar path uses
//! the same 4-way accumulator split and the same `(s0+s1)+(s2+s3)`
//! reduction the 4-lane path performs in registers. This binary flips
//! `set_force_scalar` in-process and asserts that identity at two levels:
//!
//! 1. the raw microkernels (`dot`, `axpy`, `recip_sqrt`) on awkward
//!    lengths (empty, sub-lane, lane-straddling remainders), and
//! 2. a full FMM evaluation (near-field P2P is the consumer) for a
//!    point-kernel and a matrix-kernel case.
//!
//! 3. the length checks the `unsafe` vector loads rest on: this is a
//!    release binary (debug assertions off), so a mismatched `dot`/`axpy`
//!    or a short density slice into `Laplace.p2p` must still panic rather
//!    than read past a buffer.
//!
//! On hosts without AVX2 both runs take the scalar path and levels 1–2 are
//! vacuous — the binary says so rather than failing. Exits nonzero
//! (panics) on any divergence.

use kifmm::linalg::simd;
use kifmm::{Fmm, FmmOptions, Kernel, Laplace, Stokes};

/// Deterministic LCG doubles in `(-1, 1)`.
fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

fn check_microkernels() {
    // Lengths chosen to hit every remainder class of the 4-lane kernels.
    for &n in &[0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65, 1000, 1003] {
        let x = noise(n, 11 + n as u64);
        let y = noise(n, 29 + n as u64);

        simd::set_force_scalar(false);
        let dot_v = simd::dot(&x, &y);
        let mut axpy_v = y.clone();
        simd::axpy(0.37, &x, &mut axpy_v);
        let mut rsqrt_v: Vec<f64> = x.iter().map(|v| v * v + 0.01).collect();
        rsqrt_v.push(0.0); // coincident-pair sentinel lane
        simd::recip_sqrt(&mut rsqrt_v);

        simd::set_force_scalar(true);
        let dot_s = simd::dot(&x, &y);
        let mut axpy_s = y.clone();
        simd::axpy(0.37, &x, &mut axpy_s);
        let mut rsqrt_s: Vec<f64> = x.iter().map(|v| v * v + 0.01).collect();
        rsqrt_s.push(0.0);
        simd::recip_sqrt(&mut rsqrt_s);
        simd::set_force_scalar(false);

        assert!(
            dot_v.to_bits() == dot_s.to_bits(),
            "dot diverges at n={n}: {dot_v:?} vs {dot_s:?}"
        );
        assert_eq!(axpy_v, axpy_s, "axpy diverges at n={n}");
        assert_eq!(rsqrt_v, rsqrt_s, "recip_sqrt diverges at n={n}");
    }
    println!("simd-check microkernels: dot/axpy/recip_sqrt bit-identical OK");
}

fn check_fmm<K: Kernel>(kernel: K, n: usize, seed: u64) {
    let name = kernel.name().to_string();
    let pts = kifmm::geom::uniform_cube(n, seed);
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), seed + 1);
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };

    simd::set_force_scalar(false);
    let vector =
        Fmm::builder(kernel.clone()).points(&pts).options(opts).build().eval(&dens).potentials;
    simd::set_force_scalar(true);
    let scalar = Fmm::builder(kernel).points(&pts).options(opts).build().eval(&dens).potentials;
    simd::set_force_scalar(false);

    assert_eq!(vector, scalar, "{name}: FMM potentials diverge between SIMD and scalar");
    println!("simd-check {name}: full FMM eval bit-identical OK");
}

/// Wrong-length slices must panic in a release build: `simd::dot`/`axpy`
/// are safe functions over `unsafe` loads out to `x.len()`, and the kernel
/// entry points hand them caller-supplied density slices.
fn check_length_asserts() {
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the panics below are the expected outcome
    let (x, y) = (noise(12, 5), noise(8, 6));
    let dot = panics(|| {
        std::hint::black_box(simd::dot(&x, &y));
    });
    let axpy = panics(|| simd::axpy(0.5, &x, &mut y.clone()));
    let pts = kifmm::geom::uniform_cube(8, 7);
    let p2p = panics(|| Laplace.p2p(&pts, &pts, &noise(7, 8), &mut [0.0; 8]));
    std::panic::set_hook(hook);
    assert!(dot, "simd::dot accepted slices of different lengths");
    assert!(axpy, "simd::axpy accepted slices of different lengths");
    assert!(p2p, "Laplace.p2p accepted a density slice shorter than its sources");
    println!("simd-check length asserts: mismatched dot/axpy/p2p panic in release OK");
}

fn main() {
    simd::set_force_scalar(false);
    if simd::simd_active() {
        println!("simd-check: vector path active (AVX2)");
    } else {
        println!("simd-check: no vector path on this host — gate is scalar-vs-scalar");
    }
    check_microkernels();
    check_length_asserts();
    check_fmm(Laplace, 800, 41);
    check_fmm(Stokes::default(), 500, 43);
    println!("simd-check: ALL OK");
}
