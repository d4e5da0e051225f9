//! SIMD-vs-scalar equivalence gate for `scripts/verify.sh`.
//!
//! The in-tree vector microkernels (`kifmm_linalg::simd`) were written to
//! be *bit-identical* to their scalar references: the scalar path uses
//! the same 4-way accumulator split and the same `(s0+s1)+(s2+s3)`
//! reduction the 4-lane path performs in registers. This binary flips
//! `set_force_scalar` in-process and asserts that identity at two levels:
//!
//! 1. the raw microkernels (`dot`, `axpy`, and the Laplace near-field
//!    pass `inv_dist_dots` at every batch width up to `SWEEP`) on awkward
//!    lengths (empty, sub-lane, lane-straddling remainders), and
//! 2. a full FMM evaluation (near-field P2P is the consumer) for a
//!    point-kernel and a matrix-kernel case, plus a Laplace `eval_many`
//!    at k = 9, which crosses the `SWEEP`-RHS chunk of `inv_dist_dots`.
//!
//! 3. the length checks the `unsafe` vector loads rest on: this is a
//!    release binary (debug assertions off), so a mismatched `dot`/`axpy`,
//!    a short density slice or more than `SWEEP` right-hand sides into
//!    `inv_dist_dots`, or a short density slice into `Laplace.p2p` must
//!    still panic rather than read past a buffer.
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
        let pts: Vec<[f64; 3]> = x.iter().zip(&y).map(|(&a, &b)| [a, b, a * b]).collect();
        let dens: Vec<Vec<f64>> = (0..simd::SWEEP).map(|q| noise(n, 41 + q as u64)).collect();
        let dots_v = inv_dist_dots_all(&pts, &dens);

        simd::set_force_scalar(true);
        let dot_s = simd::dot(&x, &y);
        let mut axpy_s = y.clone();
        simd::axpy(0.37, &x, &mut axpy_s);
        let dots_s = inv_dist_dots_all(&pts, &dens);
        simd::set_force_scalar(false);

        assert!(
            dot_v.to_bits() == dot_s.to_bits(),
            "dot diverges at n={n}: {dot_v:?} vs {dot_s:?}"
        );
        assert_eq!(axpy_v, axpy_s, "axpy diverges at n={n}");
        assert_eq!(dots_v, dots_s, "inv_dist_dots diverges at n={n}");
    }
    println!("simd-check microkernels: dot/axpy/inv_dist_dots bit-identical OK");
}

/// The bits of `inv_dist_dots` at every batch width `k ≤ SWEEP`, from a
/// target that coincides with the middle source (the zero-weight lane).
fn inv_dist_dots_all(pts: &[[f64; 3]], dens: &[Vec<f64>]) -> Vec<u64> {
    let x = pts.get(pts.len() / 2).copied().unwrap_or([0.5; 3]);
    let mut bits = Vec::new();
    for k in 0..=simd::SWEEP {
        let refs: Vec<&[f64]> = dens[..k].iter().map(Vec::as_slice).collect();
        let mut sums = vec![0.0; k];
        simd::inv_dist_dots(x, pts, &refs, &mut sums);
        bits.extend(sums.iter().map(|s| s.to_bits()));
    }
    bits
}

/// A Laplace `eval_many` at k = 9: the near field takes one full
/// `SWEEP`-RHS chunk and a one-RHS remainder.
fn check_eval_many(n: usize, seed: u64) {
    let pts = kifmm::geom::uniform_cube(n, seed);
    let dens: Vec<Vec<f64>> =
        (0..9).map(|q| kifmm::geom::random_densities(n, 1, seed + 1 + q)).collect();
    let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    let fmm = Fmm::builder(Laplace).points(&pts).options(opts).build();
    let run =
        || -> Vec<Vec<f64>> { fmm.eval_many(&refs).into_iter().map(|r| r.potentials).collect() };

    simd::set_force_scalar(false);
    let vector = run();
    simd::set_force_scalar(true);
    let scalar = run();
    simd::set_force_scalar(false);

    assert_eq!(vector, scalar, "Laplace eval_many(k = 9) diverges between SIMD and scalar");
    println!("simd-check Laplace eval_many k=9: bit-identical OK");
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

/// Wrong-length slices must panic in a release build: `simd::dot`/`axpy`/
/// `inv_dist_dots` are safe functions over `unsafe` loads out to a checked
/// length, and the kernel entry points hand them caller-supplied density
/// slices.
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
    let (d8, d7) = (noise(8, 8), noise(7, 8));
    let short = panics(|| simd::inv_dist_dots(pts[0], &pts, &[&d8, &d7], &mut [0.0; 2]));
    let wide = panics(|| simd::inv_dist_dots(pts[0], &pts, &[&d8[..]; 9], &mut [0.0; 9]));
    let p2p = panics(|| Laplace.p2p(&pts, &pts, &d7, &mut [0.0; 8]));
    std::panic::set_hook(hook);
    assert!(dot, "simd::dot accepted slices of different lengths");
    assert!(axpy, "simd::axpy accepted slices of different lengths");
    assert!(short, "simd::inv_dist_dots accepted a density slice shorter than its sources");
    assert!(wide, "simd::inv_dist_dots accepted 9 right-hand sides");
    assert!(p2p, "Laplace.p2p accepted a density slice shorter than its sources");
    println!(
        "simd-check length asserts: mismatched dot/axpy, short or 9-wide inv_dist_dots, short p2p panic in release OK"
    );
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
    check_eval_many(800, 47);
    println!("simd-check: ALL OK");
}
