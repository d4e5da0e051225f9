//! Golden-bits gate on the whole FMM: the translation-operator tables may
//! be stored any way the engine likes, but every potential and gradient
//! `Session::eval` / `eval_many` returns must reproduce, bit for bit, the
//! pinned outputs.
//!
//! Each constant is FNV-1a over the IEEE-754 bit patterns of the outputs on
//! a fixed corner-clustered cloud (depth ≥ 4, so several levels read the
//! tables at different scales). One kernel per branch of the level rule:
//! Laplace and Stokes (degree −1, dyadic scales), `LaplaceDipole`
//! (degree −2), a closure declaring the non-dyadic degree −1.5 (scales that
//! are not powers of two) and `ModifiedLaplace` (no degree: per-level
//! tables). Serial and pool must both match, on the vector microkernels
//! and on their scalar twins (`simd::set_force_scalar`) alike: one set of
//! constants pins both.
//!
//! History of the pins. Until PR 25 a sixth row, `Laplace/Direct`, pinned
//! the dense M2L mode; PR 25 deleted the mode and the row, and the five
//! rows kept their constants (and their `/Fft` labels) through it. The
//! five `*/Fft` rows were re-pinned
//! once, in PR 18, when the M2L transforms became the pruned real-input
//! `RealFft3`: the Hadamard accumulation kept its contraction tree and
//! V-list order (checked bitwise against `pointwise_mul_add` in
//! `kifmm-core/src/m2l.rs`), so transform rounding is the only change.
//! Measured against the previous pins' outputs on this cloud, potentials
//! moved by at most 4.3e-15 of the largest potential (relative L2 ≤
//! 1.6e-14, Stokes the largest) and gradients by at most 5.4e-18 of the
//! largest gradient. All six rows were re-pinned in PR 20, when the
//! serial build began to sort `(code, index)` pairs like every other tree:
//! the cloud has 3 tied max-depth codes, the by-key sort had swapped one
//! tied pair inside a leaf (2 permutation entries), and a leaf's sources
//! are summed in permutation order. The constants are the outputs of the
//! *parent's* `ParallelFmm` at P = 1 — which already sorted pairs, and
//! matched the parent's serial rows bit for bit on `uniform_cube(900, 16)`
//! — captured before the change.
//!
//! All six moved again in PR 21, when `kifmm_linalg::svd` became a
//! QR-preconditioned Jacobi and `dc2de` the transpose of `uc2ue` where the
//! kernel's two check systems are transposes: the pseudoinverses differ
//! from the parent's by SVD rounding, which no capture at the parent can
//! reproduce, so the movement was measured instead. Against the parent's
//! outputs on this cloud (dumped from a parent-commit build), the largest
//! change in a potential, as a fraction of the row's largest potential,
//! next to the row's own relative L2 error against `direct_eval_grad`:
//!
//! | row | potentials moved | gradients moved | own error (pot) |
//! |---|---|---|---|
//! | `Laplace/Fft` | 3.7e-15 | 3.8e-18 | 9.5e-7 |
//! | `Stokes/Fft` | 2.8e-14 | 1.1e-17 | 8.8e-6 |
//! | `LaplaceDipole/Fft` | 6.8e-18 | 9.4e-22 | 1.6e-8 |
//! | `inv-r-1.5/Fft` | 1.5e-16 | 1.2e-18 | 1.5e-6 |
//! | `ModifiedLaplace/Fft` | 1.9e-15 | 3.8e-18 | 3.9e-7 |
//! | `Laplace/Direct` (deleted in PR 25) | 3.4e-15 | 3.8e-18 | 9.5e-7 |
//!
//! (gradients as a fraction of the largest gradient; their own errors are
//! 2.2e-11 – 9.1e-8). Every row moved by at least eight orders less than
//! it is wrong by, and no row's own error changed in its first seven digits.
//!
//! `ModifiedLaplace` calls the platform `exp` and the −1.5 rule calls
//! `powf`, neither of which IEEE-754 requires to be correctly rounded: on a
//! libm other than the one the constants were captured with, only those
//! rows may differ.

use kifmm::{CustomKernel, Fmm, Kernel, Laplace, ModifiedLaplace, OutputSpec, Stokes};
use kifmm_kernels::LaplaceDipole;

/// `(row label, [eval POT, eval GRAD, eval_many(k = 3) POT, eval_many GRAD])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 5] = [
    ("Laplace/Fft", [0x839832d9c79c7771, 0x3dae3e24c0a750d6, 0x27f6633fe87feffb, 0xea4f46536186fbd7]),
    ("Stokes/Fft", [0x6f476b96ff079ade, 0x5d9e361065d807ed, 0xcb55cdacb83d19a5, 0x5151a489f4000799]),
    ("LaplaceDipole/Fft", [0x7e7d40653afbd338, 0xbb74105a58615fad, 0x2e419a77fcddcc63, 0x9759499ce1db6549]),
    ("inv-r-1.5/Fft", [0x7c81e787c1c9e5d2, 0x92ccbf6535d54d42, 0xcba81226c97fe5a7, 0xafd60f5a4b64befa]),
    ("ModifiedLaplace/Fft", [0x2676d0b174f6bfd2, 0x913d96828789e2f3, 0xe606b233fa9485f0, 0x60681687275fa120]),
];

const N: usize = 900;

fn fnv1a(h: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
}

/// `[POT, GRAD]` hashes over a batch of reports.
fn hashes(reports: &[kifmm::EvalReport]) -> [u64; 2] {
    let mut h = [0xcbf29ce484222325u64; 2];
    for r in reports {
        assert!(r.potentials.iter().chain(&r.gradients).all(|v| v.is_finite()));
        fnv1a(&mut h[0], &r.potentials);
        fnv1a(&mut h[1], &r.gradients);
    }
    h
}

fn row<K: Kernel>(kernel: K) -> (String, [u64; 4]) {
    let label = format!("{}/Fft", kernel.name());
    let pts = kifmm::geom::corner_clusters(N, 16);
    let dens: Vec<Vec<f64>> =
        (0..3).map(|q| kifmm::geom::random_densities(N, kernel.src_dim(), 40 + q)).collect();
    let dens: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
    let mut fmm = Fmm::builder(kernel)
        .points(&pts)
        .order(4)
        .max_pts_per_leaf(12)
        .output(OutputSpec::PotentialAndGradient)
        .build();
    assert!(fmm.tree.depth() >= 4, "{label}: depth {} reads too few levels", fmm.tree.depth());
    let run = |fmm: &Fmm<K>| {
        let (one, many) = (hashes(&[fmm.eval(dens[0])]), hashes(&fmm.eval_many(&dens)));
        [one[0], one[1], many[0], many[1]]
    };
    let serial = run(&fmm);
    fmm.set_parallel_eval(true);
    assert_eq!(serial, run(&fmm), "{label}: pool differs from serial");
    (label, serial)
}

#[test]
fn fmm_outputs_match_parent_commit_bits() {
    // |x − y|^−1.5 from `sqrt` and one division only (both correctly
    // rounded), gradients by central difference.
    let inv_r15 = CustomKernel::new("inv-r-1.5", 1, 1, Some(-1.5), |x, y, block| {
        let d = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        block[0] = if r == 0.0 { 0.0 } else { 1.0 / (r * r.sqrt()) };
    });
    for scalar in [true, false] {
        kifmm::linalg::simd::set_force_scalar(scalar);
        let got = [
            row(Laplace),
            row(Stokes::new(0.7)),
            row(LaplaceDipole),
            row(inv_r15.clone()),
            row(ModifiedLaplace::new(1.3)),
        ];
        if got.iter().zip(&GOLDEN).any(|(g, w)| g.0 != w.0 || g.1 != w.1) {
            for (label, h) in &got {
                eprintln!(
                    "    (\"{label}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                    h[0], h[1], h[2], h[3]
                );
            }
            panic!(
                "FMM output bits (force_scalar = {scalar}) differ from the golden table \
                 (computed rows above)"
            );
        }
    }
}
