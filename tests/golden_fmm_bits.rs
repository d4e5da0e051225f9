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
//! are not powers of two), `ModifiedLaplace` (no degree: per-level tables),
//! and Laplace once more under the dense M2L oracle. Serial and pool must
//! both match.
//!
//! History of the pins. The `Laplace/Direct` row dates from the parent of
//! PR 16 (per-level scaled operator clones → one table + a GEMM `alpha`)
//! and did not move before PR 20. The five `*/Fft` rows were re-pinned
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
//! `ModifiedLaplace` calls the platform `exp` and the −1.5 rule calls
//! `powf`, neither of which IEEE-754 requires to be correctly rounded: on a
//! libm other than the one the constants were captured with, only those
//! rows may differ.

use kifmm::{CustomKernel, Fmm, Kernel, Laplace, M2lMode, ModifiedLaplace, OutputSpec, Stokes};
use kifmm_kernels::LaplaceDipole;

/// `(row label, [eval POT, eval GRAD, eval_many(k = 3) POT, eval_many GRAD])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 4]); 6] = [
    ("Laplace/Fft", [0x7186250c90700fca, 0xd1007ae5dcbf4c40, 0x7cccd095f50fd23d, 0x070d0f43ecb7dc00]),
    ("Stokes/Fft", [0xfc436c1fbff99766, 0x12b29ebafb857946, 0x11554a0c8c86edb2, 0xe87abee7732e94f3]),
    ("LaplaceDipole/Fft", [0xcf91d4767e1623cf, 0xb1a80cd273038c70, 0x98a436ebcc5ae0c1, 0x29591de270464160]),
    ("inv-r-1.5/Fft", [0xf708c2235ec2e5c0, 0x2c04200e7f3f9e6f, 0x434a4b86d4b4e2f9, 0x60df9a7a8b1c0dfc]),
    ("ModifiedLaplace/Fft", [0xf0bbf93fed992dd0, 0xe1571ab9bdd40553, 0x107eec788e20e0a6, 0x0a6db48cb7ba44b6]),
    ("Laplace/Direct", [0xd43a0f3102052d31, 0x384618864b633ff7, 0x1816d73399008d62, 0xe29a39ccdcefe2c7]),
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

fn row<K: Kernel>(kernel: K, mode: M2lMode) -> (String, [u64; 4]) {
    let label = format!("{}/{mode:?}", kernel.name());
    let pts = kifmm::geom::corner_clusters(N, 16);
    let dens: Vec<Vec<f64>> =
        (0..3).map(|q| kifmm::geom::random_densities(N, kernel.src_dim(), 40 + q)).collect();
    let dens: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
    let mut fmm = Fmm::builder(kernel)
        .points(&pts)
        .order(4)
        .max_pts_per_leaf(12)
        .m2l(mode)
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
    let got = [
        row(Laplace, M2lMode::Fft),
        row(Stokes::new(0.7), M2lMode::Fft),
        row(LaplaceDipole, M2lMode::Fft),
        row(inv_r15, M2lMode::Fft),
        row(ModifiedLaplace::new(1.3), M2lMode::Fft),
        row(Laplace, M2lMode::Direct),
    ];
    if got.iter().zip(&GOLDEN).any(|(g, w)| g.0 != w.0 || g.1 != w.1) {
        for (label, h) in &got {
            eprintln!(
                "    (\"{label}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),",
                h[0], h[1], h[2], h[3]
            );
        }
        panic!("FMM output bits differ from the golden table (computed rows above)");
    }
}
