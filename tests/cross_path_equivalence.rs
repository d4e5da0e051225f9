//! Cross-path equivalence: the three evaluators (serial, shared-memory
//! pool, distributed P=4) are thin drivers over one `kifmm_core::engine`,
//! so they must agree — bit-identically for serial vs pool (same tasks,
//! same instruction order), and to 1e-12 for the distributed path (the
//! owner-side Sum of partial equivalents reassociates additions).
//!
//! Matrix: every shipped kernel × 2 distributions (uniform, clustered) ×
//! 3 paths, and the FFT M2L pass against the dense reference.

use kifmm::{
    CustomKernel, Fmm, FmmOptions, Gaussian, Kelvin, Kernel, Laplace, ModifiedLaplace, Stokes,
};
use kifmm_kernels::LaplaceDipole;
use kifmm_testkit::{check_matches_serial_opts, check_matches_serial_tol};

fn uniform(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::uniform_cube(n, seed)
}

fn clustered(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::corner_clusters(n, seed)
}

fn opts() -> FmmOptions {
    FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() }
}

/// Serial vs shared-memory pool: bit-identical on the same Fmm.
fn check_pool_bitwise<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>) {
    let n = pts.len();
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), 7);
    let mut fmm = Fmm::builder(kernel).points(&pts).options(opts()).build();
    let serial = fmm.eval(&dens).potentials;
    fmm.set_parallel_eval(true);
    let pool = fmm.eval(&dens).potentials;
    assert_eq!(serial, pool, "pool path must be bit-identical to serial");
}

/// Distributed P=4 vs serial reference: 1e-12 relative l2.
fn check_distributed<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>) {
    let sd = kernel.src_dim();
    check_matches_serial_tol(kernel, pts, 4, sd, 1e-12);
}

macro_rules! cross_path_case {
    ($name:ident, $kernel:expr, $cloudfn:ident, $n:expr, $seed:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn pool_bitwise() {
                check_pool_bitwise($kernel, $cloudfn($n, $seed));
            }

            #[test]
            fn distributed_1e12() {
                check_distributed($kernel, $cloudfn($n, $seed));
            }
        }
    };
}

cross_path_case!(laplace_uniform, Laplace, uniform, 700, 11);
cross_path_case!(laplace_clustered, Laplace, clustered, 700, 12);
cross_path_case!(dipole_uniform, LaplaceDipole, uniform, 600, 13);
cross_path_case!(dipole_clustered, LaplaceDipole, clustered, 600, 14);
cross_path_case!(modified_laplace_uniform, ModifiedLaplace::new(1.5), uniform, 600, 15);
cross_path_case!(modified_laplace_clustered, ModifiedLaplace::new(1.5), clustered, 600, 16);
cross_path_case!(stokes_uniform, Stokes::default(), uniform, 450, 17);
cross_path_case!(stokes_clustered, Stokes::default(), clustered, 450, 18);
cross_path_case!(kelvin_uniform, Kelvin::new(1.0, 0.3), uniform, 450, 25);
cross_path_case!(kelvin_clustered, Kelvin::new(1.0, 0.3), clustered, 450, 26);
// Gaussian bandwidth: the equivalent-density fit's conditioning degrades
// as σ approaches the domain size (the check matrix goes numerically
// low-rank and the pinv amplifies cross-rank reassociation noise), so the
// strict 1e-12 distributed gate uses a bandwidth well below the box size.
cross_path_case!(gaussian_uniform, Gaussian::new(0.35), uniform, 600, 27);

/// Clustered Gaussian: corner clusters refine the tree until the finest
/// boxes are far smaller than σ, where the check matrix is numerically
/// rank-deficient and the pinv amplifies reassociation noise past 1e-12.
/// The distributed gate therefore holds the tree at a depth where boxes
/// stay commensurate with σ (larger leaf budget); the pool path is
/// bitwise at any depth.
mod gaussian_clustered {
    use super::*;

    #[test]
    fn pool_bitwise() {
        check_pool_bitwise(Gaussian::new(0.35), clustered(600, 28));
    }

    #[test]
    fn distributed_1e12() {
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 60, ..Default::default() };
        check_matches_serial_opts(Gaussian::new(0.35), clustered(600, 28), 4, 1, 1e-12, opts);
    }
}

/// Runtime closure kernels go through the same three paths as the
/// built-ins: a `CustomKernel` whose closure shadows Laplace must hold
/// the pool/distributed gates AND agree with native Laplace — the
/// closure layer cannot change the math.
fn shadow_laplace() -> CustomKernel {
    CustomKernel::new("shadow-laplace", 1, 1, Some(-1.0), |x, y, block| {
        Kernel::eval(&Laplace, x, y, block)
    })
}

mod closure_kernels {
    use super::*;

    #[test]
    fn pool_bitwise() {
        check_pool_bitwise(shadow_laplace(), uniform(700, 33));
    }

    #[test]
    fn distributed_1e12() {
        check_distributed(shadow_laplace(), uniform(700, 33));
    }

    /// Closure-vs-native: the shadow kernel's full pipeline against the
    /// native Laplace pipeline on identical inputs, ≤ 1e-9.
    #[test]
    fn closure_matches_native_laplace() {
        let pts = uniform(900, 34);
        let dens = kifmm::geom::random_densities(900, 1, 7);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() };
        let native =
            Fmm::builder(Laplace).points(&pts).options(opts).build().eval(&dens).potentials;
        let shadow = Fmm::builder(shadow_laplace())
            .points(&pts)
            .options(opts)
            .build()
            .eval(&dens)
            .potentials;
        let err = kifmm::rel_l2_error(&shadow, &native);
        assert!(err < 1e-9, "closure kernel must match native Laplace: {err}");
    }
}

/// The FFT M2L against the dense reference, pass by pass: on a clustered
/// cloud (depth 12; V-list work on levels 2 and 3, the slot level and
/// one read through a level factor) and one pseudorandom `store.up`,
/// every level's check potentials from `PassEngine::m2l_level` match
/// `DenseM2l::sweep` to 1e-9 for every shipped kernel — on the serial
/// engine, on the pool engine, and run over two complementary
/// `ActiveSet`s, which is how the distributed driver runs each level
/// (interior targets under its ghost exchange, boundary targets after).
/// The two compute the same discrete sums and differ only by FFT
/// round-off; the reference reads no level factor, so this also checks
/// the FFT tables' level scaling.
mod fft_vs_dense_oracle {
    use super::*;
    use kifmm::core::m2l::DenseM2l;
    use kifmm::core::{ActiveSet, EngineWorkspace, PassEngine, FIRST_FMM_LEVEL};
    use kifmm::runtime::Dispatch;

    /// Every level on the serial engine, or — with `pool_and_split` — on
    /// the pool engine and on the two halves of a split.
    fn agrees<K: Kernel>(kernel: K, pool_and_split: bool) {
        let pts = clustered(3000, 41);
        let plan = Fmm::builder(kernel.clone()).points(&pts).options(opts()).plan();
        let (tree, lists, depth) = (&plan.tree, &plan.lists, plan.tree.depth());
        let busy = (FIRST_FMM_LEVEL..=depth)
            .filter(|&l| tree.levels[l as usize].iter().any(|&b| !lists.v[b as usize].is_empty()));
        assert_eq!(busy.count(), 2, "V-list work on levels 2 and 3 (W/X serve the rest)");
        let halves = [true, false].map(|keep| ActiveSet::build(tree, |ni| (ni % 3 == 0) == keep));
        let runs: Vec<(&str, Vec<PassEngine<'_, K>>)> = if pool_and_split {
            let split = halves.iter().map(|a| plan.engine(Dispatch::Serial).with_active(a));
            vec![("pool", vec![plan.engine(Dispatch::Pool)]), ("split", split.collect())]
        } else {
            vec![("serial", vec![plan.engine(Dispatch::Serial)])]
        };
        let mut rng = kifmm::geom::Rng::seed_from_u64(5);
        let mut up = plan.engine(Dispatch::Serial).new_store().up;
        up.iter_mut().for_each(|v| *v = rng.range_f64(-1.0, 1.0));
        let store = || {
            let mut store = plan.engine(Dispatch::Serial).new_store();
            store.up.copy_from_slice(&up);
            store
        };
        for level in FIRST_FMM_LEVEL..=depth {
            let dense = DenseM2l::assemble(&kernel, opts().order, tree.domain.box_half(level));
            let mut want = store();
            dense.sweep(tree, lists, level, &mut want);
            for (name, engines) in &runs {
                let (mut got, mut ws) = (store(), EngineWorkspace::default());
                for engine in engines {
                    engine.m2l_level(level, &mut got, &mut ws);
                }
                let err = kifmm::rel_l2_error(&got.check, &want.check);
                assert!(err < 1e-9, "{} level {level} {name}: FFT vs dense {err}", kernel.name());
            }
        }
    }

    #[test]
    fn every_shipped_kernel() {
        agrees(Laplace, false);
        agrees(ModifiedLaplace::new(1.5), false);
        agrees(Stokes::default(), false);
        agrees(Kelvin::new(1.0, 0.3), false);
        agrees(Gaussian::new(0.35), false);
        agrees(LaplaceDipole, false);
        agrees(shadow_laplace(), false);
    }

    /// The pool engine and the distributed driver's interior/boundary
    /// split of each level, for the same kernels.
    #[test]
    fn on_pool_and_distributed_drivers() {
        agrees(Laplace, true);
        agrees(ModifiedLaplace::new(1.5), true);
        agrees(Stokes::default(), true);
        agrees(Kelvin::new(1.0, 0.3), true);
        agrees(Gaussian::new(0.35), true);
        agrees(LaplaceDipole, true);
        agrees(shadow_laplace(), true);
    }
}

/// The batch check is one engine call that every driver makes before any
/// work: a short density vector and an empty batch panic with its one
/// message through `Session::eval_many`, `Session::evaluate_at` (binned
/// targets, only an outside target, no targets) and, at P = 2,
/// `ParallelFmm::eval_many`.
#[test]
fn every_driver_refuses_a_bad_batch_with_one_message() {
    const SHORT: &str = "each density vector must have src_dim entries per point";
    const EMPTY: &str = "a batch holds at least one density vector";
    fn message(call: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
            .expect_err("a bad batch must panic");
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned()).expect("a text message")
    }
    let pts = uniform(600, 91);
    let fmm = Fmm::builder(Laplace).points(&pts).options(opts()).build();
    let d = vec![1.0; pts.len()];
    let short = &d[1..];
    assert_eq!(message(|| drop(fmm.eval_many(&[&d, short]))), SHORT);
    assert_eq!(message(|| drop(fmm.eval_many(&[]))), EMPTY);
    for targets in [&pts[..5], &[[9.0, 9.0, 9.0]], &[]] {
        assert_eq!(message(|| drop(fmm.evaluate_at(short, targets))), SHORT, "{targets:?}");
    }
    let chunks = kifmm_testkit::split_points(&pts, 2);
    for (empty, expect) in [(false, SHORT), (true, EMPTY)] {
        let chunks = chunks.clone();
        let got = message(move || {
            kifmm::mpi::run(2, |comm| {
                let pfmm = kifmm::ParallelFmm::new(comm, Laplace, &chunks[comm.rank()], opts());
                let d = vec![1.0; pfmm.local_len()];
                let batch: &[&[f64]] = if empty { &[] } else { &[&d, &d[1..]] };
                drop(pfmm.eval_many(comm, batch));
            });
        });
        assert_eq!(got, expect);
    }
}
