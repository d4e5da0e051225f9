//! Cross-path equivalence: the three evaluators (serial, shared-memory
//! pool, distributed P=4) are thin drivers over one `kifmm_core::engine`,
//! so they must agree — bit-identically for serial vs pool (same tasks,
//! same instruction order), and to 1e-12 for the distributed path (the
//! owner-side Sum of partial equivalents reassociates additions).
//!
//! Matrix: every shipped kernel × 2 distributions (uniform, clustered) ×
//! 3 paths, the same under the dense M2L oracle, and FFT vs that oracle.

use kifmm::{CustomKernel, Fmm, FmmOptions, Gaussian, Kelvin, Kernel, Laplace, M2lMode, ModifiedLaplace, Stokes};
use kifmm_kernels::LaplaceDipole;
use kifmm_testkit::{check_matches_serial_opts, check_matches_serial_tol};

fn uniform(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::uniform_cube(n, seed)
}

fn clustered(n: usize, seed: u64) -> Vec<[f64; 3]> {
    kifmm::geom::corner_clusters(n, seed)
}

fn opts(m2l_mode: M2lMode) -> FmmOptions {
    FmmOptions { order: 4, max_pts_per_leaf: 20, m2l_mode, ..Default::default() }
}

/// Serial vs shared-memory pool: bit-identical on the same Fmm.
fn check_pool_bitwise<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>) {
    check_pool_bitwise_opts(kernel, pts, opts(M2lMode::Fft));
}

fn check_pool_bitwise_opts<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>, opts: FmmOptions) {
    let n = pts.len();
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), 7);
    let mut fmm = Fmm::builder(kernel).points(&pts).options(opts).build();
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

/// The same gates under the dense M2L oracle: it is the reference the FFT
/// path is held to, so its own serial/pool identity and its split-set
/// determinism (the distributed driver runs each level over two
/// complementary `ActiveSet`s) must hold independently.
mod direct_mode {
    use super::*;

    fn pool_bitwise<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>) {
        check_pool_bitwise_opts(kernel, pts, opts(M2lMode::Direct));
    }

    fn distributed<K: Kernel>(kernel: K, pts: Vec<[f64; 3]>) {
        let sd = kernel.src_dim();
        check_matches_serial_opts(kernel, pts, 4, sd, 1e-12, opts(M2lMode::Direct));
    }

    #[test]
    fn laplace_uniform_pool_bitwise() {
        pool_bitwise(Laplace, uniform(700, 11));
    }

    #[test]
    fn laplace_clustered_pool_bitwise() {
        pool_bitwise(Laplace, clustered(700, 12));
    }

    #[test]
    fn laplace_clustered_seed19_pool_bitwise() {
        pool_bitwise(Laplace, clustered(700, 19));
    }

    #[test]
    fn modified_laplace_uniform_pool_bitwise() {
        // Inhomogeneous: one cached dense matrix per (level, direction).
        pool_bitwise(ModifiedLaplace::new(1.5), uniform(600, 15));
    }

    #[test]
    fn stokes_clustered_pool_bitwise() {
        // Matrix kernel: interleaved SRC/TRG components.
        pool_bitwise(Stokes::default(), clustered(450, 18));
    }

    #[test]
    fn laplace_uniform_distributed_1e12() {
        distributed(Laplace, uniform(700, 11));
    }

    #[test]
    fn laplace_uniform_seed21_distributed_1e12() {
        distributed(Laplace, uniform(700, 21));
    }

    #[test]
    fn modified_laplace_clustered_distributed_1e12() {
        distributed(ModifiedLaplace::new(1.5), clustered(600, 16));
    }

    #[test]
    fn stokes_clustered_distributed_1e12() {
        distributed(Stokes::default(), clustered(450, 18));
    }
}

/// The one cross-mode check: on a clustered cloud (non-empty W and X
/// lists), the FFT M2L and the dense oracle produce the same potentials
/// to 1e-9 for every shipped kernel — they compute the same discrete sums
/// and differ only by FFT round-off.
mod fft_vs_dense_oracle {
    use super::*;

    fn agrees<K: Kernel>(kernel: K) {
        agrees_with_leaf(kernel, 20);
    }

    fn agrees_with_leaf<K: Kernel>(kernel: K, max_pts_per_leaf: usize) {
        let opts = |mode| FmmOptions { max_pts_per_leaf, ..opts(mode) };
        let pts = clustered(600, 41);
        let dens = kifmm::geom::random_densities(pts.len(), kernel.src_dim(), 7);
        let fft = Fmm::builder(kernel.clone()).points(&pts).options(opts(M2lMode::Fft)).build();
        assert!(
            fft.lists.w.iter().any(|w| !w.is_empty()) && fft.lists.x.iter().any(|x| !x.is_empty()),
            "geometry must exercise the W and X lists"
        );
        assert!(fft.tree.depth() >= 3, "several M2L levels");
        let dense =
            Fmm::builder(kernel.clone()).points(&pts).options(opts(M2lMode::Direct)).build();
        let err = kifmm::rel_l2_error(&fft.eval(&dens).potentials, &dense.eval(&dens).potentials);
        assert!(err < 1e-9, "{}: FFT vs dense oracle {err}", kernel.name());
    }

    #[test]
    fn every_shipped_kernel() {
        agrees(Laplace);
        agrees(ModifiedLaplace::new(1.5));
        agrees(Stokes::default());
        agrees(Kelvin::new(1.0, 0.3));
        // Boxes far smaller than σ make the check matrix numerically
        // rank-deficient and the pinv amplifies the FFT round-off past
        // 1e-9 (see `gaussian_clustered`): hold the tree shallower.
        agrees_with_leaf(Gaussian::new(0.35), 60);
        agrees(LaplaceDipole);
        agrees(shadow_laplace());
    }

    /// The same agreement on the other two drivers: the pool session and
    /// the distributed driver at P = 4 (which runs each level over two
    /// `ActiveSet`s around its ghost exchange) under the FFT M2L,
    /// against the serial dense oracle.
    fn agrees_on_pool_and_ranks<K: Kernel>(kernel: K) {
        let pts = clustered(600, 41);
        let chunks = kifmm_testkit::split_points(&pts, 4);
        let dens: Vec<Vec<f64>> = chunks
            .iter()
            .enumerate()
            .map(|(r, c)| kifmm::geom::random_densities(c.len(), kernel.src_dim(), r as u64 + 1))
            .collect();
        let oracle =
            kifmm_testkit::serial_reference(kernel.clone(), &chunks, &dens, opts(M2lMode::Direct));

        let all_pts: Vec<[f64; 3]> = chunks.iter().flatten().copied().collect();
        let all_dens: Vec<f64> = dens.iter().flatten().copied().collect();
        let mut pool =
            Fmm::builder(kernel.clone()).points(&all_pts).options(opts(M2lMode::Fft)).build();
        pool.set_parallel_eval(true);
        let err = kifmm::rel_l2_error(&pool.eval(&all_dens).potentials, &oracle.concat());
        assert!(err < 1e-9, "{}: pool FFT vs dense oracle {err}", kernel.name());

        let name = kernel.name().to_string();
        let ranks = kifmm::mpi::run(4, move |comm| {
            let r = comm.rank();
            let pfmm =
                kifmm::ParallelFmm::new(comm, kernel.clone(), &chunks[r], opts(M2lMode::Fft));
            pfmm.eval(comm, &dens[r]).potentials
        });
        for (r, pot) in ranks.iter().enumerate() {
            let err = kifmm::rel_l2_error(pot, &oracle[r]);
            assert!(err < 1e-9, "{name}: rank {r} FFT vs dense oracle {err}");
        }
    }

    #[test]
    fn on_pool_and_distributed_drivers() {
        agrees_on_pool_and_ranks(Laplace);
        agrees_on_pool_and_ranks(Stokes::default());
        agrees_on_pool_and_ranks(ModifiedLaplace::new(1.5));
    }
}
