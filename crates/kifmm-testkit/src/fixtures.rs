//! Shared test fixtures: deterministic point clouds, rank partitioning,
//! and the serial-reference cross-check used by every evaluator path.
//!
//! These used to be duplicated in the test modules of `kifmm-core` and
//! `kifmm-parallel`; they live here so all three evaluation paths (serial,
//! shared-memory, distributed) validate against the *same* fixtures.

use kifmm_core::{rel_l2_error, Fmm, FmmOptions};
use kifmm_geom::random_densities;
use kifmm_kernels::{Kernel, Point3};
use kifmm_mpi::run;
use kifmm_parallel::ParallelFmm;
use kifmm_tree::partition_points;

/// Deterministic pseudo-random point cloud in `[-1, 1]^3` (LCG; stable
/// across platforms, no global RNG state). This exact sequence is baked
/// into many test tolerances — do not change the constants.
pub fn cloud(n: usize, seed: u64) -> Vec<Point3> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
        })
        .collect()
}

/// Partition a global cloud into per-rank chunks the way a real run
/// would: Morton-ordered parallel partitioning (paper §3.1).
pub fn split_points(all: &[Point3], ranks: usize) -> Vec<Vec<Point3>> {
    partition_points(all, ranks).gather(all)
}

/// Evaluate the concatenated problem with the serial [`Fmm`] and split
/// the potentials back into per-rank slices — ground truth for the
/// distributed driver's tests.
pub fn serial_reference<K: Kernel>(
    kernel: K,
    chunks: &[Vec<Point3>],
    densities: &[Vec<f64>],
    opts: FmmOptions,
) -> Vec<Vec<f64>> {
    let all_points: Vec<Point3> = chunks.iter().flatten().copied().collect();
    let all_dens: Vec<f64> = densities.iter().flatten().copied().collect();
    let td = kernel.trg_dim();
    let fmm = Fmm::builder(kernel).points(&all_points).options(opts).build();
    let all_pot = fmm.eval(&all_dens).potentials;
    // Split back per rank.
    let mut out = Vec::with_capacity(chunks.len());
    let mut cursor = 0;
    for c in chunks {
        let len = c.len() * td;
        out.push(all_pot[cursor..cursor + len].to_vec());
        cursor += len;
    }
    out
}

/// Run `all` through the distributed driver on `ranks` virtual ranks and
/// assert the per-rank potentials match [`serial_reference`] to `tol`
/// relative l2 error, with every nonempty rank reporting work.
pub fn check_matches_serial_tol<K: Kernel>(
    kernel: K,
    all: Vec<Point3>,
    ranks: usize,
    dim: usize,
    tol: f64,
) {
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() };
    check_matches_serial_opts(kernel, all, ranks, dim, tol, opts);
}

/// As [`check_matches_serial_tol`], with caller-chosen [`FmmOptions`]
/// (e.g. a larger leaf capacity) applied to both paths.
pub fn check_matches_serial_opts<K: Kernel>(
    kernel: K,
    all: Vec<Point3>,
    ranks: usize,
    dim: usize,
    tol: f64,
    opts: FmmOptions,
) {
    let chunks = split_points(&all, ranks);
    let dens: Vec<Vec<f64>> = chunks
        .iter()
        .enumerate()
        .map(|(r, c)| random_densities(c.len(), dim, r as u64 + 1))
        .collect();
    let serial = serial_reference(kernel.clone(), &chunks, &dens, opts);
    let chunks2 = chunks.clone();
    let dens2 = dens.clone();
    let out = run(ranks, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, kernel.clone(), &chunks2[r], opts);
        let report = pfmm.eval(comm, &dens2[r]);
        (report.potentials, report.stats.total_flops())
    });
    for (r, (pot, flops)) in out.into_iter().enumerate() {
        let e = rel_l2_error(&pot, &serial[r]);
        assert!(e < tol, "rank {r}: parallel vs serial error {e} (tol {tol})");
        if !chunks[r].is_empty() {
            assert!(flops > 0, "rank {r} did work");
        }
    }
}

/// [`check_matches_serial_tol`] at the historical 1e-9 accuracy gate.
pub fn check_matches_serial<K: Kernel>(kernel: K, all: Vec<Point3>, ranks: usize, dim: usize) {
    check_matches_serial_tol(kernel, all, ranks, dim, 1e-9);
}
