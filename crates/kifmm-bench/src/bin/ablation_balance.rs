//! **Ablation — particle-count vs workload-feedback partitioning.**
//!
//! The paper partitions by particle count only and observes (§4,
//! discussion point 6) that "load imbalance for highly non-uniform
//! distributions is significant" — the Stokes corner-clustered rows of
//! Table 4.1 show Ratio growing to 1.8 while the uniform rows stay near
//! 1.2. Its stated fix (§3.1/§5): "work estimates from a previous time
//! step could be used to obtain more balanced partitioning."
//!
//! This ablation implements that fix and measures it: evaluate once with
//! the paper's count-based partition, extract per-point work estimates,
//! re-partition by estimated work, evaluate again, and compare the
//! compute-time imbalance (max/min across ranks).
//!
//! `cargo run --release -p kifmm-bench --bin ablation_balance`
//! (`KIFMM_N` default 48 000, `KIFMM_MAXP` default 16).

use kifmm::core::PrecomputeCache;
use kifmm::parallel::ParallelFmm;
use kifmm::tree::{partition_points, partition_weighted_points, Partition};
use kifmm::{FmmOptions, Kernel, Laplace, Stokes};
use kifmm_bench::env_usize;
use std::sync::Arc;

/// Evaluate on a given partition; return per-rank compute seconds and the
/// per-point work estimates (original global order).
fn run_with_partition<K: Kernel>(
    kernel: K,
    all: &[[f64; 3]],
    part: &Partition,
    opts: FmmOptions,
) -> (Vec<f64>, Vec<f64>) {
    let ranks = part.groups.len();
    let chunks = Arc::new(part.gather(all));
    let cache = Arc::new(PrecomputeCache::<K>::new());
    let out = kifmm::mpi::run(ranks, {
        let chunks = chunks.clone();
        move |comm| {
            let r = comm.rank();
            let local = &chunks[r];
            let dens = kifmm::geom::random_densities(local.len(), kernel.src_dim(), r as u64);
            let pfmm = ParallelFmm::with_cache(comm, kernel.clone(), local, opts, &cache);
            let stats = pfmm.eval(comm, &dens).stats;
            let compute = stats.total_seconds() - stats.seconds[kifmm::Phase::Comm as usize];
            (compute, pfmm.point_work_estimates())
        }
    });
    // Scatter local estimates back to global point order.
    let mut weights = vec![0.0; all.len()];
    let mut computes = Vec::with_capacity(ranks);
    for (r, (compute, west)) in out.into_iter().enumerate() {
        computes.push(compute);
        for (li, &gi) in part.groups[r].iter().enumerate() {
            weights[gi] = west[li];
        }
    }
    (computes, weights)
}

fn ratio(v: &[f64]) -> f64 {
    let max = v.iter().cloned().fold(0.0f64, f64::max);
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-12);
    max / min
}

fn case<K: Kernel>(name: &str, kernel: K, all: &[[f64; 3]], ranks: usize) {
    let opts = FmmOptions { order: 6, max_pts_per_leaf: 60, ..Default::default() };
    // Pass 1: the paper's partitioning (particle counts only).
    let base = partition_points(all, ranks);
    let (t_base, weights) = run_with_partition(kernel.clone(), all, &base, opts);
    // Pass 2: repartition with the measured work estimates.
    let balanced = partition_weighted_points(all, &weights, ranks);
    let (t_bal, _) = run_with_partition(kernel, all, &balanced, opts);
    println!(
        "{name:>40}  P={ranks:<3} count-based Ratio {:>5.2}  work-based Ratio {:>5.2}",
        ratio(&t_base),
        ratio(&t_bal)
    );
}

fn main() {
    let n = env_usize("KIFMM_N", 48_000);
    let p = env_usize("KIFMM_MAXP", 16);
    println!(
        "Load-balancing ablation (paper §5 future work), N = {n}\n\
         Ratio = max/min compute time across ranks (1.0 = perfect)\n"
    );
    let uniform = kifmm::geom::sphere_grid(n, 8);
    let clustered = kifmm::geom::corner_clusters(n, 2003);
    case("Laplace, uniform (control)", Laplace, &uniform, p);
    case("Laplace, corner-clustered", Laplace, &clustered, p);
    case("Stokes, corner-clustered", Stokes::new(1.0), &clustered, p);
    println!(
        "\nExpected shape: the uniform control is already balanced; the\n\
         non-uniform cases improve markedly with workload feedback."
    );
}
