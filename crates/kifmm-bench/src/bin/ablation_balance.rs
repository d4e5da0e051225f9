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
//! the paper's count-based partition, take the per-point work estimates
//! of that run, re-partition by estimated work, evaluate again, and
//! compare Table 4.1's Ratio (max/min virtual time across ranks). The
//! exit status is the verdict of [`kifmm_bench::gates::balance`].
//!
//! `cargo run --release -p kifmm-bench --bin ablation_balance`
//! (`KIFMM_N` default 48 000, `KIFMM_MAXP` default 16).

use kifmm::tree::{partition_points, partition_weighted_points, Partition};
use kifmm::{Kernel, Laplace, Stokes, Tracer};
use kifmm_bench::{env_usize, exit_with, gates, paper_opts, run_distributed, summarize};

/// (count-based Ratio, work-based Ratio) of one kernel on one cloud.
fn case<K: Kernel>(name: &str, kernel: K, all: &[[f64; 3]], ranks: usize) -> (f64, f64) {
    let iters = env_usize("KIFMM_ITERS", 1);
    let run = |part: &Partition| {
        run_distributed(kernel.clone(), all, part, paper_opts(60), iters, &Tracer::disabled())
    };
    // Pass 1: the paper's partitioning (particle counts only).
    let base = partition_points(all, ranks);
    let counted = run(&base);
    // Pass 2: repartition with that run's work estimates, scattered back
    // to global point order.
    let mut weights = vec![0.0; all.len()];
    for (group, rank) in base.groups.iter().zip(&counted) {
        for (&gi, &w) in group.iter().zip(&rank.point_work) {
            weights[gi] = w;
        }
    }
    let balanced = run(&partition_weighted_points(all, &weights, ranks));
    let ratios = (summarize(&counted).ratio, summarize(&balanced).ratio);
    println!(
        "{name:>40}  P={ranks:<3} count-based Ratio {:>5.2}  work-based Ratio {:>5.2}",
        ratios.0, ratios.1
    );
    ratios
}

fn main() {
    let n = env_usize("KIFMM_N", 48_000);
    let p = env_usize("KIFMM_MAXP", 16);
    println!(
        "Load-balancing ablation (paper §5 future work), N = {n}\n\
         Ratio = max/min virtual time across ranks (1.0 = perfect)\n"
    );
    let uniform = kifmm::geom::sphere_grid(n, 8);
    let clustered = kifmm::geom::corner_clusters(n, 2003);
    case("Laplace, uniform (control)", Laplace, &uniform, p);
    let non_uniform = [
        case("Laplace, corner-clustered", Laplace, &clustered, p),
        case("Stokes, corner-clustered", Stokes::new(1.0), &clustered, p),
    ];
    exit_with(
        gates::balance(&non_uniform),
        "balance: workload feedback does not worsen either non-uniform cloud",
    );
}
