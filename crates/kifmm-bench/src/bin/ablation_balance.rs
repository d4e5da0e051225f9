//! **Ablation — particle-count vs measured-work partitioning.**
//!
//! The paper partitions by particle count only and observes (§4,
//! discussion point 6) that "load imbalance for highly non-uniform
//! distributions is significant" — the Stokes corner-clustered rows of
//! Table 4.1 show Ratio growing to 1.8 while the uniform rows stay near
//! 1.2. §3.1: "No additional load balancing information is used besides
//! the number of particles. Work estimates from a previous time step could
//! be used to obtain more balanced partitioning." §5 lists the
//! "inefficient load balancing algorithm" as one of the two known problems
//! and plans to "use workload information from previous time steps for
//! load balancing".
//!
//! This ablation implements that fix with the estimate the harness already
//! measures: evaluate with the paper's count-based partition, weigh every
//! point of rank r by r's virtual seconds over its point count
//! ([`kifmm_bench::measured_weights`]), re-partition by that weight,
//! evaluate again, and compare Table 4.1's Ratio (max/min virtual time
//! across ranks). Each run averages `KIFMM_ITERS` evaluations (default 3,
//! the paper's "averaged over several iterations"). The exit status is the
//! verdict of [`kifmm_bench::gates::balance`].
//!
//! `cargo run --release -p kifmm-bench --bin ablation_balance`
//! (`KIFMM_N` default 48 000, `KIFMM_MAXP` default 16).

use kifmm::tree::{partition_points, partition_weighted_points, Partition};
use kifmm::{Kernel, Laplace, Stokes, Tracer};
use kifmm_bench::{env_usize, exit_with, gates, measured_weights, paper_opts};
use kifmm_bench::{run_distributed, summarize};

/// (count-based Ratio, measured-work Ratio) of one kernel on one cloud.
fn case<K: Kernel>(name: &str, kernel: K, all: &[[f64; 3]], ranks: usize) -> (f64, f64) {
    let iters = env_usize("KIFMM_ITERS", 3);
    let run = |part: &Partition| {
        run_distributed(kernel.clone(), all, part, paper_opts(60), iters, &Tracer::disabled())
    };
    // Pass 1: the paper's partitioning (particle counts only).
    let base = partition_points(all, ranks);
    let counted = run(&base);
    // Pass 2: repartition by the seconds each rank took in pass 1.
    let balanced = run(&partition_weighted_points(all, &measured_weights(&base, &counted), ranks));
    let ratios = (summarize(&counted).ratio, summarize(&balanced).ratio);
    println!(
        "{name:>40}  P={ranks:<3} count-based Ratio {:>5.2}  measured Ratio {:>5.2}",
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
        "balance: measured-work feedback does not worsen either non-uniform cloud",
    );
}
