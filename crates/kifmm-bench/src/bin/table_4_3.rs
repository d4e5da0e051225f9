//! **Table 4.3 — largest runs.**
//!
//! Paper: 3000 processors, 512-sphere input, `s = 120` (doubled "to
//! slightly reduce the costs of tree construction"), three problems —
//! Laplace at 100 k and 230 k particles/CPU and Stokes at 230 k/CPU —
//! i.e. 0.3 B / 0.69 B / 2.07 B unknowns, sustaining 1.13 Tflop/s.
//!
//! Reproduction: `KIFMM_MAXP` ranks (default 32) with `100 k/scale`- and
//! `230 k/scale`-particle Laplace problems and a `230 k/scale`-particle
//! Stokes problem, `s = 120`. Scale with
//! `KIFMM_SCALE` (particles = base / scale, default 4). The exit status
//! is the verdict of [`kifmm_bench::gates::largest`].
//! `cargo run --release -p kifmm-bench --bin table_4_3`.

use kifmm::tree::partition_points;
use kifmm::{Kernel, Laplace, Stokes, Tracer};
use kifmm_bench::{
    env_usize, exit_with, gates, paper_opts, print_table, run_distributed, summarize, SweepRow,
};

fn run_case<K: Kernel>(kernel: K, n: usize, p: usize) -> SweepRow {
    let points = kifmm::geom::sphere_grid(n, 8);
    let iters = env_usize("KIFMM_ITERS", 1);
    let part = partition_points(&points, p);
    let trace = Tracer::disabled();
    let ranks = run_distributed(kernel.clone(), &points, &part, paper_opts(120), iters, &trace);
    let row = summarize(&ranks);
    let title = format!("{}, {} unknowns", kernel.name(), n * kernel.src_dim());
    print_table(&title, std::slice::from_ref(&row));
    row
}

fn main() {
    let p = env_usize("KIFMM_MAXP", 32);
    let scale = env_usize("KIFMM_SCALE", 4).max(1);
    println!(
        "Table 4.3 reproduction — largest runs, P = {p} virtual ranks, s = 120\n\
         (paper: 3000 CPUs, 0.3/0.69/2.07 B unknowns; here scaled down by {scale}000×)"
    );
    let rows = [
        run_case(Laplace, 100_000 / scale, p),
        run_case(Laplace, 230_000 / scale, p),
        run_case(Stokes::new(1.0), 230_000 / scale, p),
    ];
    exit_with(gates::largest(&rows), "largest runs: Table 4.3 shape holds");
}
