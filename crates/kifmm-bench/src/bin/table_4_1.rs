//! **Table 4.1 — fixed-size scalability.**
//!
//! Paper: 3.2 M particles, P = 1…1024, three kernels (Laplacian and
//! modified Laplacian on the uniform 512-sphere set, Stokes on the
//! non-uniform corner-clustered set), columns Total/Ratio/Comm/Up/Down/
//! Avg/Peak/Gen-Comm.
//!
//! Reproduction (1/67-scale by default): `KIFMM_N` particles
//! (default 48 000), virtual ranks up to `KIFMM_MAXP` (default 32),
//! `s = 60`, `p = 6` (the 1e-5 setting). Run with
//! `cargo run --release -p kifmm-bench --bin table_4_1`.

use kifmm::{FmmOptions, Laplace, ModifiedLaplace, Stokes};
use kifmm_bench::{
    env_usize, print_table_header, print_table_row, rank_sweep, run_distributed, summarize,
    CommModel,
};

fn main() {
    let n = env_usize("KIFMM_N", 48_000);
    let iters = env_usize("KIFMM_ITERS", 1);
    let opts = FmmOptions { order: 6, max_pts_per_leaf: 60, ..Default::default() };
    let model = CommModel::default();
    let ranks = rank_sweep(32);
    println!(
        "Table 4.1 reproduction — fixed-size scalability, N = {n}, s = 60, p = 6\n\
         (paper: 3.2M particles on the PSC TCS-1; this run: virtual ranks,\n\
         thread-CPU compute time + Quadrics-model comm time; see DESIGN.md)"
    );

    let uniform = kifmm::geom::sphere_grid(n, 8);
    let clustered = kifmm::geom::corner_clusters(n, 2003);

    print_table_header("Laplacian kernel (uniform 512-sphere distribution)");
    for &p in &ranks {
        let m = run_distributed(Laplace, &uniform, p, opts, iters);
        print_table_row(&summarize(&m, &model));
    }

    print_table_header("Modified Laplacian kernel (uniform 512-sphere distribution)");
    for &p in &ranks {
        let m = run_distributed(ModifiedLaplace::new(1.0), &uniform, p, opts, iters);
        print_table_row(&summarize(&m, &model));
    }

    print_table_header("Stokes kernel (non-uniform corner-clustered distribution)");
    for &p in &ranks {
        let m = run_distributed(Stokes::new(1.0), &clustered, p, opts, iters);
        print_table_row(&summarize(&m, &model));
    }
}
