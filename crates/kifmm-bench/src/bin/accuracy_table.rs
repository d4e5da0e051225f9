//! **Accuracy sweep** — the paper's working accuracy ("the relative error
//! in all experiments is 1e-5") placed on the convergence curve of the
//! method: relative ℓ² error versus the surface order `p`, per kernel,
//! measured against exact direct summation. This reproduces the
//! accuracy-vs-cost tables of the companion sequential paper (Ying, Biros
//! & Zorin, TR2003-839) that the SC'03 evaluation builds on.
//!
//! `cargo run --release -p kifmm-bench --bin accuracy_table`
//! (`KIFMM_N` to change the particle count, default 10 000).

use kifmm::{
    direct_eval, rel_l2_error, Fmm, FmmOptions, Kernel, Laplace, ModifiedLaplace, Stokes,
};
use kifmm_bench::env_usize;
use std::time::Instant;

fn sweep<K: Kernel>(kernel: K, points: &[[f64; 3]], orders: &[usize]) {
    let n = points.len();
    let dens = kifmm::geom::random_densities(n, kernel.src_dim(), 7);
    let truth = direct_eval(&kernel, points, &dens);
    for &p in orders {
        let t0 = Instant::now();
        let fmm = Fmm::builder(kernel.clone())
            .points(points)
            .options(FmmOptions { order: p, max_pts_per_leaf: 60, ..Default::default() })
            .build();
        let setup = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = fmm.eval(&dens);
        let (u, stats) = (report.potentials, report.stats);
        let eval = t1.elapsed().as_secs_f64();
        let err = rel_l2_error(&u, &truth);
        println!(
            "{:>16} {:>3} {:>10.2e} {:>9.2}s {:>9.2}s {:>12}",
            kernel.name(),
            p,
            err,
            setup,
            eval,
            stats.total_flops() / 1_000_000
        );
    }
}

fn main() {
    let n = env_usize("KIFMM_N", 10_000);
    println!(
        "Accuracy vs surface order (512-sphere set, N = {n}, vs direct summation)\n\
         The paper's experiments run at 1e-5 relative error ⇒ p = 6.\n"
    );
    println!(
        "{:>16} {:>3} {:>10} {:>10} {:>10} {:>12}",
        "kernel", "p", "rel-err", "setup", "evaluate", "Mflop"
    );
    let points = kifmm::geom::sphere_grid(n, 8);
    sweep(Laplace, &points, &[4, 6, 8]);
    sweep(ModifiedLaplace::new(1.0), &points, &[4, 6, 8]);
    sweep(Stokes::new(1.0), &points, &[4, 6, 8]);
}
