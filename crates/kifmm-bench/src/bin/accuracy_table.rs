//! **Accuracy sweep** — the paper's working accuracy ("the relative error
//! in all experiments is 1e-5") placed on the convergence curve of the
//! method: relative ℓ² error versus the surface order `p`, per kernel and
//! per point cloud, measured against exact direct summation. This
//! reproduces the accuracy tables of the companion sequential paper
//! (Ying, Biros & Zorin, TR2003-839) that the SC'03 evaluation builds on.
//!
//! The exit status is the verdict of [`kifmm_bench::gates::accuracy`]: a
//! gated envelope over kernel × cloud × order, not a table to read.
//! `cargo run --release -p kifmm-bench --bin accuracy_table`.

use kifmm::{direct_eval, rel_l2_error, Fmm, FmmOptions, Kernel, Laplace, ModifiedLaplace, Stokes};
use kifmm_bench::gates::{accuracy, CLOUDS, ORDERS};
use kifmm_bench::exit_with;

/// The envelope constants were captured at this size.
const N: usize = 10_000;

/// Errors of one kernel, `[cloud][order]`.
fn errors<K: Kernel>(kernel: K, clouds: &[Vec<[f64; 3]>; 3]) -> [[f64; 3]; 3] {
    std::array::from_fn(|c| {
        let points = &clouds[c];
        let dens = kifmm::geom::random_densities(N, kernel.src_dim(), 7);
        let truth = direct_eval(&kernel, points, &dens);
        let errs = ORDERS.map(|order| {
            let fmm = Fmm::builder(kernel.clone())
                .points(points)
                .options(FmmOptions { order, max_pts_per_leaf: 60, ..Default::default() })
                .build();
            rel_l2_error(&fmm.eval(&dens).potentials, &truth)
        });
        println!(
            "{:>16} {:>16} {:>10.2e} {:>10.2e} {:>10.2e}",
            kernel.name(),
            CLOUDS[c],
            errs[0],
            errs[1],
            errs[2]
        );
        errs
    })
}

fn main() {
    println!(
        "Accuracy vs surface order (N = {N}, relative l2 error vs direct summation)\n\
         The paper's experiments run at 1e-5 relative error ⇒ p = 6.\n"
    );
    println!("{:>16} {:>16} {:>10} {:>10} {:>10}", "kernel", "cloud", "p = 4", "p = 6", "p = 8");
    let clouds = [
        kifmm::geom::sphere_grid(N, 8),
        kifmm::geom::uniform_cube(N, 16),
        kifmm::geom::corner_clusters(N, 2003),
    ];
    let errs = [
        errors(Laplace, &clouds),
        errors(ModifiedLaplace::new(1.0), &clouds),
        errors(Stokes::new(1.0), &clouds),
    ];
    exit_with(accuracy(&errs), "accuracy: inside the envelope, non-increasing in p");
}
