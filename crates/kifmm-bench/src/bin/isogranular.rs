//! **Table 4.2 and Figure 4.3 — isogranular scalability, one sweep.**
//!
//! Paper: 200 000 particles *per processor*, P = 1…2048; Laplace uniform,
//! Stokes uniform, Stokes non-uniform. Total time should stay roughly
//! flat (slightly decreasing — M2L work drops as the 512-sphere set turns
//! locally non-uniform at scale), while tree Gen/Comm grows with P;
//! Figure 4.3 plots *the same runs* per stage.
//!
//! Reproduction: `KIFMM_GRAIN` particles per rank (default 2 500), ranks
//! up to `KIFMM_MAXP` (default 32); each series is swept once and printed
//! as the table and as the figure. The exit status is the verdict of
//! [`kifmm_bench::gates::isogranular`].
//! `cargo run --release -p kifmm-bench --bin isogranular`.

use kifmm::{Laplace, Stokes};
use kifmm_bench::{env_usize, exit_with, gates, print_figure, print_table, rank_sweep, sweep};

fn main() {
    let grain = env_usize("KIFMM_GRAIN", 2_500);
    let ranks = rank_sweep(32);
    println!(
        "Table 4.2 / Figure 4.3 reproduction — isogranular scalability, {grain} particles/rank\n\
         (paper: 200k/processor on up to 2048 CPUs)"
    );
    let spheres = |p: usize| kifmm::geom::sphere_grid(grain * p, 8);
    let corners = |p: usize| kifmm::geom::corner_clusters(grain * p, 2003);
    let series = [
        ("Laplacian kernel, uniform particle distribution", sweep(Laplace, spheres, &ranks)),
        ("Stokes kernel, uniform particle distribution", sweep(Stokes::new(1.0), spheres, &ranks)),
        (
            "Stokes kernel, non-uniform particle distribution",
            sweep(Stokes::new(1.0), corners, &ranks),
        ),
    ];
    println!("\nTable 4.2");
    series.iter().for_each(|(title, rows)| print_table(title, rows));
    println!("\nFigure 4.3 (aggregate CPU µs/particle per stage)");
    series.iter().for_each(|(title, rows)| print_figure(title, rows));
    exit_with(gates::isogranular(&series), "isogranular: Table 4.2 / Figure 4.3 shapes hold");
}
