//! **Table 4.1 and Figure 4.2 — fixed-size scalability, one sweep.**
//!
//! Paper: 3.2 M particles, P = 1…1024, three kernels (Laplacian and
//! modified Laplacian on the uniform 512-sphere set, Stokes on the
//! non-uniform corner-clustered set); Table 4.1 has Total/Ratio/Comm/Up/
//! Down/Avg/Peak/Gen-Comm, Figure 4.2 plots *the same runs* as aggregate
//! CPU cycles per particle per stage plus Mflop/s per processor.
//!
//! Reproduction (1/67-scale by default): `KIFMM_N` particles (default
//! 48 000), virtual ranks up to `KIFMM_MAXP` (default 32), `s = 60`,
//! `p = 6`. Each series is swept over P once and printed three ways: the
//! table, the figure, and — the attribution of the figure's work
//! inflation — per phase the Σ-rank counted flops and the CPU time, each
//! over its P = 1 value. One extra *traced* P = 4 evaluation (outside
//! every timed row) leaves a chrome trace, one track per rank, in
//! `target/bench-artifacts/TRACE_fixed_size_P4.json`.
//!
//! The exit status is the verdict of [`kifmm_bench::gates::fixed_size`].
//! `cargo run --release -p kifmm-bench --bin fixed_size`.

use kifmm::tree::partition_points;
use kifmm::{Laplace, ModifiedLaplace, Stokes, Tracer};
use kifmm_bench::{
    env_usize, exit_with, gates, paper_opts, print_figure, print_inflation, print_table,
    rank_sweep, run_distributed, sweep,
};

fn main() {
    let n = env_usize("KIFMM_N", 48_000);
    let ranks = rank_sweep(32);
    println!(
        "Table 4.1 / Figure 4.2 reproduction — fixed-size scalability, N = {n}, s = 60, p = 6\n\
         (paper: 3.2M particles on the PSC TCS-1; this run: virtual ranks,\n\
         thread-CPU compute time + Quadrics-model comm time; see DESIGN.md)"
    );
    let uniform = kifmm::geom::sphere_grid(n, 8);
    let clustered = kifmm::geom::corner_clusters(n, 2003);
    let series = [
        (
            "Laplacian kernel, uniform 512-sphere distribution",
            sweep(Laplace, |_| uniform.clone(), &ranks),
        ),
        (
            "Modified Laplacian kernel, uniform 512-sphere distribution",
            sweep(ModifiedLaplace::new(1.0), |_| uniform.clone(), &ranks),
        ),
        (
            "Stokes kernel, non-uniform corner-clustered distribution",
            sweep(Stokes::new(1.0), |_| clustered.clone(), &ranks),
        ),
    ];
    println!("\nTable 4.1");
    series.iter().for_each(|(title, rows)| print_table(title, rows));
    println!("\nFigure 4.2 (aggregate CPU µs/particle per stage; paper plots cycles/particle)");
    series.iter().for_each(|(title, rows)| print_figure(title, rows));
    series.iter().for_each(|(title, rows)| print_inflation(title, rows));

    let trace = Tracer::enabled();
    run_distributed(Laplace, &uniform, &partition_points(&uniform, 4), paper_opts(60), 1, &trace);
    let dir = std::path::Path::new("target/bench-artifacts");
    let path = dir.join("TRACE_fixed_size_P4.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.chrome_trace_json()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {} (open in ui.perfetto.dev)", path.display());

    exit_with(
        gates::fixed_size(&series[..2], &series[2]),
        "fixed-size: Table 4.1 / Figure 4.2 shapes hold",
    );
}
