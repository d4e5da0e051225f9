//! Tracing-cost gate for `scripts/verify.sh`: observability must be
//! near-free when off and in the noise of an evaluation when on.
//!
//! 1. A disabled span + counter pair costs < 50 ns — one branch, no lock,
//!    no allocation, no clock read.
//! 2. An evaluation with coarse per-phase tracing *enabled* takes < 1.25×
//!    the untraced one, so the disabled path certainly does.
//!
//! Exits nonzero (panics) when either bound is broken. The same two
//! quantities are *reported* by the repo benchmark as
//! `trace.disabled_span_ns` and `trace.enabled_overhead_frac`.

use kifmm::trace::{RankTracer, Tracer};
use kifmm::{Counter, Fmm, Laplace};
use std::time::Instant;

/// Median wall seconds of one full evaluation (1 warmup + 9 samples).
fn median_eval(fmm: &Fmm<Laplace>, dens: &[f64]) -> f64 {
    std::hint::black_box(fmm.eval(dens).potentials);
    let mut s: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fmm.eval(dens).potentials);
            t.elapsed().as_secs_f64()
        })
        .collect();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn main() {
    let rt = RankTracer::disabled();
    let reps = 1_000_000u64;
    let t = Instant::now();
    for i in 0..reps {
        let _s = rt.span("Up", "assert");
        rt.add(Counter::Flops, i);
        std::hint::black_box(&rt);
    }
    let per_op = t.elapsed().as_secs_f64() / reps as f64;
    println!("disabled span+counter: {:.2} ns", per_op * 1e9);
    assert!(
        per_op < 50e-9,
        "disabled tracing must be branch-cheap, measured {:.1} ns/op",
        per_op * 1e9
    );

    let pts = kifmm::geom::sphere_grid(5_000, 8);
    let dens = kifmm::geom::random_densities(5_000, 1, 1);
    let base = Fmm::builder(Laplace).points(&pts).order(4).build();
    let traced = Fmm::builder(Laplace).points(&pts).order(4).trace(Tracer::enabled()).build();
    let ratio = median_eval(&traced, &dens) / median_eval(&base, &dens);
    println!("enabled / disabled eval: {ratio:.3}x");
    // Wall-clock medians on a shared host are noisy; the bound only has
    // to catch a per-cell cost creeping into the hot loops (which would
    // show up as 2x+), not certify the ~1.00 typical reading.
    assert!(ratio < 1.25, "tracing overhead out of bounds: {ratio:.3}x");
    println!("OK");
}
