//! Kernel-family sweep: accuracy and gradient overhead for every kernel.
//!
//! One row per kernel — Laplace, ModifiedLaplace, Stokes, Kelvin,
//! Gaussian — each held to the example's own gate ([`gate`]; exits
//! non-zero when a row breaks it — P2P and eval *rates* are measured by
//! the repo benchmark, `kernels.*` in `BENCHMARK.json`):
//!
//! 1. **Accuracy** — potentials and gradients against the fused direct
//!    sum on a sampled target subset (full direct at N = 40k would be
//!    O(N²) per kernel; a few hundred targets give the same relative
//!    error statistic), inside the order-6 envelope: potentials < 1e-3,
//!    gradients < 1e-2 (they differentiate the representation, losing
//!    roughly one order);
//! 2. **Gradient overhead** — wall time of a `PotentialAndGradient`
//!    eval over a potential-only eval on the same geometry. Far-field
//!    gradients ride the existing equivalent densities, so the overhead
//!    is the fused near-field loops plus the ∇G reads in L2T/W — the
//!    bound is ≤ 2.5× (N = 40k lands near 1.2×).
//!
//! ```text
//! cargo run --release --example kernel_suite
//! KIFMM_N=8000 cargo run --release --example kernel_suite
//! ```

use kifmm::{
    direct_eval_grad_src_trg, rel_l2_error, Fmm, Gaussian, Kelvin, Kernel, Laplace,
    ModifiedLaplace, OutputSpec, Stokes,
};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Order-6 accuracy envelope (relative l2 error against the direct sum).
const MAX_POT_ERR: f64 = 1e-3;
const MAX_GRAD_ERR: f64 = 1e-2;
/// A fused `PotentialAndGradient` eval may cost at most this multiple of a
/// potential-only eval.
const MAX_GRAD_OVERHEAD: f64 = 2.5;

/// One kernel's verdict: both errors inside the envelope (a NaN is
/// outside), and gradients riding the existing equivalents rather than
/// recomputing the pipeline.
fn gate(kernel: &str, pot_err: f64, grad_err: f64, overhead: f64) -> Result<(), String> {
    for (what, err, bound) in
        [("potential", pot_err, MAX_POT_ERR), ("gradient", grad_err, MAX_GRAD_ERR)]
    {
        if err.is_nan() || err >= bound {
            return Err(format!(
                "{kernel}: {what} error {err:.3e} outside the order-6 envelope (< {bound:e})"
            ));
        }
    }
    if overhead.is_nan() || overhead > MAX_GRAD_OVERHEAD {
        return Err(format!(
            "{kernel}: gradient-overhead regression, the fused eval took {overhead:.3}× the \
             potential-only eval (bound {MAX_GRAD_OVERHEAD})"
        ));
    }
    Ok(())
}

/// Measure one kernel and return its [`gate`] verdict.
fn run_kernel<K: Kernel>(
    kernel: K,
    points: &[[f64; 3]],
    order: usize,
    leaf: usize,
    samples: usize,
) -> Result<(), String> {
    let n = points.len();
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    let name = kernel.name();
    let dens = kifmm::geom::random_densities(n, sd, 11);

    // Potential-only and fused plans over the same geometry.
    let pot_fmm = Fmm::builder(kernel.clone())
        .points(points)
        .order(order)
        .max_pts_per_leaf(leaf)
        .build();
    let grad_fmm = Fmm::builder(kernel.clone())
        .points(points)
        .order(order)
        .max_pts_per_leaf(leaf)
        .output(OutputSpec::PotentialAndGradient)
        .build();

    // One timed eval per mode; each session's first eval carries its own
    // (symmetric) scratch allocation.
    let t = Instant::now();
    let pot_report = pot_fmm.eval(&dens);
    let potential_seconds = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let grad_report = grad_fmm.eval(&dens);
    let gradient_seconds = t.elapsed().as_secs_f64();
    let overhead_ratio = gradient_seconds / potential_seconds;

    // Accuracy on a strided target sample against the fused direct sum.
    let stride = (n / samples).max(1);
    let sample: Vec<usize> = (0..n).step_by(stride).collect();
    let targets: Vec<[f64; 3]> = sample.iter().map(|&i| points[i]).collect();
    let (truth_pot, truth_grad) = direct_eval_grad_src_trg(&kernel, points, &dens, &targets);
    let mut fmm_pot = Vec::with_capacity(sample.len() * td);
    let mut fmm_grad = Vec::with_capacity(sample.len() * td * 3);
    for &i in &sample {
        fmm_pot.extend_from_slice(&pot_report.potentials[i * td..(i + 1) * td]);
        fmm_grad.extend_from_slice(&grad_report.gradients[i * td * 3..(i + 1) * td * 3]);
    }
    let pot_rel_err = rel_l2_error(&fmm_pot, &truth_pot);
    let grad_rel_err = rel_l2_error(&fmm_grad, &truth_grad);

    println!(
        "{name:<18} pot {potential_seconds:>7.3}s  grad {gradient_seconds:>7.3}s  \
         ratio {overhead_ratio:>5.2}  pot err {pot_rel_err:.2e}  grad err {grad_rel_err:.2e}"
    );
    gate(name, pot_rel_err, grad_rel_err, overhead_ratio)
}

fn main() {
    let n = env_usize("KIFMM_N", 40_000);
    let order = env_usize("KIFMM_ORDER", 6);
    let samples = env_usize("KIFMM_SAMPLES", 200);
    println!("kernel suite — N = {n}, order {order}, {samples} sampled targets\n");

    let points = kifmm::geom::uniform_cube(n, 8);
    let leaf = env_usize("KIFMM_LEAF", 60);
    let verdicts = [
        run_kernel(Laplace, &points, order, leaf, samples),
        run_kernel(ModifiedLaplace::new(1.5), &points, order, leaf, samples),
        run_kernel(Stokes::default(), &points, order, leaf, samples),
        run_kernel(Kelvin::new(1.0, 0.3), &points, order, leaf, samples),
        // RBF bandwidth commensurate with the coarsest FMM boxes: a σ far
        // below the level-2 box width (0.5 here) varies too sharply for the
        // order-6 equivalent surface and caps the accuracy of every deeper
        // level, so the suite sweeps the bandwidth regime the tree resolves.
        run_kernel(Gaussian::new(0.8), &points, order, leaf, samples),
    ];

    let failures: Vec<String> = verdicts.into_iter().filter_map(Result::err).collect();
    if !failures.is_empty() {
        for why in &failures {
            eprintln!("FAIL: {why}");
        }
        std::process::exit(1);
    }
    println!("\nOK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_holds_the_accuracy_envelope_and_the_gradient_overhead() {
        let just_inside = |b: f64| b * (1.0 - 1e-12);
        let (pot, grad) = (just_inside(MAX_POT_ERR), just_inside(MAX_GRAD_ERR));
        assert!(gate("k", pot, grad, MAX_GRAD_OVERHEAD).is_ok());
        assert!(gate("k", MAX_POT_ERR, grad, 1.2).is_err());
        assert!(gate("k", pot, MAX_GRAD_ERR, 1.2).is_err());
        assert!(gate("k", pot, grad, MAX_GRAD_OVERHEAD + 1e-9).is_err());
        assert!(gate("k", f64::NAN, grad, 1.2).is_err());
        assert!(gate("k", pot, grad, f64::NAN).is_err());
    }
}
