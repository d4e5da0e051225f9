//! **Ablation — FFT vs dense M2L** (paper footnote 5).
//!
//! "We could easily increase the flop rate by switching from the
//! algorithmically fast, but implementationally slower FFT M2L
//! translations to the slower direct evaluation. But the speed gains are
//! negligible compared to the algorithmic savings."
//!
//! This binary measures both M2L execution paths on the same tree and
//! reports the DownV phase's time, counted flops, and flop rate. What the
//! footnote concludes is what is gated: dense M2L burns *far more flops*,
//! so whatever rate its clean GEMV streams reach, the FFT path wins on
//! time. (In the paper the FFT path also ran at the lower flop rate; here
//! the frequency-chunk-major Hadamard stage runs above the dense GEMV's
//! rate, so the rates are reported and not gated.)
//!
//! The binary is its own gate: every case must produce FFT and dense
//! potentials that agree to 1e-9, and at `p = 6` the dense path must
//! count more flops *and* take longer than the FFT path. It exits
//! non-zero otherwise.
//!
//! `cargo run --release -p kifmm-bench --bin ablation_m2l`
//! (`KIFMM_N` default 40 000).

use kifmm::{rel_l2_error, Fmm, FmmOptions, Kernel, Laplace, M2lMode, Phase, Stokes};
use kifmm_bench::env_usize;

/// Measured DownV numbers for one mode.
struct Measured {
    seconds: f64,
    flops: u64,
    potentials: Vec<f64>,
}

impl Measured {
    fn mflops(&self) -> f64 {
        self.flops as f64 / self.seconds.max(1e-12) / 1e6
    }
}

fn measure<K: Kernel>(kernel: &K, points: &[[f64; 3]], order: usize, mode: M2lMode) -> Measured {
    let dens = kifmm::geom::random_densities(points.len(), kernel.src_dim(), 3);
    let fmm = Fmm::builder(kernel.clone())
        .points(points)
        .options(FmmOptions { order, max_pts_per_leaf: 60, m2l_mode: mode, ..Default::default() })
        .build();
    // Warm the lazy dense cache outside the measurement.
    let _ = fmm.eval(&dens);
    let report = fmm.eval(&dens);
    let m = Measured {
        seconds: report.stats.seconds[Phase::DownV as usize],
        flops: report.stats.flops[Phase::DownV as usize],
        potentials: report.potentials,
    };
    println!(
        "{:>8} p={order} {:>7} M2L: DownV {:>8.3}s {:>9} Mflop {:>9.0} Mflop/s",
        kernel.name(),
        format!("{mode:?}"),
        m.seconds,
        m.flops / 1_000_000,
        m.mflops()
    );
    m
}

/// Run one (kernel, order) case; returns the violated expectations.
fn case<K: Kernel>(kernel: K, points: &[[f64; 3]], order: usize) -> Vec<String> {
    let fft = measure(&kernel, points, order, M2lMode::Fft);
    let direct = measure(&kernel, points, order, M2lMode::Direct);
    let err = rel_l2_error(&fft.potentials, &direct.potentials);
    println!(
        "{:>8} p={order} summary: dense does {:.1}x the flops; FFT is {:.1}x faster in time; \
         potentials agree to {err:.1e}\n",
        kernel.name(),
        direct.flops as f64 / fft.flops as f64,
        direct.seconds / fft.seconds
    );
    let tag = format!("{} p={order}", kernel.name());
    let mut failures = Vec::new();
    if err.is_nan() || err > 1e-9 {
        failures.push(format!("{tag}: FFT vs dense potentials differ by {err:.3e} (> 1e-9)"));
    }
    if order == 6 {
        if direct.flops <= fft.flops {
            failures.push(format!(
                "{tag}: dense counted {} flops, FFT {} — dense must count more",
                direct.flops, fft.flops
            ));
        }
        if direct.seconds <= fft.seconds {
            failures.push(format!(
                "{tag}: dense took {:.3} s, FFT {:.3} s — FFT must win on time",
                direct.seconds, fft.seconds
            ));
        }
    }
    failures
}

fn main() {
    let n = env_usize("KIFMM_N", 40_000);
    println!("M2L ablation (paper footnote 5): FFT vs dense translation, N = {n}\n");
    let points = kifmm::geom::sphere_grid(n, 8);
    let mut failures = case(Laplace, &points, 4);
    failures.extend(case(Laplace, &points, 6));
    failures.extend(case(Stokes::new(1.0), &points, 4));
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("m2l ablation: paper footnote-5 shape holds");
}
