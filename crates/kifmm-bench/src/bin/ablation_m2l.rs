//! **Ablation — FFT vs dense M2L** (paper footnote 5).
//!
//! "We could easily increase the flop rate by switching from the
//! algorithmically fast, but implementationally slower FFT M2L
//! translations to the slower direct evaluation. But the speed gains are
//! negligible compared to the algorithmic savings."
//!
//! The footnote is about the M2L pass, so that is what this binary
//! measures: one plan, one upward pass, and from the same `store.up`
//! every M2L level twice — through the engine's FFT path
//! (`PassEngine::m2l_level`) and through the dense reference
//! (`kifmm_core::m2l::DenseM2l::sweep`, one GEMV per V-list pair, its
//! operators assembled outside the timed region; the FFT path's
//! workspace is warmed outside it too, as a session's pooled one is). It
//! prints both paths' thread-CPU seconds, counted flops and flop rates,
//! and the worst per-level disagreement of their check potentials (the
//! relative L2 error over the level's boxes). What the footnote
//! concludes is what is gated: dense M2L burns *far more flops*, so
//! whatever rate its clean GEMV streams reach, the FFT path wins on time.
//! (In the paper the FFT path also ran at the lower flop rate; here the
//! frequency-chunk-major Hadamard stage runs above the dense GEMV's rate,
//! so the rates are reported and not gated.)
//!
//! The binary is its own gate: in every case each level's FFT and dense
//! check potentials must agree to 1e-9, and at `p = 6` the dense path
//! must count more flops *and* take longer than the FFT path. It exits
//! non-zero otherwise.
//!
//! `cargo run --release -p kifmm-bench --bin ablation_m2l`
//! (`KIFMM_N` default 40 000).

use kifmm::core::m2l::DenseM2l;
use kifmm::core::{thread_cpu_time, EngineWorkspace, LocalSources, FIRST_FMM_LEVEL};
use kifmm::runtime::Dispatch;
use kifmm::{rel_l2_error, Fmm, FmmOptions, Kernel, Laplace, Stokes};
use kifmm_bench::env_usize;

/// One path's M2L pass over every level.
#[derive(Default)]
struct Pass {
    seconds: f64,
    flops: u64,
}

impl Pass {
    /// Run `f`, adding its thread-CPU seconds and returned flops.
    fn time(&mut self, f: impl FnOnce() -> u64) {
        let t0 = thread_cpu_time();
        self.flops += f();
        self.seconds += thread_cpu_time() - t0;
    }

    fn print(&self, tag: &str, path: &str) {
        let mflops = self.flops as f64 / 1e6;
        println!(
            "{tag} {path:>5} M2L: {:>8.3}s {:>9.0} Mflop {:>9.0} Mflop/s",
            self.seconds,
            mflops,
            mflops / self.seconds.max(1e-12)
        );
    }
}

/// Run one (kernel, order) case; returns the violated expectations.
fn case<K: Kernel>(kernel: K, points: &[[f64; 3]], order: usize) -> Vec<String> {
    let tag = format!("{:>8} p={order}", kernel.name());
    let sd = kernel.src_dim();
    let opts = FmmOptions { order, max_pts_per_leaf: 60, ..Default::default() };
    let plan = Fmm::builder(kernel.clone()).points(points).options(opts).plan();
    let (tree, lists) = (&plan.tree, &plan.lists);
    let engine = plan.engine(Dispatch::Serial);

    // The shared input: the upward equivalents of random densities.
    let dens = tree.to_morton(&kifmm::geom::random_densities(points.len(), sd, 3), sd);
    let src = LocalSources { tree, points: plan.morton_points(), dens: &[&dens], src_dim: sd };
    let (mut fft_store, mut ws) = (engine.new_store(), EngineWorkspace::default());
    engine.upward(&src, &mut fft_store, &mut ws);
    let copy = || {
        let mut store = engine.new_store();
        store.up.clone_from(&fft_store.up);
        store
    };
    let mut dense_store = copy();
    // A session's pooled workspace is warm: grow its level-sized buffers
    // outside the measurement, on a discarded copy of the input.
    let mut warm = copy();
    for level in FIRST_FMM_LEVEL..=tree.depth() {
        engine.m2l_level(level, &mut warm, &mut ws);
    }

    let (_, _, cs) = engine.dims();
    let (mut fft, mut dense, mut worst) = (Pass::default(), Pass::default(), 0.0f64);
    for level in FIRST_FMM_LEVEL..=tree.depth() {
        let ops = DenseM2l::assemble(&kernel, order, tree.domain.box_half(level));
        fft.time(|| engine.m2l_level(level, &mut fft_store, &mut ws));
        dense.time(|| ops.sweep(tree, lists, level, &mut dense_store));
        let rows = fft_store.rows().local_level(level);
        let slab = rows.start * cs..rows.end * cs;
        let err = rel_l2_error(&fft_store.check[slab.clone()], &dense_store.check[slab]);
        if err.is_nan() || err > worst {
            worst = err;
        }
    }
    fft.print(&tag, "FFT");
    dense.print(&tag, "dense");
    println!(
        "{tag} summary: dense does {:.1}x the flops; FFT is {:.1}x faster in time; \
         worst per-level check disagreement {worst:.1e}\n",
        dense.flops as f64 / fft.flops as f64,
        dense.seconds / fft.seconds
    );

    let mut failures = Vec::new();
    if worst.is_nan() || worst > 1e-9 {
        failures.push(format!("{tag}: FFT vs dense check potentials differ by {worst:.3e}"));
    }
    if order == 6 {
        if dense.flops <= fft.flops {
            failures.push(format!(
                "{tag}: dense counted {} flops, FFT {} — dense must count more",
                dense.flops, fft.flops
            ));
        }
        if dense.seconds <= fft.seconds {
            failures.push(format!(
                "{tag}: dense took {:.3} s, FFT {:.3} s — FFT must win on time",
                dense.seconds, fft.seconds
            ));
        }
    }
    failures
}

fn main() {
    let n = env_usize("KIFMM_N", 40_000);
    println!("M2L ablation (paper footnote 5): FFT vs dense M2L pass, N = {n}\n");
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
