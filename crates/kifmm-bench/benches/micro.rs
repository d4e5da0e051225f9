//! Hand-rolled micro-benchmarks (no external harness) for the
//! performance-critical primitives: kernel P2P inner loops (the DownU
//! microkernel), the M2L machinery (FFT transforms and Hadamard
//! accumulation vs dense GEMV), the check-to-equivalent solves, and tree
//! construction.
//!
//! Each benchmark is timed with a warmup pass followed by adaptively many
//! iterations (targeting ~0.3 s of measurement); median, min, and mean
//! per-iteration times are printed. Run with
//! `cargo bench -p kifmm-bench` — or filter by substring:
//! `cargo bench -p kifmm-bench -- fft`.

use kifmm::core::{num_surface_points, surface_points, RAD_INNER, RAD_OUTER};
use kifmm::kernels::assemble;
use kifmm::{Fmm, FmmOptions, Kernel, Laplace, ModifiedLaplace, Stokes};
use std::time::{Duration, Instant};

/// Time `f` and print one result row. Returns the per-iteration median in
/// seconds (`None` when filtered out) so callers can derive throughput or
/// emit artifacts.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) -> Option<f64> {
    if !name.contains(filter) {
        return None;
    }
    // Warmup: run until ~50 ms has elapsed (at least once).
    let warm_start = Instant::now();
    let mut warm_iters = 0u32;
    while warm_iters == 0 || warm_start.elapsed() < Duration::from_millis(50) {
        f();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed() / warm_iters;
    // Measure: enough iterations for ~0.3 s, in [5, 1000] samples.
    let iters = (Duration::from_millis(300).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(5, 1000) as usize;
    let mut samples: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{name:<34} median {:>12} | min {:>12} | mean {:>12} | {iters} iters",
        fmt(median),
        fmt(min),
        fmt(mean)
    );
    Some(median.as_secs_f64())
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn bench_kernels(filter: &str) {
    let targets = kifmm::geom::uniform_cube(512, 1);
    let sources = kifmm::geom::uniform_cube(512, 2);
    macro_rules! bench_kernel {
        ($name:literal, $k:expr, $dim:expr) => {
            let dens = kifmm::geom::random_densities(512, $dim, 3);
            let mut out = vec![0.0; 512 * $dim];
            bench(filter, $name, || {
                out.fill(0.0);
                $k.p2p(&targets, &sources, &dens, &mut out);
                std::hint::black_box(&out);
            });
        };
    }
    bench_kernel!("p2p/laplace_512x512", Laplace, 1);
    bench_kernel!("p2p/mod_laplace_512x512", ModifiedLaplace::new(1.0), 1);
    bench_kernel!("p2p/stokes_512x512", Stokes::new(1.0), 3);
}

fn bench_fft(filter: &str) {
    for m in [8usize, 12, 16] {
        let plan = kifmm::fft::Fft3::new([m, m, m]);
        let mut data: Vec<kifmm::fft::C64> =
            (0..m * m * m).map(|i| kifmm::fft::C64::new((i as f64).sin(), 0.0)).collect();
        bench(filter, &format!("fft/fft3_{m}cubed"), || {
            plan.forward(&mut data);
            plan.inverse(&mut data);
        });
    }
    // The M2L Hadamard accumulation (DownV inner loop).
    let gsz = 12 * 12 * 12;
    let a: Vec<kifmm::fft::C64> =
        (0..gsz).map(|i| kifmm::fft::C64::new(i as f64, -(i as f64))).collect();
    let bv = a.clone();
    let mut acc = vec![kifmm::fft::C64::ZERO; gsz];
    bench(filter, "fft/hadamard_accumulate_1728", || {
        kifmm::fft::pointwise_mul_add(&mut acc, &a, &bv);
        std::hint::black_box(&acc);
    });
}

fn bench_linalg(filter: &str) {
    // The check-system pseudoinverse (p = 6 Laplace: 152×152).
    let p = 6;
    let uc = surface_points(p, RAD_OUTER, [0.0; 3], 0.5);
    let ue = surface_points(p, RAD_INNER, [0.0; 3], 0.5);
    let k = assemble(&Laplace, &uc, &ue);
    bench(filter, "linalg/pinv_152x152", || {
        std::hint::black_box(kifmm::linalg::pinv(&k));
    });
    // The translation GEMV (M2M/L2L inner op).
    let ns = num_surface_points(p);
    let x: Vec<f64> = (0..ns).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; ns];
    bench(filter, "linalg/gemv_152", || {
        kifmm::linalg::gemv(1.0, &k, &x, 0.0, &mut y);
        std::hint::black_box(&y);
    });
}

fn bench_tree(filter: &str) {
    let pts = kifmm::geom::sphere_grid(100_000, 8);
    bench(filter, "tree/octree_build_100k_s60", || {
        std::hint::black_box(kifmm::tree::Octree::build(&pts, 60, 19));
    });
    let tree = kifmm::tree::Octree::build(&pts, 60, 19);
    bench(filter, "tree/interaction_lists_100k", || {
        std::hint::black_box(kifmm::tree::build_lists(&tree));
    });
}

fn bench_fmm(filter: &str) {
    let pts = kifmm::geom::sphere_grid(10_000, 8);
    let dens = kifmm::geom::random_densities(10_000, 1, 1);
    let fmm = Fmm::builder(Laplace).points(&pts).build();
    bench(filter, "fmm/evaluate_laplace_10k_p6", || {
        std::hint::black_box(fmm.eval(&dens).potentials);
    });
    let fmm4 = Fmm::builder(Laplace)
        .points(&pts)
        .options(FmmOptions { order: 4, ..Default::default() })
        .build();
    bench(filter, "fmm/evaluate_laplace_10k_p4", || {
        std::hint::black_box(fmm4.eval(&dens).potentials);
    });
}

/// The pass-engine batching ablation: the engine runs M2L spectra and the
/// M2M/L2L GEMVs as per-level batched operations over the flat
/// `ExpansionStore` slabs; these benches time the same math done the
/// pre-refactor way (per-node `gemv` + per-node spectrum cache) on the
/// identical tree/operators, and emit `BENCH_engine_batching.json` when
/// `KIFMM_BENCH_DIR` is set. Filter: `cargo bench -p kifmm-bench -- engine`.
fn bench_engine(filter: &str) {
    use kifmm::core::{EngineWorkspace, LocalSources, SourceProvider, FIRST_FMM_LEVEL};
    use kifmm::fft::C64;
    use kifmm::runtime::Dispatch;
    use std::collections::HashMap;

    let n = 8000;
    let pts = kifmm::geom::uniform_cube(n, 5);
    let dens = vec![1.0; n];
    let order = 6;
    let fmm = Fmm::builder(Laplace)
        .points(&pts)
        .options(FmmOptions { order, max_pts_per_leaf: 60, ..Default::default() })
        .build();
    let tree = &fmm.tree;
    let depth = tree.depth();
    assert!(depth >= FIRST_FMM_LEVEL, "bench tree must reach FMM levels");
    let engine = fmm.engine(Dispatch::Serial);
    let dens_refs: [&[f64]; 1] = [&dens];
    let src = LocalSources { tree, points: fmm.morton_points(), dens: &dens_refs, src_dim: 1 };
    let mut store = engine.new_store();
    let mut ws = EngineWorkspace::default();
    engine.upward(&src, &mut store, &mut ws);

    // --- Upward translation (S2M + M2M + inversion): batched GEMMs vs the
    // --- pre-refactor per-node gemv chain.
    let translate_batched = bench(filter, "engine/translate_batched", || {
        std::hint::black_box(engine.upward(&src, &mut store, &mut ws));
    });
    let ops = &fmm.precomputed().ops;
    let ns = kifmm::core::num_surface_points(order);
    let (es, cs) = (ns, ns); // Laplace: SRC_DIM = TRG_DIM = 1
    let mut up_pn = vec![0.0; tree.num_nodes() * es];
    let mut chk = vec![0.0; cs];
    let translate_per_node = bench(filter, "engine/translate_per_node", || {
        for level in (FIRST_FMM_LEVEL..=depth).rev() {
            let lops = ops.at(level);
            for &ni in &tree.levels[level as usize] {
                let node = &tree.nodes[ni as usize];
                chk.fill(0.0);
                if node.is_leaf() {
                    let (p, d) = src.sources(ni, 0);
                    let c = tree.domain.box_center(&node.key);
                    let uc = surface_points(order, RAD_OUTER, c, lops.box_half);
                    Laplace.p2p(&uc, p, d, &mut chk);
                } else {
                    for (oct, &ci) in node.children.iter().enumerate() {
                        if ci != kifmm::tree::NO_NODE {
                            let child = up_pn[ci as usize * es..(ci as usize + 1) * es].to_vec();
                            kifmm::linalg::gemv(1.0, &lops.ue2uc[oct], &child, 1.0, &mut chk);
                        }
                    }
                }
                let slot = &mut up_pn[ni as usize * es..(ni as usize + 1) * es];
                kifmm::linalg::gemv(1.0, &lops.uc2ue, &chk, 0.0, slot);
            }
        }
        std::hint::black_box(&up_pn);
    });

    // --- FFT M2L: one contiguous per-level spectra slab vs the per-node
    // --- HashMap spectrum cache the serial evaluator used before.
    let m2l_batched = bench(filter, "engine/m2l_batched", || {
        let mut f = 0u64;
        for level in FIRST_FMM_LEVEL..=depth {
            f += engine.m2l_level(level, &mut store, &mut ws);
        }
        std::hint::black_box(f);
    });
    let fft = fmm.precomputed().m2l_fft.as_ref().expect("FFT mode");
    let g = fft.grid_len();
    let mut grid = vec![C64::ZERO; g];
    let mut slot = vec![0.0; cs];
    let m2l_per_node = bench(filter, "engine/m2l_per_node", || {
        for level in FIRST_FMM_LEVEL..=depth {
            let mut spectra: HashMap<u32, Vec<C64>> = HashMap::new();
            for &ni in &tree.levels[level as usize] {
                let vlist = &fmm.lists.v[ni as usize];
                if vlist.is_empty() {
                    continue;
                }
                grid.fill(C64::ZERO);
                let bkey = tree.nodes[ni as usize].key;
                for &a in vlist {
                    let spec = spectra.entry(a).or_insert_with(|| {
                        let mut s = vec![C64::ZERO; g];
                        let ue = &up_pn[a as usize * es..(a as usize + 1) * es];
                        fft.transform_source(ue, &mut s);
                        s
                    });
                    let dir = bkey.offset_to(&tree.nodes[a as usize].key);
                    fft.accumulate(level, dir, spec, &mut grid);
                }
                slot.fill(0.0);
                fft.extract_check(level, &mut grid, &mut slot);
                std::hint::black_box(&slot);
            }
        }
    });

    if let (Some(bat), Some(pn)) = (m2l_batched, m2l_per_node) {
        println!("engine/m2l speedup                 {:>8.3} x (per-node / batched)", pn / bat);
    }
    if let (Some(bat), Some(pn)) = (translate_batched, translate_per_node) {
        println!(
            "engine/translate speedup           {:>8.3} x (per-node / batched)",
            pn / bat
        );
    }
    if let Ok(dir) = std::env::var("KIFMM_BENCH_DIR") {
        if let (Some(mb), Some(mp), Some(tb), Some(tp)) =
            (m2l_batched, m2l_per_node, translate_batched, translate_per_node)
        {
            let json = format!(
                "{{\n  \"schema\": \"kifmm-engine-batching-v1\",\n  \"n_points\": {n},\n  \"order\": {order},\n  \"tree_depth\": {depth},\n  \"m2l_batched_median_s\": {mb:.9},\n  \"m2l_per_node_median_s\": {mp:.9},\n  \"m2l_speedup\": {:.4},\n  \"translate_batched_median_s\": {tb:.9},\n  \"translate_per_node_median_s\": {tp:.9},\n  \"translate_speedup\": {:.4},\n  \"batched_no_slower\": {}\n}}\n",
                mp / mb,
                tp / tb,
                mb <= mp,
            );
            let path = std::path::Path::new(&dir).join("BENCH_engine_batching.json");
            std::fs::create_dir_all(&dir).expect("create bench dir");
            std::fs::write(&path, json).expect("write bench artifact");
            println!("wrote {}", path.display());
        }
    }
}

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

fn bench_trace(filter: &str) {
    use kifmm::trace::{RankTracer, Tracer};
    let rt = RankTracer::disabled();
    bench(filter, "trace/disabled_span+counter_x1k", || {
        for i in 0..1000u64 {
            let _s = rt.span("Up", "bench");
            rt.add(kifmm::Counter::Flops, i);
        }
    });
    if !"trace/zero_cost_when_disabled".contains(filter) {
        return;
    }
    // Zero-cost-when-disabled assertion #1: a disabled span + counter pair
    // must be branch-cheap — no lock, no allocation, no clock read.
    let reps = 1_000_000u64;
    let t = Instant::now();
    for i in 0..reps {
        let _s = rt.span("Up", "assert");
        rt.add(kifmm::Counter::Flops, i);
        std::hint::black_box(&rt);
    }
    let per_op = t.elapsed().as_secs_f64() / reps as f64;
    println!("trace/disabled_per_op              {:>8.2} ns per span+add", per_op * 1e9);
    assert!(
        per_op < 50e-9,
        "disabled tracing must be branch-cheap, measured {:.1} ns/op",
        per_op * 1e9
    );
    // Assertion #2: even *enabled* coarse per-phase tracing stays in the
    // noise of a real evaluation, so the disabled path certainly does.
    let pts = kifmm::geom::sphere_grid(5_000, 8);
    let dens = kifmm::geom::random_densities(5_000, 1, 1);
    let base = Fmm::builder(Laplace).points(&pts).order(4).build();
    let traced =
        Fmm::builder(Laplace).points(&pts).order(4).trace(Tracer::enabled()).build();
    let ratio = median_eval(&traced, &dens) / median_eval(&base, &dens);
    println!("trace/eval_overhead                {ratio:>8.3} x (enabled / disabled)");
    // Wall-clock medians on a shared host are noisy; the bound only has
    // to catch a per-cell cost creeping into the hot loops (which would
    // show up as 2x+), not certify the ~1.00 typical reading.
    assert!(ratio < 1.25, "tracing overhead out of bounds: {ratio:.3}x");
}

fn main() {
    // `cargo bench -- <substr>` filters; `--bench`/`--exact` style flags
    // from the libtest protocol are ignored.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-')).unwrap_or_default();
    bench_kernels(&filter);
    bench_fft(&filter);
    bench_linalg(&filter);
    bench_tree(&filter);
    bench_fmm(&filter);
    bench_engine(&filter);
    bench_trace(&filter);
}
