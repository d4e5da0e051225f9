//! The micro rows of the per-layer suite: each substrate crate called at
//! the shapes the FMM calls it, independent of the workload. Times are
//! min-of-k wall; rates come with the roof they are measured against.

use crate::host::{nproc, Calibration};
use crate::stats::fmin;
use crate::traced::Metrics;
use crate::workloads::{jittered, timed, with_threads};
use kifmm::core::{surface_points, RAD_INNER, RAD_OUTER};
use kifmm::fft::{pointwise_mul_add, Fft3, C64};
use kifmm::geom::Rng;
use kifmm::kernels::assemble;
use kifmm::mpi::{allreduce_f64, barrier, sample_sort_u64, ReduceOp};
use kifmm::trace::RankTracer;
use kifmm::{CustomKernel, Gaussian, Kelvin, Kernel, Laplace, ModifiedLaplace, Point3, Stokes};
use std::hint::black_box;
use std::time::Instant;

/// Fastest of `k` calls, in seconds.
fn best_of(k: usize, mut f: impl FnMut()) -> f64 {
    fmin((0..k).map(|_| timed(&mut f).1))
}

/// Seconds per call of a short `f`: seven batches of about 2 ms, fastest
/// batch.
fn per_call(mut f: impl FnMut()) -> f64 {
    let one = timed(&mut f).1.max(1e-9);
    let batch = ((2e-3 / one) as usize).clamp(1, 100_000);
    best_of(7, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

fn seeded(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

fn linalg(cal: &Calibration, m: &mut Metrics) {
    // `gemm_slices` as the engine calls it: one translation operator
    // (n_s·dim square) applied to a level's worth of expansion columns.
    const COLS: usize = 512;
    let gemm = |dim: usize| {
        let a = seeded(dim * dim, 11);
        let b = seeded(dim * COLS, 12);
        let mut c = vec![0.0; dim * COLS];
        let secs = best_of(5, || {
            kifmm::linalg::gemm_slices(1.0, &a, &b, 0.0, &mut c, dim, dim, COLS);
            black_box(&mut c);
        });
        (2 * dim * dim * COLS) as f64 / secs * 1e-9
    };
    let g152 = gemm(152);
    m.set("linalg.gemm_152_gflops", g152);
    m.set("linalg.gemm_456_gflops", gemm(456));
    m.set("linalg.gemm_56_gflops", gemm(56));
    // Computed bytes: A and B read once, C read and written.
    let bytes = 8 * (152 * 152 + 152 * COLS + 2 * 152 * COLS);
    m.set(
        "linalg.gemm_152_roof_frac",
        cal.roof_frac(g152, (2 * 152 * 152 * COLS) as f64 / bytes as f64),
    );

    // The check-to-equivalent systems of p = 6: Laplace 152², Stokes 456².
    let uc = surface_points(6, RAD_OUTER, [0.0; 3], 0.5);
    let ue = surface_points(6, RAD_INNER, [0.0; 3], 0.5);
    let k152 = assemble(&Laplace, &uc, &ue);
    let x = seeded(k152.cols(), 13);
    let mut y = vec![0.0; k152.rows()];
    m.set(
        "linalg.gemv_152_us",
        per_call(|| {
            kifmm::linalg::gemv(1.0, &k152, &x, 0.0, &mut y);
            black_box(&mut y);
        }) * 1e6,
    );
    m.set("linalg.pinv_152_s", best_of(3, || drop(black_box(kifmm::linalg::pinv(&k152)))));
    let k456 = assemble(&Stokes::new(1.0), &uc, &ue);
    m.set("linalg.pinv_456_s", best_of(1, || drop(black_box(kifmm::linalg::pinv(&k456)))));
}

fn fft(cal: &Calibration, m: &mut Metrics) {
    // Forward transform of a grid whose [0,p)³ corner is populated — what
    // `M2lFft::transform_source` hands the plan — and the corner-pruned
    // inverse `extract_check` takes back.
    let forward = |side: usize| {
        let plan = Fft3::new([side; 3]);
        let mut pristine = vec![C64::ZERO; side * side * side];
        let p = side / 2;
        for (i, v) in seeded(p * p * p, 21).into_iter().enumerate() {
            let (a, b, c) = (i / (p * p), (i / p) % p, i % p);
            pristine[(a * side + b) * side + c] = C64::real(v);
        }
        let mut data = pristine.clone();
        per_call(|| {
            data.copy_from_slice(&pristine);
            plan.forward(&mut data);
            black_box(&mut data);
        }) * 1e6
    };
    m.set("fft.fft3_fwd_12_us", forward(12));
    m.set("fft.fft3_fwd_8_us", forward(8));
    let plan = Fft3::new([12; 3]);
    let spectrum: Vec<C64> = seeded(2 * 1728, 22).chunks(2).map(|c| C64::new(c[0], c[1])).collect();
    let mut data = spectrum.clone();
    m.set(
        "fft.fft3_inv_corner_12_us",
        per_call(|| {
            data.copy_from_slice(&spectrum);
            plan.inverse_corner_unnormalized(&mut data, [6; 3]);
            black_box(&mut data);
        }) * 1e6,
    );

    // Hadamard accumulate the way one M2L target sees it: 316 direction
    // tensors against a rotating set of source spectra, 1 728-point grids.
    // 316 + 64 grids = 10 MiB: past L2, as in the engine.
    const GRID: usize = 1728;
    const KERNELS: usize = 316;
    const SOURCES: usize = 64;
    let grids = |count: usize, seed: u64| -> Vec<C64> {
        seeded(2 * count * GRID, seed).chunks(2).map(|c| C64::new(c[0], c[1])).collect()
    };
    let (kernels, sources) = (grids(KERNELS, 23), grids(SOURCES, 24));
    let mut acc = vec![C64::ZERO; GRID];
    let secs = best_of(5, || {
        acc.fill(C64::ZERO);
        for i in 0..KERNELS {
            let j = i % SOURCES;
            pointwise_mul_add(
                &mut acc,
                &kernels[i * GRID..(i + 1) * GRID],
                &sources[j * GRID..(j + 1) * GRID],
            );
        }
        black_box(&mut acc);
    });
    // Per point: 8 flops; kernel + source read, accumulator read and
    // written = 64 computed bytes.
    let points = (KERNELS * GRID) as f64;
    let (gflops, gbs) = (8.0 * points / secs * 1e-9, 64.0 * points / secs * 1e-9);
    m.set("fft.hadamard_gflops", gflops);
    m.set("fft.hadamard_gbs", gbs);
    m.set("fft.hadamard_intensity", 8.0 / 64.0);
    m.set("fft.hadamard_roof_frac", cal.roof_frac(gflops, 8.0 / 64.0));
}

/// 512 × 512 blocks; a rate counts pair interactions per right-hand side.
const BLOCK: usize = 512;

struct Block {
    targets: Vec<Point3>,
    sources: Vec<Point3>,
}

/// Million pair interactions per second of `p2p`, `p2p_many` (k = 8) and
/// `p2p_grad`, stored under `names` in that order (`None` skips a row).
fn kernel_rows<K: Kernel>(
    kernel: &K,
    block: &Block,
    names: [Option<&'static str>; 3],
    m: &mut Metrics,
) -> f64 {
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    let dens: Vec<Vec<f64>> =
        (0..8).map(|q| kifmm::geom::random_densities(BLOCK, sd, 30 + q)).collect();
    let pairs = (BLOCK * BLOCK) as f64;
    let mut out = vec![0.0; BLOCK * td];
    let plain = per_call(|| {
        out.fill(0.0);
        kernel.p2p(&block.targets, &block.sources, &dens[0], &mut out);
        black_box(&mut out);
    });
    if let Some(name) = names[0] {
        m.set(name, pairs / plain * 1e-6);
    }
    if let Some(name) = names[1] {
        let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
        let mut outs: Vec<Vec<f64>> = (0..8).map(|_| vec![0.0; BLOCK * td]).collect();
        let secs = per_call(|| {
            let mut out_refs: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
            kernel.p2p_many(&block.targets, &block.sources, &refs, &mut out_refs);
            black_box(&mut out_refs);
        });
        m.set(name, 8.0 * pairs / secs * 1e-6);
    }
    if let Some(name) = names[2] {
        let mut grad = vec![0.0; BLOCK * td * 3];
        let secs = per_call(|| {
            kernel.p2p_grad(&block.targets, &block.sources, &dens[0], &mut out, &mut grad);
            black_box((&mut out, &mut grad));
        });
        m.set(name, pairs / secs * 1e-6);
    }
    // Gflop/s of the plain loop, for the roofline rows.
    pairs * kernel.flops_per_eval() as f64 / plain * 1e-9
}

fn kernels(cal: &Calibration, m: &mut Metrics) {
    let block = Block {
        targets: kifmm::geom::uniform_cube(BLOCK, 1),
        sources: kifmm::geom::uniform_cube(BLOCK, 2),
    };
    macro_rules! rows {
        ($kernel:expr, $name:literal) => {
            kernel_rows(
                &$kernel,
                &block,
                [
                    Some(concat!("kernels.", $name, ".p2p_mpairs")),
                    Some(concat!("kernels.", $name, ".p2p_many8_mpairs")),
                    Some(concat!("kernels.", $name, ".p2p_grad_mpairs")),
                ],
                m,
            )
        };
    }
    let laplace = rows!(Laplace, "laplace");
    rows!(ModifiedLaplace::new(1.0), "modified_laplace");
    let stokes = rows!(Stokes::new(1.0), "stokes");
    rows!(Kelvin::new(1.0, 0.3), "kelvin");
    rows!(Gaussian::new(0.8), "gaussian");
    // A user closure through the generic (unfused) loop.
    let closure = CustomKernel::new("bench-laplace", 1, 1, Some(-1.0), |x, y, block| {
        let d = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        block[0] = if r2 > 0.0 { 1.0 / (4.0 * std::f64::consts::PI * r2.sqrt()) } else { 0.0 };
    });
    kernel_rows(&closure, &block, [Some("kernels.custom.p2p_mpairs"), None, None], m);
    // A 512² block reads 24 KiB for 10⁶–10⁷ flops: compute-bound.
    m.set("kernels.laplace.p2p_roof_frac", cal.roof_frac(laplace, f64::INFINITY));
    m.set("kernels.stokes.p2p_roof_frac", cal.roof_frac(stokes, f64::INFINITY));
}

fn tree(m: &mut Metrics) {
    let points = kifmm::geom::sphere_grid(400_000, 8);
    let (leaf, max_level) = (60, 12);
    m.set(
        "tree.octree_build_s",
        best_of(2, || drop(black_box(kifmm::tree::Octree::build(&points, leaf, max_level)))),
    );
    let octree = kifmm::tree::Octree::build(&points, leaf, max_level);
    m.set("tree.lists_build_s", best_of(2, || drop(black_box(kifmm::tree::build_lists(&octree)))));
    let moved = jittered(&points, octree.domain.center);
    m.set(
        "tree.update_s",
        best_of(2, || {
            let updated = kifmm::tree::update_octree(&octree, &moved, leaf, max_level);
            black_box(updated.expect("jitter stays inside the domain"));
        }),
    );
    m.set(
        "tree.partition_s",
        best_of(2, || drop(black_box(kifmm::tree::partition_points(&points, 8)))),
    );
}

fn mpi(m: &mut Metrics) {
    const PINGS: usize = 2000;
    const STREAM_MESSAGES: usize = 64;
    const STREAM_BYTES: usize = 1 << 20;
    const REDUCES: usize = 1000;
    const KEYS_PER_RANK: usize = 200_000;
    let per_rank = kifmm::mpi::run(2, |comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let token = [0u8; 8];

        barrier(comm);
        let t = Instant::now();
        for _ in 0..PINGS {
            if me == 0 {
                comm.send(peer, 1, &token);
                comm.recv(peer, 2);
            } else {
                comm.recv(peer, 1);
                comm.send(peer, 2, &token);
            }
        }
        let pingpong = t.elapsed().as_secs_f64() / (2 * PINGS) as f64;

        let payload = vec![7u8; STREAM_BYTES];
        barrier(comm);
        let t = Instant::now();
        for _ in 0..STREAM_MESSAGES {
            if me == 0 {
                comm.send(peer, 3, &payload);
            } else {
                black_box(comm.recv(peer, 3));
            }
        }
        barrier(comm);
        let stream = (STREAM_MESSAGES * STREAM_BYTES) as f64 / t.elapsed().as_secs_f64();

        let mut value = [1.0f64];
        barrier(comm);
        let t = Instant::now();
        for _ in 0..REDUCES {
            allreduce_f64(comm, &mut value, ReduceOp::Max);
        }
        let allreduce = t.elapsed().as_secs_f64() / REDUCES as f64;

        let mut rng = Rng::seed_from_u64(40 + me as u64);
        let mut keys: Vec<u64> = (0..KEYS_PER_RANK).map(|_| rng.next_u64()).collect();
        keys.sort_unstable();
        barrier(comm);
        let t = Instant::now();
        black_box(sample_sort_u64(comm, &keys));
        barrier(comm);
        let sort = (2 * KEYS_PER_RANK) as f64 / t.elapsed().as_secs_f64();
        (pingpong, stream, allreduce, sort)
    });
    let (pingpong, stream, allreduce, sort) = per_rank[0];
    m.set("mpi.pingpong_us", pingpong * 1e6);
    m.set("mpi.stream_gbs", stream * 1e-9);
    m.set("mpi.allreduce_us", allreduce * 1e6);
    m.set("mpi.sample_sort_mkeys", sort * 1e-6);
}

fn runtime_and_trace(m: &mut Metrics) {
    // An empty fork/join region over every core: what one `Dispatch::Pool`
    // level costs before it does any work.
    let threads = nproc();
    m.set(
        "runtime.par_dispatch_us",
        with_threads(threads, || {
            per_call(|| {
                kifmm::runtime::par_index(threads, |i| {
                    black_box(i);
                })
            })
        }) * 1e6,
    );
    let off = RankTracer::disabled();
    const OPS: u64 = 1_000_000;
    let secs = best_of(3, || {
        for i in 0..OPS {
            let _span = off.span("Up", "bench");
            off.add(kifmm::Counter::Flops, i);
            black_box(&off);
        }
    });
    m.set("trace.disabled_span_ns", secs / OPS as f64 * 1e9);
}

/// Every workload-independent row.
pub fn micro_suite(cal: &Calibration, m: &mut Metrics) {
    m.set("host.fma_gflops", cal.fma_gflops);
    m.set("host.triad_gbs", cal.triad_gbs);
    m.set("host.l2_gbs", cal.l2_gbs);
    linalg(cal, m);
    fft(cal, m);
    kernels(cal, m);
    tree(m);
    mpi(m);
    runtime_and_trace(m);
}
