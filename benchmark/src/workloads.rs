//! The four workloads: their seeded inputs, the untraced end-to-end
//! measurement, and the correctness checks.
//!
//! Only points and densities reach the library; everything else here is
//! the benchmark's own clock, loop and check.

use crate::stats::median;
use kifmm::geom::Rng;
use kifmm::mpi::{allreduce_f64, barrier, ReduceOp};
use kifmm::solver::{apply_single_layer_direct, SingleLayerOperator, SurfaceQuadrature};
use kifmm::{
    direct_eval_src_trg, FmmOptions, GmresOptions, Kernel, Laplace, ParallelFmm, Plan, Point3,
    Session, Stokes,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Hard accuracy envelopes: a result outside them is a failed operation.
pub const ENVELOPE_LAPLACE: f64 = 1e-5;
pub const ENVELOPE_STOKES: f64 = 1e-4;
/// On the BIE: the true residual `‖A_direct x − b‖/‖b‖` of a solve that
/// asked GMRES for 1e-4 through an operator that is itself ~2e-5 accurate.
pub const ENVELOPE_BIE_RESIDUAL: f64 = 5e-4;

/// Sample targets of the accuracy check.
pub const SAMPLE_TARGETS: usize = 1000;

pub const GMRES: GmresOptions = GmresOptions { restart: 60, max_iter: 300, tol: 1e-4 };

/// How one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the operation loop measures.
    pub seconds: f64,
    /// N÷10, one set-up, two samples, no calibration: a functional check.
    pub smoke: bool,
    /// The full-set driver takes its samples in this many round-robin
    /// rounds; each round then takes its share of set-ups and samples.
    pub rounds: usize,
}

impl RunCfg {
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            n / 10
        } else {
            n
        }
    }

    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full.div_ceil(self.rounds)
        }
    }

    pub fn min_samples(&self) -> usize {
        if self.smoke {
            2
        } else {
            3usize.div_ceil(self.rounds)
        }
    }

    pub fn loop_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }
}

/// Operations attempted and failed. An operation is one plan build, eval
/// or solve; it fails by panicking, by a non-finite output, by leaving
/// its accuracy envelope, or (GMRES) by not converging.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Run one operation under `catch_unwind`.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(why)) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("FAILED {what}: panicked");
                None
            }
        }
    }

    /// Record the verdict of a check on an operation already counted.
    pub fn require(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {what}: {}", why());
        }
    }
}

/// What the untraced run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each cold set-up.
    pub setup: Vec<f64>,
    /// Wall seconds of each measured operation (warm-up excluded).
    pub op: Vec<f64>,
    pub rel_err: f64,
    /// Explanatory numbers for the printed output (not metrics).
    pub info: Vec<(&'static str, f64)>,
}

/// Call `f` until `seconds` have passed and `min_n` samples exist.
pub fn sample_for(seconds: f64, min_n: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_n || start.elapsed().as_secs_f64() < seconds {
        samples.push(f());
    }
    samples
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Run `f` with the library's pool sized to `threads`, then restore the
/// caller's setting. Only called from the main thread while no worker is
/// alive (the runtime reads the variable at the start of each region).
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let old = std::env::var("KIFMM_NUM_THREADS").ok();
    std::env::set_var("KIFMM_NUM_THREADS", threads.to_string());
    let out = f();
    match old {
        Some(v) => std::env::set_var("KIFMM_NUM_THREADS", v),
        None => std::env::remove_var("KIFMM_NUM_THREADS"),
    }
    out
}

// ---------------------------------------------------------------- inputs

/// A point set, `k` density vectors and the options of a serial FMM.
pub struct FmmInput<K: Kernel> {
    pub kernel: K,
    pub points: Vec<Point3>,
    pub dens: Vec<Vec<f64>>,
    pub opts: FmmOptions,
    pub envelope: f64,
}

fn opts(order: usize, leaf: usize) -> FmmOptions {
    FmmOptions { order, max_pts_per_leaf: leaf, ..Default::default() }
}

pub fn laplace_uniform_input(cfg: &RunCfg) -> FmmInput<Laplace> {
    let n = cfg.scaled(40_000);
    FmmInput {
        kernel: Laplace,
        points: kifmm::geom::uniform_cube(n, cfg.seed),
        dens: vec![kifmm::geom::random_densities(n, 1, cfg.seed)],
        opts: opts(6, 60),
        envelope: ENVELOPE_LAPLACE,
    }
}

pub fn laplace_spheres_input(cfg: &RunCfg) -> FmmInput<Laplace> {
    let n = cfg.scaled(60_000);
    FmmInput {
        kernel: Laplace,
        // The paper's 512 spheres: the geometry is fixed, the seed draws
        // the eight density vectors.
        points: kifmm::geom::sphere_grid(n, 8),
        dens: (0..8)
            .map(|q| kifmm::geom::random_densities(n, 1, cfg.seed.wrapping_mul(8) + q))
            .collect(),
        opts: opts(6, 1500),
        envelope: ENVELOPE_LAPLACE,
    }
}

/// The distributed workload: the global problem plus its split over ranks.
pub struct DistInput {
    pub global: FmmInput<Stokes>,
    /// `groups[r]` = global indices of rank `r`'s points.
    pub groups: Vec<Vec<usize>>,
}

impl DistInput {
    pub fn local_points(&self, rank: usize) -> Vec<Point3> {
        self.groups[rank].iter().map(|&i| self.global.points[i]).collect()
    }

    pub fn local_dens(&self, rank: usize) -> Vec<f64> {
        let d = &self.global.dens[0];
        self.groups[rank].iter().flat_map(|&i| d[3 * i..3 * i + 3].iter().copied()).collect()
    }

    /// Per-rank potentials back into global point order.
    pub fn gather(&self, per_rank: &[Vec<f64>]) -> Vec<f64> {
        let mut all = vec![0.0; 3 * self.global.points.len()];
        for (group, pot) in self.groups.iter().zip(per_rank) {
            for (j, &i) in group.iter().enumerate() {
                all[3 * i..3 * i + 3].copy_from_slice(&pot[3 * j..3 * j + 3]);
            }
        }
        all
    }
}

pub fn stokes_corner_input(cfg: &RunCfg, ranks: usize) -> DistInput {
    let n = cfg.scaled(24_000);
    let points = kifmm::geom::corner_clusters(n, cfg.seed);
    let groups = kifmm::tree::partition_points(&points, ranks).groups;
    DistInput {
        global: FmmInput {
            kernel: Stokes::new(1.0),
            dens: vec![kifmm::geom::random_densities(n, 3, cfg.seed)],
            points,
            opts: opts(6, 60),
            envelope: ENVELOPE_STOKES,
        },
        groups,
    }
}

/// Two unit spheres, centres ±1.5·x̂, Fibonacci nodes.
pub struct BieInput {
    pub kernel: Stokes,
    pub quad: SurfaceQuadrature,
    pub centres: [Point3; 2],
    pub per_sphere: usize,
    pub opts: FmmOptions,
    rng: Rng,
}

pub fn stokes_pair_input(cfg: &RunCfg) -> BieInput {
    let per_sphere = cfg.scaled(1000);
    let centres = [[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]];
    let quad = SurfaceQuadrature::union(&[
        SurfaceQuadrature::sphere(centres[0], 1.0, per_sphere),
        SurfaceQuadrature::sphere(centres[1], 1.0, per_sphere),
    ]);
    BieInput {
        kernel: Stokes::new(1.0),
        quad,
        centres,
        per_sphere,
        opts: opts(6, 60),
        rng: Rng::seed_from_u64(cfg.seed),
    }
}

impl BieInput {
    /// The FMM the operator evaluates: the quadrature nodes, and as
    /// densities one seeded traction times the quadrature weights.
    pub fn weighted_input(&mut self) -> FmmInput<Stokes> {
        let x = self.next_density();
        FmmInput {
            kernel: self.kernel,
            points: self.quad.points.clone(),
            dens: vec![x.iter().enumerate().map(|(i, v)| v * self.quad.weights[i / 3]).collect()],
            opts: self.opts,
            envelope: ENVELOPE_STOKES,
        }
    }

    /// The next seeded smooth traction: on each sphere a quadratic
    /// polynomial of the position relative to the centre with coefficients
    /// in [−1, 1]. The right-hand side of a solve is the operator applied
    /// to it, so every system is consistent and the iteration count is set
    /// by the fixed low-order content, not by the draw — a rigid-motion
    /// right-hand side stagnates at the quadrature floor after anything
    /// from 24 to 68 iterations depending on its direction.
    pub fn next_density(&mut self) -> Vec<f64> {
        let mut x = Vec::with_capacity(3 * self.quad.len());
        for (s, c) in self.centres.iter().enumerate() {
            let coef: Vec<f64> = (0..3 + 9 + 27).map(|_| self.rng.range_f64(-1.0, 1.0)).collect();
            let (c0, rest) = coef.split_at(3);
            let (c1, c2) = rest.split_at(9);
            for p in &self.quad.points[s * self.per_sphere..(s + 1) * self.per_sphere] {
                let r = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
                for i in 0..3 {
                    let mut v = c0[i];
                    for j in 0..3 {
                        v += c1[3 * i + j] * r[j];
                        for k in 0..3 {
                            v += c2[9 * i + 3 * j + k] * r[j] * r[k];
                        }
                    }
                    x.push(v);
                }
            }
        }
        x
    }
}

/// The point set a time step later: 1 % of the points pulled slightly
/// towards `centre`, so every point stays inside the root cube and a tree
/// or plan over `points` can be patched rather than rebuilt.
pub fn jittered(points: &[Point3], centre: Point3) -> Vec<Point3> {
    let mut moved = points.to_vec();
    for p in moved.iter_mut().step_by(100) {
        for d in 0..3 {
            p[d] += (centre[d] - p[d]) * 1e-3;
        }
    }
    moved
}

// ---------------------------------------------------------------- checks

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

pub fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    norm(&d) / norm(b)
}

/// Seeded sample of target indices.
pub fn sample_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5a3c_e1d0_77aa_10f3);
    (0..SAMPLE_TARGETS.min(n)).map(|_| rng.below(n)).collect()
}

/// Per-target relative errors `‖u(x) − u_direct(x)‖ / ‖u_direct(x)‖` of
/// `pot` at the sample targets, against `direct_eval_src_trg`; also the
/// seconds the direct sum took.
pub fn pointwise_errors<K: Kernel>(
    kernel: &K,
    points: &[Point3],
    dens: &[f64],
    pot: &[f64],
    idx: &[usize],
) -> (Vec<f64>, f64) {
    let td = kernel.trg_dim();
    let targets: Vec<Point3> = idx.iter().map(|&i| points[i]).collect();
    let (exact, secs) = timed(|| direct_eval_src_trg(kernel, points, dens, &targets));
    let errs = idx
        .iter()
        .enumerate()
        .map(|(t, &i)| rel_diff(&pot[td * i..td * (i + 1)], &exact[td * t..td * (t + 1)]))
        .collect();
    (errs, secs)
}

/// The accuracy of a result: the **median over the sample targets** of the
/// per-target relative error. (The ℓ² quotient over the same targets is
/// dominated by the few targets that sit next to another point: on the
/// corner-cluster input it moves between 3e-11 and 3e-7 from seed to seed
/// while this median stays within 2 % of 2.0e-5.)
pub fn check_potentials<K: Kernel>(
    inp: &FmmInput<K>,
    pots: &[Vec<f64>],
    seed: u64,
    tally: &mut Tally,
    what: &str,
) -> (f64, f64) {
    let idx = sample_indices(inp.points.len(), seed);
    let mut errs = Vec::new();
    let mut direct_secs = 0.0;
    // The direct sums are not timed against anything: use every core.
    with_threads(crate::host::nproc(), || {
        for (d, p) in inp.dens.iter().zip(pots) {
            let (e, s) = pointwise_errors(&inp.kernel, &inp.points, d, p, &idx);
            errs.extend(e);
            direct_secs += s;
        }
    });
    let finite = pots.iter().all(|p| p.iter().all(|v| v.is_finite()));
    tally.require(what, finite, || "non-finite potential".into());
    let rel_err = median(&errs);
    tally.require(what, rel_err <= inp.envelope, || {
        format!("rel_err {rel_err:e} outside the envelope {:e}", inp.envelope)
    });
    let pairs = (idx.len() * inp.points.len() * inp.dens.len()) as f64;
    (rel_err, pairs / direct_secs * 1e-6)
}

// ------------------------------------------------------- untraced runs

pub fn build_plan<K: Kernel>(inp: &FmmInput<K>) -> Result<Plan<K>, String> {
    kifmm::Fmm::builder(inp.kernel.clone())
        .points(&inp.points)
        .options(inp.opts)
        .try_plan()
        .map_err(|e| e.to_string())
}

/// Serial workloads: cold plans, one warm-up, then `eval` / `eval_many`.
pub fn run_serial<K: Kernel>(inp: &FmmInput<K>, cfg: &RunCfg, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    let mut plan = None;
    for _ in 0..cfg.setup_reps(5) {
        // One plan alive at a time: peak RSS is what one user pays.
        drop(plan.take());
        let t = Instant::now();
        plan = tally.attempt("plan", || build_plan(inp));
        if plan.is_some() {
            out.setup.push(t.elapsed().as_secs_f64());
        }
    }
    let Some(plan) = plan else { return out };
    out.info.push(("tree_depth", plan.tree.depth() as f64));
    out.info.push(("tree_boxes", plan.tree.num_nodes() as f64));
    let session = Session::from_plan(plan);
    let refs: Vec<&[f64]> = inp.dens.iter().map(Vec::as_slice).collect();
    let mut last = None;
    let mut eval = |tally: &mut Tally| {
        let t = Instant::now();
        let reports = tally.attempt("eval", || Ok(session.eval_many(&refs)));
        let secs = t.elapsed().as_secs_f64();
        reports.map(|r| {
            last = Some(r);
            secs
        })
    };
    eval(tally); // warm-up: scratch pools fill; users evaluate many times per plan
    out.op = sample_for(cfg.loop_seconds(), cfg.min_samples(), || eval(tally).unwrap_or(f64::NAN));
    out.op.retain(|s| s.is_finite());
    if let Some(reports) = last {
        let pots: Vec<Vec<f64>> = reports.into_iter().map(|r| r.potentials).collect();
        let (rel_err, _) = check_potentials(inp, &pots, cfg.seed, tally, "eval");
        out.rel_err = rel_err;
    }
    out
}

/// The distributed workload on `ranks` rank threads. `eval_s` samples are
/// the max over ranks of each barrier-aligned `ParallelFmm::eval`;
/// `setup_s` samples the max over ranks of `ParallelFmm::new`.
pub fn run_dist(inp: &DistInput, cfg: &RunCfg, tally: &mut Tally) -> Outcome {
    let ranks = inp.groups.len();
    let locals: Vec<(Vec<Point3>, Vec<f64>)> =
        (0..ranks).map(|r| (inp.local_points(r), inp.local_dens(r))).collect();
    let attempted = AtomicU64::new(0);
    let (reps, min_n, seconds) = (cfg.setup_reps(3), cfg.min_samples(), cfg.loop_seconds());
    let kernel = inp.global.kernel;
    let opts = inp.global.opts;
    let run = catch_unwind(AssertUnwindSafe(|| {
        kifmm::mpi::run(ranks, |comm| {
            let (local, dens) = &locals[comm.rank()];
            let count = || {
                if comm.rank() == 0 {
                    attempted.fetch_add(1, Ordering::Relaxed);
                }
            };
            // Every rank gets the same (max-over-ranks) time of a step.
            let aligned = |f: &mut dyn FnMut()| {
                barrier(comm);
                let t = Instant::now();
                f();
                let mut dt = [t.elapsed().as_secs_f64()];
                allreduce_f64(comm, &mut dt, ReduceOp::Max);
                dt[0]
            };
            let mut setup = Vec::new();
            let mut pfmm = None;
            for _ in 0..reps {
                drop(pfmm.take());
                count();
                setup.push(aligned(&mut || {
                    pfmm = Some(ParallelFmm::new(comm, kernel, local, opts));
                }));
            }
            let pfmm = pfmm.expect("at least one set-up");
            let mut pot = Vec::new();
            count();
            pfmm.eval(comm, dens); // warm-up
            let start = Instant::now();
            let mut op = Vec::new();
            loop {
                count();
                op.push(aligned(&mut || pot = pfmm.eval(comm, dens).potentials));
                // The ranks' clocks differ by microseconds: agree on when to stop.
                let mut more =
                    [f64::from(op.len() < min_n || start.elapsed().as_secs_f64() < seconds)];
                allreduce_f64(comm, &mut more, ReduceOp::Max);
                if more[0] == 0.0 {
                    break;
                }
            }
            (setup, op, pot, pfmm.dtree.tree.depth(), pfmm.dtree.tree.num_nodes())
        })
    }));
    tally.attempted += attempted.load(Ordering::Relaxed);
    let Ok(per_rank) = run else {
        // `mpi::run` rethrows a rank's panic after joining every thread.
        tally.failed += 1;
        eprintln!("FAILED distributed run: a rank panicked");
        return Outcome::default();
    };
    let pots: Vec<Vec<f64>> = per_rank.iter().map(|r| r.2.clone()).collect();
    let (rel_err, _) =
        check_potentials(&inp.global, &[inp.gather(&pots)], cfg.seed, tally, "distributed eval");
    let first = &per_rank[0];
    Outcome {
        setup: first.0.clone(),
        op: first.1.clone(),
        rel_err,
        info: vec![("tree_depth", first.3 as f64), ("tree_boxes", first.4 as f64)],
    }
}

/// One checked GMRES solve; returns `(solution, seconds, matvecs)`.
fn solve_once(
    op: &SingleLayerOperator<Stokes>,
    rhs: &[f64],
    tally: &mut Tally,
) -> Option<(Vec<f64>, f64, usize)> {
    let before = op.matvecs.get();
    let t = Instant::now();
    let res = tally.attempt("solve", || {
        let res = op.solve(rhs, GMRES);
        if !res.converged {
            return Err(format!("GMRES stopped at residual {:e}", res.residual));
        }
        if !res.x.iter().all(|v| v.is_finite()) {
            return Err("non-finite solution".into());
        }
        Ok(res)
    })?;
    Some((res.x, t.elapsed().as_secs_f64(), op.matvecs.get() - before))
}

/// True residual `‖A_direct x − rhs‖ / ‖rhs‖` of a solve, against the direct
/// operator. GMRES pins it just under its tolerance whatever the library
/// does (4e-5 … 1e-4 by seed), so it is held to an envelope, not tracked.
pub fn true_residual(inp: &BieInput, x: &[f64], rhs: &[f64], tally: &mut Tally) -> f64 {
    let via_direct =
        with_threads(crate::host::nproc(), || apply_single_layer_direct(&inp.kernel, &inp.quad, x));
    let residual = rel_diff(&via_direct, rhs);
    tally.require("solve", residual <= ENVELOPE_BIE_RESIDUAL, || {
        format!("true residual {residual:e} outside the envelope {ENVELOPE_BIE_RESIDUAL:e}")
    });
    residual
}

/// The accuracy a library change can move on the BIE: that of the operator
/// GMRES iterates with, measured as on the other workloads — seeded
/// densities in [0, 1], median over the nodes of the per-node relative
/// error against `apply_single_layer_direct`. (On the solutions themselves
/// the same quotient moves ±25 % with the drawn right-hand side: smooth
/// signed densities cancel in `A x` by varying amounts.)
pub fn operator_rel_err(
    inp: &BieInput,
    apply_fmm: impl FnOnce(&[f64]) -> Vec<f64>,
    seed: u64,
    tally: &mut Tally,
) -> f64 {
    let density = kifmm::geom::random_densities(inp.quad.len(), 3, seed);
    let via_fmm = apply_fmm(&density);
    let via_direct = with_threads(crate::host::nproc(), || {
        apply_single_layer_direct(&inp.kernel, &inp.quad, &density)
    });
    let errs: Vec<f64> =
        via_fmm.chunks(3).zip(via_direct.chunks(3)).map(|(a, b)| rel_diff(a, b)).collect();
    let rel_err = median(&errs);
    tally.require("operator", rel_err <= ENVELOPE_STOKES, || {
        format!("operator error {rel_err:e} outside the envelope {ENVELOPE_STOKES:e}")
    });
    rel_err
}

/// The BIE workload: cold operators, then GMRES solves, each against a
/// fresh seeded right-hand side.
pub fn run_bie(inp: &mut BieInput, cfg: &RunCfg, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    let mut op = None;
    for _ in 0..cfg.setup_reps(3) {
        drop(op.take());
        let quad = inp.quad.clone();
        let t = Instant::now();
        op = tally.attempt("operator", || Ok(SingleLayerOperator::new(inp.kernel, quad, inp.opts)));
        if op.is_some() {
            out.setup.push(t.elapsed().as_secs_f64());
        }
    }
    let Some(op) = op else { return out };
    let mut solved = Vec::new();
    let mut matvecs = Vec::new();
    let mut solve = |inp: &mut BieInput, tally: &mut Tally| {
        // Building the right-hand side is also the warm-up of the first solve.
        let rhs = op.apply(&inp.next_density());
        solve_once(&op, &rhs, tally).map(|(x, secs, mv)| {
            matvecs.push(mv as f64);
            solved.push((x, rhs));
            secs
        })
    };
    out.op =
        sample_for(cfg.loop_seconds(), cfg.min_samples(), || solve(inp, tally).unwrap_or(f64::NAN));
    out.op.retain(|s| s.is_finite());
    if !solved.is_empty() {
        let worst =
            solved.iter().map(|(x, rhs)| true_residual(inp, x, rhs, tally)).fold(0.0, f64::max);
        out.rel_err = operator_rel_err(inp, |d| op.apply(d), cfg.seed, tally);
        out.info.push(("worst_true_residual", worst));
        out.info.push(("matvecs_per_solve", median(&matvecs)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_and_panics_as_failed_operations() {
        let mut tally = Tally::default();
        assert_eq!(tally.attempt("ok", || Ok(3)), Some(3));
        assert_eq!(tally.attempt::<u8>("err", || Err("no".into())), None);
        assert_eq!(tally.attempt::<u8>("panic", || panic!("boom")), None);
        tally.require("check", true, || unreachable!());
        tally.require("check", false, || "outside".into());
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let cfg = |seed| RunCfg { seed, seconds: 0.0, smoke: true, rounds: 1 };
        let a = laplace_uniform_input(&cfg(5));
        let b = laplace_uniform_input(&cfg(5));
        let c = laplace_uniform_input(&cfg(6));
        assert_eq!(a.points.len(), 4_000);
        assert_eq!((&a.points, &a.dens), (&b.points, &b.dens));
        assert_ne!(a.points, c.points);
        let spheres = (laplace_spheres_input(&cfg(5)), laplace_spheres_input(&cfg(6)));
        assert_eq!(spheres.0.points, spheres.1.points, "the 512-sphere geometry is fixed");
        assert_eq!(spheres.0.dens.len(), 8);
        assert_ne!(spheres.0.dens, spheres.1.dens);
        assert_ne!(spheres.0.dens[0], spheres.0.dens[1]);
        let (mut x, mut y) = (stokes_pair_input(&cfg(5)), stokes_pair_input(&cfg(5)));
        let first = x.next_density();
        assert_eq!(first, y.next_density());
        assert_ne!(first, x.next_density(), "each solve draws a fresh right-hand side");
        assert_eq!(first.len(), 3 * x.quad.len());
        assert_eq!(sample_indices(100, 1), sample_indices(100, 1));
        assert_ne!(sample_indices(100_000, 1), sample_indices(100_000, 2));
    }

    #[test]
    fn dist_input_partitions_and_gathers() {
        let cfg = RunCfg { seed: 2, seconds: 0.0, smoke: true, rounds: 1 };
        let dist = stokes_corner_input(&cfg, 2);
        let n = dist.global.points.len();
        assert_eq!(dist.groups.iter().map(Vec::len).sum::<usize>(), n);
        // Gathering each rank's local densities restores the global vector.
        let per_rank: Vec<Vec<f64>> = (0..2).map(|r| dist.local_dens(r)).collect();
        assert_eq!(dist.gather(&per_rank), dist.global.dens[0]);
        assert_eq!(dist.local_points(1).len(), dist.groups[1].len());
    }

    #[test]
    fn sample_loop_honours_both_limits() {
        let mut calls = 0;
        let s = sample_for(0.0, 3, || {
            calls += 1;
            1.0
        });
        assert_eq!((s.len(), calls), (3, 3));
        let t = Instant::now();
        let s = sample_for(0.02, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            1.0
        });
        assert!(t.elapsed().as_secs_f64() >= 0.02 && s.len() >= 2);
    }
}
