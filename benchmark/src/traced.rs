//! The traced run of a workload: the benchmark drives the layers itself
//! and records one span per layer call in its own [`Recorder`]; the
//! per-layer metrics of the workload are read off those spans.
//!
//! End-to-end metrics are never taken here — `bench.span_overhead_frac`
//! is the difference between this run's spans and an untraced call.

use crate::host::{nproc, Calibration};
use crate::names::PER_LAYER;
use crate::record::{Recorder, Span};
use crate::stats::{fmax, fmin, median};
use crate::workloads::{
    check_potentials, jittered, sample_for, timed, true_residual, with_threads, BieInput,
    DistInput, FmmInput, RunCfg, Tally, GMRES,
};
use kifmm::core::{
    EngineWorkspace, ExpansionStore, LocalSources, PrecomputeCache, Precomputed, FIRST_FMM_LEVEL,
};
use kifmm::mpi::{allreduce_f64, barrier, ReduceOp};
use kifmm::parallel::{build_distributed_tree_with, ExchangeRoute, Ownership, UserKind};
use kifmm::runtime::{thread_cpu_time, Dispatch};
use kifmm::solver::SingleLayerOperator;
use kifmm::tree::build_lists_sorted;
use kifmm::{gmres, Kernel, ParallelFmm, Plan, PlanCache, Point3, Session, Stokes, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by name. A name the workload does not exercise
/// is absent here and printed as 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The pass spans of one evaluation, and the metrics they feed.
const PASSES: [&str; 7] =
    ["core.up", "core.m2l", "core.x", "core.l2l", "core.u", "core.w", "core.l2t"];
const PASS_SECONDS: [&str; 7] =
    ["core.up_s", "core.m2l_s", "core.x_s", "core.l2l_s", "core.u_s", "core.w_s", "core.l2t_s"];
const PASS_FLOPS: [&str; 7] = [
    "core.up_flops",
    "core.m2l_flops",
    "core.x_flops",
    "core.l2l_flops",
    "core.u_flops",
    "core.w_flops",
    "core.l2t_flops",
];
const M2L: usize = 1;
const U: usize = 4;

/// One evaluation with the benchmark sequencing the engine passes through
/// `Plan::engine(Dispatch::Serial)` exactly as `Plan::execute` does:
/// permute, Up, M2L level by level, X, L2L, U, W, L2T, un-permute. Each
/// pass call is a span carrying the flop count the pass returned; what the
/// `core.eval` span keeps for itself is permutation and allocation.
pub fn traced_execute<K: Kernel>(
    plan: &Plan<K>,
    densities: &[&[f64]],
    store: &mut ExpansionStore,
    ws: &mut EngineWorkspace,
    rec: &mut Recorder,
) -> Vec<Vec<f64>> {
    rec.scope("core.eval", |rec| {
        let k = densities.len();
        let (sd, td) = (plan.kernel().src_dim(), plan.kernel().trg_dim());
        let n = plan.len();
        let perm = &plan.tree.perm;
        let dens_sorted: Vec<Vec<f64>> = densities
            .iter()
            .map(|d| {
                let mut s = vec![0.0; n * sd];
                for (sorted_i, &orig) in perm.iter().enumerate() {
                    for c in 0..sd {
                        s[sorted_i * sd + c] = d[orig as usize * sd + c];
                    }
                }
                s
            })
            .collect();
        let dens_refs: Vec<&[f64]> = dens_sorted.iter().map(Vec::as_slice).collect();
        let engine = plan.engine(Dispatch::Serial);
        engine.prepare_store(store, k);
        let src = LocalSources {
            tree: &plan.tree,
            points: plan.morton_points(),
            dens: &dens_refs,
            src_dim: sd,
        };
        let depth = plan.tree.depth();
        if depth >= FIRST_FMM_LEVEL {
            rec.scope("core.up", |r| {
                let flops = engine.upward(&src, store, ws);
                r.count("flops", flops);
            });
            for level in FIRST_FMM_LEVEL..=depth {
                rec.scope("core.m2l", |r| {
                    let flops = engine.m2l_level(level, store, ws);
                    r.count("flops", flops);
                    r.count("level", u64::from(level));
                });
            }
            rec.scope("core.x", |r| {
                let flops = engine.x_pass(&src, store);
                r.count("flops", flops);
            });
            rec.scope("core.l2l", |r| {
                let flops = engine.l2l(store, ws);
                r.count("flops", flops);
            });
        }
        let mut pots: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; n * td]).collect();
        {
            let mut pot_refs: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
            rec.scope("core.u", |r| {
                let flops = engine.u_pass(&src, &mut pot_refs);
                r.count("flops", flops);
            });
            rec.scope("core.w", |r| {
                let flops = engine.w_pass(store, &mut pot_refs);
                r.count("flops", flops);
            });
            rec.scope("core.l2t", |r| {
                let flops = engine.l2t(store, &mut pot_refs);
                r.count("flops", flops);
            });
        }
        pots.into_iter()
            .map(|sorted| {
                let mut out = vec![0.0; n * td];
                for (sorted_i, &orig) in perm.iter().enumerate() {
                    let o = orig as usize * td;
                    out[o..o + td].copy_from_slice(&sorted[sorted_i * td..(sorted_i + 1) * td]);
                }
                out
            })
            .collect()
    })
}

/// Seconds and flops of each pass inside one `core.eval` span.
struct Breakdown {
    total: f64,
    seconds: [f64; 7],
    flops: [u64; 7],
}

/// One breakdown per `core.eval` span at or after `from`.
fn breakdowns(spans: &[Span], from: usize) -> Vec<Breakdown> {
    let mut out: Vec<(usize, Breakdown)> = spans
        .iter()
        .enumerate()
        .skip(from)
        .filter(|(_, s)| s.name == "core.eval")
        .map(|(i, s)| (i, Breakdown { total: s.seconds(), seconds: [0.0; 7], flops: [0; 7] }))
        .collect();
    for s in &spans[from..] {
        let (Some(parent), Some(pass)) = (s.parent, PASSES.iter().position(|p| *p == s.name))
        else {
            continue;
        };
        if let Ok(at) = out.binary_search_by_key(&parent, |(i, _)| *i) {
            out[at].1.seconds[pass] += s.seconds();
            out[at].1.flops[pass] += s.count("flops");
        }
    }
    out.into_iter().map(|(_, b)| b).collect()
}

/// Exact structure counts of a plan, and the bytes its FFT M2L moves as
/// computed from array sizes (cache misses are not in it).
fn structure_metrics<K: Kernel>(plan: &Plan<K>, nrhs: usize, m: &mut Metrics) -> f64 {
    let (tree, lists) = (&plan.tree, &plan.lists);
    let total = |l: &[Vec<u32>]| l.iter().map(Vec::len).sum::<usize>();
    let v_pairs = total(&lists.v);
    m.set("tree.boxes", tree.num_nodes() as f64);
    m.set("tree.leaves", tree.leaves().count() as f64);
    m.set("tree.depth", f64::from(tree.depth()));
    m.set(
        "tree.list_entries",
        (total(&lists.u) + v_pairs + total(&lists.w) + total(&lists.x)) as f64,
    );
    m.set("tree.v_pairs", v_pairs as f64);

    let Some(fft) = plan.precomputed().m2l_fft.as_ref() else {
        return 0.0;
    };
    let (sd, td) = (plan.kernel().src_dim(), plan.kernel().trg_dim());
    // Per level: every distinct V-list source is transformed once, every
    // target with a V list is inverse-transformed once.
    let (mut sources, mut targets) = (0usize, 0usize);
    for level in FIRST_FMM_LEVEL..=tree.depth() {
        let mut needed: Vec<u32> = Vec::new();
        for &ni in &tree.levels[level as usize] {
            let v = &lists.v[ni as usize];
            if !v.is_empty() {
                targets += 1;
                needed.extend_from_slice(v);
            }
        }
        needed.sort_unstable();
        needed.dedup();
        sources += needed.len();
    }
    // Hadamard: per slab entry read kernel + source, read and write the
    // accumulator = 4 × 16 B. Transforms: read and write each grid once.
    let hadamard = v_pairs * td * sd * fft.slab_len() * 64;
    let transforms = (sources * sd + targets * td) * fft.grid_len() * 16 * 2;
    (nrhs * (hadamard + transforms)) as f64
}

/// What the serial FMM layers of a workload leave for the workload-specific
/// parts (distributed driver, solver) to reuse.
pub struct FmmLayers<K: Kernel> {
    pub plan: Arc<Plan<K>>,
    /// Warm operator tables for the same domain and depth.
    pub cache: PrecomputeCache<K>,
    /// Thread-CPU seconds of the fastest untraced serial evaluation.
    pub eval_cpu_s: f64,
}

/// `tree.*` counts, `core.*`, `runtime.pool_speedup`,
/// `trace.enabled_overhead_frac` and `bench.span_overhead_frac` for the
/// serial FMM over `inp`.
pub fn fmm_layers<K: Kernel>(
    inp: &FmmInput<K>,
    cfg: &RunCfg,
    cal: &Calibration,
    m: &mut Metrics,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Option<FmmLayers<K>> {
    let builder = || kifmm::Fmm::builder(inp.kernel.clone()).points(&inp.points).options(inp.opts);
    let nrhs = inp.dens.len();

    // --- the plan
    let cache = PrecomputeCache::new();
    let (plan, cold) = rec.scope("core.plan_cold", |_| {
        timed(|| {
            tally.attempt("plan", || builder().cache(&cache).try_plan().map_err(|e| e.to_string()))
        })
    });
    let plan = Arc::new(plan?);
    m.set("core.plan_cold_s", cold);
    let warm = fmin(
        (0..2).map(|_| rec.scope("core.plan_warm", |_| timed(|| builder().cache(&cache).plan()).1)),
    );
    m.set("core.plan_warm_s", warm);
    let (half, depth) = (plan.tree.domain.half, plan.tree.depth());
    m.set(
        "core.precompute_s",
        rec.scope("core.precompute", |_| {
            timed(|| Precomputed::build(&inp.kernel, &inp.opts, half, depth)).1
        }),
    );
    let moved = jittered(&inp.points, plan.tree.domain.center);
    let update = fmin((0..2).map(|_| {
        rec.scope("core.plan_update", |_| {
            timed(|| plan.update_points(&moved).expect("jitter stays inside the root cube")).1
        })
    }));
    m.set("core.plan_update_s", update);
    // A cache hit costs the geometry hash. `get_or_update` over the same
    // points seeds the cache with a patch instead of a second cold build.
    let plans = PlanCache::unbounded();
    plans.get_or_update(&plan, &inp.points).expect("seeding the plan cache");
    let hit =
        fmin((0..5).map(|_| {
            timed(|| plans.get_or_plan(&inp.kernel, &inp.points, inp.opts).expect("hit")).1
        }));
    assert!(plans.hits() >= 5, "plan cache lookups must hit");
    m.set("core.plan_cache_hit_us", hit * 1e6);
    m.set("core.plan_mib", plan.approx_bytes() as f64 / (1u64 << 20) as f64);
    let m2l_bytes = structure_metrics(&plan, nrhs, m);

    // --- evaluations, alternating untraced (`Session`, the baseline of the
    // span overhead) and traced (the benchmark's own pass sequence), so a
    // drifting host weighs on both alike
    let refs: Vec<&[f64]> = inp.dens.iter().map(Vec::as_slice).collect();
    let mut session = Session::new(plan.clone());
    let engine = plan.engine(Dispatch::Serial);
    let mut store = engine.new_store_many(nrhs);
    let mut ws = EngineWorkspace::default();
    session.eval_many(&refs); // warm-ups
    traced_execute(&plan, &refs, &mut store, &mut ws, &mut Recorder::off());
    let first_span = rec.len();
    let (mut reference, mut pots) = (Vec::new(), Vec::new());
    let (mut untraced, mut cpu) = (Vec::new(), Vec::new());
    let mut eval_id = 0;
    sample_for(cfg.loop_seconds() / 2.0, 2, || {
        let c0 = thread_cpu_time();
        let (reports, secs) = timed(|| session.eval_many(&refs));
        cpu.push(thread_cpu_time() - c0);
        untraced.push(secs);
        reference = reports.into_iter().map(|r| r.potentials).collect();
        eval_id += 1;
        rec.begin_eval(eval_id);
        pots = traced_execute(&plan, &refs, &mut store, &mut ws, rec);
        secs
    });
    let eval_s = fmin(untraced);
    let eval_cpu_s = fmin(cpu);
    tally.attempted += 1;
    tally.require("traced eval", pots == reference, || {
        "the benchmark's pass sequence does not reproduce Session::eval bit for bit".into()
    });
    let all = breakdowns(rec.spans(), first_span);
    let best = all
        .iter()
        .min_by(|a, b| a.total.total_cmp(&b.total))
        .expect("at least two traced evaluations");
    for i in 0..PASSES.len() {
        m.set(PASS_SECONDS[i], best.seconds[i]);
        m.set(PASS_FLOPS[i], best.flops[i] as f64);
    }
    let passes: f64 = best.seconds.iter().sum();
    m.set("core.exec_self_s", best.total - passes);
    let (m2l_s, m2l_flops) = (best.seconds[M2L], best.flops[M2L] as f64);
    let (u_s, u_flops) = (best.seconds[U], best.flops[U] as f64);
    m.set("core.m2l_share", m2l_s / best.total);
    m.set("core.u_share", u_s / best.total);
    let rate = |flops: f64, secs: f64| if secs > 0.0 { flops / secs * 1e-9 } else { 0.0 };
    m.set("core.m2l_gflops", rate(m2l_flops, m2l_s));
    m.set("core.u_gflops", rate(u_flops, u_s));
    m.set("core.m2l_bytes_computed", m2l_bytes);
    if m2l_bytes > 0.0 {
        let intensity = m2l_flops / m2l_bytes;
        m.set("core.m2l_intensity", intensity);
        m.set("core.m2l_roof_frac", cal.roof_frac(rate(m2l_flops, m2l_s), intensity));
    }
    // P2P reads a few KiB of leaf data per ~10^5 flops: compute-bound.
    m.set("core.u_roof_frac", cal.roof_frac(rate(u_flops, u_s), f64::INFINITY));
    m.set("bench.span_overhead_frac", best.total / eval_s - 1.0);

    // --- the same evaluation through the pool, and under kifmm-trace
    let best_of_two =
        |session: &Session<K>| fmin((0..2).map(|_| timed(|| session.eval_many(&refs)).1));
    session.set_parallel_eval(true);
    let pool = with_threads(nproc(), || best_of_two(&session));
    session.set_parallel_eval(false);
    m.set("runtime.pool_speedup", eval_s / pool);
    session.set_trace(Tracer::enabled());
    let traced_by_library = best_of_two(&session);
    m.set("trace.enabled_overhead_frac", traced_by_library / eval_s - 1.0);

    // --- accuracy of what was timed, and the direct-sum rate on the way
    tally.attempted += 1;
    let (_, direct_mpairs) = check_potentials(inp, &pots, cfg.seed, tally, "traced eval");
    m.set("core.direct_mpairs", direct_mpairs);

    Some(FmmLayers { plan, cache, eval_cpu_s })
}

/// What one rank reports from the traced distributed run.
struct RankReport {
    setup_steps: [f64; 3],
    setup_msgs: u64,
    setup_bytes: u64,
    untraced: Vec<f64>,
    /// `(wall, thread-CPU, messages, bytes)` of each traced eval.
    traced: Vec<(f64, f64, u64, u64)>,
    potentials: Vec<f64>,
    spans: Vec<Span>,
}

/// One distributed run on `dist.groups.len()` rank threads sharing warm
/// operator tables; with `counts_only` it evaluates once and reports no
/// wall-clock (more ranks than cores).
fn distributed_run(
    dist: &DistInput,
    cache: &PrecomputeCache<Stokes>,
    seconds: f64,
    counts_only: bool,
    epoch: Instant,
) -> Vec<RankReport> {
    let ranks = dist.groups.len();
    let locals: Vec<(Vec<Point3>, Vec<f64>)> =
        (0..ranks).map(|r| (dist.local_points(r), dist.local_dens(r))).collect();
    let (kernel, opts) = (dist.global.kernel, dist.global.opts);
    kifmm::mpi::run(ranks, |comm| {
        let (local, dens) = &locals[comm.rank()];
        let mut rec = Recorder::new(!counts_only, epoch, comm.rank() as u32 + 1);
        let sent = || {
            let st = comm.stats();
            (st.messages_sent, st.bytes_sent)
        };

        // The three collective set-up steps, called the way the driver
        // calls them.
        let mut setup_steps = [0.0; 3];
        if !counts_only {
            barrier(comm);
            let (dtree, t_tree) = rec.scope("parallel.setup_tree", |_| {
                timed(|| {
                    build_distributed_tree_with(
                        comm,
                        local,
                        opts.max_pts_per_leaf,
                        opts.max_level,
                        opts.tree_build,
                    )
                })
            });
            let lists = build_lists_sorted(&dtree.tree);
            let nodes = dtree.tree.num_nodes();
            let (own, t_own) = rec.scope("parallel.setup_ownership", |_| {
                timed(|| {
                    Ownership::build(
                        comm,
                        |b| dtree.tree.nodes[b].num_points(),
                        &dtree.global_counts,
                        &lists,
                        nodes,
                    )
                })
            });
            let src_leaves: Vec<u32> =
                dtree.tree.leaves().filter(|&b| own.has_src_users(b as usize)).collect();
            let equiv_boxes: Vec<u32> = (0..nodes as u32)
                .filter(|&b| {
                    own.has_equiv_users(b as usize)
                        && dtree.tree.nodes[b as usize].key.level >= FIRST_FMM_LEVEL
                })
                .collect();
            let (_, t_routes) = rec.scope("parallel.setup_routes", |_| {
                timed(|| {
                    (
                        ExchangeRoute::build(comm, &own, &src_leaves, UserKind::Source),
                        ExchangeRoute::build(comm, &own, &equiv_boxes, UserKind::Equiv),
                    )
                })
            });
            setup_steps = [t_tree, t_own, t_routes];
        }

        let before = sent();
        let pfmm = rec
            .scope("parallel.setup", |_| ParallelFmm::with_cache(comm, kernel, local, opts, cache));
        let after = sent();
        let mut potentials = pfmm.eval(comm, dens).potentials; // warm-up

        // Untraced and traced evals alternate, so a drifting host weighs on
        // both alike. The loop stops on a collective decision: the ranks'
        // clocks differ by microseconds.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            if !counts_only {
                barrier(comm);
                let t = Instant::now();
                pfmm.eval(comm, dens);
                let mut dt = [t.elapsed().as_secs_f64()];
                allreduce_f64(comm, &mut dt, ReduceOp::Max);
                untraced.push(dt[0]);
            }
            barrier(comm);
            rec.begin_eval(traced.len() as u64 + 1);
            let sample = rec.scope("parallel.eval", |r| {
                let (m0, b0) = sent();
                let c0 = thread_cpu_time();
                let t = Instant::now();
                potentials = pfmm.eval(comm, dens).potentials;
                let wall = t.elapsed().as_secs_f64();
                let cpu = thread_cpu_time() - c0;
                let (m1, b1) = sent();
                r.count("msgs", m1 - m0);
                r.count("bytes", b1 - b0);
                r.count("cpu_us", (cpu * 1e6) as u64);
                (wall, cpu, m1 - m0, b1 - b0)
            });
            traced.push(sample);
            let mut more = [f64::from(
                !counts_only && (traced.len() < 2 || start.elapsed().as_secs_f64() < seconds),
            )];
            allreduce_f64(comm, &mut more, ReduceOp::Max);
            if more[0] == 0.0 {
                break;
            }
        }
        RankReport {
            setup_steps,
            setup_msgs: after.0 - before.0,
            setup_bytes: after.1 - before.1,
            untraced,
            traced,
            potentials,
            spans: rec.into_spans(),
        }
    })
}

/// `parallel.*` and the workload rows of `mpi.*`: a traced P=2 run, then a
/// counts-only P=8 run of the same global problem. Returns the rank spans.
pub fn distributed_layers(
    dist: &DistInput,
    dist8: &DistInput,
    serial: &FmmLayers<Stokes>,
    cfg: &RunCfg,
    m: &mut Metrics,
    tally: &mut Tally,
    epoch: Instant,
) -> Vec<Vec<Span>> {
    tally.attempted += 1;
    let ranks = distributed_run(dist, &serial.cache, cfg.loop_seconds() / 2.0, false, epoch);
    for (i, name) in
        ["parallel.setup_tree_s", "parallel.setup_ownership_s", "parallel.setup_routes_s"]
            .into_iter()
            .enumerate()
    {
        m.set(name, fmax(ranks.iter().map(|r| r.setup_steps[i])));
    }
    m.set("mpi.setup_msgs", ranks.iter().map(|r| r.setup_msgs).sum::<u64>() as f64);
    m.set("mpi.setup_bytes", ranks.iter().map(|r| r.setup_bytes).sum::<u64>() as f64);
    // Counts repeat exactly from eval to eval: take the last.
    let last = |r: &RankReport| *r.traced.last().expect("one traced eval");
    m.set("mpi.eval_msgs", ranks.iter().map(|r| last(r).2).sum::<u64>() as f64);
    m.set("mpi.eval_bytes", ranks.iter().map(|r| last(r).3).sum::<u64>() as f64);
    let cpu: Vec<f64> = ranks.iter().map(|r| fmin(r.traced.iter().map(|t| t.1))).collect();
    let (cpu_max, cpu_min) = (fmax(cpu.iter().copied()), fmin(cpu.iter().copied()));
    m.set("parallel.rank_cpu_max_s", cpu_max);
    m.set("parallel.rank_cpu_min_s", cpu_min);
    m.set("parallel.work_ratio", cpu_max / cpu_min);
    // Wall minus thread-CPU of an eval is time blocked on the other rank.
    let waits = ranks
        .iter()
        .map(|r| median(&r.traced.iter().map(|t| (t.0 - t.1).max(0.0)).collect::<Vec<_>>()));
    m.set("parallel.wait_s", fmax(waits));
    // The slower rank sets the time of an eval, traced or not.
    let slowest = |pick: &dyn Fn(&RankReport) -> Vec<f64>| {
        let per_rank: Vec<Vec<f64>> = ranks.iter().map(pick).collect();
        let evals = per_rank[0].len();
        fmin((0..evals).map(|e| fmax(per_rank.iter().map(|r| r[e]))))
    };
    let traced_s = slowest(&|r| r.traced.iter().map(|t| t.0).collect());
    let untraced_s = slowest(&|r| r.untraced.clone());
    m.set("bench.span_overhead_frac", traced_s / untraced_s - 1.0);
    let pots: Vec<Vec<f64>> = ranks.iter().map(|r| r.potentials.clone()).collect();
    check_potentials(
        &dist.global,
        &[dist.gather(&pots)],
        cfg.seed,
        tally,
        "traced distributed eval",
    );

    // More ranks than cores: thread-CPU and counts only, no wall clock.
    tally.attempted += 1;
    let ranks8 = distributed_run(dist8, &serial.cache, 0.0, true, epoch);
    let cpu8: Vec<f64> = ranks8.iter().map(|r| last(r).1).collect();
    m.set("parallel.work_ratio_p8", fmax(cpu8.iter().copied()) / fmin(cpu8.iter().copied()));
    m.set("parallel.work_inflation_p8", cpu8.iter().sum::<f64>() / serial.eval_cpu_s);
    m.set("mpi.eval_msgs_p8", ranks8.iter().map(|r| last(r).2).sum::<u64>() as f64);
    m.set("mpi.eval_bytes_p8", ranks8.iter().map(|r| last(r).3).sum::<u64>() as f64);

    ranks.into_iter().map(|r| r.spans).collect()
}

/// `solver.*`: one GMRES solve with the operator handed to `gmres` wrapped
/// in a span per matvec, each matvec the benchmark's own pass sequence over
/// the shared plan; and the same solve untraced through
/// `SingleLayerOperator` for the span overhead.
pub fn solver_layers(
    inp: &mut BieInput,
    plan: &Arc<Plan<Stokes>>,
    m: &mut Metrics,
    rec: &mut Recorder,
    tally: &mut Tally,
) {
    let op = SingleLayerOperator::with_plan(inp.quad.clone(), plan.clone());
    let rhs = op.apply(&inp.next_density());
    let (untraced, untraced_s) = timed(|| op.solve(&rhs, GMRES));

    let weights = inp.quad.weights.clone();
    let engine = plan.engine(Dispatch::Serial);
    let first_span = rec.len();
    rec.begin_eval(0);
    rec.open("solver.solve");
    // `gmres` takes a `Fn`: the recorder and the scratch sit in a cell
    // while it runs, under the solve span opened above.
    let state =
        std::cell::RefCell::new((rec, engine.new_store(), EngineWorkspace::default(), 0u64));
    let matvec = |x: &[f64]| {
        let mut guard = state.borrow_mut();
        let (rec, store, ws, calls) = &mut *guard;
        *calls += 1;
        rec.begin_eval(*calls);
        rec.scope("solver.matvec", |rec| {
            let weighted: Vec<f64> =
                x.iter().enumerate().map(|(i, v)| v * weights[i / 3]).collect();
            traced_execute(plan, &[&weighted], store, ws, rec).pop().expect("one RHS")
        })
    };
    let res = gmres(matvec, &rhs, None, GMRES);
    let (rec, _, _, calls) = state.into_inner();
    rec.count("matvecs", calls);
    rec.close();
    tally.attempted += 1;
    tally.require("traced solve", res.converged, || {
        format!("GMRES stopped at residual {:e}", res.residual)
    });
    tally.require("traced solve", res.x == untraced.x, || {
        "the traced solve does not reproduce SingleLayerOperator::solve bit for bit".into()
    });
    let spans = &rec.spans()[first_span..];
    let solve_s = spans[0].seconds();
    let matvec_s = crate::record::durations(spans, "solver.matvec");
    m.set("solver.matvecs", calls as f64);
    m.set("solver.matvec_s", median(&matvec_s));
    // Self time of the solve span: Arnoldi, Givens, back-substitution.
    m.set("solver.gmres_self_s", solve_s - matvec_s.iter().sum::<f64>());
    m.set("solver.residual", true_residual(inp, &res.x, &rhs, tally));
    m.set("bench.span_overhead_frac", solve_s / untraced_s - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm::{FmmOptions, Laplace};

    /// The instrument is only worth reading if the benchmark's pass
    /// sequence is the library's: same bits out, same flops counted.
    #[test]
    fn traced_execute_reproduces_session_eval() {
        let n = 1500;
        let points = kifmm::geom::uniform_cube(n, 3);
        let dens: Vec<Vec<f64>> = (0..3).map(|q| kifmm::geom::random_densities(n, 1, q)).collect();
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() };
        let plan = Arc::new(kifmm::Fmm::builder(Laplace).points(&points).options(opts).plan());
        assert!(plan.tree.depth() >= FIRST_FMM_LEVEL, "the test tree must run every pass");
        let session = Session::new(plan.clone());
        let engine = plan.engine(Dispatch::Serial);
        for k in [1, 3] {
            let refs: Vec<&[f64]> = dens[..k].iter().map(Vec::as_slice).collect();
            let reports = session.eval_many(&refs);
            let mut rec = Recorder::new(true, Instant::now(), 0);
            let mut store = engine.new_store_many(k);
            let mut ws = EngineWorkspace::default();
            let pots = traced_execute(&plan, &refs, &mut store, &mut ws, &mut rec);
            for (p, r) in pots.iter().zip(&reports) {
                assert_eq!(p, &r.potentials, "k={k}: traced potentials differ");
            }
            let spans = rec.into_spans();
            assert_eq!(spans[0].name, "core.eval");
            assert!(spans[1..].iter().all(|s| s.parent == Some(0) && PASSES.contains(&s.name)));
            let all = breakdowns(&spans, 0);
            assert_eq!(all.len(), 1);
            let counted: u64 = all[0].flops.iter().sum();
            assert_eq!(counted, reports[0].stats.total_flops(), "k={k}: flops differ");
            assert!(all[0].seconds.iter().sum::<f64>() <= all[0].total);
        }
    }

    #[test]
    fn breakdowns_attribute_passes_to_their_own_eval() {
        let mk = |name, start, end, parent, flops| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            eval_id: 0,
            track: 0,
            counts: vec![("flops", flops)],
        };
        let spans = vec![
            mk("solver.matvec", 0, 100, None, 0),
            mk("core.eval", 0, 90, Some(0), 0),
            mk("core.m2l", 10, 30, Some(1), 5),
            mk("core.m2l", 30, 60, Some(1), 7),
            mk("core.eval", 100, 150, None, 0),
            mk("core.u", 110, 140, Some(4), 9),
        ];
        let all = breakdowns(&spans, 0);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].flops[M2L], all[0].flops[U]), (12, 0));
        assert_eq!((all[1].flops[M2L], all[1].flops[U]), (0, 9));
        assert!((all[0].seconds[M2L] - 50e-9).abs() < 1e-15);
        // Spans before `from` are not reported.
        assert_eq!(breakdowns(&spans, 4).len(), 1);
    }
}
