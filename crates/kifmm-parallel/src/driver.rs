//! The distributed interaction calculation (paper §3.2).
//!
//! Per evaluation, each rank:
//!
//! 1. begins the ghost-density exchange: the plan reads this rank's
//!    densities once and posts its gather packets (eager, one packed
//!    message per owning peer) — *overlapped with:*
//! 2. the **upward computation**: partial upward equivalent densities for
//!    every box it contributes to, "ignoring the existence of the other
//!    processors" (redundant work near the root, as the paper accepts);
//! 3. begins the partial-equivalent exchange the same way — the plan takes
//!    its copy of the partials, so the expansion store is free for M2L
//!    while owners sum them (valid because every translation is linear in
//!    the sources);
//! 4. runs the **M2L (V-list) translations** level by level, first on the
//!    *interior* targets (V list reads no in-flight box), polling both
//!    exchanges between levels so packets drain strictly underneath M2L
//!    compute, then — once the equivalent exchange is driven to completion
//!    and the global sums installed — on the held-back *boundary* targets;
//! 5. completes the ghost-density exchange (by step 4's polling it is
//!    usually already done) and runs the **X-list computation** on the
//!    assembled ghost sources, then L2L;
//! 6. finishes with the engine's leaf phase (U on the ghost sources, W and
//!    L2T on the globally summed equivalents) — from step 5 on, the pass
//!    order of the serial evaluator.
//!
//! No synchronization happens inside the computation passes — the
//! exchanges are poll-driven state machines
//! ([`ExchangePlan`](crate::exchange::ExchangePlan)) that make
//! progress whenever the driver touches them between compute stages,
//! matching the paper's "logically separated" design while keeping
//! communication under compute. Every box's check potentials accumulate
//! M2L first and X second, as in `Plan::far_field`, and every target's
//! V list is summed in list order whichever of the two M2L sweeps it
//! falls in — what differs from the serial evaluator is only that the
//! upward equivalents of a shared box are the owner's sum of per-rank
//! partials. At P = 1 there are no partials, and both drivers sort their
//! points through `kifmm_tree::sort_codes`: the potentials are
//! bit-identical to serial on every cloud, coincident points included.
//!
//! The traffic an evaluation moved is read off the substrate's one ledger
//! ([`Comm::stats`]) at its entry and exit and charged once, through
//! [`Meter::traffic`].
//!
//! The passes themselves are the shared implementations in
//! `kifmm_core::engine`, run under `Dispatch::Serial` (the paper's model
//! is one rank per CPU) over [`ActiveSet`]s built once at construction —
//! the boxes this rank contributes to, and that set's interior/boundary
//! halves for M2L — with a ghost-backed [`SourceProvider`] for the U/X
//! passes. This driver keeps only what is genuinely distributed: the
//! LET/ownership setup, the two overlapped exchanges, and the
//! installation of globally summed equivalents between engine phases.

use crate::exchange::{drive, Combine, ExchangeRoute, UserKind};
use crate::global_tree::{build_distributed_tree_with, DistributedTree};
use crate::ownership::Ownership;
use kifmm_core::engine::{ActiveSet, LocalSources, PassEngine, Scratch, SourceProvider};
use kifmm_core::{
    BuildError, EvalReport, FmmBuilder, FmmOptions, Meter, Phase, PrecomputeCache,
    Precomputed, FIRST_FMM_LEVEL,
};
use kifmm_kernels::{Kernel, Point3};
use kifmm_mpi::{allgatherv_u64, Comm};
use kifmm_runtime::{Dispatch, Pool};
use kifmm_trace::Tracer;
use kifmm_tree::{build_lists, first_non_finite, InteractionLists};
use std::collections::HashMap;
use std::time::Instant;

/// Exchange tag salts (disjoint sub-spaces per payload kind; packed into
/// the checked `kifmm_mpi::encode_tag` salt bitfield).
const SALT_POINTS: u64 = 0;
const SALT_DENS: u64 = 1;
const SALT_EQUIV: u64 = 2;

/// Async-event ids for the two in-flight exchanges of one evaluation
/// (rendered as overlap arrows on the chrome-trace timeline).
const ASYNC_DENS: u64 = 1;
const ASYNC_EQUIV: u64 = 2;

/// [`SourceProvider`] over the ghost-exchanged geometry and densities:
/// the U/X passes read *global* leaf contents, which on a rank live in
/// the per-box maps filled by the two concatenating exchanges. A box's
/// density value is RHS-major — `nrhs` equal segments, each the global
/// ascending-rank concatenation for one charge vector (the
/// [`Combine::ConcatRhs`] wire format), so segment `q` aligns with the
/// ghost point list for every RHS.
struct GhostSources<'a> {
    points: &'a HashMap<u32, Vec<Point3>>,
    dens: &'a HashMap<u32, Vec<f64>>,
    nrhs: usize,
}

impl SourceProvider for GhostSources<'_> {
    fn nrhs(&self) -> usize {
        self.nrhs
    }

    fn sources(&self, ni: u32, rhs: usize) -> (&[Point3], &[f64]) {
        let v = &self.dens[&ni];
        let seg = v.len() / self.nrhs;
        (&self.points[&ni], &v[rhs * seg..(rhs + 1) * seg])
    }
}

/// Idle scratch pairs kept per [`ParallelFmm`]: a rank runs one
/// evaluation at a time, so one pair serves the steady state; extra
/// concurrent evaluations make and drop their own.
const POOL_SLOTS: usize = 2;

/// A distributed FMM, built once per particle configuration and evaluated
/// many times (the Krylov-iteration workload of the paper).
pub struct ParallelFmm<K: Kernel> {
    kernel: K,
    opts: FmmOptions,
    /// Globally agreed tree with rank-local point ranges.
    pub dtree: DistributedTree,
    /// Interaction lists (identical on every rank).
    pub lists: InteractionLists,
    /// Contributor/user masks and owners.
    pub own: Ownership,
    pre: std::sync::Arc<Precomputed<K>>,
    /// This rank's ownership filter: the boxes it holds points in.
    active: ActiveSet,
    /// The active boxes whose V lists read no in-flight box — their M2L
    /// runs under the equivalent exchange. A box is in flight iff the
    /// exchange will overwrite it with remote content: scatter-received,
    /// or owned with remote contributors; a sole-contributor owned box is
    /// final the moment the local upward pass ran, even though its value
    /// is scattered *to* peers.
    interior: ActiveSet,
    /// The other active boxes (partition-boundary targets only): their
    /// M2L waits for the globally summed ghosts.
    boundary: ActiveSet,
    /// Pooled expansion storage + scratch, reused across evaluations.
    scratch: Pool<Scratch>,
    /// Global source points of every leaf this rank uses (ghost geometry,
    /// exchanged once at construction).
    ghost_points: HashMap<u32, Vec<Point3>>,
    /// Leaves participating in the source exchange (same on all ranks).
    pub src_leaves: Vec<u32>,
    /// Boxes participating in the equivalent exchange (same on all ranks).
    pub equiv_boxes: Vec<u32>,
    /// Per-peer box lists of the source exchange, grouped once at
    /// construction (used for ghost geometry and every eval's densities).
    pub src_route: ExchangeRoute,
    /// Per-peer box lists of the equivalent exchange.
    pub equiv_route: ExchangeRoute,
    /// Wall seconds spent in tree construction, list building, ownership
    /// and the ghost geometry exchange (the paper's "Tree Gen/Comm").
    pub setup_seconds: f64,
    /// Observability sink; disabled by default (see
    /// [`ParallelFmm::set_trace`]).
    trace: Tracer,
}

impl<K: Kernel> ParallelFmm<K> {
    /// Collective constructor: every rank passes its local points.
    pub fn new(comm: &Comm, kernel: K, local_points: &[Point3], opts: FmmOptions) -> Self {
        let cache = PrecomputeCache::new();
        Self::with_cache(comm, kernel, local_points, opts, &cache)
    }

    /// As [`ParallelFmm::new`], but sharing the particle-independent
    /// operator tables through `cache`. On a real cluster each rank holds
    /// its own (identical) tables; virtual ranks co-hosted in one process
    /// share them — the tables are immutable, so this changes memory
    /// footprint, not results.
    pub fn with_cache(
        comm: &Comm,
        kernel: K,
        local_points: &[Point3],
        opts: FmmOptions,
        cache: &PrecomputeCache<K>,
    ) -> Self {
        let t0 = Instant::now();
        let dtree = build_distributed_tree_with(
            comm,
            local_points,
            opts.max_pts_per_leaf,
            opts.max_level,
            opts.tree_build,
        );
        let lists = build_lists(&dtree.tree);
        let nn = dtree.tree.num_nodes();
        let own = Ownership::build(
            comm,
            |b| dtree.tree.nodes[b].num_points(),
            &dtree.global_counts,
            &lists,
            nn,
        );
        let depth = dtree.tree.depth();
        let root_half = dtree.tree.domain.half;
        // Tree/list/ownership construction counts toward Gen/Comm; the
        // operator tables are particle-independent and shared.
        let tree_seconds = t0.elapsed().as_secs_f64();
        let pre = cache.get_or_build(&kernel, &opts, root_half, depth);
        let t1 = Instant::now();

        // Exchange ghost geometry once (positions are fixed across the
        // many interaction evaluations of a solve).
        let src_leaves: Vec<u32> = dtree
            .tree
            .leaves()
            .filter(|&b| own.has_src_users(b as usize))
            .collect();
        let equiv_boxes: Vec<u32> = (0..nn as u32)
            .filter(|&b| {
                own.has_equiv_users(b as usize)
                    && dtree.tree.nodes[b as usize].key.level >= FIRST_FMM_LEVEL
            })
            .collect();
        let src_route = ExchangeRoute::build(comm, &own, &src_leaves, UserKind::Source);
        let equiv_route = ExchangeRoute::build(comm, &own, &equiv_boxes, UserKind::Equiv);
        let point_payload = |b: u32| -> Vec<f64> {
            let nd = &dtree.tree.nodes[b as usize];
            dtree.sorted_points[nd.pt_start as usize..nd.pt_end as usize]
                .iter()
                .flat_map(|p| p.iter().copied())
                .collect()
        };
        let flat =
            src_route.begin(comm, SALT_POINTS, Combine::ConcatRhs(1), point_payload).complete(comm);
        let ghost_points: HashMap<u32, Vec<Point3>> = flat
            .into_iter()
            .map(|(b, v)| {
                let pts = v.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
                (b, pts)
            })
            .collect();

        let active =
            ActiveSet::build(&dtree.tree, |b| dtree.tree.nodes[b as usize].num_points() > 0);
        let mut inflight = vec![false; nn];
        for b in equiv_route.installed_boxes() {
            let bi = b as usize;
            let sole = own.owner[bi] as usize == comm.rank() && own.contributors(bi).len() == 1;
            inflight[bi] = !sole;
        }
        let waits: Vec<bool> =
            lists.v.iter().map(|v| v.iter().any(|&a| inflight[a as usize])).collect();
        let half = |w: bool| {
            ActiveSet::build(&dtree.tree, |b| active.mask[b as usize] && waits[b as usize] == w)
        };
        let (interior, boundary) = (half(false), half(true));
        ParallelFmm {
            kernel,
            opts,
            dtree,
            lists,
            own,
            pre,
            active,
            interior,
            boundary,
            scratch: Pool::new(POOL_SLOTS),
            ghost_points,
            src_leaves,
            equiv_boxes,
            src_route,
            equiv_route,
            setup_seconds: tree_seconds + t1.elapsed().as_secs_f64(),
            trace: Tracer::disabled(),
        }
    }

    /// Attach a tracer shared by all ranks; each [`ParallelFmm::eval`]
    /// records its rank's span timeline and traffic counters into it.
    pub fn set_trace(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// The attached tracer (disabled unless [`ParallelFmm::set_trace`]
    /// was called).
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// Number of local points.
    pub fn local_len(&self) -> usize {
        self.dtree.sorted_points.len()
    }

    /// Borrow the prepared state into a [`PassEngine`] restricted to this
    /// rank's contributed boxes. Per-rank work stays on the rank's own
    /// thread ([`Dispatch::Serial`]), matching the paper's one-rank-per-CPU
    /// model.
    fn engine(&self) -> PassEngine<'_, K> {
        PassEngine::new(
            &self.kernel,
            &self.dtree.tree,
            &self.lists,
            &self.pre,
            &self.dtree.sorted_points,
            self.opts.order,
            Dispatch::Serial,
            &self.active,
        )
    }

    /// One interaction calculation: local densities in (original local
    /// order), local potentials out (original local order), with per-phase
    /// statistics and (if a tracer is attached) this rank's span timeline.
    ///
    /// Span structure per rank: the two exchanges appear both as `Comm`
    /// spans (the blocking begin/complete work) and as async begin/end
    /// pairs (`dens-exchange`, `equiv-exchange`) so the chrome-trace view
    /// shows the computation they overlap with.
    pub fn eval(&self, comm: &Comm, densities: &[f64]) -> EvalReport {
        self.eval_many(comm, &[densities]).pop().expect("one RHS in, one report out")
    }

    /// Batched interaction calculation: `k` charge vectors through **one
    /// sweep of the passes** (the multi-RHS engine) and one pair of
    /// exchanges — the ghost-density gather packs all `k` RHS-major
    /// segments per leaf box into the same one-message-per-peer wire
    /// format ([`Combine::ConcatRhs`]), and the equivalent exchange sums
    /// whole `es·k` blocks. Returns one [`EvalReport`] per RHS, in input
    /// order (each report carries the shared per-sweep [`kifmm_core::PhaseStats`]).
    pub fn eval_many(&self, comm: &Comm, densities: &[&[f64]]) -> Vec<EvalReport> {
        let k = densities.len();
        assert!(k >= 1, "at least one right-hand side");
        let (sd, td) = (self.kernel.src_dim(), self.kernel.trg_dim());
        for d in densities {
            assert_eq!(d.len(), self.local_len() * sd, "density length");
        }
        let tree = &self.dtree.tree;
        let depth = tree.depth();
        let rt = self.trace.rank(comm.rank());
        let mut meter = Meter::new(&rt, Dispatch::Serial);
        let ledger = comm.stats();

        let dens_sorted: Vec<Vec<f64>> = densities.iter().map(|d| tree.to_morton(d, sd)).collect();
        let dens_refs: Vec<&[f64]> = dens_sorted.iter().map(|v| v.as_slice()).collect();

        let engine = self.engine();
        let local_src = LocalSources {
            tree,
            points: &self.dtree.sorted_points,
            dens: &dens_refs,
            src_dim: sd,
        };
        let (pots, grads) = self.scratch.with(Scratch::default, |(store, ws)| {
            engine.prepare_store(store, k);

            // 1. Ghost density gather packets (one packed send per owning
            //    peer, all k RHS inside), overlapped with everything up to the
            //    U/X passes.
            let dens_payload = |b: u32| -> Vec<f64> {
                let nd = &tree.nodes[b as usize];
                let (s, e) = (nd.pt_start as usize * sd, nd.pt_end as usize * sd);
                let mut v = Vec::with_capacity((e - s) * k);
                for dq in &dens_sorted {
                    v.extend_from_slice(&dq[s..e]);
                }
                v
            };
            rt.async_begin("dens-exchange", ASYNC_DENS);
            let mut dens_plan = meter.comm(Some("dens-gather"), || {
                self.src_route.begin(comm, SALT_DENS, Combine::ConcatRhs(k), dens_payload)
            });

            // 2. Upward pass on contributed boxes (partial equivalents).
            meter.compute(Phase::Up, "Up", None, || engine.upward(&local_src, store, ws));
            meter.touched(engine.active_cell_count());

            // 3. Post the partial-equivalent gather packets. The plan copies
            //    what it needs out of `store.up` here and holds no borrow of
            //    the store, so M2L can run while it is in flight.
            rt.async_begin("equiv-exchange", ASYNC_EQUIV);
            let mut equiv_plan = meter.comm(Some("equiv-post"), || {
                self.equiv_route.begin(comm, SALT_EQUIV, Combine::Sum, |b| store.up(b).to_vec())
            });

            // 4a. M2L over the interior targets, under the equivalent
            //    exchange; both plans are polled between levels.
            let interior = self.engine().with_active(&self.interior);
            for level in FIRST_FMM_LEVEL..=depth {
                let m2l = || interior.m2l_level(level, store, ws);
                meter.compute(Phase::DownV, "m2l", Some(level), m2l);
                meter.comm(None, || {
                    equiv_plan.poll(comm);
                    dens_plan.poll(comm);
                });
            }

            // 4b. Drive the equivalent exchange to completion — the held-back
            //    boundary targets need the globally summed ghosts. The drive
            //    loop parks on *both* exchanges' keys, so ghost-density packets
            //    still drain opportunistically while this rank synchronizes.
            let global_equiv = meter.comm(Some("equiv-drive"), || {
                drive(comm, &mut [&mut equiv_plan, &mut dens_plan]);
                equiv_plan.complete(comm)
            });
            rt.async_end("equiv-exchange", ASYNC_EQUIV);
            // Install the global sums over this rank's partials (`store.up`
            // was unchanged while the exchange ran).
            for (b, v) in &global_equiv {
                store.set_up(*b, v);
            }

            // 4c. The held-back boundary targets, on the installed global
            //    sums (each target runs in exactly one of the two sweeps).
            let boundary = self.engine().with_active(&self.boundary);
            for level in FIRST_FMM_LEVEL..=depth {
                let m2l = || boundary.m2l_level(level, store, ws);
                meter.compute(Phase::DownV, "m2l", Some(level), m2l);
                meter.comm(None, || dens_plan.poll(comm));
            }

            // 5. Complete the ghost-density exchange (usually already drained
            //    by the polls above); X on the ghost sources, then L2L (check
            //    potentials now hold both M2L and X contributions).
            let ghost_dens = meter.comm(Some("dens-complete"), || dens_plan.complete(comm));
            rt.async_end("dens-exchange", ASYNC_DENS);
            let ghost_src = GhostSources { points: &self.ghost_points, dens: &ghost_dens, nrhs: k };
            meter.compute(Phase::DownX, "x-list", None, || engine.x_pass(&ghost_src, store));
            meter.compute(Phase::Eval, "l2l", None, || engine.l2l(store, ws));

            // 6. The leaf phase. Gradients ride alongside the potentials; both
            //    exchanges move densities/equivalents only, so the widened
            //    `td·(1+3)` output needs no new communication.
            let wants_grad = self.opts.output.wants_gradient();
            engine.leaf_phase(&ghost_src, store, engine.own_targets(), wants_grad, &mut meter)
        });
        let now = comm.stats();
        meter.traffic(
            (now.messages_sent - ledger.messages_sent, now.bytes_sent - ledger.bytes_sent),
            (
                now.messages_received - ledger.messages_received,
                now.bytes_received - ledger.bytes_received,
            ),
        );

        // "Scatter" the local outputs back to caller order.
        let _span = rt.span("Eval", "scatter");
        EvalReport::assemble(tree, td, pots, grads, &meter.stats, &self.trace)
    }
}

/// Distributed construction from the same fluent [`FmmBuilder`] chain that
/// builds a shared-memory `Session`:
///
/// ```ignore
/// let pfmm = Fmm::builder(Laplace)
///     .points(&local_points)
///     .order(6)
///     .trace(tracer.clone())
///     .build_parallel(comm);
/// let report = pfmm.eval(comm, &local_densities);
/// ```
pub trait BuildParallel<K: Kernel>: Sized {
    /// Fallible collective constructor: every rank calls this with its
    /// local points. The builder's tracer carries over.
    fn try_build_parallel(self, comm: &Comm) -> Result<ParallelFmm<K>, BuildError>;

    /// As [`BuildParallel::try_build_parallel`], panicking on invalid
    /// builder state (the historical behaviour).
    fn build_parallel(self, comm: &Comm) -> ParallelFmm<K> {
        self.try_build_parallel(comm).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<K: Kernel> BuildParallel<K> for FmmBuilder<'_, K> {
    fn try_build_parallel(self, comm: &Comm) -> Result<ParallelFmm<K>, BuildError> {
        let (kernel, points, opts, trace, cache) = self.into_parts();
        let points = points.ok_or(BuildError::MissingPoints)?;
        // Every rank holds the same options, so these verdicts need no
        // collective agreement (unlike the point checks below).
        if opts.order < 2 {
            return Err(BuildError::OrderTooSmall(opts.order));
        }
        if opts.max_pts_per_leaf == 0 {
            return Err(BuildError::ZeroLeafCapacity);
        }
        // Agree on the verdict collectively: a rank returning alone would
        // leave its peers blocked in the tree build's collectives. Each
        // rank publishes its point count, then its first bad coordinate.
        let mut local = vec![points.len() as u64];
        if let Some((point, dim)) = first_non_finite(points) {
            local.extend([point as u64, dim as u64]);
        }
        let verdicts = allgatherv_u64(comm, &local);
        if let Some(bad) = verdicts.iter().find(|v| v.len() > 1) {
            return Err(BuildError::NonFinitePoint { point: bad[1] as usize, dim: bad[2] as usize });
        }
        if verdicts.iter().all(|v| v[0] == 0) {
            return Err(BuildError::EmptyPoints);
        }
        let mut pfmm = match cache {
            Some(cache) => ParallelFmm::with_cache(comm, kernel, points, opts, cache),
            None => ParallelFmm::new(comm, kernel, points, opts),
        };
        pfmm.set_trace(trace);
        Ok(pfmm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_core::{rel_l2_error, Fmm};
    use kifmm_geom::{corner_clusters, random_densities, uniform_cube};
    use kifmm_kernels::{Laplace, Stokes};
    use kifmm_mpi::{allreduce_f64, run, ReduceOp};
    use kifmm_testkit::{check_matches_serial, serial_reference, split_points};
    use kifmm_trace::Counter;

    #[test]
    fn matches_serial_laplace_uniform() {
        check_matches_serial(Laplace, uniform_cube(1200, 42), 4, 1);
    }

    #[test]
    fn matches_serial_laplace_two_ranks() {
        check_matches_serial(Laplace, uniform_cube(800, 7), 2, 1);
    }

    #[test]
    fn matches_serial_laplace_nonuniform() {
        check_matches_serial(Laplace, corner_clusters(1500, 3), 4, 1);
    }

    #[test]
    fn matches_serial_stokes() {
        check_matches_serial(Stokes::default(), uniform_cube(600, 11), 3, 3);
    }

    /// P = 1 has no partial equivalents to sum and both drivers hold the
    /// same permutation, tied max-depth codes included (385 adjacent ties
    /// on the clustered cloud): bit-identical, scalar and 3×3 kernel alike.
    #[test]
    fn single_rank_equals_serial_exactly() {
        fn check<K: Kernel>(kernel: K, all: Vec<Point3>) {
            let opts = FmmOptions { order: 4, max_pts_per_leaf: 25, ..Default::default() };
            let (name, dens) = (kernel.name().to_string(), random_densities(all.len(), kernel.src_dim(), 5));
            let serial =
                Fmm::builder(kernel.clone()).points(&all).options(opts).build().eval(&dens).potentials;
            let out = run(1, move |comm| {
                ParallelFmm::new(comm, kernel.clone(), &all, opts).eval(comm, &dens).potentials
            });
            assert!(out[0] == serial, "{name}, N = {}: P = 1 differs from serial", serial.len());
        }
        check(Laplace, uniform_cube(700, 23));
        check(Laplace, corner_clusters(24_000, 2003));
        check(Stokes::default(), uniform_cube(450, 23));
        check(Stokes::default(), corner_clusters(24_000, 2003));
    }

    /// One rank's NaN must fail the collective build on every rank (a
    /// lone early return would leave the others blocked in the tree build).
    #[test]
    fn non_finite_point_fails_the_build_on_every_rank() {
        let mut chunks = split_points(&uniform_cube(600, 78), 3);
        chunks[1][5][2] = f64::NAN;
        chunks[2][0][0] = f64::INFINITY;
        let out = run(3, move |comm| {
            Fmm::builder(Laplace)
                .points(&chunks[comm.rank()])
                .try_build_parallel(comm)
                .map(|_| ())
        });
        for verdict in out {
            assert_eq!(verdict, Err(BuildError::NonFinitePoint { point: 5, dim: 2 }));
        }
    }

    /// A globally empty point set is a typed error on every rank, not the
    /// tree build's internal assert; one empty rank among populated ones
    /// still builds.
    #[test]
    fn globally_empty_point_set_fails_the_build_on_every_rank() {
        let out = run(2, |comm| {
            Fmm::builder(Laplace).points(&[]).try_build_parallel(comm).map(|_| ())
        });
        assert_eq!(out, vec![Err(BuildError::EmptyPoints); 2]);
        let all = uniform_cube(300, 79);
        let out = run(2, move |comm| {
            let local: &[Point3] = if comm.rank() == 0 { &all } else { &[] };
            Fmm::builder(Laplace).points(local).try_build_parallel(comm).map(|p| p.local_len())
        });
        assert_eq!(out, vec![Ok(300), Ok(0)]);
    }

    /// Builder construction + distributed eval + tracing: every rank records
    /// an "Up" span, comm byte counters are nonzero for >1 rank, and the
    /// async overlap events come in matched begin/end pairs.
    #[test]
    fn builder_bind_and_trace() {
        let all = uniform_cube(800, 77);
        let chunks = split_points(&all, 3);
        let tracer = Tracer::enabled();
        let tracer2 = tracer.clone();
        let chunks2 = chunks.clone();
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 25, ..Default::default() };
        let serial = serial_reference(
            Laplace,
            &chunks,
            &chunks.iter().map(|c| vec![1.0; c.len()]).collect::<Vec<_>>(),
            opts,
        );
        let out = run(3, move |comm| {
            let r = comm.rank();
            let pfmm = Fmm::builder(Laplace)
                .points(&chunks2[r])
                .options(opts)
                .trace(tracer2.clone())
                .build_parallel(comm);
            assert_eq!(pfmm.local_len(), chunks2[r].len());
            assert_eq!(pfmm.kernel.src_dim(), 1);
            pfmm.eval(comm, &vec![1.0; chunks2[r].len()]).potentials
        });
        for (r, pot) in out.iter().enumerate() {
            let e = rel_l2_error(pot, &serial[r]);
            assert!(e < 1e-9, "rank {r} builder path error {e}");
        }
        let per_rank = tracer.span_records();
        assert_eq!(per_rank.len(), 3, "one span track per rank");
        for (r, spans) in per_rank.iter().enumerate() {
            assert!(
                spans.iter().any(|s| s.name == "Up"),
                "rank {r} recorded the upward span"
            );
            let sent = tracer.rank_counter(r, Counter::BytesSent);
            assert!(sent > 0, "rank {r} sent bytes during the exchanges");
        }
        assert!(tracer.counter_total(Counter::Flops) > 0);
    }

    /// The tracer's traffic counters are the reports' traffic, charged once
    /// per evaluation: a collective run on the same `Comm` after the
    /// evaluation is not the evaluation's, and does not reach the trace.
    #[test]
    fn trace_counts_the_evaluation_traffic_only() {
        let chunks = split_points(&uniform_cube(900, 61), 3);
        let tracer = Tracer::enabled();
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
        let sent = run(3, {
            let tracer = tracer.clone();
            move |comm| {
                let mut pfmm = ParallelFmm::new(comm, Laplace, &chunks[comm.rank()], opts);
                pfmm.set_trace(tracer.clone());
                let stats = pfmm.eval(comm, &vec![1.0; pfmm.local_len()]).stats;
                allreduce_f64(comm, &mut [1.0], ReduceOp::Sum);
                (stats.comm_messages, stats.comm_bytes)
            }
        })
        .into_iter()
        .fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db));
        assert!(sent.0 > 0, "three ranks exchange");
        let total = |m, b| (tracer.counter_total(m), tracer.counter_total(b));
        assert_eq!(total(Counter::MessagesSent, Counter::BytesSent), sent);
        assert_eq!(total(Counter::MessagesRecv, Counter::BytesRecv), sent, "all of it received");
    }

    /// Batched distributed evaluation: k=8 charge vectors through one
    /// sweep (one exchange pair) agree with 8 independent evaluations on
    /// P=4 to ≤1e-12 — the ConcatRhs wire format keeps every RHS's
    /// segment aligned with the ghost geometry, and the equivalent Sum
    /// over `es·k` blocks preserves per-RHS element order.
    #[test]
    fn eval_many_matches_independent_evals_p4() {
        let all = uniform_cube(1000, 55);
        let chunks = split_points(&all, 4);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
        run(4, move |comm| {
            let r = comm.rank();
            let pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
            let n = pfmm.local_len();
            let ds: Vec<Vec<f64>> =
                (0..8).map(|q| random_densities(n, 1, 300 + 8 * r as u64 + q)).collect();
            let refs: Vec<&[f64]> = ds.iter().map(|v| v.as_slice()).collect();
            let many = pfmm.eval_many(comm, &refs);
            assert_eq!(many.len(), 8);
            for (q, d) in ds.iter().enumerate() {
                let one = pfmm.eval(comm, d);
                let e = rel_l2_error(&many[q].potentials, &one.potentials);
                assert!(e <= 1e-12, "RHS {q} diverged from its independent eval: {e}");
            }
        });
    }

    #[test]
    fn repeated_evaluations_are_consistent() {
        // The Krylov workload: many matvecs on the same ParallelFmm.
        let all = uniform_cube(900, 99);
        let chunks = split_points(&all, 3);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
        run(3, move |comm| {
            let r = comm.rank();
            let pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
            let d1 = random_densities(chunks[r].len(), 1, 100 + r as u64);
            let p1 = pfmm.eval(comm, &d1).potentials;
            let p1b = pfmm.eval(comm, &d1).potentials;
            assert_eq!(p1, p1b, "same densities, same potentials");
            // Linearity across evaluations.
            let d2: Vec<f64> = d1.iter().map(|v| 2.0 * v).collect();
            let p2 = pfmm.eval(comm, &d2).potentials;
            for (a, b) in p2.iter().zip(&p1) {
                assert!((a - 2.0 * b).abs() < 1e-12 * b.abs().max(1e-6));
            }
        });
    }
}
