//! Plan/execute split: [`Plan`], [`Session`] and [`PlanCache`].
//!
//! Building an FMM is expensive (tree, interaction lists, pseudoinverse
//! inversions, M2L tensor FFTs); evaluating one is cheap and, in the
//! solver setting of the paper (tens of Krylov iterations over a fixed
//! discretization), happens many times per build. This module makes that
//! asymmetry structural:
//!
//! * a [`Plan`] is everything particle-geometry setup produces —
//!   immutable, `Send + Sync`, shareable across any number of threads;
//! * a [`Session`] is a cheap front end over an `Arc<Plan>` holding the
//!   *mutable* per-evaluation state (expansion stores and workspaces
//!   checked out of a [`Pool`], one per evaluation in flight) plus the
//!   execution policy (tracer, serial/pool dispatch);
//! * a [`PlanCache`] memoizes plans by
//!   `(kernel id, order, output, leaf capacity, depth cap, geometry)`
//!   with an LRU byte bound, so a service answering repeated requests
//!   against recurring geometries skips setup entirely on a warm hit.

use crate::engine::{
    ActiveSet, EngineWorkspace, ExpansionStore, LocalSources, PassEngine, Scratch,
};
use crate::evaluator::{EvalReport, FmmBuilder};
use crate::fmm::FmmOptions;
use crate::operators::FIRST_FMM_LEVEL;
use crate::precompute::{Precomputed, PrecomputeCache};
use crate::stats::{Meter, Phase};
use kifmm_kernels::{Kernel, Point3};
use kifmm_runtime::{num_threads, par_each, par_map, zip_eq, Dispatch, Pool};
use kifmm_tree::{
    build_lists, first_non_finite, update_octree, InteractionLists, Octree,
};
use kifmm_trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Why a plan (or evaluator) could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `points(..)` was never supplied to the builder.
    MissingPoints,
    /// The supplied point set is empty.
    EmptyPoints,
    /// Surface order below the minimum of 2.
    OrderTooSmall(usize),
    /// `max_pts_per_leaf` is 0: no leaf could hold a point.
    ZeroLeafCapacity,
    /// A point has a NaN or infinite coordinate. A tree would build over
    /// it and the potentials would come back silently wrong.
    NonFinitePoint {
        /// Index of the first offending point (in a distributed build,
        /// within the local points of the lowest rank that has one).
        point: usize,
        /// Coordinate axis (0/1/2) that is not finite.
        dim: usize,
    },
    /// The precomputed operator table lacks a level the tree requires.
    /// Surfaced at build time as a typed error instead of the
    /// `OperatorTable::at` panic a later evaluation would hit.
    MissingOperators {
        /// First level found without operators.
        level: u8,
        /// Depth of the tree the plan was being built for.
        depth: u8,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingPoints => {
                write!(f, "FmmBuilder::points(..) is required before build()")
            }
            BuildError::EmptyPoints => write!(f, "empty point set"),
            BuildError::OrderTooSmall(p) => {
                write!(f, "surface order must be ≥ 2 (got {p})")
            }
            BuildError::ZeroLeafCapacity => write!(f, "max_pts_per_leaf must be ≥ 1"),
            BuildError::NonFinitePoint { point, dim } => {
                write!(f, "point {point} has a non-finite coordinate on axis {dim}")
            }
            BuildError::MissingOperators { level, depth } => {
                write!(
                    f,
                    "operator table has no level-{level} operators for a depth-{depth} tree"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`Plan::update_points`] could not patch an existing plan. Every
/// variant means "rebuild from scratch" (e.g. via
/// [`PlanCache::get_or_update`], which does so automatically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// A point drifted outside the plan's root cube. The Morton mapping
    /// would silently clamp it to the boundary, corrupting near/far
    /// classification — so drift is a typed error forcing a re-rooted
    /// rebuild.
    DomainOverflow {
        /// Index of the first offending point.
        point: usize,
        /// Coordinate axis (0/1/2) that left the cube.
        dim: usize,
    },
    /// The new point set has a different cardinality; an update cannot
    /// describe insertions or deletions.
    PointCountChanged {
        /// Points the plan was built over.
        old: usize,
        /// Points supplied to the update.
        new: usize,
    },
    /// The patched tree is deeper than the plan's operator tables cover
    /// (points clustered more tightly than any configuration seen at
    /// plan time).
    StructureOutgrown {
        /// Depth the updated tree reached.
        depth: u8,
        /// Deepest level the existing operator tables cover.
        covered: u8,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::DomainOverflow { point, dim } => write!(
                f,
                "point {point} left the plan's domain cube along axis {dim}; rebuild required"
            ),
            UpdateError::PointCountChanged { old, new } => {
                write!(f, "point count changed from {old} to {new}; rebuild required")
            }
            UpdateError::StructureOutgrown { depth, covered } => write!(
                f,
                "updated tree reaches depth {depth} but operators cover only level {covered}; \
                 rebuild required"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<kifmm_tree::UpdateError> for UpdateError {
    fn from(e: kifmm_tree::UpdateError) -> Self {
        match e {
            kifmm_tree::UpdateError::DomainOverflow { point, dim } => {
                UpdateError::DomainOverflow { point, dim }
            }
            kifmm_tree::UpdateError::PointCountChanged { old, new } => {
                UpdateError::PointCountChanged { old, new }
            }
        }
    }
}

/// Verify the operator table carries every level a depth-`depth` tree
/// executes (`FIRST_FMM_LEVEL..=depth`), turning a would-be panic deep in
/// an engine pass into a typed build-time error.
pub(crate) fn check_operator_coverage(
    ops: &crate::operators::OperatorTable,
    depth: u8,
) -> Result<(), BuildError> {
    for level in FIRST_FMM_LEVEL..=depth {
        if ops.try_at(level).is_none() {
            return Err(BuildError::MissingOperators { level, depth });
        }
    }
    Ok(())
}

/// FNV-1a over the bit patterns of a point set (length-prefixed,
/// word-granular, hashed in fixed-size chunks whose digests are folded
/// in order — deterministic for any thread count, and an update-path
/// hot spot at millions of points). Two geometries hash equal iff every
/// coordinate is bit-identical — the condition under which a plan is
/// exactly reusable.
pub fn geometry_hash(points: &[Point3]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const CHUNK: usize = 1 << 16;
    fn digest(seed: u64, points: &[Point3]) -> u64 {
        let mut h = seed;
        for p in points {
            for c in p {
                h ^= c.to_bits();
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }
    let mut h = OFFSET ^ points.len() as u64;
    h = h.wrapping_mul(PRIME);
    if points.len() <= CHUNK {
        return digest(h, points);
    }
    for d in par_map(points.chunks(CHUNK), |chunk| digest(OFFSET, chunk)) {
        h ^= d;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a of a kernel's [`Kernel::name`] — folded into [`PlanKey`] so two
/// kernels behind the same Rust type ([`kifmm_kernels::CustomKernel`]
/// closures) with colliding [`Kernel::id_bits`] cannot share a cached
/// plan. `id_bits` defaults to 0 for parameterless kernels, so the
/// parameter fingerprint alone does not identify the kernel once the
/// *type* no longer pins it.
pub fn kernel_name_hash(name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The identity of a [`Plan`] inside a [`PlanCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`Kernel::id_bits`] — parameter fingerprint.
    pub kernel_id: u64,
    /// [`kernel_name_hash`] of [`Kernel::name`] — distinguishes kernels
    /// the type parameter no longer does (closure kernels).
    pub kernel_name: u64,
    /// Surface discretization order `p`.
    pub order: usize,
    /// What evaluations produce (potentials vs potentials + gradients).
    pub output: crate::evaluator::OutputSpec,
    /// Leaf capacity `s` (with the depth cap, determines tree depth).
    pub max_pts_per_leaf: usize,
    /// Octree depth cap.
    pub max_level: u8,
    /// [`geometry_hash`] of the point set.
    pub geometry: u64,
}

impl PlanKey {
    /// Assemble the key for `(kernel, opts, geometry)`.
    pub fn new<K: Kernel>(kernel: &K, opts: &FmmOptions, geometry: u64) -> Self {
        PlanKey {
            kernel_id: kernel.id_bits(),
            kernel_name: kernel_name_hash(kernel.name()),
            order: opts.order,
            output: opts.output,
            max_pts_per_leaf: opts.max_pts_per_leaf,
            max_level: opts.max_level,
            geometry,
        }
    }
}

/// Everything FMM setup produces for one `(kernel, options, point set)`:
/// tree, interaction lists, Morton-sorted points, precomputed inversions
/// and M2L tables. Immutable and `Send + Sync` — any number of threads
/// may [`Plan::execute`] against one plan concurrently (each execution
/// brings its own [`ExpansionStore`]/[`EngineWorkspace`]).
pub struct Plan<K: Kernel> {
    pub(crate) kernel: K,
    pub(crate) opts: FmmOptions,
    /// The computation tree.
    pub tree: Octree,
    /// U/V/W/X lists per box. Behind an `Arc` so an incremental update
    /// that preserves the structure shares them instead of deep-cloning
    /// ~100k nested vectors.
    pub lists: Arc<InteractionLists>,
    pub(crate) pre: Arc<Precomputed<K>>,
    /// Points permuted into Morton order (leaf ranges contiguous).
    pub(crate) sorted_points: Vec<Point3>,
    pub(crate) num_points: usize,
    /// Every box is active: a plan covers the whole tree.
    pub(crate) active: ActiveSet,
    geometry: u64,
}

impl<K: Kernel> Plan<K> {
    /// Build a plan: tree, interaction lists and translation operators.
    pub fn try_new(
        kernel: K,
        points: &[Point3],
        opts: FmmOptions,
    ) -> Result<Self, BuildError> {
        let cache = PrecomputeCache::new();
        Self::try_new_with_cache(kernel, points, opts, &cache)
    }

    /// As [`Plan::try_new`], but sharing particle-independent operator
    /// tables through `cache` (parameter sweeps, virtual-rank benches).
    pub fn try_new_with_cache(
        kernel: K,
        points: &[Point3],
        opts: FmmOptions,
        cache: &PrecomputeCache<K>,
    ) -> Result<Self, BuildError> {
        if opts.order < 2 {
            return Err(BuildError::OrderTooSmall(opts.order));
        }
        if opts.max_pts_per_leaf == 0 {
            return Err(BuildError::ZeroLeafCapacity);
        }
        if points.is_empty() {
            return Err(BuildError::EmptyPoints);
        }
        if let Some((point, dim)) = first_non_finite(points) {
            return Err(BuildError::NonFinitePoint { point, dim });
        }
        let tree = Octree::build(points, opts.max_pts_per_leaf, opts.max_level);
        let lists = Arc::new(build_lists(&tree));
        let depth = tree.depth();
        let root_half = tree.domain.half;
        let pre = cache.get_or_build(&kernel, &opts, root_half, depth);
        check_operator_coverage(&pre.ops, depth)?;
        Ok(Self::over(kernel, opts, tree, lists, pre, points))
    }

    /// What both constructors end with: the points permuted into Morton
    /// order, the all-active set and the geometry hash, over a finished
    /// tree, lists and operator tables.
    fn over(
        kernel: K,
        opts: FmmOptions,
        tree: Octree,
        lists: Arc<InteractionLists>,
        pre: Arc<Precomputed<K>>,
        points: &[Point3],
    ) -> Self {
        let mut sorted_points = vec![[0.0f64; 3]; points.len()];
        const CHUNK: usize = 1 << 16;
        let chunks = zip_eq(sorted_points.chunks_mut(CHUNK), tree.perm.chunks(CHUNK));
        par_each(num_threads(), chunks, || (), |(), _, (out, perm)| {
            for (slot, &i) in out.iter_mut().zip(perm) {
                *slot = points[i as usize];
            }
        });
        let active = ActiveSet::build(&tree, |_| true);
        let (num_points, geometry) = (points.len(), geometry_hash(points));
        Plan { kernel, opts, tree, lists, pre, sorted_points, num_points, active, geometry }
    }

    /// Patch this plan for a moved point set instead of rebuilding it:
    /// re-sort with the old permutation as a near-sorted hint, re-derive
    /// the structure, and — when the structure is unchanged, the common
    /// case for small motion — reuse the interaction lists wholesale. The
    /// operator tables (`Arc<Precomputed>`) are always shared: they depend
    /// on the domain and depth, not on the points. The result is the plan
    /// [`Plan::try_new`] would build over this plan's root cube, bit for
    /// bit: one curve order (`kifmm_tree::sort_codes`), coincident points
    /// included.
    ///
    /// Errors ([`UpdateError`]) mean the plan cannot be patched and a
    /// full rebuild is required; [`PlanCache::get_or_update`] performs
    /// that fallback automatically.
    pub fn update_points(&self, new_points: &[Point3]) -> Result<Plan<K>, UpdateError> {
        let upd = update_octree(
            &self.tree,
            new_points,
            self.opts.max_pts_per_leaf,
            self.opts.max_level,
        )?;
        let depth = upd.tree.depth();
        // The tables are the original build's, shared by every update: what
        // they cover is their own depth, not this plan's tree's.
        let covered = self.pre.ops.depth();
        if depth > covered {
            return Err(UpdateError::StructureOutgrown { depth, covered });
        }
        let tree = upd.tree;
        let lists = if upd.same_structure {
            // Same structure: the lists are valid verbatim — share them.
            Arc::clone(&self.lists)
        } else {
            Arc::new(build_lists(&tree))
        };
        Ok(Self::over(self.kernel.clone(), self.opts, tree, lists, self.pre.clone(), new_points))
    }

    /// This plan's cache identity.
    pub fn key(&self) -> PlanKey {
        PlanKey::new(&self.kernel, &self.opts, self.geometry)
    }

    /// [`geometry_hash`] of the point set the plan was built over.
    pub fn geometry_hash(&self) -> u64 {
        self.geometry
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// True when empty (never; construction requires points).
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// The kernel.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// The options the plan was built with.
    pub fn options(&self) -> &FmmOptions {
        &self.opts
    }

    /// The precomputed operator tables (shared with the builder cache).
    pub fn precomputed(&self) -> &Precomputed<K> {
        &self.pre
    }

    /// The points in Morton order (leaf point ranges index into this).
    pub fn morton_points(&self) -> &[Point3] {
        &self.sorted_points
    }

    /// Estimated resident bytes of the plan — the quantity [`PlanCache`]
    /// budgets its LRU bound against: tree, lists and points from their
    /// lengths, operator tables as [`Precomputed::bytes`] reports them.
    pub fn approx_bytes(&self) -> usize {
        let tree = self.tree.num_nodes() * 96 + self.num_points * 4;
        let lists: usize = [&self.lists.u, &self.lists.v, &self.lists.w, &self.lists.x]
            .iter()
            .map(|l| l.iter().map(Vec::len).sum::<usize>() * 4 + l.len() * 24)
            .sum();
        let points = self.sorted_points.len() * 24;
        self.pre.bytes() + tree + lists + points
    }

    /// Borrow the prepared state into a [`PassEngine`] under the given
    /// thread-dispatch policy.
    pub fn engine(&self, dispatch: Dispatch) -> PassEngine<'_, K> {
        PassEngine::new(
            &self.kernel,
            &self.tree,
            &self.lists,
            &self.pre,
            &self.sorted_points,
            self.opts.order,
            dispatch,
            &self.active,
        )
    }

    /// The far-field half of an evaluation — Up → M2L → X → L2L — for the
    /// Morton-sorted batch in `src`, every pass charged through `meter`.
    /// Reshapes `store` for the batch and leaves its `up`/`down` rows
    /// final: [`Plan::execute`] and [`Session::evaluate_at`] both run
    /// [`PassEngine::leaf_phase`] from here, at their own targets.
    pub(crate) fn far_field(
        &self,
        engine: &PassEngine<'_, K>,
        src: &LocalSources<'_>,
        store: &mut ExpansionStore,
        ws: &mut EngineWorkspace,
        meter: &mut Meter<'_>,
    ) {
        engine.prepare_store(store, src.dens.len());
        let depth = self.tree.depth();
        if depth < FIRST_FMM_LEVEL {
            return;
        }
        meter.compute(Phase::Up, "Up", None, || engine.upward(src, store, ws));
        meter.touched(engine.active_cell_count());
        for level in FIRST_FMM_LEVEL..=depth {
            meter.compute(Phase::DownV, "m2l", Some(level), || engine.m2l_level(level, store, ws));
        }
        meter.compute(Phase::DownX, "x-list", None, || engine.x_pass(src, store));
        meter.compute(Phase::Eval, "l2l", None, || engine.l2l(store, ws));
    }

    /// Execute the plan for a batch of `k = densities.len()` charge
    /// vectors (each in original point order, `SRC_DIM` interleaved
    /// components per point), running every FMM pass **once** over the
    /// whole batch: the per-level translation GEMMs widen their column
    /// blocks `k`-fold, the FFT M2L reuses each direction tensor across
    /// the batch, and the dense passes share pair geometry through
    /// [`Kernel::p2p_many`]. Returns one report per RHS (original point
    /// order), each carrying the per-phase statistics of the batch.
    ///
    /// Each output vector is bit-identical to what a single-RHS execution
    /// of that density vector produces (asserted in tests); `k = 1` is the
    /// same code with a batch of one.
    ///
    /// The caller provides the mutable evaluation state; `store`/`ws` are
    /// reshaped as needed ([`Session`] pools them, so steady-state
    /// evaluations allocate only their output vectors).
    ///
    /// Phase seconds are on the [`Meter`]'s clock for `dispatch`; flop
    /// counts come from the engine and are identical for both policies.
    /// Gradients (`trg_dim·3` interleaved per point) are produced only when
    /// the plan was built with [`crate::OutputSpec::PotentialAndGradient`].
    pub fn execute(
        &self,
        densities: &[&[f64]],
        dispatch: Dispatch,
        trace: &Tracer,
        store: &mut ExpansionStore,
        ws: &mut EngineWorkspace,
    ) -> Vec<EvalReport> {
        assert!(!densities.is_empty(), "at least one density vector");
        let (sd, td) = (self.kernel.src_dim(), self.kernel.trg_dim());
        for d in densities {
            assert_eq!(
                d.len(),
                self.num_points * sd,
                "each density vector must have src_dim entries per point"
            );
        }
        let rt = trace.rank(0);
        let mut meter = Meter::new(&rt, dispatch);
        let dens_sorted: Vec<Vec<f64>> =
            densities.iter().map(|d| self.tree.to_morton(d, sd)).collect();
        let dens_refs: Vec<&[f64]> = dens_sorted.iter().map(Vec::as_slice).collect();
        let engine = self.engine(dispatch);
        let src = LocalSources {
            tree: &self.tree,
            points: &self.sorted_points,
            dens: &dens_refs,
            src_dim: sd,
        };
        self.far_field(&engine, &src, store, ws, &mut meter);

        let wants_grad = self.opts.output.wants_gradient();
        let (pots, grads) =
            engine.leaf_phase(&src, store, engine.own_targets(), wants_grad, &mut meter);
        EvalReport::assemble(&self.tree, td, pots, grads, &meter.stats, trace)
    }
}

/// Idle scratch pairs a session keeps. An evaluation never waits for
/// one: with none idle it makes its own, and a pair returned to a full
/// pool is dropped.
const POOL_SLOTS: usize = 16;

/// A client handle over a shared [`Plan`]: holds the execution policy
/// (tracer, serial/pool dispatch) and a [`Pool`] of scratch, so many
/// threads can evaluate against one plan concurrently with no
/// steady-state allocation beyond the output vectors. `Deref`s to its
/// plan.
pub struct Session<K: Kernel> {
    plan: Arc<Plan<K>>,
    pool: Pool<Scratch>,
    trace: Tracer,
    dispatch: Dispatch,
}

impl<K: Kernel> Session<K> {
    /// Start a fluent [`FmmBuilder`]:
    /// `Fmm::builder(kernel).points(&pts).order(6).build()`.
    pub fn builder<'a>(kernel: K) -> FmmBuilder<'a, K> {
        FmmBuilder::new(kernel)
    }

    /// Open a session over a shared plan.
    pub fn new(plan: Arc<Plan<K>>) -> Self {
        Session {
            plan,
            pool: Pool::new(POOL_SLOTS),
            trace: Tracer::disabled(),
            dispatch: Dispatch::Serial,
        }
    }

    /// Open a session over a plan this session owns exclusively.
    pub fn from_plan(plan: Plan<K>) -> Self {
        Self::new(Arc::new(plan))
    }

    /// The shared plan (clone the `Arc` to open further sessions).
    pub fn plan(&self) -> &Arc<Plan<K>> {
        &self.plan
    }

    /// Attach (or detach, with [`Tracer::disabled`]) an observability
    /// sink; subsequent evaluations record per-phase spans.
    pub fn set_trace(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// The attached tracer (disabled by default).
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// Route evaluations through the shared-memory parallel path
    /// (bit-identical results; wall-clock phase timing).
    pub fn set_parallel_eval(&mut self, parallel: bool) {
        self.dispatch = if parallel { Dispatch::Pool } else { Dispatch::Serial };
    }

    pub(crate) fn dispatch(&self) -> Dispatch {
        self.dispatch
    }

    /// Run `f` on a scratch pair checked out of the pool (a fresh one when
    /// none is idle), returning the pair afterwards. A pair whose
    /// evaluation panics is dropped, never pooled.
    pub(crate) fn with_scratch<T>(
        &self,
        f: impl FnOnce(&mut ExpansionStore, &mut EngineWorkspace) -> T,
    ) -> T {
        self.pool.with(Scratch::default, |(store, ws)| f(store, ws))
    }

    /// Evaluate potentials for one density vector (original point order,
    /// `SRC_DIM` interleaved components per point).
    pub fn eval(&self, densities: &[f64]) -> EvalReport {
        self.eval_many(&[densities]).pop().expect("one report per RHS")
    }

    /// Evaluate a batch of `k` density vectors through **one** set of FMM
    /// passes (see [`Plan::execute`]). Returns one report per RHS; the
    /// per-phase statistics describe the shared batch execution and are
    /// carried by every report.
    pub fn eval_many(&self, densities: &[&[f64]]) -> Vec<EvalReport> {
        self.with_scratch(|store, ws| {
            self.plan.execute(densities, self.dispatch(), &self.trace, store, ws)
        })
    }
}

impl<K: Kernel> std::ops::Deref for Session<K> {
    type Target = Plan<K>;

    fn deref(&self) -> &Plan<K> {
        &self.plan
    }
}

struct CacheEntry<K: Kernel> {
    key: PlanKey,
    plan: Arc<Plan<K>>,
    bytes: usize,
    stamp: u64,
}

/// One in-progress build: the first thread to miss on a key initializes
/// the cell, later same-key callers block in `get_or_init` and share its
/// outcome. (If the builder panics the cell stays empty and the next
/// caller builds.)
type Flight<K> = Arc<OnceLock<Result<Arc<Plan<K>>, BuildError>>>;

struct CacheState<K: Kernel> {
    entries: Vec<CacheEntry<K>>,
    building: std::collections::HashMap<PlanKey, Flight<K>>,
}

/// An LRU-bounded memoization of [`Plan`]s keyed by [`PlanKey`]. One
/// cache serves one kernel *type* (the type parameter); kernel
/// *parameters* are distinguished through [`Kernel::id_bits`].
///
/// Lookups are counted once, here: [`PlanCache::hits`],
/// [`PlanCache::misses`] and [`PlanCache::updates`].
pub struct PlanCache<K: Kernel> {
    inner: Mutex<CacheState<K>>,
    clock: AtomicU64,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    updates: AtomicU64,
}

impl<K: Kernel> PlanCache<K> {
    /// Cache bounded to roughly `max_bytes` of resident plan memory
    /// ([`Plan::approx_bytes`]); the least-recently-used plans are evicted
    /// once the bound is exceeded (the most recent plan is always kept).
    pub fn new(max_bytes: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheState { entries: Vec::new(), building: Default::default() }),
            clock: AtomicU64::new(0),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            updates: AtomicU64::new(0),
        }
    }

    /// Cache with no byte bound.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Plan-cache lookups served from a cached plan (setup skipped).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Plan-cache lookups that had to build a new plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups served by patching an existing plan
    /// ([`PlanCache::get_or_update`]) instead of a full build.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache state. A poisoned lock only means another user panicked
    /// between two consistent states, so the guard is recovered.
    fn state(&self) -> std::sync::MutexGuard<'_, CacheState<K>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fetch the plan for `(kernel, points, opts)`, building it on a
    /// miss. A warm hit performs no tree construction and no operator
    /// precomputation — only the geometry hash (one linear scan of the
    /// points). Concurrent misses on one key build once: the others wait
    /// for the first and share its plan, counted as hits (or its error,
    /// which is not cached). Misses on other keys build concurrently.
    pub fn get_or_plan(
        &self,
        kernel: &K,
        points: &[Point3],
        opts: FmmOptions,
    ) -> Result<Arc<Plan<K>>, BuildError> {
        let key = PlanKey::new(kernel, &opts, geometry_hash(points));
        self.get_or_build(key, || self.plan_miss(kernel, points, opts))
    }

    /// Fetch the plan for `base`'s kernel/options over `new_points`,
    /// *patching* `base` via [`Plan::update_points`] on a miss instead of
    /// building from scratch — the time-stepping fast path (points move a
    /// little every step, so the tree is re-derived from a near-sorted
    /// permutation and the operator tables are shared). When the patch is
    /// impossible ([`UpdateError`]: domain drift, changed point count,
    /// deeper structure than the operators cover) this falls back to a
    /// full build. Single-flight per key, like [`PlanCache::get_or_plan`].
    ///
    /// Counters: a cached plan for the new geometry counts as a hit, a
    /// successful patch as an *update* ([`PlanCache::updates`]), and the
    /// fallback as a miss.
    pub fn get_or_update(
        &self,
        base: &Arc<Plan<K>>,
        new_points: &[Point3],
    ) -> Result<Arc<Plan<K>>, BuildError> {
        let opts = *base.options();
        let key = PlanKey::new(base.kernel(), &opts, geometry_hash(new_points));
        self.get_or_build(key, || match base.update_points(new_points) {
            Ok(plan) => {
                self.updates.fetch_add(1, Ordering::Relaxed);
                Ok(plan)
            }
            Err(_) => self.plan_miss(base.kernel(), new_points, opts),
        })
    }

    /// A full build, counted as a miss when it succeeds.
    fn plan_miss(
        &self,
        kernel: &K,
        points: &[Point3],
        opts: FmmOptions,
    ) -> Result<Plan<K>, BuildError> {
        let plan = Plan::try_new(kernel.clone(), points, opts)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Serve `key` from the cache or from a build already in flight;
    /// otherwise run `build` outside the lock (a slow build must not
    /// serialize lookups of other keys) and make its plan resident.
    fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<Plan<K>, BuildError>,
    ) -> Result<Arc<Plan<K>>, BuildError> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let flight = {
            let mut state = self.state();
            if let Some(e) = state.entries.iter_mut().find(|e| e.key == key) {
                e.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(e.plan.clone());
            }
            state.building.entry(key).or_default().clone()
        };
        let mut ran = false;
        let result = flight
            .get_or_init(|| {
                ran = true;
                build().map(Arc::new)
            })
            .clone();
        if ran {
            // Errors are not cached: the next caller retries.
            let resident = result.as_ref().ok().map(|plan| CacheEntry {
                key,
                plan: plan.clone(),
                bytes: plan.approx_bytes(),
                stamp,
            });
            self.retire_flight(key, resident);
        } else if result.is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Drop `key`'s finished flight (only the caller that ran its build
    /// does) and, when it produced a plan, make that plan resident and run
    /// LRU eviction.
    fn retire_flight(&self, key: PlanKey, resident: Option<CacheEntry<K>>) {
        let mut state = self.state();
        state.building.remove(&key);
        let Some(entry) = resident else { return };
        let newest = entry.stamp;
        let entries = &mut state.entries;
        entries.push(entry);
        let mut total: usize = entries.iter().map(|e| e.bytes).sum();
        while total > self.max_bytes && entries.len() > 1 {
            let (idx, _) = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.stamp != newest)
                .min_by_key(|(_, e)| e.stamp)
                .expect("len > 1 so a non-newest entry exists");
            total -= entries[idx].bytes;
            entries.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmm::Fmm;
    use kifmm_kernels::{Laplace, ModifiedLaplace, Stokes};
    use kifmm_testkit::cloud;
    use std::time::Instant;

    fn densities(n: usize, dim: usize, seed: usize) -> Vec<f64> {
        (0..n * dim).map(|i| (((i * 31 + seed * 17) % 101) as f64) / 101.0 - 0.3).collect()
    }

    fn opts_small() -> FmmOptions {
        FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() }
    }

    #[test]
    fn eval_many_bitwise_equals_independent_evals_serial_and_pool() {
        let pts = cloud(900, 5);
        let k = 8;
        let dens: Vec<Vec<f64>> = (0..k).map(|q| densities(900, 1, q)).collect();
        for parallel in [false, true] {
            let mut session = Session::from_plan(
                Plan::try_new(Laplace, &pts, opts_small()).unwrap(),
            );
            session.set_parallel_eval(parallel);
            let singles: Vec<Vec<f64>> =
                dens.iter().map(|d| session.eval(d).potentials).collect();
            let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
            let reports = session.eval_many(&refs);
            assert_eq!(reports.len(), k);
            for (q, rep) in reports.iter().enumerate() {
                assert_eq!(
                    rep.potentials, singles[q],
                    "RHS {q} (parallel={parallel}) not bitwise equal"
                );
            }
        }
    }

    /// Shrink every point toward the domain center by `factor` — motion
    /// that stays inside the root cube by construction.
    fn shrink_toward(points: &[Point3], center: Point3, factor: f64) -> Vec<Point3> {
        points
            .iter()
            .map(|p| std::array::from_fn(|d| center[d] + (p[d] - center[d]) * factor))
            .collect()
    }

    #[test]
    fn update_points_identical_geometry_preserves_everything() {
        let pts = cloud(800, 21);
        let plan = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        let upd = plan.update_points(&pts).unwrap();
        assert!(upd.tree.structure_eq(&plan.tree));
        assert_eq!(upd.lists, plan.lists);
        assert_eq!(upd.geometry_hash(), plan.geometry_hash());
        let d = densities(800, 1, 3);
        let a = Session::from_plan(plan).eval(&d).potentials;
        let b = Session::from_plan(upd).eval(&d).potentials;
        assert_eq!(a, b, "identical geometry must evaluate bitwise identically");
    }

    #[test]
    fn update_points_small_motion_matches_fresh_plan() {
        let pts = cloud(900, 22);
        let base = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        let center = base.tree.domain.center;
        let moved = shrink_toward(&pts, center, 0.999);
        let upd = base.update_points(&moved).unwrap();
        // The patched plan stays as accurate as a from-scratch build
        // against the direct sum. (A fresh build fits a slightly smaller
        // root cube to these moved points, while the patch keeps the old
        // one; over one cube the two are bitwise equal, next test.)
        let fresh = Plan::try_new(Laplace, &moved, opts_small()).unwrap();
        let d = densities(900, 1, 7);
        let exact = crate::direct::direct_eval(&Laplace, &moved, &d);
        let err_of = |plan: Plan<Laplace>| {
            let pot = Session::from_plan(plan).eval(&d).potentials;
            crate::direct::rel_l2_error(&pot, &exact)
        };
        let e_upd = err_of(upd);
        let e_fresh = err_of(fresh);
        assert!(
            e_upd < 2.0 * e_fresh.max(1e-8),
            "patched plan error {e_upd} vs fresh {e_fresh}"
        );
    }

    /// With the root cube pinned (eight fixed corners, center exactly 0) a
    /// fresh plan fits the cube the patch keeps, and the two are one plan:
    /// same permutation, same bits — on each branch of the re-sort, over a
    /// cloud with a pile of coincident points (tied max-depth codes).
    #[test]
    fn update_points_equals_a_fresh_plan_bitwise_on_every_branch() {
        let mut pts = kifmm_geom::uniform_cube(1200, 26);
        for (c, p) in pts.iter_mut().take(8).enumerate() {
            *p = std::array::from_fn(|d| if c >> d & 1 == 0 { -1.0 } else { 1.0 });
        }
        for i in (8..1200).step_by(40) {
            pts[i] = [0.3, -0.2, 0.6];
        }
        let base = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        let dens = densities(1200, 1, 9);
        let check = |moved: &[Point3], branch: &str, taken: fn(usize) -> bool| {
            let resort = update_octree(&base.tree, moved, 20, base.opts.max_level).unwrap();
            assert!(taken(resort.moved), "{branch}: {} points displaced", resort.moved);
            let upd = base.update_points(moved).unwrap();
            let fresh = Plan::try_new(Laplace, moved, opts_small()).unwrap();
            assert!(upd.tree.perm == fresh.tree.perm, "{branch}: permutation differs");
            assert!(upd.tree.structure_eq(&fresh.tree), "{branch}: tree differs");
            let [a, b] = [upd, fresh].map(|plan| Session::from_plan(plan).eval(&dens).potentials);
            assert!(a == b, "{branch}: potentials differ");
        };
        // Still sorted: a pile member moves inside its max-depth cell.
        let mut nudged = pts.clone();
        nudged[48][0] += 1e-8;
        check(&nudged, "still sorted", |moved| moved == 0);
        // Backbone merge: two neighbours of the old order share a cell
        // with their indices the wrong way round (the codes alone stay
        // non-decreasing), and a point from further along the curve joins
        // the pile between members of lower and higher index.
        let perm = &base.tree.perm;
        let k = (0..1199).find(|&k| perm[k] > perm[k + 1] && perm[k + 1] >= 8).unwrap();
        let mut joined = pts.clone();
        joined[perm[k + 1] as usize] = pts[perm[k] as usize];
        let pile_end = perm.iter().rposition(|&i| pts[i as usize] == [0.3, -0.2, 0.6]).unwrap();
        let joiner = perm[pile_end + 1..].iter().find(|&&i| (48..1168).contains(&i)).unwrap();
        joined[*joiner as usize] = [0.3, -0.2, 0.6];
        check(&joined, "backbone merge", |moved| moved > 0 && moved * 4 <= 1200);
        // Full sort: reflect through the center; the pile stays a pile.
        let flipped: Vec<Point3> = pts.iter().map(|p| p.map(|c| -c)).collect();
        check(&flipped, "full sort", |moved| moved * 4 > 1200);
    }

    #[test]
    fn update_points_detects_domain_drift_and_count_change() {
        let pts = cloud(500, 23);
        let plan = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        // Push one point far outside the root cube.
        let mut out = pts.clone();
        out[137][2] += 100.0 * plan.tree.domain.half;
        assert_eq!(
            plan.update_points(&out).map(|_| ()).unwrap_err(),
            UpdateError::DomainOverflow { point: 137, dim: 2 },
        );
        // A NaN compares outside the cube too (the rebuild an updater
        // then falls back to reports it as `BuildError::NonFinitePoint`).
        let mut nan = pts.clone();
        nan[7][1] = f64::NAN;
        assert_eq!(
            plan.update_points(&nan).map(|_| ()).unwrap_err(),
            UpdateError::DomainOverflow { point: 7, dim: 1 },
        );
        // Different cardinality.
        assert_eq!(
            plan.update_points(&pts[..499]).map(|_| ()).unwrap_err(),
            UpdateError::PointCountChanged { old: 500, new: 499 },
        );
    }

    #[test]
    fn update_points_rejects_structure_deeper_than_operators() {
        let pts = cloud(600, 24);
        let plan = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        // Collapse all points into a tiny ball: the refined tree goes far
        // deeper than the original, beyond operator coverage.
        let center = plan.tree.domain.center;
        let tiny = shrink_toward(&pts, center, 1e-4);
        match plan.update_points(&tiny) {
            Err(UpdateError::StructureOutgrown { depth, covered }) => {
                assert!(depth > covered, "depth {depth} vs covered {covered}");
            }
            Ok(_) => panic!("collapsing points must outgrow the operator tables"),
            Err(e) => panic!("expected StructureOutgrown, got {e:?}"),
        }
    }

    /// An update shares the original build's tables, so after an update
    /// that made the tree shallower, a later outgrown update still reports
    /// the tables' depth — not the depth of the tree it started from.
    #[test]
    fn structure_outgrown_reports_the_tables_depth_after_a_shallower_update() {
        // Eight pinned corners fix the root cube for every cloud below.
        let mut uniform = kifmm_geom::uniform_cube(600, 27);
        for (c, p) in uniform.iter_mut().take(8).enumerate() {
            *p = std::array::from_fn(|d| if c >> d & 1 == 0 { -1.0 } else { 1.0 });
        }
        let clustered = |factor: f64, end: usize| {
            let mut pts = uniform.clone();
            let ball = shrink_toward(&pts[8..end], [0.3, -0.2, 0.6], factor);
            pts[8..end].copy_from_slice(&ball);
            pts
        };
        let plan = Plan::try_new(Laplace, &clustered(0.01, 300), opts_small()).unwrap();
        let d = plan.tree.depth();
        let shallow = plan.update_points(&uniform).unwrap();
        assert!(shallow.tree.depth() < d, "{} vs {d}", shallow.tree.depth());
        match shallow.update_points(&clustered(1e-6, 600)) {
            Err(UpdateError::StructureOutgrown { depth, covered }) => {
                assert_eq!(covered, d, "the tables cover the original depth");
                assert!(depth > d, "depth {depth} vs tables {d}");
            }
            other => panic!("expected StructureOutgrown, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn plan_cache_get_or_update_hits_updates_and_falls_back() {
        let pts = cloud(700, 25);
        let cache = PlanCache::unbounded();
        let base = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (0, 1, 0));
        // Same geometry → hit, same Arc.
        let again = cache.get_or_update(&base, &pts).unwrap();
        assert!(Arc::ptr_eq(&base, &again));
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (1, 1, 0));
        // Small motion → patched plan, counted as an update.
        let center = base.tree.domain.center;
        let moved = shrink_toward(&pts, center, 0.999);
        let patched = cache.get_or_update(&base, &moved).unwrap();
        assert!(std::ptr::eq(patched.precomputed(), base.precomputed()));
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (1, 1, 1));
        // Re-request of the patched geometry → hit.
        let patched2 = cache.get_or_update(&base, &moved).unwrap();
        assert!(Arc::ptr_eq(&patched, &patched2));
        assert_eq!(cache.hits(), 2);
        // Out-of-domain drift → full rebuild fallback, counted as a miss.
        let mut out = pts.clone();
        for p in &mut out {
            p[0] += 10.0 * base.tree.domain.half;
        }
        let rebuilt = cache.get_or_update(&base, &out).unwrap();
        assert!(!std::ptr::eq(rebuilt.precomputed(), base.precomputed()));
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (2, 2, 1));
    }

    #[test]
    fn eval_many_bitwise_matrix_kernel() {
        // Stokes: SRC_DIM = TRG_DIM = 3 exercises the interleaved-block
        // layout; clustered points exercise W/X under the batch.
        let mut pts = cloud(300, 9);
        for p in cloud(300, 10) {
            pts.push([0.9 + p[0] * 0.05, 0.9 + p[1] * 0.05, 0.9 + p[2] * 0.05]);
        }
        let k = 3;
        let dens: Vec<Vec<f64>> = (0..k).map(|q| densities(600, 3, q)).collect();
        let session = Session::from_plan(
            Plan::try_new(
                Stokes::default(),
                &pts,
                FmmOptions { order: 4, max_pts_per_leaf: 12, ..Default::default() },
            )
            .unwrap(),
        );
        let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
        let reports = session.eval_many(&refs);
        for (q, rep) in reports.iter().enumerate() {
            assert_eq!(rep.potentials, session.eval(&dens[q]).potentials, "RHS {q}");
        }
    }

    #[test]
    fn concurrent_sessions_share_one_plan_bitwise_stable() {
        // 8 threads hammer one shared plan through their own sessions;
        // every thread must see the bit-exact single-thread result.
        let pts = cloud(700, 21);
        let plan = Arc::new(Plan::try_new(Laplace, &pts, opts_small()).unwrap());
        let expect: Vec<Vec<f64>> = (0..8)
            .map(|q| Session::new(plan.clone()).eval(&densities(700, 1, q)).potentials)
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let plan = plan.clone();
                let expect = &expect;
                scope.spawn(move || {
                    let session = Session::new(plan);
                    for round in 0..4 {
                        let q = (t + round) % 8;
                        let got = session.eval(&densities(700, 1, q)).potentials;
                        assert_eq!(got, expect[q], "thread {t} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn one_session_used_from_many_threads() {
        // The scratch pool makes &Session usable concurrently.
        let pts = cloud(400, 33);
        let session =
            Session::from_plan(Plan::try_new(Laplace, &pts, opts_small()).unwrap());
        let d = densities(400, 1, 1);
        let expect = session.eval(&d).potentials;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let session = &session;
                let d = &d;
                let expect = &expect;
                scope.spawn(move || {
                    for _ in 0..3 {
                        assert_eq!(&session.eval(d).potentials, expect);
                    }
                });
            }
        });
    }

    #[test]
    fn plan_cache_warm_hit_skips_setup() {
        let pts = cloud(300, 3);
        let cache = PlanCache::unbounded();
        let a = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "warm hit must return the cached plan");
        // Different geometry, order, or kernel parameters miss.
        let pts2 = cloud(300, 4);
        cache.get_or_plan(&Laplace, &pts2, opts_small()).unwrap();
        cache
            .get_or_plan(&Laplace, &pts, FmmOptions { order: 5, ..opts_small() })
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn plan_cache_distinguishes_kernel_parameters() {
        let pts = cloud(200, 3);
        let cache = PlanCache::unbounded();
        cache.get_or_plan(&ModifiedLaplace::new(1.0), &pts, opts_small()).unwrap();
        cache.get_or_plan(&ModifiedLaplace::new(2.0), &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    /// Regression for the kernel-identity hole: every `CustomKernel` is the
    /// same Rust type and a closure has no parameters to fingerprint
    /// (`id_bits() == 0`), so neither the cache's type parameter nor the
    /// fingerprint says which closure a plan was built for. The old key
    /// (id_bits only) made any two of them collide; the name hash now
    /// keeps them apart.
    #[test]
    fn plan_cache_distinguishes_boxed_kernels_by_name() {
        use kifmm_kernels::CustomKernel;
        let a = CustomKernel::new("closure-laplace", 1, 1, Some(-1.0), |x, y, g| {
            Laplace.eval(x, y, g)
        });
        let b = CustomKernel::new("closure-half-laplace", 1, 1, Some(-1.0), |x, y, g| {
            Laplace.eval(x, y, g);
            g[0] *= 0.5;
        });
        // Pin the collision shape the name hash exists to break: the two
        // closures are indistinguishable by parameter fingerprint…
        assert_eq!(a.id_bits(), b.id_bits(), "both closure kernels fingerprint to 0");
        // …and only the folded-in name hash separates their keys.
        let ka = PlanKey::new(&a, &opts_small(), 42);
        let kb = PlanKey::new(&b, &opts_small(), 42);
        assert_ne!(ka.kernel_name, kb.kernel_name);
        assert_ne!(ka, kb, "keys must differ despite equal id_bits");
        assert_eq!(PlanKey { kernel_name: kb.kernel_name, ..ka }, kb, "only the name separates them");

        // End to end: the second kernel must MISS, not reuse the first
        // one's plan (whose operators would silently produce wrong physics).
        let pts = cloud(200, 3);
        let cache: PlanCache<CustomKernel> = PlanCache::unbounded();
        cache.get_or_plan(&a, &pts, opts_small()).unwrap();
        cache.get_or_plan(&b, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        cache.get_or_plan(&a, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// `OutputSpec` is part of the plan identity: a gradient-producing
    /// session must not reuse a potential-only plan entry (and vice
    /// versa), since the report shapes differ.
    #[test]
    fn plan_cache_distinguishes_output_spec() {
        let pts = cloud(200, 5);
        let cache = PlanCache::unbounded();
        cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        let grad_opts = FmmOptions {
            output: crate::evaluator::OutputSpec::PotentialAndGradient,
            ..opts_small()
        };
        cache.get_or_plan(&Laplace, &pts, grad_opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn plan_cache_lru_eviction_keeps_newest() {
        let pts = cloud(250, 3);
        // A bound below one plan's footprint: every insert evicts the
        // previous resident, but the newest always stays.
        let cache = PlanCache::new(1);
        cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert_eq!(cache.len(), 1);
        let pts2 = cloud(250, 4);
        cache.get_or_plan(&Laplace, &pts2, opts_small()).unwrap();
        assert_eq!(cache.len(), 1, "over-budget cache keeps only the newest plan");
        // The first plan was evicted: fetching it again is a miss.
        cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn missing_operator_levels_surface_as_build_error() {
        use crate::operators::OperatorTable;
        // A table built for a depth-1 tree has no level-2 operators; a
        // depth-3 tree demanding them must get a typed error, not the
        // mid-evaluation `OperatorTable::at` panic.
        let shallow = OperatorTable::build(&Laplace, 3, 1.0, 1);
        assert_eq!(
            check_operator_coverage(&shallow, 3),
            Err(BuildError::MissingOperators { level: 2, depth: 3 })
        );
        let err = BuildError::MissingOperators { level: 2, depth: 3 };
        assert!(err.to_string().contains("level-2"), "{err}");
        let full = OperatorTable::build(&Laplace, 3, 1.0, 3);
        assert_eq!(check_operator_coverage(&full, 3), Ok(()));
        // Shallow trees demand nothing and pass vacuously.
        assert_eq!(check_operator_coverage(&shallow, 1), Ok(()));
    }

    #[test]
    fn plan_cache_retains_single_oversized_plan() {
        // A plan bigger than the whole byte bound must still be usable:
        // the newest entry is exempt from eviction, so the sole resident
        // plan stays and the next lookup is a warm hit — the cache never
        // thrashes by evicting the only thing it holds.
        let pts = cloud(250, 3);
        let cache = PlanCache::new(1);
        let a = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert!(a.approx_bytes() > 1, "plan must exceed the bound");
        assert_eq!(cache.len(), 1);
        let b = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_not_oldest() {
        // Insert A and B, touch A, then insert C over budget: the victim
        // must be B (least recently used), not A (oldest inserted).
        let pts_a = cloud(250, 3);
        let pts_b = cloud(250, 4);
        let pts_c = cloud(250, 5);
        let one = Plan::try_new(Laplace, &pts_a, opts_small()).unwrap().approx_bytes();
        let cache = PlanCache::new(one * 2 + one / 2);
        cache.get_or_plan(&Laplace, &pts_a, opts_small()).unwrap();
        cache.get_or_plan(&Laplace, &pts_b, opts_small()).unwrap();
        cache.get_or_plan(&Laplace, &pts_a, opts_small()).unwrap(); // touch A
        cache.get_or_plan(&Laplace, &pts_c, opts_small()).unwrap(); // evicts B
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        cache.get_or_plan(&Laplace, &pts_a, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 3), "A survived the eviction");
        cache.get_or_plan(&Laplace, &pts_b, opts_small()).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 4), "B was the victim");
    }

    /// Inhomogeneous kernels hold one set of 316 M2L tensors and one
    /// operator block per level; the LRU budget must charge every level of
    /// both, and a homogeneous kernel's single table must not grow with
    /// depth.
    #[test]
    fn approx_bytes_charges_dense_tables_per_level_when_inhomogeneous() {
        let pts = cloud(900, 19);
        let opts = opts_small();
        let homog = Plan::try_new(Laplace, &pts, opts).unwrap();
        let inhomog = Plan::try_new(ModifiedLaplace::new(1.0), &pts, opts).unwrap();
        let depth = homog.tree.depth() as usize;
        assert!(depth >= 3, "need several operator levels (depth {depth})");
        let op_levels = depth - FIRST_FMM_LEVEL as usize + 1;
        let ns = crate::surface::num_surface_points(opts.order);
        // Per level: 316 half-spectrum tensors (split re/im, 16 bytes an
        // entry) and 18 dense operators. Same tree, lists and points: the
        // estimates differ exactly by the extra levels of both (homog
        // holds one of each).
        let slab = homog.pre.m2l_fft.as_ref().expect("FFT tables").slab_len();
        let tables = 316 * slab * 16 + 18 * ns * ns * 8;
        assert_eq!(inhomog.approx_bytes() - homog.approx_bytes(), (op_levels - 1) * tables);
        assert_eq!(homog.pre.bytes(), tables);
        let shallow = Plan::try_new(Laplace, &pts, FmmOptions { max_level: 2, ..opts }).unwrap();
        assert_eq!(shallow.tree.depth(), 2);
        assert_eq!(shallow.pre.bytes(), homog.pre.bytes(), "one table at any depth");
    }

    #[test]
    fn plan_cache_concurrent_misses_on_one_key_build_once() {
        let pts = cloud(600, 37);
        // Plan construction is the kernel's only caller here, so its call
        // count measures how many plans were built.
        let evals = Arc::new(AtomicU64::new(0));
        let counter = evals.clone();
        let kernel =
            kifmm_kernels::CustomKernel::new("counting", 1, 1, Some(-1.0), move |x, y, block| {
                counter.fetch_add(1, Ordering::Relaxed);
                Kernel::eval(&Laplace, x, y, block)
            });
        Plan::try_new(kernel.clone(), &pts, opts_small()).unwrap();
        let evals_per_build = evals.swap(0, Ordering::Relaxed);
        assert!(evals_per_build > 0);

        const THREADS: usize = 8;
        let cache = PlanCache::unbounded();
        let start = std::sync::Barrier::new(THREADS);
        let plans: Vec<Arc<Plan<_>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.get_or_plan(&kernel, &pts, opts_small()).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread panicked")).collect()
        });
        assert_eq!(evals.load(Ordering::Relaxed), evals_per_build, "exactly one plan was built");
        assert_eq!((cache.misses(), cache.hits()), (1, THREADS as u64 - 1));
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])), "every caller shares one plan");
        assert_eq!(cache.len(), 1);
    }

    /// Two keys miss at once: each build stalls in its first kernel call
    /// until the other build has made its own — possible only if neither
    /// waits for the other to finish.
    #[test]
    fn plan_cache_misses_on_different_keys_build_concurrently() {
        let pts = cloud(400, 38);
        let started = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let kernels: Vec<_> = (0..2)
            .map(|i| {
                let (mine, other) = (started[i].clone(), started[1 - i].clone());
                kifmm_kernels::CustomKernel::new(
                    ["first", "second"][i],
                    1,
                    1,
                    Some(-1.0),
                    move |x, y, block| {
                        if mine.swap(1, Ordering::SeqCst) == 0 {
                            let t0 = Instant::now();
                            while other.load(Ordering::SeqCst) == 0 {
                                assert!(
                                    t0.elapsed().as_secs() < 60,
                                    "the other key's build never started: builds are serialized"
                                );
                                std::thread::yield_now();
                            }
                        }
                        Kernel::eval(&Laplace, x, y, block)
                    },
                )
            })
            .collect();
        let cache = PlanCache::unbounded();
        std::thread::scope(|scope| {
            for k in &kernels {
                scope.spawn(|| cache.get_or_plan(k, &pts, opts_small()).unwrap());
            }
        });
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 0, 2));
    }

    /// An evaluation that panics with a scratch pair checked out (a
    /// wrong-length second density) drops that pair: the session stays
    /// usable and its next evaluations match a fresh session bit for bit.
    #[test]
    fn a_panicking_evaluation_leaves_the_scratch_pool_usable() {
        let pts = cloud(500, 41);
        let d = densities(500, 1, 4);
        let plan = Arc::new(Plan::try_new(Laplace, &pts, opts_small()).unwrap());
        for parallel in [false, true] {
            let fresh = |parallel| {
                let mut s = Session::new(plan.clone());
                s.set_parallel_eval(parallel);
                s
            };
            let expect = fresh(parallel).eval(&d).potentials;
            let session = fresh(parallel);
            session.eval(&d);
            let short = &d[..499];
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.eval_many(&[&d, short])
            }));
            assert!(hit.is_err(), "a wrong-length density must panic");
            for _ in 0..2 {
                assert!(session.eval(&d).potentials == expect, "parallel = {parallel}");
            }
        }
    }

    #[test]
    fn session_pool_reuses_scratch() {
        let pts = cloud(300, 11);
        let session =
            Session::from_plan(Plan::try_new(Laplace, &pts, opts_small()).unwrap());
        let d = densities(300, 1, 0);
        let first = session.eval(&d).potentials;
        for _ in 0..3 {
            assert_eq!(session.eval(&d).potentials, first);
        }
    }

    #[test]
    fn eval_many_matches_fmm_wrapper() {
        // The builder's session and a standalone Session over an
        // identically built plan agree bitwise.
        let pts = cloud(350, 13);
        let d = densities(350, 1, 2);
        let fmm = Fmm::builder(Laplace).points(&pts).options(opts_small()).build();
        let session =
            Session::from_plan(Plan::try_new(Laplace, &pts, opts_small()).unwrap());
        assert_eq!(fmm.eval(&d).potentials, session.eval(&d).potentials);
    }

    // Pool dispatch (`Session::set_parallel_eval`):
    // each output element is computed by exactly one task in the serial
    // instruction order, so results and flop counts equal the serial path's.

    #[test]
    fn parallel_equals_serial_laplace() {
        let pts = cloud(1500, 4);
        let dens: Vec<f64> = (0..1500).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 5, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let serial = fmm.eval(&dens).potentials;
        fmm.set_parallel_eval(true);
        let parallel = fmm.eval(&dens).potentials;
        assert_eq!(serial, parallel, "parallel path must be bit-identical");
    }

    #[test]
    fn parallel_equals_serial_stokes_clustered() {
        let mut pts = cloud(400, 9);
        for p in cloud(400, 10) {
            pts.push([0.9 + p[0] * 0.05, 0.9 + p[1] * 0.05, 0.9 + p[2] * 0.05]);
        }
        let dens = kifmm_geom::random_densities(800, 3, 3);
        let fmm = Fmm::builder(Stokes::default())
            .points(&pts)
            .order(4)
            .max_pts_per_leaf(12)
            .build();
        let mut par =
            Fmm::builder(Stokes::default()).points(&pts).order(4).max_pts_per_leaf(12).build();
        par.set_parallel_eval(true);
        assert_eq!(fmm.eval(&dens).potentials, par.eval(&dens).potentials);
    }

    #[test]
    fn parallel_flop_counts_match_serial() {
        let pts = cloud(1200, 77);
        let dens = vec![1.0; 1200];
        let mut fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 15, ..Default::default() })
            .build();
        let s = fmm.eval(&dens).stats;
        fmm.set_parallel_eval(true);
        let p = fmm.eval(&dens).stats;
        assert_eq!(s.flops, p.flops, "flop accounting must agree exactly");
    }

    #[test]
    fn parallel_shallow_tree() {
        let pts = cloud(40, 3);
        let dens = vec![1.0; 40];
        let mut fmm = Fmm::builder(Laplace).points(&pts).options(FmmOptions::with_order(4)).build();
        let serial = fmm.eval(&dens).potentials;
        fmm.set_parallel_eval(true);
        assert_eq!(serial, fmm.eval(&dens).potentials);
    }
}
