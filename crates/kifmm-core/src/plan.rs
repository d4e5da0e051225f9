//! Set-up and evaluation apart: [`Plan`], [`Session`] and [`PlanCache`].
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
//!   execution policy (tracer, serial/pool dispatch); `eval_many` and
//!   `evaluate_at` run through its one evaluation body;
//! * a [`PlanCache`] memoizes plans by
//!   `(kernel id, order, output, leaf capacity, depth cap, root cube,
//!   geometry)` with an LRU byte bound, so a service answering repeated
//!   requests against recurring geometries skips setup entirely on a warm
//!   hit — and gets, bit for bit, the plan a miss would have built.

use crate::engine::{ActiveSet, LeafTargets, PassEngine, Scratch};
use crate::evaluator::{EvalReport, FmmBuilder};
use crate::fmm::FmmOptions;
use crate::operators::FIRST_FMM_LEVEL;
use crate::precompute::{Precomputed, PrecomputeCache};
use crate::stats::{Meter, Phase, PhaseStats};
use kifmm_kernels::{Kernel, Point3};
use kifmm_runtime::{par_map, Dispatch, Pool};
use kifmm_tree::{
    build_lists, first_non_finite, update_octree, Domain, InteractionLists, Octree, UpdateError,
};
use kifmm_trace::Tracer;
use std::collections::HashMap;
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
        }
    }
}

impl std::error::Error for BuildError {}

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
    fn digest(points: &[Point3]) -> u64 {
        let mut h = OFFSET;
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
    for d in par_map(points.chunks(CHUNK), digest) {
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

/// The identity of a [`Plan`] inside a [`PlanCache`]: everything a build
/// reads, so two lookups with one key are served one plan only when a
/// build for either would produce it bit for bit.
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
    /// Bits of the root cube's center and half-width. The same points
    /// over another cube make another tree and other potentials: a cold
    /// build fits the cube to its points, a patched plan keeps its base's.
    pub root: [u64; 4],
    /// [`geometry_hash`] of the point set.
    pub geometry: u64,
}

impl PlanKey {
    /// Assemble the key for `(kernel, opts)` over the point set with
    /// [`geometry_hash`] `geometry` in the root cube `root`.
    pub fn new<K: Kernel>(kernel: &K, opts: &FmmOptions, root: &Domain, geometry: u64) -> Self {
        let [x, y, z] = root.center.map(f64::to_bits);
        PlanKey {
            kernel_id: kernel.id_bits(),
            kernel_name: kernel_name_hash(kernel.name()),
            order: opts.order,
            output: opts.output,
            max_pts_per_leaf: opts.max_pts_per_leaf,
            max_level: opts.max_level,
            root: [x, y, z, root.half.to_bits()],
            geometry,
        }
    }
}

/// Everything FMM setup produces for one `(kernel, options, point set)`:
/// tree, interaction lists, Morton-sorted points, precomputed inversions
/// and M2L tables — set-up data only. Immutable and `Send + Sync`: any
/// number of [`Session`]s evaluate against one plan concurrently, each
/// bringing its own scratch.
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
    /// Every box is active: a plan covers the whole tree.
    pub(crate) active: ActiveSet,
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
        opts.validate()?;
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
        Ok(Self::over(kernel, opts, tree, lists, pre, points))
    }

    /// What both constructors end with: the points permuted into Morton
    /// order and the all-active set, over a finished tree, lists and
    /// operator tables.
    fn over(
        kernel: K,
        opts: FmmOptions,
        tree: Octree,
        lists: Arc<InteractionLists>,
        pre: Arc<Precomputed<K>>,
        points: &[Point3],
    ) -> Self {
        let sorted_points = tree.to_morton(points, 1);
        let active = ActiveSet::build(&tree, |_| true);
        Plan { kernel, opts, tree, lists, pre, sorted_points, active }
    }

    /// Patch this plan for a moved point set instead of rebuilding it:
    /// rebuild the tree over this plan's root cube
    /// (`kifmm_tree::update_octree`) and — when the structure is
    /// unchanged, the common case for small motion — reuse the
    /// interaction lists wholesale. The operator tables
    /// (`Arc<Precomputed>`) are always shared: they depend on the domain
    /// and depth, not on the points. The result is the plan
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

    /// Number of points.
    pub fn len(&self) -> usize {
        self.sorted_points.len()
    }

    /// True when empty (never; construction requires points).
    pub fn is_empty(&self) -> bool {
        self.sorted_points.is_empty()
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

    /// Estimated resident bytes of the plan: tree, lists and points from
    /// their lengths, operator tables as [`Precomputed::bytes`] reports
    /// them.
    pub fn approx_bytes(&self) -> usize {
        self.parts().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// [`Plan::approx_bytes`] in three parts, each under the address that
    /// identifies it: the plan's own tree and points, its lists and its
    /// operator tables. The last two are `Arc`s a patched plan shares with
    /// its base ([`Plan::update_points`]), so [`PlanCache`] charges each
    /// address once.
    fn parts(&self) -> [(usize, usize); 3] {
        let tree = self.tree.num_nodes() * 96 + self.len() * 4;
        let lists: usize = [&self.lists.u, &self.lists.v, &self.lists.w, &self.lists.x]
            .iter()
            .map(|l| l.iter().map(Vec::len).sum::<usize>() * 4 + l.len() * 24)
            .sum();
        let points = self.sorted_points.len() * 24;
        [
            (self as *const Self as usize, tree + points),
            (Arc::as_ptr(&self.lists) as usize, lists),
            (Arc::as_ptr(&self.pre) as usize, self.pre.bytes()),
        ]
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
    pub(crate) dispatch: Dispatch,
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

    /// Evaluate potentials for one density vector (original point order,
    /// `SRC_DIM` interleaved components per point).
    pub fn eval(&self, densities: &[f64]) -> EvalReport {
        self.eval_many(&[densities]).pop().expect("one report per RHS")
    }

    /// Evaluate a batch of `k = densities.len()` charge vectors (each in
    /// original point order, `SRC_DIM` interleaved components per point),
    /// running every FMM pass **once** over the whole batch: the per-level
    /// translation GEMMs widen their column blocks `k`-fold, the FFT M2L
    /// reuses each direction tensor across the batch, and the dense passes
    /// share pair geometry through [`Kernel::p2p_many`]. Returns one report
    /// per RHS (original point order), each carrying the per-phase
    /// statistics of the shared batch execution.
    ///
    /// Each output vector is bit-identical to what a single-RHS evaluation
    /// of that density vector produces (asserted in tests); `k = 1` is the
    /// same code with a batch of one. Gradients (`trg_dim·3` interleaved
    /// per point) are produced only when the plan was built with
    /// [`crate::OutputSpec::PotentialAndGradient`].
    pub fn eval_many(&self, densities: &[&[f64]]) -> Vec<EvalReport> {
        let engine = self.plan.engine(self.dispatch);
        let dens = engine.sort_batch(densities);
        let wants_grad = self.opts.output.wants_gradient();
        let (pots, grads, stats) = self.evaluate(&engine, &dens, engine.own_targets(), wants_grad);
        EvalReport::assemble(&self.tree, self.kernel.trg_dim(), pots, grads, &stats, &self.trace)
    }

    /// The one evaluation body: the far field of the Morton-ordered batch
    /// `dens` (from [`PassEngine::sort_batch`]) — Up → M2L → X → L2L —
    /// then the leaf phase at `at`, every pass charged through one
    /// [`Meter`] on one scratch pair checked out of the pool (a fresh one
    /// when none is idle; a pair whose evaluation panics is dropped, never
    /// pooled). Returns one potential vector per RHS indexed like
    /// `at.points`, the gradients likewise when `wants_grad` (else none),
    /// and the batch's statistics. Phase seconds are on the meter's clock
    /// for the session's dispatch; flop counts are the same under both.
    pub(crate) fn evaluate(
        &self,
        engine: &PassEngine<'_, K>,
        dens: &[Vec<f64>],
        at: LeafTargets<'_>,
        wants_grad: bool,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, PhaseStats) {
        let dens: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
        let src = engine.sources(&dens);
        let depth = self.tree.depth();
        let rt = self.trace.rank(0);
        let mut meter = Meter::new(&rt, self.dispatch);
        let (pots, grads) = self.pool.with(Scratch::default, |(store, ws)| {
            engine.prepare_store(store, dens.len());
            if depth >= FIRST_FMM_LEVEL {
                meter.compute(Phase::Up, "Up", None, || engine.upward(&src, store, ws));
                meter.touched(engine.active_cell_count());
                for level in FIRST_FMM_LEVEL..=depth {
                    let m2l = || engine.m2l_level(level, store, ws);
                    meter.compute(Phase::DownV, "m2l", Some(level), m2l);
                }
                meter.compute(Phase::DownX, "x-list", None, || engine.x_pass(&src, store));
                meter.compute(Phase::Eval, "l2l", None, || engine.l2l(store, ws));
            }
            engine.leaf_phase(&src, store, at, wants_grad, &mut meter)
        });
        (pots, grads, meter.stats)
    }
}

impl<K: Kernel> std::ops::Deref for Session<K> {
    type Target = Plan<K>;

    fn deref(&self) -> &Plan<K> {
        &self.plan
    }
}

/// One key's plan, set once by the first caller to miss; later same-key
/// callers block in `get_or_init` and share its outcome. `Err(None)` is a
/// patch that does not apply ([`PlanCache::get_or_update`] files one under
/// its key, which [`PlanCache::get_or_plan`] shares in the same cube;
/// either then builds cold). No error is cached. If the builder panics
/// the cell stays empty and the next caller builds.
type Flight<K> = Arc<OnceLock<Result<Arc<Plan<K>>, Option<BuildError>>>>;

/// A key's place in the cache: its flight and its last-use stamp.
struct Slot<K: Kernel> {
    flight: Flight<K>,
    stamp: u64,
}

impl<K: Kernel> Slot<K> {
    /// The slot's plan, once its flight has built one.
    fn plan(&self) -> Option<&Arc<Plan<K>>> {
        self.flight.get()?.as_ref().ok()
    }
}

/// The bytes the resident plans hold, each shared part counted once
/// ([`Plan::parts`]).
fn resident_bytes<K: Kernel>(slots: &HashMap<PlanKey, Slot<K>>) -> usize {
    let parts: HashMap<usize, usize> =
        slots.values().filter_map(Slot::plan).flat_map(|p| p.parts()).collect();
    parts.values().sum()
}

/// An LRU-bounded memoization of [`Plan`]s keyed by [`PlanKey`]. One
/// cache serves one kernel *type* (the type parameter); kernel
/// *parameters* are distinguished through [`Kernel::id_bits`].
///
/// A hit is the plan a miss would build, bit for bit: cold builds are
/// filed under their points' own cube, patches under their base's, and
/// over one cube a patch is the cold build ([`Plan::update_points`]).
///
/// Lookups are counted once, here: [`PlanCache::hits`],
/// [`PlanCache::misses`] and [`PlanCache::updates`].
pub struct PlanCache<K: Kernel> {
    slots: Mutex<HashMap<PlanKey, Slot<K>>>,
    clock: AtomicU64,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    updates: AtomicU64,
}

impl<K: Kernel> PlanCache<K> {
    /// Cache bounded to roughly `max_bytes` of resident plan memory
    /// ([`Plan::approx_bytes`], with the operator tables and lists that
    /// plans share charged once); the least-recently-used plans are evicted
    /// once the bound is exceeded (the most recent plan is always kept).
    pub fn new(max_bytes: usize) -> Self {
        PlanCache {
            slots: Mutex::new(HashMap::new()),
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
        self.slots().values().filter(|s| s.plan().is_some()).count()
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot map. A poisoned lock only means another user panicked
    /// between two consistent states, so the guard is recovered.
    fn slots(&self) -> std::sync::MutexGuard<'_, HashMap<PlanKey, Slot<K>>> {
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Fetch the plan for `(kernel, points, opts)`, building it on a
    /// miss. A warm hit performs no tree construction and no operator
    /// precomputation — only the geometry hash and the bounding box (one
    /// linear scan of the points each). Concurrent misses on one key
    /// build once: the others wait for the first and share its plan,
    /// counted as hits (or its error, which is not cached). Misses on
    /// other keys build concurrently.
    pub fn get_or_plan(
        &self,
        kernel: &K,
        points: &[Point3],
        opts: FmmOptions,
    ) -> Result<Arc<Plan<K>>, BuildError> {
        // An empty set has no root cube to key on; its build fails.
        if points.is_empty() {
            return Plan::try_new(kernel.clone(), points, opts).map(Arc::new);
        }
        let key = PlanKey::new(kernel, &opts, &Domain::containing(points), geometry_hash(points));
        loop {
            match self.lookup(key, || self.plan_miss(kernel, points, opts).map_err(Some)) {
                Ok(plan) => return Ok(plan),
                Err(Some(e)) => return Err(e),
                // A concurrent `get_or_update` in this same cube filed a
                // patch that did not apply; its slot is gone, so build.
                Err(None) => {}
            }
        }
    }

    /// Fetch the plan for `base`'s kernel/options over `new_points` in
    /// `base`'s root cube, *patching* `base` via [`Plan::update_points`]
    /// on a miss instead of building from scratch — the time-stepping fast
    /// path (points move a little every step, so the tree is rebuilt in the
    /// old root cube and the operator tables are shared).
    /// When the patch is impossible ([`UpdateError`]: domain drift,
    /// changed point count, deeper structure than the operators cover)
    /// this is [`PlanCache::get_or_plan`]; the patch's key holds patches
    /// only. Single-flight per key, like [`PlanCache::get_or_plan`].
    ///
    /// Counters: a cached patch for the new geometry counts as a hit, a
    /// successful patch as an *update* ([`PlanCache::updates`]), and the
    /// fallback as [`PlanCache::get_or_plan`] counts it.
    pub fn get_or_update(
        &self,
        base: &Arc<Plan<K>>,
        new_points: &[Point3],
    ) -> Result<Arc<Plan<K>>, BuildError> {
        let opts = *base.options();
        let geometry = geometry_hash(new_points);
        let key = PlanKey::new(base.kernel(), &opts, &base.tree.domain, geometry);
        let patched = self.lookup(key, || {
            let plan = base.update_points(new_points).map_err(|_| None)?;
            self.updates.fetch_add(1, Ordering::Relaxed);
            Ok(plan)
        });
        patched.or_else(|_| self.get_or_plan(base.kernel(), new_points, opts))
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

    /// Serve `key` from its slot — a resident plan or a build in flight —
    /// or else run `build` outside the lock (a slow build must not
    /// serialize lookups of other keys), then make its plan resident and
    /// run LRU eviction. The first caller to see a build fail drops its
    /// slot.
    fn lookup(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Result<Plan<K>, Option<BuildError>>,
    ) -> Result<Arc<Plan<K>>, Option<BuildError>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let flight = {
            let mut slots = self.slots();
            let empty = || Slot { flight: Default::default(), stamp };
            let slot = slots.entry(key).or_insert_with(empty);
            slot.stamp = stamp;
            slot.flight.clone()
        };
        let mut ran = false;
        let result = flight
            .get_or_init(|| {
                ran = true;
                build().map(Arc::new)
            })
            .clone();
        if result.is_ok() && !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return result;
        }
        let mut slots = self.slots();
        if result.is_err() {
            // A later caller may already have put a new slot under the key.
            if slots.get(&key).is_some_and(|s| Arc::ptr_eq(&s.flight, &flight)) {
                slots.remove(&key);
            }
            return result;
        }
        while resident_bytes(&slots) > self.max_bytes {
            let lru = slots
                .iter()
                .filter(|(k, s)| s.plan().is_some() && **k != key)
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = lru else { break };
            slots.remove(&victim);
        }
        result
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
        assert_eq!(upd.morton_points(), plan.morton_points());
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
    /// same permutation, same bits — under motion inside a cell, a swap of
    /// curve neighbours and a reflection, over a cloud with a pile of
    /// coincident points (tied max-depth codes).
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
        let check = |moved: &[Point3], branch: &str| {
            let upd = base.update_points(moved).unwrap();
            let fresh = Plan::try_new(Laplace, moved, opts_small()).unwrap();
            assert!(upd.tree.perm == fresh.tree.perm, "{branch}: permutation differs");
            assert!(upd.tree.structure_eq(&fresh.tree), "{branch}: tree differs");
            let [a, b] = [upd, fresh].map(|plan| Session::from_plan(plan).eval(&dens).potentials);
            assert!(a == b, "{branch}: potentials differ");
        };
        // A pile member moves inside its max-depth cell.
        let mut nudged = pts.clone();
        nudged[48][0] += 1e-8;
        check(&nudged, "nudge");
        // Two neighbours of the old order share a cell
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
        check(&joined, "swap and join");
        // Reflect through the center; the pile stays a pile.
        let flipped: Vec<Point3> = pts.iter().map(|p| p.map(|c| -c)).collect();
        check(&flipped, "reflection");
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

    /// A patched plan keeps its base's root cube, a cold build fits one to
    /// its points: after `get_or_update` files the patch, `get_or_plan`
    /// over the same moved points must not be served it, but the plan
    /// `Plan::try_new` builds, bit for bit.
    #[test]
    fn a_cache_hit_is_the_plan_a_miss_would_build() {
        let pts = cloud(900, 41);
        let cache = PlanCache::unbounded();
        let base = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        let moved = shrink_toward(&pts, base.tree.domain.center, 0.999);
        let patched = cache.get_or_update(&base, &moved).unwrap();
        assert_eq!(patched.tree.domain, base.tree.domain, "a patch keeps its base's cube");
        let served = cache.get_or_plan(&Laplace, &moved, opts_small()).unwrap();
        let fresh = Plan::try_new(Laplace, &moved, opts_small()).unwrap();
        assert_eq!(served.tree.domain, fresh.tree.domain, "served a plan over another cube");
        let d = densities(900, 1, 5);
        let [a, b] = [served.clone(), Arc::new(fresh)].map(|plan| Session::new(plan).eval(&d));
        assert!(
            a.potentials.iter().zip(&b.potentials).all(|(x, y)| x.to_bits() == y.to_bits()),
            "a cache hit differs from the plan a miss builds"
        );
        // Asked again, the cold build is the hit.
        let again = cache.get_or_plan(&Laplace, &moved, opts_small()).unwrap();
        assert!(Arc::ptr_eq(&again, &served));
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (1, 2, 1));
    }

    /// An empty set has no root cube to key on: the cache hands back the
    /// build's own error (a bad option's first) and files nothing.
    #[test]
    fn plan_cache_refuses_an_empty_set_like_a_build() {
        let cache = PlanCache::unbounded();
        let get = |opts| cache.get_or_plan(&Laplace, &[], opts).map(|_| ());
        assert_eq!(get(opts_small()), Err(BuildError::EmptyPoints));
        assert_eq!(get(FmmOptions { order: 1, ..opts_small() }), Err(BuildError::OrderTooSmall(1)));
        assert_eq!((cache.len(), cache.misses()), (0, 0));
    }

    /// A `get_or_plan` that waits on a same-cube `get_or_update` flight
    /// whose patch does not apply builds the plan itself. The patch side
    /// fails only once the lookup holds its flight too.
    #[test]
    fn plan_cache_get_or_plan_outlives_a_failed_patch_of_its_key() {
        let pts = cloud(300, 43);
        let cache = PlanCache::unbounded();
        let root = Domain::containing(&pts);
        let key = PlanKey::new(&Laplace, &opts_small(), &root, geometry_hash(&pts));
        let holders = || cache.slots().get(&key).map_or(0, |s| Arc::strong_count(&s.flight));
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache.lookup(key, || {
                    while holders() < 3 {
                        assert!(Instant::now() < deadline, "the lookup never joined the flight");
                        std::thread::yield_now();
                    }
                    Err(None)
                })
            });
            while holders() == 0 {
                std::thread::yield_now();
            }
            let plan = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
            assert_eq!(plan.len(), 300);
        });
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
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
        let root = Domain { center: [0.0; 3], half: 1.0 };
        let ka = PlanKey::new(&a, &opts_small(), &root, 42);
        let kb = PlanKey::new(&b, &opts_small(), &root, 42);
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

    /// Why a plan needs no coverage check: its tables are built (and
    /// cached) for its own tree's depth, so every level the tree reaches
    /// has operators — on a shallow uniform tree and a deep clustered one,
    /// for homogeneous kernels (one shared slot) and ModifiedLaplace (one
    /// slot per level) alike.
    #[test]
    fn operator_tables_cover_every_level_of_the_tree() {
        fn check<K: Kernel>(kernel: K) {
            let clouds = [kifmm_geom::uniform_cube(1500, 81), kifmm_geom::corner_clusters(1500, 82)];
            let depths: Vec<u8> = clouds
                .iter()
                .map(|pts| {
                    let plan = Plan::try_new(kernel.clone(), pts, opts_small()).unwrap();
                    let (ops, depth) = (&plan.precomputed().ops, plan.tree.depth());
                    for l in FIRST_FMM_LEVEL..=depth {
                        assert!(ops.try_at(l).is_some(), "{}: level {l} of {depth}", kernel.name());
                    }
                    depth
                })
                .collect();
            assert!(depths[0] >= FIRST_FMM_LEVEL && depths[1] > depths[0], "{depths:?}");
        }
        check(Laplace);
        check(ModifiedLaplace::new(2.0));
        check(Stokes::default());
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

    /// Patches share their base's operator tables (and its lists while
    /// the boxes are unchanged): the byte bound charges each shared part
    /// once, so a base and three patches fit in 1.1 × (one table set plus
    /// the four plans' own bytes), where a charge per plan keeps only one.
    #[test]
    fn plan_cache_charges_shared_tables_once() {
        let pts = cloud(900, 45);
        let base = Plan::try_new(Laplace, &pts, opts_small()).unwrap();
        let center = base.tree.domain.center;
        let moved: Vec<Vec<Point3>> =
            [0.999, 0.998, 0.997].map(|f| shrink_toward(&pts, center, f)).to_vec();
        let tables = base.pre.bytes();
        let own: usize = std::iter::once(base.approx_bytes())
            .chain(moved.iter().map(|m| base.update_points(m).unwrap().approx_bytes()))
            .map(|b| b - tables)
            .sum();
        let bound = (tables + own) * 11 / 10;
        assert!(4 * tables + own > bound, "a charge per plan must overflow the bound");
        let cache = PlanCache::new(bound);
        let base = cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        for m in &moved {
            cache.get_or_update(&base, m).unwrap();
        }
        assert_eq!((cache.misses(), cache.updates(), cache.len()), (1, 3, 4));
        cache.get_or_plan(&Laplace, &pts, opts_small()).unwrap();
        for m in &moved {
            cache.get_or_update(&base, m).unwrap();
        }
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (4, 1, 3), "all four stayed");
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
        // Per level: 158 half-spectrum tensors, one of each ±v pair
        // (split re/im, 16 bytes an entry), and 18 dense operators. Same
        // tree, lists and points: the estimates differ exactly by the extra
        // levels of both (homog holds one of each).
        let slab = homog.pre.m2l_fft.as_ref().expect("FFT tables").slab_len();
        let tables = 158 * slab * 16 + 18 * ns * ns * 8;
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

    /// An evaluation that panics with a scratch pair checked out (its
    /// kernel panics inside the passes) drops that pair: the session stays
    /// usable and its next evaluations match a fresh session bit for bit.
    #[test]
    fn a_panicking_evaluation_leaves_the_scratch_pool_usable() {
        let pts = cloud(500, 41);
        let d = densities(500, 1, 4);
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = fail.clone();
        let kernel = kifmm_kernels::CustomKernel::new("failing", 1, 1, Some(-1.0), move |x, y, g| {
            assert!(!flag.load(Ordering::Relaxed), "kernel failure");
            Kernel::eval(&Laplace, x, y, g)
        });
        let plan = Arc::new(Plan::try_new(kernel, &pts, opts_small()).unwrap());
        for parallel in [false, true] {
            let fresh = |parallel| {
                let mut s = Session::new(plan.clone());
                s.set_parallel_eval(parallel);
                s
            };
            let expect = fresh(parallel).eval(&d).potentials;
            let session = fresh(parallel);
            session.eval(&d);
            fail.store(true, Ordering::Relaxed);
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.eval(&d)));
            fail.store(false, Ordering::Relaxed);
            assert!(hit.is_err(), "a failing kernel must panic");
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

    /// Per-phase flop counts of one clustered Laplace and one clustered
    /// Stokes plan, for `eval` and `eval_many` (k = 3), pinned to the
    /// values captured before the upward and X passes took their S2M and
    /// X counts from the near-field calls instead of recounting them. The
    /// driver cross-checks compare one path with another and would not see
    /// a counting change every path shares. Each row is `PhaseStats::flops`
    /// (Up, Comm, DownU, DownV, DownW, DownX, Eval).
    #[test]
    fn phase_flop_counts_are_pinned() {
        fn flops<K: Kernel>(kernel: K, pts: &[Point3], s: usize) -> [[u64; 7]; 2] {
            let opts = FmmOptions { order: 4, max_pts_per_leaf: s, ..Default::default() };
            let session = Session::from_plan(Plan::try_new(kernel, pts, opts).unwrap());
            let sd = session.kernel().src_dim();
            let dens: Vec<Vec<f64>> = (0..3).map(|q| densities(pts.len(), sd, q)).collect();
            let refs: Vec<&[f64]> = dens.iter().map(Vec::as_slice).collect();
            [session.eval(&dens[0]).stats.flops, session.eval_many(&refs)[0].stats.flops]
        }
        let laplace = flops(Laplace, &kifmm_geom::corner_clusters(2000, 61), 20);
        let mut pts = cloud(300, 9);
        for p in cloud(300, 10) {
            pts.push([0.9 + p[0] * 0.05, 0.9 + p[1] * 0.05, 0.9 + p[2] * 0.05]);
        }
        let stokes = flops(Stokes::default(), &pts, 12);
        for rows in [&laplace, &stokes] {
            let [up, _, u, v, w, x, eval] = rows[0];
            assert!([up, u, v, w, x, eval].iter().all(|&f| f > 0), "every pass runs: {rows:?}");
        }
        let laplace_one = [7954688, 0, 1802160, 11791360, 5757024, 5757024, 7954688];
        let stokes_one = [18352656, 0, 1977948, 149114880, 4346496, 4346496, 18352656];
        assert_eq!(laplace, [laplace_one, laplace_one.map(|f| 3 * f)], "Laplace");
        assert_eq!(stokes, [stokes_one, stokes_one.map(|f| 3 * f)], "Stokes");
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
