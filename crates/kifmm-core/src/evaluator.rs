//! The evaluation API's builder and result: [`FmmBuilder`], [`EvalReport`]
//! and [`OutputSpec`].
//!
//! Every shared-memory execution strategy is reached through one verb
//! ([`Session::eval`], batched as [`Session::eval_many`]) on what
//! [`FmmBuilder::build`] returns — a [`Session`] over a freshly built
//! [`Plan`] ([`Fmm`](crate::Fmm) is an alias of `Session`):
//!
//! ```
//! use kifmm_core::Fmm;
//! use kifmm_kernels::Laplace;
//!
//! let points: Vec<[f64; 3]> = (0..300)
//!     .map(|i| {
//!         let t = i as f64;
//!         [(t * 0.37).sin(), (t * 0.73).cos(), (t * 0.11).sin()]
//!     })
//!     .collect();
//! let fmm = Fmm::builder(Laplace).points(&points).order(4).build();
//! let report = fmm.eval(&vec![1.0; points.len()]);
//! assert_eq!(report.potentials.len(), points.len());
//! assert!(report.stats.total_flops() > 0);
//! ```
//!
//! A report carries the potentials, the per-phase [`PhaseStats`], and the
//! [`Tracer`] that observed the run — disabled by default (and then free:
//! every tracing operation short-circuits on one branch), or attached via
//! [`FmmBuilder::trace`] to capture per-rank span timelines exportable as
//! chrome-trace JSON.

use crate::fmm::FmmOptions;
use crate::plan::{BuildError, Plan, Session};
use crate::precompute::PrecomputeCache;
use crate::stats::PhaseStats;
use kifmm_kernels::{Kernel, Point3};
use kifmm_trace::Tracer;
use kifmm_tree::Octree;

/// What an evaluation produces per target point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OutputSpec {
    /// Potentials only: `trg_dim` components per point.
    #[default]
    Potential,
    /// Potentials plus spatial gradients `∂u_t/∂x_d`: the far field comes
    /// free from the equivalent densities (the L2T/W read-off evaluates
    /// `∇G` from the same equivalent sources; only the near field runs the
    /// fused `p2p_grad_many`), so no new translation operators are built.
    PotentialAndGradient,
}

impl OutputSpec {
    /// Whether gradients are produced.
    pub fn wants_gradient(self) -> bool {
        matches!(self, OutputSpec::PotentialAndGradient)
    }
}

/// The result of one interaction-calculation run.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// Potentials: `trg_dim` interleaved components per point, in the
    /// caller's original point order.
    pub potentials: Vec<f64>,
    /// Gradients: `trg_dim·3` interleaved components per point
    /// (`[t·3 + d] = ∂u_t/∂x_d`), caller's original point order. Empty
    /// unless the plan was built with [`OutputSpec::PotentialAndGradient`].
    pub gradients: Vec<f64>,
    /// Per-phase seconds and exact flop counts.
    pub stats: PhaseStats,
    /// The tracer that observed the run (disabled unless one was
    /// attached; export with [`Tracer::chrome_trace_json`]).
    pub trace: Tracer,
}

impl EvalReport {
    /// One report per RHS from a driver's Morton-ordered outputs:
    /// potentials (`trg_dim` per point) and gradients (empty, or one
    /// `trg_dim·3` vector per RHS) scattered back to the caller's point
    /// order, every report carrying the batch's `stats`. Takes the
    /// vectors by value so each is freed as soon as it is scattered (a
    /// batch never holds both orders of all `k` outputs at once).
    pub fn assemble(
        tree: &Octree,
        trg_dim: usize,
        pots: Vec<Vec<f64>>,
        grads: Vec<Vec<f64>>,
        stats: &PhaseStats,
        trace: &Tracer,
    ) -> Vec<EvalReport> {
        let mut grads = grads.into_iter();
        pots.into_iter()
            .map(|pot| EvalReport {
                potentials: tree.from_morton(&pot, trg_dim),
                gradients: grads.next().map_or_else(Vec::new, |g| tree.from_morton(&g, trg_dim * 3)),
                stats: stats.clone(),
                trace: trace.clone(),
            })
            .collect()
    }
}

/// Builder for a [`Session`] (see [`Session::builder`], spelled
/// `Fmm::builder` through the alias): options and observability in one
/// fluent chain. (Serial or pool dispatch is the session's:
/// [`Session::set_parallel_eval`].) The distributed driver has no builder:
/// every rank calls `kifmm_parallel::ParallelFmm::try_new` with its local
/// points and the same [`FmmOptions`].
///
/// ```
/// use kifmm_core::Fmm;
/// use kifmm_kernels::Laplace;
/// use kifmm_trace::Tracer;
///
/// let points = vec![[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6], [0.7, -0.8, 0.9]];
/// let fmm = Fmm::builder(Laplace)
///     .points(&points)
///     .order(4)
///     .trace(Tracer::enabled())
///     .build();
/// assert!(fmm.trace().is_enabled());
/// ```
pub struct FmmBuilder<'a, K: Kernel> {
    kernel: K,
    points: Option<&'a [Point3]>,
    opts: FmmOptions,
    trace: Tracer,
    cache: Option<&'a PrecomputeCache<K>>,
}

impl<'a, K: Kernel> FmmBuilder<'a, K> {
    pub(crate) fn new(kernel: K) -> Self {
        FmmBuilder {
            kernel,
            points: None,
            opts: FmmOptions::default(),
            trace: Tracer::disabled(),
            cache: None,
        }
    }

    /// The point set (sources ≡ targets). Required.
    pub fn points(mut self, points: &'a [Point3]) -> Self {
        self.points = Some(points);
        self
    }

    /// Surface discretization order `p` (default 6).
    pub fn order(mut self, order: usize) -> Self {
        self.opts.order = order;
        self
    }

    /// Maximum points per leaf box (the paper's `s`; default 60).
    pub fn max_pts_per_leaf(mut self, s: usize) -> Self {
        self.opts.max_pts_per_leaf = s;
        self
    }

    /// What each evaluation produces (default potentials only). With
    /// [`OutputSpec::PotentialAndGradient`], reports carry
    /// `trg_dim·3` gradient components per point alongside the
    /// potentials.
    pub fn output(mut self, output: OutputSpec) -> Self {
        self.opts.output = output;
        self
    }

    /// Replace the whole option set at once.
    pub fn options(mut self, opts: FmmOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attach a tracer; [`Session::eval`] records per-phase spans into
    /// it. Default: [`Tracer::disabled`] (zero-cost).
    pub fn trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Share particle-independent operator tables through `cache`
    /// (parameter sweeps, virtual-rank benches).
    pub fn cache(mut self, cache: &'a PrecomputeCache<K>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Build the plan and open a serial [`Session`] over it with this
    /// builder's tracer, reporting configuration problems as a typed
    /// [`BuildError`] instead of panicking.
    pub fn try_build(self) -> Result<Session<K>, BuildError> {
        let trace = self.trace.clone();
        let mut session = Session::from_plan(self.try_plan()?);
        session.set_trace(trace);
        Ok(session)
    }

    /// As [`FmmBuilder::try_build`]: tree, interaction lists and
    /// translation operators, wrapped in a ready-to-evaluate [`Session`].
    ///
    /// # Panics
    /// On any [`BuildError`] — if [`FmmBuilder::points`] was never
    /// supplied, the point set is empty or holds a non-finite coordinate,
    /// the order is below 2 or the leaf capacity is 0.
    pub fn build(self) -> Session<K> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build only the immutable [`Plan`] (tree, lists, operator tables) —
    /// the shareable set-up artifact; [`Session`]s evaluate. The tracer
    /// set on this builder belongs to a [`Session`] and is not part of the
    /// plan; open sessions over the plan to evaluate.
    pub fn try_plan(self) -> Result<Plan<K>, BuildError> {
        let FmmBuilder { kernel, points, opts, trace: _, cache } = self;
        let points = points.ok_or(BuildError::MissingPoints)?;
        match cache {
            Some(c) => Plan::try_new_with_cache(kernel, points, opts, c),
            None => Plan::try_new(kernel, points, opts),
        }
    }

    /// As [`FmmBuilder::try_plan`].
    ///
    /// # Panics
    /// On any [`BuildError`].
    pub fn plan(self) -> Plan<K> {
        self.try_plan().unwrap_or_else(|e| panic!("{e}"))
    }
}
