//! The kernel-independent fast multipole method (KIFMM) of Ying, Biros,
//! Zorin & Langston (SC 2003).
//!
//! Instead of analytic multipole/local expansions, the method represents
//! far fields by *equivalent densities* on cube surfaces around each octree
//! box and converts between them by solving small exterior/interior
//! integral equations ([`surface`], [`operators`]). The M2L translation —
//! the dominant cost of the downward pass — is accelerated with local FFTs
//! ([`m2l`]). The result is an `O(N)` evaluator ([`Fmm`]) that works for
//! any non-oscillatory second-order elliptic kernel implementing
//! `kifmm_kernels::Kernel`.
//!
//! ```
//! use kifmm_core::Fmm;
//! use kifmm_kernels::Laplace;
//!
//! let points: Vec<[f64; 3]> = (0..500)
//!     .map(|i| {
//!         let t = i as f64;
//!         [(t * 0.37).sin(), (t * 0.73).cos(), (t * 0.11).sin()]
//!     })
//!     .collect();
//! let densities = vec![1.0; points.len()];
//! let fmm = Fmm::builder(Laplace).points(&points).build();
//! let report = fmm.eval(&densities);
//! assert_eq!(report.potentials.len(), points.len());
//! ```

#![forbid(unsafe_code)]

pub mod direct;
pub mod engine;
pub mod evaluator;
pub mod fmm;
pub mod m2l;
pub mod operators;
pub mod plan;
pub mod precompute;
pub mod stats;
pub mod surface;
pub mod targets;

pub use direct::{
    direct_eval, direct_eval_grad, direct_eval_grad_src_trg, direct_eval_src_trg, rel_l2_error,
};
pub use engine::{
    ActiveSet, EngineWorkspace, ExpansionStore, LeafTargets, LocalSources, PassEngine, SourceProvider,
};
pub use evaluator::{EvalReport, FmmBuilder, OutputSpec};
pub use fmm::{Fmm, FmmOptions};
pub use plan::{
    geometry_hash, kernel_name_hash, BuildError, Plan, PlanCache, PlanKey, Session, UpdateError,
};
pub use m2l::{v_list_directions, M2lFft};
pub use operators::{LevelOps, LevelRule, LevelScale, OperatorTable, FIRST_FMM_LEVEL};
pub use precompute::{Precomputed, PrecomputeCache};
pub use stats::{thread_cpu_time, Meter, Phase, PhaseStats, PHASES, PHASE_NAMES};
pub use surface::{num_surface_points, surface_points, RAD_INNER, RAD_OUTER};
