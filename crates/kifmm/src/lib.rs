//! # kifmm — a parallel kernel-independent fast multipole method
//!
//! A from-scratch Rust reproduction of **"A New Parallel Kernel-Independent
//! Fast Multipole Method"** (Ying, Biros, Zorin & Langston, SC 2003):
//! an `O(N)` evaluator for N-body potentials of non-oscillatory elliptic
//! kernels that needs *only kernel evaluations* — no analytic expansions —
//! plus the paper's MPI-style parallelization with overlapped computation
//! and communication.
//!
//! ## Quick start
//!
//! ```
//! use kifmm::{Fmm, Laplace};
//!
//! // Sample points and unit densities.
//! let points = kifmm::geom::uniform_cube(2000, 7);
//! let densities = vec![1.0; points.len()];
//!
//! // Build the tree + translation operators once, evaluate repeatedly.
//! let fmm = Fmm::builder(Laplace).points(&points).build();
//! let report = fmm.eval(&densities);
//! assert_eq!(report.potentials.len(), points.len());
//! assert!(report.stats.total_flops() > 0);
//! ```
//!
//! `build()` returns a [`Session`] (pooled evaluation scratch + execution
//! policy; [`Fmm`] is an alias of it) over an immutable, shareable
//! [`Plan`] (tree + interaction lists + precomputed operators).
//! Long-running services keep a
//! [`PlanCache`] keyed on (kernel, options, geometry) so repeated
//! geometries skip setup entirely, and batch `k` charge vectors through
//! one sweep with [`Session::eval_many`].
//!
//! Attach a [`Tracer`] via [`FmmBuilder::trace`] to capture per-rank span
//! timelines, byte/message counters, and a Perfetto-loadable chrome-trace
//! export — see the [`trace`] module and DESIGN.md's "Observability".
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`kernels`] | [`Laplace`], [`ModifiedLaplace`], [`Stokes`], the [`Kernel`] trait |
//! | [`core`] | [`Plan`] / [`Session`] (alias [`Fmm`]), surfaces, translation operators, FFT M2L, the phase meter |
//! | [`tree`] | Morton keys, adaptive octrees, U/V/W/X lists, partitioning |
//! | [`parallel`] | [`ParallelFmm`]: the distributed driver of paper §3, built collectively through [`ParallelFmm::try_new`] |
//! | [`mpi`] | the in-process message-passing substrate |
//! | [`solver`] | GMRES and FMM-backed boundary integral operators |
//! | [`geom`] | the paper's particle distributions (512 spheres, corners) |
//! | [`linalg`], [`fft`] | the numerical substrates (SVD/pinv, the M2L's real transform + a complex FFT oracle) |
//! | [`trace`] | spans, counters, chrome-trace export |

#![forbid(unsafe_code)]

pub use kifmm_core as core;
pub use kifmm_fft as fft;
pub use kifmm_geom as geom;
pub use kifmm_kernels as kernels;
pub use kifmm_linalg as linalg;
pub use kifmm_mpi as mpi;
pub use kifmm_parallel as parallel;
pub use kifmm_runtime as runtime;
pub use kifmm_solver as solver;
pub use kifmm_trace as trace;
pub use kifmm_tree as tree;

pub use kifmm_core::{
    direct_eval, direct_eval_grad, direct_eval_grad_src_trg, direct_eval_src_trg, geometry_hash,
    kernel_name_hash, rel_l2_error, BuildError,
    EvalReport, Fmm, FmmBuilder, FmmOptions, OutputSpec, Phase,
    PhaseStats, Plan, PlanCache, PlanKey, Session, UpdateError, PHASES, PHASE_NAMES,
};
pub use kifmm_kernels::{
    CustomKernel, Gaussian, Kelvin, Kernel, Laplace, ModifiedLaplace, Point3, Stokes,
};
pub use kifmm_parallel::ParallelFmm;
pub use kifmm_solver::{gmres, GmresOptions, SingleLayerOperator, SurfaceQuadrature};
pub use kifmm_trace::{Counter, Tracer};
