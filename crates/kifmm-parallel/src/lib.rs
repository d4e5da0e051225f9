//! The MPI-parallel KIFMM driver (paper §3).
//!
//! Implements the paper's parallel algorithm on the `kifmm-mpi` substrate:
//!
//! * [`global_tree`] — the level-by-level, `Allreduce`-merged global tree
//!   array (§3.1);
//! * [`ownership`] — contributor/user roles, the local essential tree
//!   relations, and the deterministic owner assignment (§3.2);
//! * [`exchange`] — Algorithm 1's owner-coordinated gather/scatter for
//!   ghost sources and partial upward equivalent densities, coalesced
//!   into one packed message per (phase, peer) pair and pollable so
//!   communication drains underneath compute;
//! * [`driver`] — [`ParallelFmm`]: the three-stage interaction calculation
//!   with communication overlapped against the upward pass and the
//!   U/X-list computations, and no synchronization inside the computation
//!   passes.
//!
//! Partition the input first (surface patches via
//! `kifmm_tree::partition_patches`, or raw points via
//! `kifmm_tree::partition_points`), hand each rank its chunk, and evaluate.

#![forbid(unsafe_code)]

pub mod driver;
pub mod exchange;
pub mod global_tree;
pub mod ownership;

pub use driver::{BuildParallel, ParallelFmm};
pub use exchange::{Combine, ExchangePlan, ExchangeRoute, UserKind};
pub use global_tree::{build_distributed_tree_with, DistributedTree};
pub use ownership::Ownership;
