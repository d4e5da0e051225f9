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
//! * [`driver`] — [`ParallelFmm`]: one collective constructor
//!   ([`ParallelFmm::try_new`], which refuses bad input on every rank at
//!   once) and the three-stage interaction calculation with communication
//!   overlapped against the upward pass and the U/X-list computations, and
//!   no synchronization inside the computation passes.
//!
//! Partition the points first (`kifmm_tree::partition_points`, §3.1's
//! "Morton curve partitioning directly on the particles"), hand each rank
//! its chunk, build, and evaluate.

#![forbid(unsafe_code)]

pub mod driver;
pub mod exchange;
pub mod global_tree;
pub mod ownership;

pub use driver::ParallelFmm;
pub use exchange::{Combine, ExchangePlan, ExchangeRoute, UserKind};
pub use global_tree::{build_distributed_tree_with, DistributedTree};
pub use ownership::Ownership;
