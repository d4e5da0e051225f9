//! Octree substrate for the kernel-independent FMM.
//!
//! Implements the hierarchical computation tree of the SC'03 paper:
//! [`MortonKey`]s ([Warren & Salmon]-style hashed keys along the Z-order
//! curve), the adaptive [`Octree`] (boxes refined until they hold at most
//! `s` points), the four adaptive interaction lists
//! ([`build_lists`]: U/V/W/X), and the Morton-curve [`partition`]er used
//! for distributing surface patches across ranks.
//!
//! Every tree — serial, incremental and distributed — is derived by the
//! one refinement loop of the [`linearize`] module from a Morton-code
//! array sorted by the one routine of the [`morton`] module
//! ([`morton_codes`] then [`sort_codes`]: `(code, index)` pairs, so a
//! cloud has one permutation whoever builds over it). The distributed
//! driver feeds that loop the paper's per-level Allreduce counts, and
//! [`update`] patches an existing tree for slightly moved points instead
//! of rebuilding it.
//!
//! (Warren & Salmon's SC'92/SC'93 parallel hashed octree papers are cited
//! as references 23 and 24 in the reproduction target.)

#![forbid(unsafe_code)]

pub mod linearize;
pub mod lists;
pub mod morton;
pub mod octree;
pub mod partition;
pub mod update;

pub use linearize::{refine_sorted_codes, structure_from_sorted_codes, TreeBuild};
// The old name of the one list builder: `benchmark/src/traced.rs` (frozen
// outside a benchmark PR) still imports it. Goes with ROADMAP item 1(a).
pub use lists::build_lists as build_lists_sorted;
pub use lists::{build_lists, InteractionLists};
pub use morton::{
    morton_codes, point_in_domain, point_key, sort_codes, try_point_key, MortonKey, MAX_LEVEL,
};
pub use octree::{first_non_finite, Domain, Node, Octree, NO_NODE};
pub use partition::{
    partition_patches, partition_points, partition_weighted_points, split_by_weight, Partition,
};
pub use update::{update_octree, TreeUpdate, UpdateError};
