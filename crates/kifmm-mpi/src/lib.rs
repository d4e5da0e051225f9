//! In-process message-passing substrate ("mini-MPI").
//!
//! The paper's parallel algorithm is expressed against MPI on the
//! Pittsburgh Supercomputing Center's TCS-1 Alphaserver. This crate
//! provides the same programming model with ranks as OS threads on one
//! machine, so the *algorithm* — local essential trees, the level-by-level
//! `Allreduce`d global tree array, the owner-coordinated gather/scatter of
//! Algorithm 1, and the computation/communication overlap — runs
//! unmodified:
//!
//! * [`run`] — spawn `P` ranks and collect their results;
//! * [`Comm`] — tagged, eager-buffered [`Comm::send`]/[`Comm::recv`]
//!   point-to-point messaging;
//! * [`collectives`] — barrier, allreduce, allgatherv, alltoallv;
//! * [`CommStats`] — per-rank bytes/messages sent and received: the one
//!   traffic ledger. The distributed driver charges an evaluation's
//!   difference of it once, and the bench harness prices that with a
//!   latency/bandwidth model of the paper's Quadrics interconnect to
//!   produce virtual communication times (see DESIGN.md).

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
mod datatypes;
pub mod packet;
pub mod tag;

pub use collectives::{
    allgatherv, allgatherv_u64, allreduce_f64, allreduce_u64, alltoallv, alltoallv_u64, barrier,
    sample_sort_u64, ReduceOp,
};
pub use comm::{run, Comm, CommStats};
pub use packet::{decode_packet, encode_packet};
pub use tag::{decode_tag, encode_tag};
