//! Krylov solvers and boundary integral formulations on top of the KIFMM.
//!
//! The paper's driving applications (viscous flows, fluid–structure
//! interaction, Figure 4.1) solve boundary integral equations whose
//! matrix-vector products are particle interaction evaluations — the exact
//! workload the FMM accelerates. This crate supplies:
//!
//! * [`gmres()`](gmres::gmres) — restarted GMRES taking the operator as a closure
//!   (standing in for the PETSc Krylov solvers the paper used);
//! * [`bie`] — Nyström surface quadratures, the FMM-backed single-layer
//!   operator, rigid-body boundary conditions and force functionals used
//!   by the Stokes sedimentation example.

#![forbid(unsafe_code)]

pub mod bie;
pub mod gmres;

pub use bie::{
    apply_single_layer_direct, net_force, rigid_body_velocity, SingleLayerOperator,
    SurfaceQuadrature,
};
pub use gmres::{gmres, GmresOptions, GmresResult};
