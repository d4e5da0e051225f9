//! Fundamental-solution kernels for the kernel-independent FMM.
//!
//! Appendix A of the SC'03 paper lists the elliptic PDEs and single-layer
//! kernels the method is evaluated on; this crate implements all of them,
//! plus the wider kernel family the equivalent-density machinery covers:
//!
//! | PDE / setting | kernel |
//! |---|---|
//! | `−Δu = 0` | [`Laplace`]: `1/(4πr)` |
//! | `αu − Δu = 0` | [`ModifiedLaplace`]: `e^{−λr}/(4πr)`, `λ = √α` |
//! | `−μΔu + ∇p = 0, ∇·u = 0` | [`Stokes`]: `(1/(8πμ))(I/r + r⊗r/r³)` |
//! | Navier elasticity | [`Kelvin`]: `(1/(16πμ(1−ν)))((3−4ν)I/r + r⊗r/r³)` |
//! | GP / kriging covariance | [`Gaussian`]: `e^{−r²/(2σ²)}` |
//! | user black box | [`CustomKernel`]: any closure, runtime dims |
//!
//! The FMM core is generic over the [`Kernel`] trait. A kernel is
//! [`Kernel::eval`] (plus [`Kernel::eval_grad`] for first-class gradient
//! outputs), which is exactly the paper's notion of kernel independence —
//! no analytic expansions anywhere; the near field runs through
//! [`Kernel::p2p_many`] / [`Kernel::p2p_grad_many`], whose eval-based
//! defaults an analytic kernel may replace with one hand-written
//! multi-RHS loop per output kind. Dimensions are runtime values, so
//! closure-supplied kernels with caller-chosen block shapes run the
//! identical pipeline.
//!
//! Every kernel declares an exact per-evaluation flop count so the bench
//! harness can report the counted Gflop/s figures of Tables 4.1–4.3.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod custom;
mod fused;
pub mod gaussian;
pub mod kelvin;
pub mod kernel;
pub mod laplace;
pub mod laplace_dipole;
pub mod modified_laplace;
pub mod stokes;

pub use assemble::assemble;
pub use custom::{CustomKernel, KernelFn};
pub use gaussian::Gaussian;
pub use kelvin::Kelvin;
pub use kernel::{central_difference_grad, Kernel};
pub use laplace::Laplace;
pub use laplace_dipole::LaplaceDipole;
pub use modified_laplace::ModifiedLaplace;
pub use stokes::Stokes;

/// Convenience alias: a 3-D point.
pub type Point3 = [f64; 3];
