//! Dense linear algebra substrate for `kifmm-rs`.
//!
//! The kernel-independent FMM (Ying, Biros, Zorin & Langston, SC 2003)
//! replaces analytic multipole expansions with *equivalent densities* that
//! are obtained by inverting small, ill-conditioned integral-equation
//! systems on check surfaces. The paper's implementation leaned on LAPACK /
//! CXML for this; this crate provides the same functionality from scratch:
//!
//! * [`Mat`] — a row-major dense matrix with the usual arithmetic,
//! * [`gemm`]/[`gemv`] — cache-friendly matrix products used by every FMM
//!   translation,
//! * [`svd()`](svd::svd) — column-pivoted Householder QR followed by one-sided Jacobi
//!   on the triangular factor (backward stable, accurate to the smallest
//!   singular values of the systems KIFMM builds, up to ~10³ unknowns),
//! * [`pinv()`](pinv::pinv) — the truncated-SVD pseudoinverse that regularizes the
//!   check-to-equivalent inversions.

pub mod blas;
pub mod matrix;
pub mod pinv;
pub mod simd;
pub mod svd;

pub use blas::{axpy, dot, gemm, gemm_slices, gemm_tn, gemv, nrm2};
pub use matrix::Mat;
pub use pinv::pinv;
pub use svd::{svd, Svd};
