//! Particle distributions for the SC'03 evaluation.
//!
//! §4 of the paper uses two particle sets inside the cube `[−1, 1]³`:
//!
//! 1. points sampled from **512 spheres centered on an 8×8×8 Cartesian
//!    grid** — approximately uniform at low sampling rates, locally
//!    non-uniform at high rates because the per-sphere (latitude/longitude)
//!    sampling is non-uniform ([`sphere_grid`]);
//! 2. a **non-uniform distribution clustered at the eight corners** of the
//!    cube ([`corner_clusters`]).
//!
//! Densities are random in `[0, 1]` ([`random_densities`]), as in the paper.
//! This is test and benchmark data: no library crate depends on it outside
//! its tests (the `kifmm` facade re-exports it as `kifmm::geom`).

#![forbid(unsafe_code)]

pub mod distributions;
pub mod rng;

pub use distributions::{
    corner_clusters, fibonacci_sphere, latlong_sphere, random_densities, sphere_grid,
    sphere_grid_patches, uniform_cube,
};
pub use rng::Rng;

/// A 3-D point (matches `kifmm_kernels::Point3`).
pub type Point3 = [f64; 3];
