//! FFT substrate for `kifmm-rs`.
//!
//! The SC'03 kernel-independent FMM accelerates its M2L translations with
//! local FFTs (the paper used FFTW): equivalent densities live on regular
//! cube-surface grids, so a multipole-to-local interaction is a discrete
//! correlation that becomes a Hadamard product in frequency space. This
//! crate provides the transforms from scratch:
//!
//! * [`RealFft3`] — what the M2L runs: a real-input 3-D transform on the
//!   `(2p)³` grid pruned to the `p³` corner that is populated on input and
//!   read on output, producing / consuming the Hermitian half-spectrum as
//!   split real and imaginary planes.
//!
//! and, as the reference that transform is tested against (and the repo
//! benchmark's `fft.*` rows time):
//!
//! * [`C64`] — a minimal complex number type,
//! * [`Fft3`] — the 3-D complex DFT by its definition: a direct sum per
//!   output entry along each axis,
//! * [`conv`] — Hadamard-product helpers on interleaved complex slabs (the
//!   reference the chunk-major Hadamard stage of `kifmm-core` is checked
//!   against, bit for bit).

#![forbid(unsafe_code)]

pub mod c64;
pub mod conv;
pub mod fft3;
pub mod real3;

pub use c64::C64;
pub use conv::pointwise_mul_add;
pub use fft3::Fft3;
pub use real3::RealFft3;
