//! The runtime kernel layer: the closure-backed [`CustomKernel`].
//!
//! The paper's kernel-independence claim is that the FMM touches the PDE
//! only through kernel evaluations. This module makes the claim
//! executable: a user hands the library a black-box closure
//! `(x, y, block)` with *runtime* source/target dimensions and the full
//! pipeline — equivalent densities, FFT M2L, the distributed driver —
//! runs unchanged, because nothing in the pipeline ever sees a
//! compile-time dimension or an analytic expansion.

use crate::kernel::{central_difference_grad, Kernel};
use crate::Point3;
use std::sync::Arc;

/// Pairwise evaluation closure: fills the row-major kernel (or gradient)
/// block for `(x, y)`.
pub type KernelFn = Arc<dyn Fn(Point3, Point3, &mut [f64]) + Send + Sync>;

/// A user-supplied black-box kernel: pairwise closure + runtime
/// dimensions + an identity tag. Drives the *entire* FMM (serial, pooled,
/// distributed) through the generic `p2p` defaults.
///
/// ```
/// use kifmm_kernels::{CustomKernel, Kernel};
/// let inv_r = CustomKernel::new("my-inv-r", 1, 1, Some(-1.0), |x, y, block| {
///     let r2: f64 =
///         (0..3).map(|d| (x[d] - y[d]) * (x[d] - y[d])).sum();
///     block[0] = if r2 == 0.0 { 0.0 } else { 1.0 / r2.sqrt() };
/// });
/// let mut b = [0.0];
/// inv_r.eval([2.0, 0.0, 0.0], [0.0; 3], &mut b);
/// assert_eq!(b[0], 0.5);
/// ```
///
/// The `tag` is the kernel's [`name`](Kernel::name) and with it its cache
/// identity (every cache key hashes the name beside
/// [`id_bits`](Kernel::id_bits)): give different closures different tags,
/// or cached plans may alias. Without
/// [`with_grad`](CustomKernel::with_grad), gradients fall back to the
/// central difference of the closure (~1e-8 relative).
#[derive(Clone)]
pub struct CustomKernel {
    src_dim: usize,
    trg_dim: usize,
    tag: Arc<str>,
    homogeneity: Option<f64>,
    eval_fn: KernelFn,
    grad_fn: Option<KernelFn>,
}

impl CustomKernel {
    /// Closure kernel with the given identity `tag`, runtime block shape
    /// `trg_dim × src_dim`, and homogeneity degree (`None` ⇒ per-level
    /// operator tables, like ModifiedLaplace/Gaussian).
    pub fn new(
        tag: &str,
        src_dim: usize,
        trg_dim: usize,
        homogeneity: Option<f64>,
        eval_fn: impl Fn(Point3, Point3, &mut [f64]) + Send + Sync + 'static,
    ) -> Self {
        assert!(src_dim > 0 && trg_dim > 0, "kernel block must be non-empty");
        assert!(!tag.is_empty(), "kernel tag must be non-empty");
        CustomKernel {
            src_dim,
            trg_dim,
            tag: Arc::from(tag),
            homogeneity,
            eval_fn: Arc::new(eval_fn),
            grad_fn: None,
        }
    }

    /// Attach an analytic gradient closure filling the
    /// `trg_dim·3 × src_dim` block of [`Kernel::eval_grad`]; without it,
    /// gradients use the central-difference fallback.
    pub fn with_grad(
        mut self,
        grad_fn: impl Fn(Point3, Point3, &mut [f64]) + Send + Sync + 'static,
    ) -> Self {
        self.grad_fn = Some(Arc::new(grad_fn));
        self
    }
}

impl Kernel for CustomKernel {
    fn src_dim(&self) -> usize {
        self.src_dim
    }

    fn trg_dim(&self) -> usize {
        self.trg_dim
    }

    fn name(&self) -> &str {
        &self.tag
    }

    fn homogeneity(&self) -> Option<f64> {
        self.homogeneity
    }

    /// A generic estimate: the closure's cost is unknown.
    fn flops_per_eval(&self) -> u64 {
        (10 + 2 * self.src_dim as u64) * self.trg_dim as u64
    }

    fn eval(&self, x: Point3, y: Point3, block: &mut [f64]) {
        (self.eval_fn)(x, y, block)
    }

    fn eval_grad(&self, x: Point3, y: Point3, block: &mut [f64]) {
        match &self.grad_fn {
            Some(g) => g(x, y, block),
            None => central_difference_grad(self, x, y, block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Laplace;

    fn shadow_laplace() -> CustomKernel {
        CustomKernel::new("shadow-laplace", 1, 1, Some(-1.0), |x, y, block| {
            Kernel::eval(&Laplace, x, y, block)
        })
    }

    #[test]
    fn closure_matches_native_pointwise() {
        let c = shadow_laplace();
        let (mut a, mut b) = ([0.0], [0.0]);
        Kernel::eval(&c, [0.3, -0.7, 0.2], [1.0, 0.4, -0.1], &mut a);
        Kernel::eval(&Laplace, [0.3, -0.7, 0.2], [1.0, 0.4, -0.1], &mut b);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn generic_p2p_matches_native_sum() {
        let c = shadow_laplace();
        let targets: Vec<Point3> = (0..5).map(|i| [0.1 * i as f64, 0.2, 0.0]).collect();
        let sources: Vec<Point3> = (0..6).map(|i| [1.0, 0.3 * i as f64, 0.5]).collect();
        let dens: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let mut via_custom = vec![0.0; 5];
        c.p2p(&targets, &sources, &dens, &mut via_custom);
        let mut via_native = vec![0.0; 5];
        Laplace.p2p(&targets, &sources, &dens, &mut via_native);
        for (a, b) in via_custom.iter().zip(&via_native) {
            assert!((a - b).abs() < 1e-14 * b.abs().max(1.0));
        }
    }

    #[test]
    fn central_difference_grad_close_to_native() {
        let c = shadow_laplace();
        let (mut fd, mut exact) = ([0.0; 3], [0.0; 3]);
        Kernel::eval_grad(&c, [0.8, -0.3, 0.5], [0.0; 3], &mut fd);
        Kernel::eval_grad(&Laplace, [0.8, -0.3, 0.5], [0.0; 3], &mut exact);
        for d in 0..3 {
            assert!((fd[d] - exact[d]).abs() < 1e-8 * exact[d].abs().max(1e-3));
        }
    }

    #[test]
    fn analytic_grad_closure_is_used() {
        let c = shadow_laplace()
            .with_grad(|x, y, block| Kernel::eval_grad(&Laplace, x, y, block));
        let (mut a, mut b) = ([0.0; 3], [0.0; 3]);
        Kernel::eval_grad(&c, [0.8, -0.3, 0.5], [0.1, 0.1, 0.1], &mut a);
        Kernel::eval_grad(&Laplace, [0.8, -0.3, 0.5], [0.1, 0.1, 0.1], &mut b);
        assert_eq!(a, b, "grad closure must be exact, not differenced");
    }

    #[test]
    fn tags_give_distinct_identities() {
        let a = CustomKernel::new("k-a", 1, 1, None, |_, _, b| b[0] = 0.0);
        let b = CustomKernel::new("k-b", 1, 1, None, |_, _, b| b[0] = 0.0);
        // The tag is the name, which every cache key hashes beside
        // `id_bits` (0 here: a closure has no parameters to fingerprint).
        assert_ne!(Kernel::name(&a), Kernel::name(&b));
        assert_eq!(Kernel::name(&a), "k-a");
        assert_eq!(Kernel::id_bits(&a), Kernel::id_bits(&b));
    }

    #[test]
    fn rectangular_runtime_dims() {
        // A 2×1 closure kernel: two output components per scalar source.
        let k = CustomKernel::new("pair-out", 1, 2, Some(-1.0), |x, y, block| {
            let mut b = [0.0];
            Kernel::eval(&Laplace, x, y, &mut b);
            block[0] = b[0];
            block[1] = 2.0 * b[0];
        });
        assert_eq!((Kernel::src_dim(&k), Kernel::trg_dim(&k)), (1, 2));
        let mut pot = vec![0.0; 2];
        k.p2p(&[[1.0, 0.0, 0.0]], &[[0.0; 3]], &[3.0], &mut pot);
        assert!((pot[1] - 2.0 * pot[0]).abs() < 1e-15);
    }
}
