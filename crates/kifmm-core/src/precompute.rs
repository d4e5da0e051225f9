//! Shared, immutable translation-operator tables.
//!
//! Everything the FMM precomputes — the check/equivalent pseudoinverses,
//! the M2M/L2L forward maps and the 316 M2L kernel-tensor FFTs, each held
//! once per slot of the operator table's one
//! [`crate::operators::LevelRule`] — depends only on
//! `(kernel, order, root half-width, depth)`, not on the particle data.
//! [`Precomputed`] bundles those tables and [`PrecomputeCache`]
//! deduplicates them across evaluators, keyed on all four (the kernel by
//! its parameters and its name).
//!
//! The cache is [`crate::PlanCache`]'s shape: one map of per-key
//! `OnceLock` slots, its lock held for the lookup only.
//!
//! The cache matters for the virtual-rank benches: on a real cluster every
//! MPI rank builds (identical) tables against its own memory, but when the
//! bench harness runs 64 virtual ranks as threads on one host, 64 copies
//! of a 78 MB Stokes M2L table would be pure waste — the tables are
//! read-only and bit-identical, so the ranks share one `Arc`.

use crate::fmm::FmmOptions;
use crate::m2l::M2lFft;
use crate::operators::{OperatorTable, FIRST_FMM_LEVEL};
use crate::plan::kernel_name_hash;
use kifmm_kernels::Kernel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// All particle-independent tables for one FMM configuration.
pub struct Precomputed<K: Kernel> {
    /// UC2UE/UE2UC/DC2DE/DE2DC operators.
    pub ops: OperatorTable,
    /// FFT M2L tables (`None` below depth 2: no V lists).
    pub m2l_fft: Option<M2lFft<K>>,
}

impl<K: Kernel> Precomputed<K> {
    /// Assemble the tables for a tree of the given depth and root size.
    pub fn build(kernel: &K, opts: &FmmOptions, root_half: f64, depth: u8) -> Self {
        let ops = OperatorTable::build(kernel, opts.order, root_half, depth);
        let m2l_fft =
            (depth >= FIRST_FMM_LEVEL).then(|| M2lFft::build(kernel, opts.order, ops.rule()));
        Precomputed { ops, m2l_fft }
    }

    /// Bytes the tables hold, as each reports about itself.
    pub fn bytes(&self) -> usize {
        self.ops.bytes() + self.m2l_fft.as_ref().map_or(0, M2lFft::bytes)
    }
}

/// `(kernel id_bits, kernel name hash, depth, root half-width bits,
/// order)`: everything [`Precomputed::build`] reads.
type TableKey = (u64, u64, u8, u64, usize);

/// One key's tables, set once by the first caller to miss. If that build
/// panics the cell stays empty and the next caller builds.
type TableSlot<K> = Arc<OnceLock<Arc<Precomputed<K>>>>;

/// A concurrent cache of [`Precomputed`] tables keyed by configuration,
/// the kernel's parameters and name included (the type parameter alone
/// does not tell `ModifiedLaplace::new(1.0)` from `new(3.0)`, nor one
/// closure kernel from another).
pub struct PrecomputeCache<K: Kernel> {
    map: Mutex<HashMap<TableKey, TableSlot<K>>>,
}

impl<K: Kernel> Default for PrecomputeCache<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Kernel> PrecomputeCache<K> {
    /// Empty cache.
    pub fn new() -> Self {
        PrecomputeCache { map: Mutex::new(HashMap::new()) }
    }

    /// Fetch or build the tables for `(opts, root_half, depth)`. The first
    /// caller of a key builds outside the lock; concurrent callers with
    /// the same key wait on its slot and share the result.
    pub fn get_or_build(
        &self,
        kernel: &K,
        opts: &FmmOptions,
        root_half: f64,
        depth: u8,
    ) -> Arc<Precomputed<K>> {
        let key = (
            kernel.id_bits(),
            kernel_name_hash(kernel.name()),
            depth,
            root_half.to_bits(),
            opts.order,
        );
        // A poisoned lock only means some other cache user panicked during
        // a lookup; the map is always in a consistent state, so recover
        // the guard rather than cascading the panic.
        let slot = {
            let mut map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            map.entry(key).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(Precomputed::build(kernel, opts, root_half, depth))).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::Laplace;

    #[test]
    fn cache_deduplicates() {
        let cache = PrecomputeCache::new();
        let opts = FmmOptions { order: 3, ..Default::default() };
        let a = cache.get_or_build(&Laplace, &opts, 1.0, 3);
        let b = cache.get_or_build(&Laplace, &opts, 1.0, 3);
        assert!(Arc::ptr_eq(&a, &b), "same key shares tables");
        let c = cache.get_or_build(&Laplace, &opts, 1.0, 4);
        assert!(!Arc::ptr_eq(&a, &c), "different depth rebuilds");
    }

    /// One cache, one geometry, two parameterizations of one kernel type
    /// (and two closures behind `CustomKernel`): each must get its own
    /// tables and evaluate as accurately as it does with a private cache.
    #[test]
    fn cache_keys_on_kernel_parameters_and_name() {
        use crate::{direct_eval, rel_l2_error, Fmm};
        use kifmm_kernels::{CustomKernel, ModifiedLaplace};
        let pts = kifmm_geom::uniform_cube(700, 5);
        let dens = kifmm_geom::random_densities(700, 1, 6);
        fn check<K: Kernel>(
            cache: &PrecomputeCache<K>,
            kernel: K,
            pts: &[[f64; 3]],
            dens: &[f64],
        ) -> Arc<Precomputed<K>> {
            let fmm =
                Fmm::builder(kernel.clone()).points(pts).max_pts_per_leaf(20).cache(cache).build();
            assert!(fmm.tree.depth() >= 2, "the tables must be read");
            let err = rel_l2_error(&fmm.eval(dens).potentials, &direct_eval(&kernel, pts, dens));
            assert!(err < 1e-4, "{} {:#x}: {err}", kernel.name(), kernel.id_bits());
            fmm.pre.clone()
        }
        let cache = PrecomputeCache::new();
        let weak = check(&cache, ModifiedLaplace::new(1.0), &pts, &dens);
        let strong = check(&cache, ModifiedLaplace::new(3.0), &pts, &dens);
        assert!(!Arc::ptr_eq(&weak, &strong), "λ = 1 tables served to λ = 3");

        let closure = |tag: &str, lambda: f64| {
            CustomKernel::new(tag, 1, 1, None, move |x, y, block| {
                Kernel::eval(&ModifiedLaplace::new(lambda), x, y, block)
            })
        };
        let cache = PrecomputeCache::new();
        let a = check(&cache, closure("screened-1", 1.0), &pts, &dens);
        let b = check(&cache, closure("screened-3", 3.0), &pts, &dens);
        assert!(!Arc::ptr_eq(&a, &b), "one closure's tables served to another");
    }

    /// Key a's build waits inside its kernel evaluations until key b's
    /// build has started, which it can only do if a build does not hold
    /// the cache for every other key.
    #[test]
    fn distinct_keys_build_concurrently() {
        use kifmm_kernels::CustomKernel;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let a_started = Arc::new(AtomicBool::new(false));
        let b_started = Arc::new(AtomicBool::new(false));
        let (a_mark, b_wait) = (a_started.clone(), b_started.clone());
        let a = CustomKernel::new("a", 1, 1, Some(-1.0), move |x, y, block| {
            a_mark.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !b_wait.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "key b's build never started");
                std::thread::yield_now();
            }
            Kernel::eval(&Laplace, x, y, block)
        });
        let b_mark = b_started.clone();
        let b = CustomKernel::new("b", 1, 1, Some(-1.0), move |x, y, block| {
            b_mark.store(true, Ordering::SeqCst);
            Kernel::eval(&Laplace, x, y, block)
        });
        let cache = PrecomputeCache::new();
        let opts = FmmOptions { order: 3, ..Default::default() };
        std::thread::scope(|scope| {
            scope.spawn(|| cache.get_or_build(&a, &opts, 1.0, 2));
            while !a_started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            scope.spawn(|| cache.get_or_build(&b, &opts, 1.0, 2));
        });
        assert!(b_started.load(Ordering::SeqCst));
    }

    #[test]
    fn shallow_build_has_no_m2l() {
        let opts = FmmOptions { order: 3, ..Default::default() };
        let p = Precomputed::build(&Laplace, &opts, 1.0, 1);
        assert!(p.m2l_fft.is_none());
    }
}
