//! Shared, immutable translation-operator tables.
//!
//! Everything the FMM precomputes — the per-level check/equivalent
//! pseudoinverses, the M2M/L2L forward maps and the 316 M2L kernel-tensor
//! FFTs — depends only on `(kernel, order, root half-width, depth,
//! m2l mode)`, not on the particle data. [`Precomputed`] bundles those
//! tables and [`PrecomputeCache`] deduplicates them across evaluators.
//!
//! The cache matters for the virtual-rank benches: on a real cluster every
//! MPI rank builds (identical) tables against its own memory, but when the
//! bench harness runs 64 virtual ranks as threads on one host, 64 copies
//! of a 78 MB Stokes M2L table would be pure waste — the tables are
//! read-only and bit-identical, so the ranks share one `Arc`.

use crate::fmm::FmmOptions;
use crate::m2l::{M2lDirect, M2lFft, M2lMode};
use crate::operators::{OperatorTable, FIRST_FMM_LEVEL};
use kifmm_kernels::Kernel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// All particle-independent tables for one FMM configuration.
pub struct Precomputed<K: Kernel> {
    /// Per-level UC2UE/UE2UC/DC2DE/DE2DC operators.
    pub ops: OperatorTable,
    /// FFT M2L tables (in [`M2lMode::Fft`]).
    pub m2l_fft: Option<M2lFft<K>>,
    /// Dense M2L cache (in [`M2lMode::Direct`]), filled lazily.
    pub m2l_direct: Option<M2lDirect<K>>,
}

impl<K: Kernel> Precomputed<K> {
    /// Assemble the tables for a tree of the given depth and root size.
    pub fn build(kernel: &K, opts: &FmmOptions, root_half: f64, depth: u8) -> Self {
        let ops = OperatorTable::build(kernel, opts.order, root_half, depth);
        let (m2l_fft, m2l_direct) = match opts.m2l_mode {
            _ if depth < FIRST_FMM_LEVEL => (None, None),
            M2lMode::Fft => (Some(M2lFft::build(kernel, opts.order, root_half, depth)), None),
            M2lMode::Direct => (None, Some(M2lDirect::new(kernel, opts.order, root_half, depth))),
        };
        Precomputed { ops, m2l_fft, m2l_direct }
    }
}

/// A concurrent cache of [`Precomputed`] tables keyed by configuration.
///
/// The kernel itself is *not* part of the key: one cache instance serves
/// one kernel value (the type parameter pins the kernel type; callers must
/// not mix differently-parameterized kernels in one cache).
pub struct PrecomputeCache<K: Kernel> {
    map: Mutex<HashMap<(u8, u64, usize, M2lMode), Arc<Precomputed<K>>>>,
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
    /// caller builds while holding the lock; concurrent callers with the
    /// same key wait and then share the result.
    pub fn get_or_build(
        &self,
        kernel: &K,
        opts: &FmmOptions,
        root_half: f64,
        depth: u8,
    ) -> Arc<Precomputed<K>> {
        // Fft and Direct build different tables, so the mode is in the key.
        let key = (depth, root_half.to_bits(), opts.order, opts.m2l_mode);
        // A poisoned lock only means some other cache user panicked
        // mid-build; the map itself is always in a consistent state, so
        // recover the guard rather than cascading the panic.
        let mut map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(key)
            .or_insert_with(|| Arc::new(Precomputed::build(kernel, opts, root_half, depth)))
            .clone()
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

    #[test]
    fn shallow_build_has_no_m2l() {
        let opts = FmmOptions { order: 3, ..Default::default() };
        let p = Precomputed::build(&Laplace, &opts, 1.0, 1);
        assert!(p.m2l_fft.is_none() && p.m2l_direct.is_none());
    }

    #[test]
    fn cache_keys_on_full_m2l_mode() {
        let cache = PrecomputeCache::new();
        let mk = |mode| FmmOptions { order: 3, m2l_mode: mode, ..Default::default() };
        let fft = cache.get_or_build(&Laplace, &mk(M2lMode::Fft), 1.0, 3);
        let direct = cache.get_or_build(&Laplace, &mk(M2lMode::Direct), 1.0, 3);
        assert!(!Arc::ptr_eq(&fft, &direct));
        assert!(fft.m2l_fft.is_some() && fft.m2l_direct.is_none());
        assert!(direct.m2l_direct.is_some() && direct.m2l_fft.is_none());
    }
}
