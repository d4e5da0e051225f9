//! Flat SoA expansion storage and reusable pass scratch.
//!
//! Because the octree is built breadth-first, node ids of one level occupy
//! a contiguous range, so the flat node-major slabs below are per-level
//! contiguous: a pass over level `l` works on one dense sub-slice of each
//! array. All three evaluation drivers (serial, shared-memory, distributed)
//! hand the same [`ExpansionStore`] to the pass engine; the distributed
//! driver additionally overwrites `up` rows with globally summed
//! equivalents between the engine phases.
//!
//! ## Multi-RHS layout
//!
//! A store sized for `nrhs = k` charge vectors keeps **one block of `k`
//! consecutive rows per node**: `up[ni·es·k + q·es + r]` is row `r` of
//! RHS `q` for node `ni` (and likewise `down`/`check` with `cs`). The
//! node-major ordering is unchanged, so per-level contiguity — the
//! property the batched per-level passes rely on — holds for any `k`,
//! and `k = 1` reduces to the original single-RHS layout exactly.

use crate::m2l::PairLists;

/// Expansion state of one evaluation: upward equivalents, downward check
/// potentials and downward equivalents, node-major (`block(ni)` = the
/// `nrhs` rows of node `ni`). The default is the empty store a pooled
/// [`Scratch`] starts as, shaped on use by `PassEngine::prepare_store`.
#[derive(Default)]
pub struct ExpansionStore {
    es: usize,
    cs: usize,
    nrhs: usize,
    /// Upward equivalent densities, `[num_nodes × nrhs × es]`.
    pub up: Vec<f64>,
    /// Downward equivalent densities, `[num_nodes × nrhs × es]`.
    pub down: Vec<f64>,
    /// Downward check potentials, `[num_nodes × nrhs × cs]`.
    pub check: Vec<f64>,
}

impl ExpansionStore {
    /// Zeroed single-RHS storage for `num_nodes` boxes with equivalent
    /// rows of `es` and check rows of `cs` values.
    pub fn new(num_nodes: usize, es: usize, cs: usize) -> Self {
        Self::with_nrhs(num_nodes, es, cs, 1)
    }

    /// Zeroed storage for `nrhs` simultaneous charge vectors.
    pub fn with_nrhs(num_nodes: usize, es: usize, cs: usize, nrhs: usize) -> Self {
        assert!(nrhs >= 1, "at least one right-hand side");
        ExpansionStore {
            es,
            cs,
            nrhs,
            up: vec![0.0; num_nodes * es * nrhs],
            down: vec![0.0; num_nodes * es * nrhs],
            check: vec![0.0; num_nodes * cs * nrhs],
        }
    }

    /// Reshape (if needed) for the given geometry and RHS count, then
    /// zero every slab. Pooled stores are routed through this so one
    /// pooled allocation serves evaluations of any batch width.
    pub fn ensure(&mut self, num_nodes: usize, es: usize, cs: usize, nrhs: usize) {
        assert!(nrhs >= 1, "at least one right-hand side");
        self.es = es;
        self.cs = cs;
        self.nrhs = nrhs;
        self.up.clear();
        self.up.resize(num_nodes * es * nrhs, 0.0);
        self.down.clear();
        self.down.resize(num_nodes * es * nrhs, 0.0);
        self.check.clear();
        self.check.resize(num_nodes * cs * nrhs, 0.0);
    }

    /// Number of simultaneous charge vectors this store is shaped for.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Upward equivalent block of box `ni`: `nrhs` consecutive rows
    /// (`nrhs·es` values). With one RHS this is the node's single row.
    pub fn up(&self, ni: u32) -> &[f64] {
        let b = self.es * self.nrhs;
        &self.up[ni as usize * b..(ni as usize + 1) * b]
    }

    /// Upward equivalent row of box `ni` for RHS `q`.
    pub fn up_rhs(&self, ni: u32, q: usize) -> &[f64] {
        debug_assert!(q < self.nrhs);
        let o = ni as usize * self.es * self.nrhs + q * self.es;
        &self.up[o..o + self.es]
    }

    /// Overwrite box `ni`'s upward equivalent block (the distributed
    /// driver installs globally summed equivalents this way).
    pub fn set_up(&mut self, ni: u32, values: &[f64]) {
        let b = self.es * self.nrhs;
        self.up[ni as usize * b..(ni as usize + 1) * b].copy_from_slice(values);
    }

    /// Downward equivalent block of box `ni` (`nrhs·es` values).
    pub fn down(&self, ni: u32) -> &[f64] {
        let b = self.es * self.nrhs;
        &self.down[ni as usize * b..(ni as usize + 1) * b]
    }

    /// Downward equivalent row of box `ni` for RHS `q`.
    pub fn down_rhs(&self, ni: u32, q: usize) -> &[f64] {
        debug_assert!(q < self.nrhs);
        let o = ni as usize * self.es * self.nrhs + q * self.es;
        &self.down[o..o + self.es]
    }
}

/// One evaluation's mutable state, pooled across evaluations by both
/// drivers (`kifmm_runtime::Pool<Scratch>`).
pub type Scratch = (ExpansionStore, EngineWorkspace);

/// Reusable scratch for the batched passes. Every buffer is grown with
/// `clear` + `resize`, so after the first evaluation at a given problem
/// size the level-sized buffers are not reallocated (the FFT M2L
/// additionally makes one small transform scratch per worker per tile).
#[derive(Default)]
pub struct EngineWorkspace {
    /// Node-major check-potential batch rows for one level.
    pub rows: Vec<f64>,
    /// Column-major multi-RHS input block (`k × ncols`).
    pub xin: Vec<f64>,
    /// Column-major multi-RHS output block (`m × ncols`).
    pub yout: Vec<f64>,
    /// `(destination box, source box)` slab indices of one translation batch.
    pub pairs: Vec<(u32, u32)>,
    /// The M2L targets of one call (active, non-empty V list), ascending
    /// — Morton order within the level.
    pub targets: Vec<u32>,
    /// Sorted, deduplicated V-list source boxes of those targets.
    pub needed: Vec<u32>,
    /// Position in `needed` of each box of the level (by offset from the
    /// level's first node id).
    pub slot_of: Vec<u32>,
    /// Half-spectra of every `needed` box, frequency-chunk-major:
    /// `[chunk][needed box][RHS][SRC_DIM][re|im][F]`.
    pub spectra: Vec<f64>,
    /// One byte-bounded tile of boxes: first a batch of source spectra
    /// staged box-major on their way into `spectra`, then the chunk-major
    /// Hadamard accumulators of a run of targets,
    /// `[chunk][target][RHS][TRG_DIM][re|im][F]`.
    pub tile: Vec<f64>,
    /// V lists of the tile's targets as `[slot in needed, direction id]`.
    pub vlists: PairLists,
}
