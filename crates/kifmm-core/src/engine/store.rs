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
use std::ops::Range;

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
    /// Reshape (if needed) for the given geometry and RHS count, then
    /// zero every slab. Every store is shaped here — a fresh one from
    /// [`ExpansionStore::default`], or a pooled one, so one pooled
    /// allocation serves evaluations of any batch width.
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
    /// Which slot of `spectra` each V-list source of those targets holds,
    /// and which run of targets transforms it.
    pub slots: SlotPlan,
    /// Half-spectra of the live V-list sources, frequency-chunk-major:
    /// `[chunk][slot][RHS][SRC_DIM][re|im][F]`, `slots.capacity()` slots
    /// per chunk.
    pub spectra: Vec<f64>,
    /// One byte-bounded tile of boxes: first a batch of source spectra
    /// staged box-major on their way into `spectra`, then the chunk-major
    /// Hadamard accumulators of a run of targets,
    /// `[chunk][target][RHS][TRG_DIM][re|im][F]`.
    pub tile: Vec<f64>,
    /// V lists of the tile's targets as `[source slot, direction entry]`.
    pub vlists: PairLists,
}

/// The slots of one level's FFT-M2L source-spectra table. The targets are
/// swept in runs; a V-list source needs its spectrum from the first run
/// whose V lists name it to the last, so it takes a slot when a run first
/// names it and gives the slot back after the last such run, for a later
/// run's new sources to reuse. The table then holds only the sources live
/// at once ([`SlotPlan::capacity`]), not every source of the level.
#[derive(Default)]
pub struct SlotPlan {
    /// First node id of the level; boxes are indexed by offset from it.
    first: usize,
    /// V entries not yet swept that name each box of the level.
    count: Vec<u32>,
    /// The slot of each box of the level, `u32::MAX` if no V list names it.
    slot_of: Vec<u32>,
    /// Slots given back, reused last in first out.
    free: Vec<u32>,
    /// The sources each run names first, run after run, in list order.
    fresh: Vec<u32>,
    /// Start of each run's sources in `fresh`, plus the end.
    fresh_at: Vec<u32>,
    /// The most slots held at once.
    capacity: usize,
}

impl SlotPlan {
    /// Plan the slots for `targets` swept `run_len` at a time, `v` being
    /// the V lists by node id and `level` the level's node-id range. One
    /// integer pass: count the V entries naming each source, then per
    /// run give each newly named source a slot (a freed one first) and,
    /// once the run is swept, free the slots of sources no later run
    /// names.
    pub fn plan(&mut self, targets: &[u32], run_len: usize, v: &[Vec<u32>], level: Range<usize>) {
        let SlotPlan { first, count, slot_of, free, fresh, fresh_at, capacity } = self;
        *first = level.start;
        count.clear();
        count.resize(level.len(), 0);
        slot_of.clear();
        slot_of.resize(level.len(), u32::MAX);
        free.clear();
        fresh.clear();
        fresh_at.clear();
        fresh_at.push(0);
        *capacity = 0;
        for a in entries(targets, v, *first) {
            count[a] += 1;
        }
        for run in targets.chunks(run_len) {
            for a in entries(run, v, *first) {
                if slot_of[a] == u32::MAX {
                    slot_of[a] = free.pop().unwrap_or_else(|| {
                        *capacity += 1;
                        *capacity as u32 - 1
                    });
                    fresh.push((*first + a) as u32);
                }
            }
            fresh_at.push(fresh.len() as u32);
            for a in entries(run, v, *first) {
                count[a] -= 1;
                if count[a] == 0 {
                    free.push(slot_of[a]);
                }
            }
        }
    }

    /// Slots the table needs: the most sources live at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Distinct sources planned: each is transformed once.
    pub fn sources(&self) -> usize {
        self.fresh.len()
    }

    /// The slot of source box `a`.
    pub fn slot(&self, a: u32) -> u32 {
        self.slot_of[a as usize - self.first]
    }

    /// The sources run `run` names first, in list order: the ones it
    /// transforms before its sweep.
    pub fn fresh(&self, run: usize) -> &[u32] {
        &self.fresh[self.fresh_at[run] as usize..self.fresh_at[run + 1] as usize]
    }
}

/// The V entries of a run of targets, as offsets from node id `first`.
fn entries<'a>(
    run: &'a [u32],
    v: &'a [Vec<u32>],
    first: usize,
) -> impl Iterator<Item = usize> + 'a {
    run.iter().flat_map(move |&ni| &v[ni as usize]).map(move |&a| a as usize - first)
}
