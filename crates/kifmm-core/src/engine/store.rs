//! Flat SoA expansion storage and reusable pass scratch.
//!
//! An [`ExpansionStore`] holds rows only for the boxes its driver touches,
//! and a [`StoreRows`] map says where each box's rows sit. Every box the
//! driver computes or reads the upward equivalent of — its active boxes
//! and the V- and W-list sources of those — has an `up` row; every active
//! box has a *local* row, one block in `check` and one in `down`. Rows are
//! numbered level by level in node order, so one level's rows are
//! contiguous and ascend with node id: a pass over level `l` works on one
//! dense sub-slice of each slab. A serial plan activates every box, and
//! since the octree is built breadth-first (node ids of one level are one
//! contiguous range), its map is the identity: row = node id. A rank of
//! the distributed driver holds rows for its share of the tree only.
//!
//! The map is decided once per [`ActiveSet`] (on the first
//! `PassEngine::prepare_store`) and shared by every store shaped from it;
//! an engine over a subset of that set (`PassEngine::with_active`)
//! indexes the same store through the same map. All three evaluation
//! drivers (serial, shared-memory, distributed) hand an [`ExpansionStore`]
//! to the pass engine; the distributed driver additionally overwrites `up`
//! rows with globally summed equivalents between the engine phases.
//!
//! ## Multi-RHS layout
//!
//! A store sized for `nrhs = k` charge vectors keeps **one block of `k`
//! consecutive rows per box**: `up[row·es·k + q·es + r]` is entry `r` of
//! RHS `q` for the box whose `up` row is `row` (and likewise
//! `down`/`check` with their local row and `cs`). The row order is the
//! same for any `k`, so per-level contiguity — the property the batched
//! per-level passes rely on — holds for any `k`, and `k = 1` reduces to
//! the single-RHS layout exactly.

use super::ActiveSet;
use crate::m2l::PairLists;
use kifmm_tree::{InteractionLists, Octree};
use std::ops::Range;
use std::sync::Arc;

/// A box the store holds no row for.
const NO_ROW: u32 = u32::MAX;

/// Where each box's blocks sit in an [`ExpansionStore`] shaped for one
/// [`ActiveSet`] (see the module doc): an `up` row for every active box
/// and every V- or W-list source of one, a local (`check`/`down`) row for
/// every active box, both numbered level by level in node order.
#[derive(Default)]
pub struct StoreRows {
    /// `up` row of each node, [`NO_ROW`] if none.
    up: Vec<u32>,
    /// `check`/`down` row of each node, [`NO_ROW`] if none.
    local: Vec<u32>,
    /// The node of each local row, ascending.
    local_nodes: Vec<u32>,
    /// First local row of each level, plus the end.
    local_levels: Vec<usize>,
    /// Number of `up` rows.
    up_rows: usize,
}

impl StoreRows {
    /// The rows a driver over `active` touches: `up` rows for the active
    /// boxes and their V- and W-list sources, local rows for the active
    /// boxes. Over an all-active set this is the identity.
    pub(super) fn build(tree: &Octree, lists: &InteractionLists, active: &ActiveSet) -> Self {
        let nn = tree.num_nodes();
        let mut reads = active.mask.clone();
        for &ni in active.levels.iter().flatten() {
            for &a in lists.v[ni as usize].iter().chain(&lists.w[ni as usize]) {
                reads[a as usize] = true;
            }
        }
        let (mut up, mut local) = (vec![NO_ROW; nn], vec![NO_ROW; nn]);
        let (mut local_nodes, mut local_levels, mut up_rows) = (Vec::new(), vec![0], 0);
        for level in &tree.levels {
            for &ni in level {
                if reads[ni as usize] {
                    up[ni as usize] = up_rows as u32;
                    up_rows += 1;
                }
                if active.mask[ni as usize] {
                    local[ni as usize] = local_nodes.len() as u32;
                    local_nodes.push(ni);
                }
            }
            local_levels.push(local_nodes.len());
        }
        StoreRows { up, local, local_nodes, local_levels, up_rows }
    }

    /// Number of `up` rows.
    pub fn up_rows(&self) -> usize {
        self.up_rows
    }

    /// Number of local (`check`/`down`) rows.
    pub fn local_rows(&self) -> usize {
        self.local_nodes.len()
    }

    /// The `up` row of box `ni`. Panics if the store holds none.
    pub fn up(&self, ni: u32) -> usize {
        let row = self.up[ni as usize];
        assert!(row != NO_ROW, "box {ni} has no upward row in this store");
        row as usize
    }

    /// The local (`check`/`down`) row of box `ni`. Panics if the store
    /// holds none.
    pub fn local(&self, ni: u32) -> usize {
        let row = self.local[ni as usize];
        assert!(row != NO_ROW, "box {ni} has no check/down row in this store");
        row as usize
    }

    /// The box of local row `row`.
    pub fn local_node(&self, row: usize) -> u32 {
        self.local_nodes[row]
    }

    /// The local rows of tree level `level`: one contiguous range.
    pub fn local_level(&self, level: u8) -> Range<usize> {
        self.local_levels[level as usize]..self.local_levels[level as usize + 1]
    }
}

/// Expansion state of one evaluation: upward equivalents, downward check
/// potentials and downward equivalents, one block of `nrhs` rows per box
/// the store holds, at the rows its [`StoreRows`] map gives. The default
/// is the empty store a pooled [`Scratch`] starts as, shaped on use by
/// `PassEngine::prepare_store`.
#[derive(Default)]
pub struct ExpansionStore {
    es: usize,
    cs: usize,
    nrhs: usize,
    /// Where each box's blocks sit.
    rows: Arc<StoreRows>,
    /// Upward equivalent densities, `[up_rows × nrhs × es]`.
    pub up: Vec<f64>,
    /// Downward equivalent densities, `[local_rows × nrhs × es]`.
    pub down: Vec<f64>,
    /// Downward check potentials, `[local_rows × nrhs × cs]`.
    pub check: Vec<f64>,
}

impl ExpansionStore {
    /// Reshape (if needed) for the row map, row lengths and RHS count,
    /// then zero every slab. Every store is shaped here — a fresh one
    /// from [`ExpansionStore::default`], or a pooled one, so one pooled
    /// allocation serves evaluations of any batch width.
    pub fn ensure(&mut self, rows: &Arc<StoreRows>, es: usize, cs: usize, nrhs: usize) {
        assert!(nrhs >= 1, "at least one right-hand side");
        self.es = es;
        self.cs = cs;
        self.nrhs = nrhs;
        self.rows = Arc::clone(rows);
        self.up.clear();
        self.up.resize(rows.up_rows() * es * nrhs, 0.0);
        self.down.clear();
        self.down.resize(rows.local_rows() * es * nrhs, 0.0);
        self.check.clear();
        self.check.resize(rows.local_rows() * cs * nrhs, 0.0);
    }

    /// Number of simultaneous charge vectors this store is shaped for.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// The map from boxes to this store's rows.
    pub fn rows(&self) -> &StoreRows {
        &self.rows
    }

    /// The check slab, mutably, with the map that indexes it.
    pub fn check_mut(&mut self) -> (&StoreRows, &mut [f64]) {
        (&self.rows, &mut self.check)
    }

    /// Upward equivalent block of box `ni`: `nrhs` consecutive rows
    /// (`nrhs·es` values). With one RHS this is the box's single row.
    pub fn up(&self, ni: u32) -> &[f64] {
        let b = self.es * self.nrhs;
        let row = self.rows.up(ni);
        &self.up[row * b..(row + 1) * b]
    }

    /// Upward equivalent row of box `ni` for RHS `q`.
    pub fn up_rhs(&self, ni: u32, q: usize) -> &[f64] {
        &self.up(ni)[q * self.es..(q + 1) * self.es]
    }

    /// Overwrite box `ni`'s upward equivalent block (the distributed
    /// driver installs globally summed equivalents this way). Panics if
    /// the store holds no `up` row for `ni`: a store is shaped for every
    /// box its driver reads.
    pub fn set_up(&mut self, ni: u32, values: &[f64]) {
        let b = self.es * self.nrhs;
        let row = self.rows.up(ni);
        self.up[row * b..(row + 1) * b].copy_from_slice(values);
    }

    /// Downward equivalent block of box `ni` (`nrhs·es` values).
    pub fn down(&self, ni: u32) -> &[f64] {
        let b = self.es * self.nrhs;
        let row = self.rows.local(ni);
        &self.down[row * b..(row + 1) * b]
    }

    /// Downward equivalent row of box `ni` for RHS `q`.
    pub fn down_rhs(&self, ni: u32, q: usize) -> &[f64] {
        &self.down(ni)[q * self.es..(q + 1) * self.es]
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
    /// `(destination row, source row)` slab rows of one translation batch.
    pub pairs: Vec<(u32, u32)>,
    /// The M2L targets of one call (active, non-empty V list), ascending
    /// — Morton order within the level.
    pub targets: Vec<u32>,
    /// The check row of each of `targets`, ascending with them.
    pub target_rows: Vec<u32>,
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
