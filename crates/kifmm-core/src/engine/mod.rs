//! The single pass engine behind all three evaluation drivers.
//!
//! The paper's central structural claim is that the KIFMM passes (S2M/M2M,
//! M2L, L2L/L2T, dense U/W/X) are the *same computation* whether the boxes
//! involved are owned by one process or scattered across ranks. This module
//! makes that literal: one implementation of each pass, parameterized by
//!
//! * an **ownership filter** ([`ActiveSet`]) — the one way to say *which
//!   boxes*: the serial and shared-memory drivers activate every box, the
//!   distributed driver the boxes this rank contributes to (and, for M2L,
//!   the two halves of that set on either side of its ghost exchange);
//! * a **target set** ([`LeafTargets`]) — the one way to say *which
//!   points* the leaf passes evaluate at: the plan's own Morton-sorted
//!   points, or arbitrary points binned by leaf;
//! * a **source provider** ([`SourceProvider`]) — local Morton-sorted
//!   points for shared-memory evaluation, ghost-exchanged geometry for the
//!   distributed driver;
//! * a **thread-dispatch hook** ([`Dispatch`] from `kifmm-runtime`) —
//!   `Serial` runs inline, `Pool` fans each level over the worker pool.
//!   Both produce bit-identical results (each output element is computed by
//!   exactly one task with the serial instruction order).
//!
//! Expansions live in a flat per-level-contiguous [`ExpansionStore`], which
//! lets the translation passes run as **per-level batched operators**: the
//! M2M/L2L GEMVs of one level collapse into a handful of multi-RHS GEMMs
//! ([`kifmm_linalg::gemm_slices`]), and the FFT M2L transforms a whole
//! level's source spectra into one frequency-chunk-major table that tiles
//! of targets then sweep chunk by chunk (see [`crate::m2l`] for the
//! layout). The drivers contribute only orchestration — permutation,
//! spans, timing, and (for the distributed path) the two overlapped
//! exchanges.
//!
//! ## Multi-RHS batches
//!
//! Every pass also runs for `k > 1` simultaneous charge vectors (see
//! `eval_many`): the store interleaves `k` rows per node, the per-level
//! GEMMs simply widen their column blocks by `k` (each output column of
//! [`kifmm_linalg::gemm_slices`] accumulates independently in identical
//! `p`-order, so widening is bitwise-safe per column), the FFT M2L keeps
//! a source's `k` spectra adjacent and accumulates each `(target, RHS)`
//! over the target's V list exactly as a single-RHS run would, and the
//! dense passes go through one near-field helper
//! onto [`Kernel::p2p_many`] / [`Kernel::p2p_grad_many`], which share pair
//! geometry across the batch. `k = 1` is the same code with a batch of
//! one — there is no single-RHS path.

mod store;

pub use store::{EngineWorkspace, ExpansionStore, Scratch};

use crate::m2l::{self, M2lScratch, PairLists};
use crate::operators::FIRST_FMM_LEVEL;
use crate::precompute::Precomputed;
use crate::stats::{Meter, Phase};
use crate::surface::{num_surface_points, surface_points, RAD_INNER, RAD_OUTER};
use kifmm_kernels::{Kernel, Point3};
use kifmm_linalg::{gemm_slices, Mat};
use kifmm_runtime::{par_each, Dispatch};
use kifmm_tree::{InteractionLists, Octree, NO_NODE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte budget of one FFT-M2L tile (`EngineWorkspace::tile`): a batch of
/// source spectra being staged, or the accumulators of a run of targets.
/// It is a memory bound, not a cache fit: every (tile, chunk) pays a cold
/// first touch of the kernel and source runs it reads, so larger tiles
/// measured faster (8 MiB: Hadamard stage −20 % on a 4 096-box level),
/// but a tile must stay well under the (1 − 7/12) of the old full-grid
/// spectra slab the half-spectrum table freed, on levels of a few dozen
/// boxes too — 2 MiB does on every benchmark workload.
const TILE_BYTES: usize = 2 << 20;

/// Where a pass reads the source points and densities of a leaf box: the
/// local Morton-sorted arrays (serial/shared-memory, and the distributed
/// upward pass) or the ghost-exchanged copies (distributed U/X passes).
pub trait SourceProvider: Sync {
    /// Number of simultaneous charge vectors.
    fn nrhs(&self) -> usize;
    /// Points and `SRC_DIM`-interleaved densities of box `ni` for RHS
    /// `rhs` (the points are the same for every RHS).
    fn sources(&self, ni: u32, rhs: usize) -> (&[Point3], &[f64]);
}

/// [`SourceProvider`] over the local Morton-sorted point/density arrays.
pub struct LocalSources<'a> {
    /// The computation tree (for leaf point ranges).
    pub tree: &'a Octree,
    /// Morton-sorted points.
    pub points: &'a [Point3],
    /// One Morton-sorted density vector per RHS, `src_dim` per point.
    pub dens: &'a [&'a [f64]],
    /// Kernel source dimension.
    pub src_dim: usize,
}

impl SourceProvider for LocalSources<'_> {
    fn nrhs(&self) -> usize {
        self.dens.len()
    }

    fn sources(&self, ni: u32, rhs: usize) -> (&[Point3], &[f64]) {
        let node = &self.tree.nodes[ni as usize];
        let (s, e) = (node.pt_start as usize, node.pt_end as usize);
        (&self.points[s..e], &self.dens[rhs][s * self.src_dim..e * self.src_dim])
    }
}

/// The node-ownership filter of one driver, in the shapes the passes need:
/// a membership mask, per-level active id lists, and the active leaves in
/// target-point order.
pub struct ActiveSet {
    /// `mask[ni]` — box `ni` is computed by this driver.
    pub mask: Vec<bool>,
    /// Active node ids per level, ascending.
    pub levels: Vec<Vec<u32>>,
    /// `(leaf, pt_start, pt_end)` of every active leaf, ordered by
    /// `pt_start` (they partition the local target range).
    pub leaves: Vec<(u32, usize, usize)>,
}

/// The points a leaf phase evaluates at: each `(leaf, start, end)` of
/// `ranges` says `points[start..end]` lie in leaf box `leaf` and read its
/// U/W lists and local expansion. Ranges ascend and do not overlap; the
/// outputs of a leaf pass are indexed like `points`.
#[derive(Clone, Copy)]
pub struct LeafTargets<'a> {
    /// The target points, grouped by leaf.
    pub points: &'a [Point3],
    /// One range of `points` per leaf that has targets.
    pub ranges: &'a [(u32, usize, usize)],
}

impl ActiveSet {
    /// Classify every box of `tree` with `filter` (serial/shared-memory
    /// drivers pass `|_| true`; the distributed driver passes its
    /// "contributed" predicate).
    pub fn build(tree: &Octree, filter: impl Fn(u32) -> bool) -> Self {
        let nn = tree.num_nodes();
        let mut mask = vec![false; nn];
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); tree.depth() as usize + 1];
        let mut leaves = Vec::new();
        for (ni, node) in tree.nodes.iter().enumerate() {
            if filter(ni as u32) {
                mask[ni] = true;
                levels[node.key.level as usize].push(ni as u32);
                if node.is_leaf() {
                    leaves.push((ni as u32, node.pt_start as usize, node.pt_end as usize));
                }
            }
        }
        leaves.sort_by_key(|&(_, start, _)| start);
        ActiveSet { mask, levels, leaves }
    }
}

/// One set of FMM passes over a prepared tree. Stateless between calls:
/// expansions live in the caller's [`ExpansionStore`], scratch in the
/// caller's [`EngineWorkspace`]. Every pass returns its exact flop count
/// (the same accounting the three drivers used individually).
pub struct PassEngine<'a, K: Kernel> {
    kernel: &'a K,
    tree: &'a Octree,
    lists: &'a InteractionLists,
    pre: &'a Precomputed<K>,
    /// Morton-sorted local target points (leaf ranges index into this).
    targets: &'a [Point3],
    order: usize,
    dispatch: Dispatch,
    active: &'a ActiveSet,
}

impl<'a, K: Kernel> PassEngine<'a, K> {
    /// Borrow a driver's prepared state into an engine.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &'a K,
        tree: &'a Octree,
        lists: &'a InteractionLists,
        pre: &'a Precomputed<K>,
        targets: &'a [Point3],
        order: usize,
        dispatch: Dispatch,
        active: &'a ActiveSet,
    ) -> Self {
        PassEngine { kernel, tree, lists, pre, targets, order, dispatch, active }
    }

    /// `(n_s, es, cs)`: surface points per box, equivalent row length,
    /// check row length.
    pub fn dims(&self) -> (usize, usize, usize) {
        let ns = num_surface_points(self.order);
        (ns, ns * self.kernel.src_dim(), ns * self.kernel.trg_dim())
    }

    /// A zeroed single-RHS [`ExpansionStore`] sized for this tree.
    pub fn new_store(&self) -> ExpansionStore {
        self.new_store_many(1)
    }

    /// A zeroed [`ExpansionStore`] sized for this tree and `nrhs`
    /// simultaneous charge vectors.
    pub fn new_store_many(&self, nrhs: usize) -> ExpansionStore {
        let (_, es, cs) = self.dims();
        ExpansionStore::with_nrhs(self.tree.num_nodes(), es, cs, nrhs)
    }

    /// Reshape a pooled store for this tree and `nrhs`, zeroing it.
    pub fn prepare_store(&self, store: &mut ExpansionStore, nrhs: usize) {
        let (_, es, cs) = self.dims();
        store.ensure(self.tree.num_nodes(), es, cs, nrhs);
    }

    /// The same engine over another [`ActiveSet`] of the same tree. M2L
    /// accumulates each target independently of every other, so running a
    /// level over two complementary sets leaves bitwise what one pass over
    /// their union leaves — this is what lets the distributed driver
    /// evaluate interior targets while the ghost equivalents their boundary
    /// peers need are still in flight.
    pub fn with_active(self, active: &'a ActiveSet) -> Self {
        PassEngine { active, ..self }
    }

    /// The engine's own target set: its Morton-sorted points, one range
    /// per active leaf.
    pub fn own_targets(&self) -> LeafTargets<'a> {
        LeafTargets { points: self.targets, ranges: &self.active.leaves }
    }

    /// Number of active boxes the upward pass touches (levels ≥ 2).
    pub fn active_cell_count(&self) -> u64 {
        self.active.levels.iter().skip(FIRST_FMM_LEVEL as usize).map(|l| l.len() as u64).sum()
    }

    /// Contiguous node-id range `[start, end)` of one level (BFS
    /// construction guarantees contiguity; asserted in debug builds).
    fn level_range(&self, level: u8) -> (usize, usize) {
        let idxs = &self.tree.levels[level as usize];
        let start = idxs[0] as usize;
        debug_assert!(idxs.windows(2).all(|w| w[1] == w[0] + 1), "level not contiguous");
        (start, start + idxs.len())
    }

    /// The engine's one near-field call: accumulate `dens` (one density
    /// vector per RHS) at `pts` onto the per-RHS rows `outs` at `trg` —
    /// and, when `gouts` is given, the target gradients with them in one
    /// fused loop. The near field is the only place the kernel is
    /// differentiated: real sources in the U pass, equivalent densities in
    /// W and L2T (no gradient-specific translation operators exist).
    /// Returns the exact flop count of the call.
    fn near_field(
        &self,
        trg: &[Point3],
        pts: &[Point3],
        dens: &[&[f64]],
        outs: &mut [&mut [f64]],
        gouts: Option<&mut [&mut [f64]]>,
    ) -> u64 {
        let pairs = (trg.len() * pts.len() * dens.len()) as u64;
        match gouts {
            Some(gouts) => {
                self.kernel.p2p_grad_many(trg, pts, dens, outs, gouts);
                pairs * self.kernel.flops_per_grad_eval()
            }
            None => {
                self.kernel.p2p_many(trg, pts, dens, outs);
                pairs * self.kernel.flops_per_eval()
            }
        }
    }

    /// [`PassEngine::near_field`] from box `a` of a [`SourceProvider`].
    /// `dens` is the caller's per-leaf scratch for the batch's density
    /// slices, so a call allocates nothing.
    fn p2p_box<'s, S: SourceProvider>(
        &self,
        src: &'s S,
        a: u32,
        trg: &[Point3],
        dens: &mut Vec<&'s [f64]>,
        outs: &mut [&mut [f64]],
        gouts: Option<&mut [&mut [f64]]>,
    ) -> u64 {
        dens.clear();
        dens.extend((0..outs.len()).map(|q| src.sources(a, q).1));
        self.near_field(trg, src.sources(a, 0).0, dens, outs, gouts)
    }

    /// Upward pass: S2M at active leaves, M2M at active internal boxes,
    /// bottom-up, ending with the check → equivalent inversion. M2M
    /// translations and the inversions run as per-level multi-RHS GEMMs
    /// (a batch of `k` charge vectors widens each column block `k`-fold).
    /// Writes `store.up` blocks of active boxes; returns the flop count.
    pub fn upward<S: SourceProvider>(
        &self,
        src: &S,
        store: &mut ExpansionStore,
        ws: &mut EngineWorkspace,
    ) -> u64 {
        let depth = self.tree.depth();
        if depth < FIRST_FMM_LEVEL {
            return 0;
        }
        let (ns, _, cs) = self.dims();
        let nrhs = src.nrhs();
        assert_eq!(store.nrhs(), nrhs, "store shaped for the batch width");
        let csb = cs * nrhs;
        let kf = self.kernel.flops_per_eval();
        let threads = self.dispatch.threads();
        let mut flops = 0u64;
        // The level's check rows are both a source and a destination of
        // `translate`, which borrows the rest of the workspace.
        let mut rows = std::mem::take(&mut ws.rows);
        for level in (FIRST_FMM_LEVEL..=depth).rev() {
            let act = &self.active.levels[level as usize];
            let nb = act.len();
            if nb == 0 {
                continue;
            }
            let (lops, scale) = self.pre.ops.at(level);
            let half = self.tree.domain.box_half(level);
            // S2M: leaf sources → upward check potentials, one batch block
            // (`nrhs` rows) per active box (internal boxes stay zero for
            // M2M below). The upward surface is built once per box and
            // shared by the whole batch.
            rows.clear();
            rows.resize(nb * csb, 0.0);
            par_each(threads, rows.chunks_mut(csb), || (), |(), i, chk| {
                let ni = act[i];
                let node = &self.tree.nodes[ni as usize];
                if node.is_leaf() {
                    let c = self.tree.domain.box_center(&node.key);
                    let uc = surface_points(self.order, RAD_OUTER, c, half);
                    let mut outs: Vec<&mut [f64]> = chk.chunks_mut(cs).collect();
                    self.p2p_box(src, ni, &uc, &mut Vec::with_capacity(nrhs), &mut outs, None);
                }
            });
            for &ni in act {
                if self.tree.nodes[ni as usize].is_leaf() {
                    flops += (src.sources(ni, 0).0.len() * ns * nrhs) as u64 * kf;
                }
            }
            // M2M: one multi-RHS GEMM per child octant over all active
            // (parent, child) pairs of this level; the sequential
            // octant-order scatter-add keeps parent sums deterministic.
            for oct in 0..8 {
                ws.pairs.clear();
                for (i, &ni) in act.iter().enumerate() {
                    let ci = self.tree.nodes[ni as usize].children[oct];
                    if ci != NO_NODE && self.active.mask[ci as usize] {
                        ws.pairs.push((i as u32, ci));
                    }
                }
                let op = &lops.ue2uc[oct];
                flops += self.translate(op, scale.fwd, nrhs, &store.up, &mut rows, true, ws);
            }
            // Level-wide check → equivalent inversion, one GEMM.
            ws.pairs.clear();
            ws.pairs.extend(act.iter().enumerate().map(|(j, &ni)| (ni, j as u32)));
            flops += self.translate(&lops.uc2ue, scale.inv, nrhs, &rows, &mut store.up, false, ws);
        }
        ws.rows = rows;
        flops
    }

    /// The engine's one box → box translation (M2M, L2L and the two check
    /// → equivalent inversions): for every `(dst box, src box)` of
    /// `ws.pairs`, apply `alpha · op` — a table shared across levels times
    /// this level's factor, formed entry by entry inside the GEMM — to the
    /// source's block in the node-major slab `src` (`nrhs` rows of
    /// `op.cols()`) and add it to — or, without `accumulate`, store it as —
    /// the destination's block in `dst` (`nrhs` rows of `op.rows()`), all
    /// pairs in one multi-RHS GEMM. Returns the flop count.
    #[allow(clippy::too_many_arguments)]
    fn translate(
        &self,
        op: &Mat,
        alpha: f64,
        nrhs: usize,
        src: &[f64],
        dst: &mut [f64],
        accumulate: bool,
        ws: &mut EngineWorkspace,
    ) -> u64 {
        let (m, k) = (op.rows(), op.cols());
        let ncols = ws.pairs.len() * nrhs;
        if ncols == 0 {
            return 0;
        }
        ws.xin.clear();
        ws.xin.resize(k * ncols, 0.0);
        for (j, &(_, b)) in ws.pairs.iter().enumerate() {
            let blk = &src[b as usize * k * nrhs..(b as usize + 1) * k * nrhs];
            for q in 0..nrhs {
                for r in 0..k {
                    ws.xin[r * ncols + j * nrhs + q] = blk[q * k + r];
                }
            }
        }
        ws.yout.clear();
        ws.yout.resize(m * ncols, 0.0);
        self.apply_op_cols(op, alpha, &ws.xin, &mut ws.yout, ncols);
        for (j, &(a, _)) in ws.pairs.iter().enumerate() {
            let blk = &mut dst[a as usize * m * nrhs..(a as usize + 1) * m * nrhs];
            for q in 0..nrhs {
                for (r, v) in blk[q * m..(q + 1) * m].iter_mut().enumerate() {
                    let y = ws.yout[r * ncols + j * nrhs + q];
                    *v = if accumulate { *v + y } else { y };
                }
            }
        }
        ncols as u64 * 2 * (m * k) as u64
    }

    /// Apply operator `op` (`m × k`) to `ncols` column vectors packed
    /// column-major in `xin` (`k × ncols`), writing `yout = alpha · op · xin`
    /// (`m × ncols`). Pool dispatch row-blocks the output; per-element
    /// results are identical for any blocking, so serial and pool agree
    /// bitwise.
    fn apply_op_cols(&self, op: &Mat, alpha: f64, xin: &[f64], yout: &mut [f64], ncols: usize) {
        let (m, k) = (op.rows(), op.cols());
        debug_assert_eq!(xin.len(), k * ncols);
        debug_assert_eq!(yout.len(), m * ncols);
        let threads = self.dispatch.threads();
        if threads <= 1 || m * ncols < 4096 {
            gemm_slices(alpha, op.as_slice(), xin, 0.0, yout, m, k, ncols);
        } else {
            let rows_per = m.div_ceil(threads);
            par_each(threads, yout.chunks_mut(rows_per * ncols), || (), |(), blk, y| {
                let r0 = blk * rows_per;
                let rows = y.len() / ncols;
                gemm_slices(
                    alpha,
                    &op.as_slice()[r0 * k..(r0 + rows) * k],
                    xin,
                    0.0,
                    y,
                    rows,
                    k,
                    ncols,
                );
            });
        }
    }

    /// M2L over one level: active targets accumulate the check-potential
    /// contributions of their V-list sources from `store.up`, into
    /// `store.check`, through the FFT path in two sweeps. Only the active
    /// targets' V-list sources are transformed, so a level with none
    /// costs one scan. Returns the flop count.
    ///
    /// *Sources*: every box some active target's V list names is
    /// forward-transformed once — a byte-bounded batch at a time,
    /// box-major into `ws.tile`, then packed into the level's
    /// frequency-chunk-major spectra table.
    ///
    /// *Targets*, a [`TILE_BYTES`] run of consecutive (hence
    /// Morton-neighbouring) targets at a time: the tile's V lists are
    /// resolved once to `(source slot, direction id)` pairs; the Hadamard
    /// stage then runs chunks outermost, targets inside, V pairs
    /// innermost, so per chunk the tile reads one contiguous run of
    /// kernel tensors, the few sources its neighbourhood shares, and
    /// writes each accumulator once; finally each target's spectrum is
    /// gathered, inverse-transformed and added into `store.check`.
    ///
    /// Pool dispatch splits boxes for the transforms and chunks for the
    /// Hadamard stage and the packing (disjoint writes either way), and
    /// every target sums its V list in list order whatever the tiling or
    /// the active set, so serial, pool and split runs agree bitwise.
    pub fn m2l_level(
        &self,
        level: u8,
        store: &mut ExpansionStore,
        ws: &mut EngineWorkspace,
    ) -> u64 {
        // Shallower trees have no V lists and no M2L tables.
        let Some(fft) = self.pre.m2l_fft.as_ref() else { return 0 };
        let (_, es, cs) = self.dims();
        let nrhs = store.nrhs();
        let (esb, csb) = (es * nrhs, cs * nrhs);
        let (sd, td) = (self.kernel.src_dim(), self.kernel.trg_dim());
        let (ls, le) = self.level_range(level);
        let EngineWorkspace { targets, needed, slot_of, spectra, tile, vlists, .. } = ws;
        targets.clear();
        needed.clear();
        for &ni in &self.active.levels[level as usize] {
            let vlist = &self.lists.v[ni as usize];
            if !vlist.is_empty() {
                targets.push(ni);
                needed.extend_from_slice(vlist);
            }
        }
        needed.sort_unstable();
        needed.dedup();
        if needed.is_empty() {
            return 0;
        }
        slot_of.clear();
        slot_of.resize(le - ls, u32::MAX);
        for (slot, &a) in needed.iter().enumerate() {
            slot_of[a as usize - ls] = slot as u32;
        }
        let (targets, needed, slot_of): (&[u32], &[u32], &[u32]) = (targets, needed, slot_of);
        let threads = self.dispatch.threads();
        // f64s per box-major grid, grids per source / target box, and
        // f64s per box in one chunk of a chunk-major table.
        let glen = 2 * fft.slab_len();
        let (sw, tw) = (nrhs * sd, nrhs * td);
        let (sc, tc) = (sw * 2 * m2l::F, tw * 2 * m2l::F);
        let boxes_per_tile = |width: usize| (TILE_BYTES / (width * glen * 8)).max(1);

        // No zero-fill on reuse: packing overwrites every slot.
        spectra.resize(needed.len() * sw * glen, 0.0);
        let up: &[f64] = &store.up;
        let per_batch = boxes_per_tile(sw);
        for (b, batch) in needed.chunks(per_batch).enumerate() {
            tile.resize(batch.len() * sw * glen, 0.0);
            par_each(threads, tile.chunks_mut(sw * glen), M2lScratch::default, |s, i, out| {
                let a = batch[i] as usize;
                fft.transform_source(&up[a * esb..(a + 1) * esb], out, s);
            });
            let first = b * per_batch;
            let staged: &[f64] = tile;
            par_each(threads, spectra.chunks_mut(needed.len() * sc), || (), |(), c, table| {
                fft.pack_chunk(c, staged, &mut table[first * sc..(first + batch.len()) * sc]);
            });
        }

        let spectra: &[f64] = spectra;
        for run in targets.chunks(boxes_per_tile(tw)) {
            vlists.clear();
            for &ni in run {
                let bkey = self.tree.nodes[ni as usize].key;
                vlists.push(self.lists.v[ni as usize].iter().map(|&a| {
                    let dir = m2l::dir_id(bkey.offset_to(&self.tree.nodes[a as usize].key));
                    [slot_of[a as usize - ls], dir]
                }));
            }
            let vlists: &PairLists = vlists;
            tile.resize(run.len() * tw * glen, 0.0);
            par_each(threads, tile.chunks_mut(run.len() * tc), || (), |(), c, acc| {
                let table = &spectra[c * needed.len() * sc..(c + 1) * needed.len() * sc];
                fft.hadamard_chunk(level, c, vlists, nrhs, table, acc);
            });
            let (lo, hi) = (run[0] as usize, run[run.len() - 1] as usize + 1);
            let acc: &[f64] = tile;
            let check = &mut store.check[lo * csb..hi * csb];
            par_each(threads, check.chunks_mut(csb), M2lScratch::default, |s, i, slot| {
                if let Ok(j) = run.binary_search(&((lo + i) as u32)) {
                    fft.extract_check(level, acc, j, slot, s);
                }
            });
        }

        // The nominal model: 5·n·log₂n per transform on the full grid,
        // 8 flops per half-spectrum entry per block per pair.
        let mut flops = (needed.len() * nrhs) as u64 * fft.fft_flops(sd);
        for &ni in targets {
            let nv = self.lists.v[ni as usize].len() as u64;
            flops += nrhs as u64 * (nv * (td * sd * fft.slab_len() * 8) as u64 + fft.fft_flops(td));
        }
        flops
    }

    /// X-list pass: sources of coarser leaves onto the downward check
    /// surfaces of active boxes (`store.check`). Returns the flop count.
    pub fn x_pass<S: SourceProvider>(&self, src: &S, store: &mut ExpansionStore) -> u64 {
        let depth = self.tree.depth();
        if depth < FIRST_FMM_LEVEL {
            return 0;
        }
        let (ns, _, cs) = self.dims();
        let nrhs = src.nrhs();
        assert_eq!(store.nrhs(), nrhs, "store shaped for the batch width");
        let csb = cs * nrhs;
        let kf = self.kernel.flops_per_eval();
        let threads = self.dispatch.threads();
        let mask = &self.active.mask;
        let mut flops = 0u64;
        for level in FIRST_FMM_LEVEL..=depth {
            let (ls, le) = self.level_range(level);
            let half = self.tree.domain.box_half(level);
            let slots = store.check[ls * csb..le * csb].chunks_mut(csb);
            par_each(threads, slots, || (), |(), i, slot| {
                let ni = ls + i;
                if !mask[ni] || self.lists.x[ni].is_empty() {
                    return;
                }
                let node = &self.tree.nodes[ni];
                let c = self.tree.domain.box_center(&node.key);
                let dc = surface_points(self.order, RAD_INNER, c, half);
                let mut outs: Vec<&mut [f64]> = slot.chunks_mut(cs).collect();
                let mut dens = Vec::with_capacity(nrhs);
                for &a in &self.lists.x[ni] {
                    self.p2p_box(src, a, &dc, &mut dens, &mut outs, None);
                }
            });
            for &ni in &self.active.levels[level as usize] {
                for &a in &self.lists.x[ni as usize] {
                    flops += (src.sources(a, 0).0.len() * ns * nrhs) as u64 * kf;
                }
            }
        }
        flops
    }

    /// L2L pass, top-down: parent downward equivalents onto child check
    /// surfaces (batched per octant), then the level-wide check →
    /// equivalent inversion into `store.down`. Returns the flop count.
    pub fn l2l(&self, store: &mut ExpansionStore, ws: &mut EngineWorkspace) -> u64 {
        let depth = self.tree.depth();
        if depth < FIRST_FMM_LEVEL {
            return 0;
        }
        let nrhs = store.nrhs();
        let mut flops = 0u64;
        for level in FIRST_FMM_LEVEL..=depth {
            let act = &self.active.levels[level as usize];
            if act.is_empty() {
                continue;
            }
            let (lops, scale) = self.pre.ops.at(level);
            if level > FIRST_FMM_LEVEL {
                // L2L translation, batched per octant. (An active box's
                // parent is active too: it contains the box's points.)
                for oct in 0..8 {
                    ws.pairs.clear();
                    for &ni in act {
                        let node = &self.tree.nodes[ni as usize];
                        if node.key.octant() as usize == oct {
                            ws.pairs.push((ni, node.parent));
                        }
                    }
                    let (op, down, check) = (&lops.de2dc[oct], &store.down, &mut store.check);
                    flops += self.translate(op, scale.fwd, nrhs, down, check, true, ws);
                }
            }
            // Check → downward equivalent inversion, one GEMM per level.
            ws.pairs.clear();
            ws.pairs.extend(act.iter().map(|&ni| (ni, ni)));
            let (check, down) = (&store.check, &mut store.down);
            flops += self.translate(&lops.dc2de, scale.inv, nrhs, check, down, false, ws);
        }
        flops
    }

    /// The leaf half of an evaluation at `targets` — U → W → L2T, each
    /// charged through `meter` — on the final expansions in `store`, with
    /// the U pass reading real sources from `near`. Allocates and returns
    /// `(potentials, gradients)`: one vector per RHS indexed like
    /// `targets.points` (`trg_dim`, resp. `trg_dim·3`, per point), the
    /// gradients empty unless `wants_grad`
    /// ([`crate::evaluator::OutputSpec::PotentialAndGradient`]).
    pub fn leaf_phase<S: SourceProvider>(
        &self,
        near: &S,
        store: &ExpansionStore,
        targets: LeafTargets<'_>,
        wants_grad: bool,
        meter: &mut Meter<'_>,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let len = targets.points.len() * self.kernel.trg_dim();
        let zeros = |len: usize, k: usize| (0..k).map(|_| vec![0.0; len]).collect::<Vec<_>>();
        let mut pots = zeros(len, near.nrhs());
        let mut grads = zeros(len * 3, if wants_grad { near.nrhs() } else { 0 });
        let mut p: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
        let mut g: Option<Vec<&mut [f64]>> =
            wants_grad.then(|| grads.iter_mut().map(Vec::as_mut_slice).collect());
        meter.touched(targets.ranges.len() as u64);
        meter.compute(Phase::DownU, "u-list", None, || {
            self.u_pass_into(near, targets, &mut p, g.as_deref_mut())
        });
        meter.compute(Phase::DownW, "w-list", None, || {
            self.w_pass_into(store, targets, &mut p, g.as_deref_mut())
        });
        meter.compute(Phase::Eval, "l2t", None, || {
            self.l2t_into(store, targets, &mut p, g.as_deref_mut())
        });
        drop((p, g));
        (pots, grads)
    }

    /// Split each of the `k` potential vectors (and, when given, the `k`
    /// gradient vectors, stride `trg_dim·3` per point, in lockstep) into
    /// disjoint per-leaf `&mut` slices along `targets.ranges`, and run `f`
    /// on every leaf under the engine's dispatch, handing it the leaf's
    /// targets and output rows. Returns the sum of the flop counts `f`
    /// returns.
    fn for_each_active_leaf(
        &self,
        targets: LeafTargets<'_>,
        pots: &mut [&mut [f64]],
        grads: Option<&mut [&mut [f64]]>,
        f: impl Fn(u32, &[Point3], &mut [&mut [f64]], Option<&mut [&mut [f64]]>) -> u64 + Sync,
    ) -> u64 {
        let td = self.kernel.trg_dim();
        if let Some(grads) = &grads {
            assert_eq!(grads.len(), pots.len(), "one gradient vector per RHS");
        }
        let pcarved = carve_leaf_slices(pots, td, targets.ranges);
        let mut gcarved = grads.map(|g| carve_leaf_slices(g, td * 3, targets.ranges).into_iter());
        let items = targets.ranges.iter().zip(pcarved).map(|(&(ni, s, e), outs)| {
            (ni, &targets.points[s..e], outs, gcarved.as_mut().and_then(Iterator::next))
        });
        let flops = AtomicU64::new(0);
        par_each(self.dispatch.threads(), items, || (), |(), _, (ni, trg, mut outs, mut gouts)| {
            flops.fetch_add(f(ni, trg, &mut outs, gouts.as_deref_mut()), Ordering::Relaxed);
        });
        flops.into_inner()
    }

    /// Dense U-list pass onto the potentials at `targets` (`k` vectors,
    /// one per RHS) and, when `grads` is given, the gradients, fused.
    /// Returns the flop count.
    fn u_pass_into<S: SourceProvider>(
        &self,
        src: &S,
        targets: LeafTargets<'_>,
        pots: &mut [&mut [f64]],
        grads: Option<&mut [&mut [f64]]>,
    ) -> u64 {
        let nrhs = src.nrhs();
        assert_eq!(pots.len(), nrhs, "one potential vector per RHS");
        self.for_each_active_leaf(targets, pots, grads, |ni, trg, outs, mut gouts| {
            let mut dens = Vec::with_capacity(nrhs);
            self.lists.u[ni as usize]
                .iter()
                .map(|&a| self.p2p_box(src, a, trg, &mut dens, outs, gouts.as_deref_mut()))
                .sum()
        })
    }

    /// W-list pass: upward equivalents of finer separated boxes onto the
    /// potentials (and gradients — `∇G` read off the same densities the
    /// potential reads). The equivalent surface is built once per
    /// `(leaf, W source)` and shared by the batch. Returns the flop count.
    fn w_pass_into(
        &self,
        store: &ExpansionStore,
        targets: LeafTargets<'_>,
        pots: &mut [&mut [f64]],
        grads: Option<&mut [&mut [f64]]>,
    ) -> u64 {
        let nrhs = store.nrhs();
        assert_eq!(pots.len(), nrhs, "one potential vector per RHS");
        self.for_each_active_leaf(targets, pots, grads, |ni, trg, outs, mut gouts| {
            let mut dens = Vec::with_capacity(nrhs);
            let mut flops = 0;
            for &a in &self.lists.w[ni as usize] {
                let akey = self.tree.nodes[a as usize].key;
                let ac = self.tree.domain.box_center(&akey);
                let ah = self.tree.domain.box_half(akey.level);
                let ue = surface_points(self.order, RAD_INNER, ac, ah);
                dens.clear();
                dens.extend((0..nrhs).map(|q| store.up_rhs(a, q)));
                flops += self.near_field(trg, &ue, &dens, outs, gouts.as_deref_mut());
            }
            flops
        })
    }

    /// L2T pass: downward equivalent densities at the targets — the
    /// entire V+X far field arrives (differentiated, when `grads` is
    /// given) through the leaf's local expansion at the `RAD_OUTER`
    /// surface. Returns the flop count.
    fn l2t_into(
        &self,
        store: &ExpansionStore,
        targets: LeafTargets<'_>,
        pots: &mut [&mut [f64]],
        grads: Option<&mut [&mut [f64]]>,
    ) -> u64 {
        let nrhs = store.nrhs();
        assert_eq!(pots.len(), nrhs, "one potential vector per RHS");
        self.for_each_active_leaf(targets, pots, grads, |ni, trg, outs, gouts| {
            let node = &self.tree.nodes[ni as usize];
            if node.key.level < FIRST_FMM_LEVEL {
                return 0; // too coarse to carry a local expansion
            }
            let c = self.tree.domain.box_center(&node.key);
            let half = self.tree.domain.box_half(node.key.level);
            let de = surface_points(self.order, RAD_OUTER, c, half);
            let dens: Vec<&[f64]> = (0..nrhs).map(|q| store.down_rhs(ni, q)).collect();
            self.near_field(trg, &de, &dens, outs, gouts)
        })
    }

    /// The U pass alone, potential-only, at the engine's own targets.
    /// This and its two siblings survive only because
    /// `benchmark/src/traced.rs` (frozen with `BENCHMARK.json`) times the
    /// three leaf passes one by one; drivers call
    /// [`PassEngine::leaf_phase`].
    pub fn u_pass<S: SourceProvider>(&self, src: &S, pots: &mut [&mut [f64]]) -> u64 {
        self.u_pass_into(src, self.own_targets(), pots, None)
    }

    /// The W pass alone (see [`PassEngine::u_pass`]).
    pub fn w_pass(&self, store: &ExpansionStore, pots: &mut [&mut [f64]]) -> u64 {
        self.w_pass_into(store, self.own_targets(), pots, None)
    }

    /// The L2T pass alone (see [`PassEngine::u_pass`]).
    pub fn l2t(&self, store: &ExpansionStore, pots: &mut [&mut [f64]]) -> u64 {
        self.l2t_into(store, self.own_targets(), pots, None)
    }
}

/// Carve each of the `k` per-RHS vectors in `bufs` into disjoint
/// per-leaf `&mut` slices following the ascending `ranges`, `dim`
/// components per point. Reborrows (does not take): the caller's vectors
/// stay intact for the next pass.
fn carve_leaf_slices<'b>(
    bufs: &'b mut [&mut [f64]],
    dim: usize,
    ranges: &[(u32, usize, usize)],
) -> Vec<Vec<&'b mut [f64]>> {
    let mut rests: Vec<&mut [f64]> = bufs.iter_mut().map(|p| &mut **p).collect();
    let mut at = 0usize;
    let carve = |&(_, s, e): &(u32, usize, usize)| {
        let from = std::mem::replace(&mut at, e);
        let outs = rests.iter_mut().map(|rest| {
            let (head, tail) = std::mem::take(rest).split_at_mut((e - from) * dim);
            *rest = tail;
            &mut head[(s - from) * dim..]
        });
        outs.collect()
    };
    ranges.iter().map(carve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fmm, Plan};
    use kifmm_kernels::{Laplace, Stokes};

    fn plan<K: Kernel>(kernel: K) -> Plan<K> {
        let points = kifmm_geom::uniform_cube(6000, 5);
        Fmm::builder(kernel).points(&points).order(3).max_pts_per_leaf(12).plan()
    }

    /// A store whose upward equivalents are a fixed pseudorandom fill
    /// (M2L is linear in them; no upward pass needed).
    fn store_for<K: Kernel>(engine: &PassEngine<'_, K>, nrhs: usize) -> ExpansionStore {
        let mut store = engine.new_store_many(nrhs);
        let mut rng = kifmm_geom::rng::Rng::seed_from_u64(11);
        store.up.iter_mut().for_each(|v| *v = rng.range_f64(-1.0, 1.0));
        store
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The FFT M2L seams on a level wide enough to need two tiles: an
    /// [`ActiveSet`] holding the first `k` targets — one target, exactly
    /// one tile, one tile plus one — leaves bitwise what the full level
    /// leaves on those targets and nothing elsewhere; two complementary
    /// sets, and the pool dispatch, reproduce the full level bitwise; and
    /// the dense reference sweep agrees to 1e-9.
    fn seams<K: Kernel>(kernel: K, nrhs: usize) {
        const LEVEL: u8 = 3;
        let fft_plan = plan(kernel.clone());
        let serial = || fft_plan.engine(Dispatch::Serial);
        let (_, _, cs) = serial().dims();
        let csb = cs * nrhs;
        let mut ws = EngineWorkspace::default();
        let mut full = store_for(&serial(), nrhs);
        serial().m2l_level(LEVEL, &mut full, &mut ws);

        let targets: Vec<u32> = fft_plan.tree.levels[LEVEL as usize]
            .iter()
            .copied()
            .filter(|&ni| !fft_plan.lists.v[ni as usize].is_empty())
            .collect();
        let slab = fft_plan.precomputed().m2l_fft.as_ref().unwrap().slab_len();
        let per_tile = TILE_BYTES / (nrhs * kernel.trg_dim() * 2 * slab * 8);
        assert!(targets.len() > per_tile + 1, "level must span two tiles");
        for k in [1, per_tile, per_tile + 1] {
            let last = targets[k - 1];
            let first_k = ActiveSet::build(&fft_plan.tree, |ni| ni <= last);
            let mut part = store_for(&serial(), nrhs);
            serial().with_active(&first_k).m2l_level(LEVEL, &mut part, &mut ws);
            for (ni, (got, want)) in part.check.chunks(csb).zip(full.check.chunks(csb)).enumerate()
            {
                if ni as u32 <= last {
                    assert_eq!(bits(got), bits(want), "first {k} targets: box {ni}");
                } else {
                    assert!(got.iter().all(|&v| v == 0.0), "first {k} targets: box {ni} touched");
                }
            }
        }

        let mut split = store_for(&serial(), nrhs);
        for keep in [true, false] {
            let set = ActiveSet::build(&fft_plan.tree, |ni| (ni % 3 == 0) == keep);
            serial().with_active(&set).m2l_level(LEVEL, &mut split, &mut ws);
        }
        assert_eq!(bits(&split.check), bits(&full.check), "A ∪ Ā ≡ full level");

        let pool = fft_plan.engine(Dispatch::Pool);
        let mut pooled = store_for(&pool, nrhs);
        pool.m2l_level(LEVEL, &mut pooled, &mut EngineWorkspace::default());
        assert_eq!(bits(&pooled.check), bits(&full.check), "pool ≡ serial");

        let (tree, lists) = (&fft_plan.tree, &fft_plan.lists);
        let dense = m2l::DenseM2l::assemble(&kernel, 3, tree.domain.box_half(LEVEL));
        let mut oracle = store_for(&serial(), nrhs);
        dense.sweep(tree, lists, LEVEL, &mut oracle);
        let err = crate::rel_l2_error(&full.check, &oracle.check);
        assert!(err < 1e-9, "{}: FFT vs dense M2L level {err}", kernel.name());
    }

    #[test]
    fn fft_m2l_tiles_and_subsets_laplace_batch() {
        seams(Laplace, 2);
    }

    #[test]
    fn fft_m2l_tiles_and_subsets_stokes() {
        seams(Stokes::default(), 1);
    }
}
