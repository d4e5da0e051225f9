//! Multipole-to-local (M2L) translation, FFT-accelerated (paper §1:
//! "the multipole-to-local translations are accelerated using local FFTs").
//! The engine has no other M2L: the dense translation the paper turns
//! down in footnote 5 survives only as [`DenseM2l`], the non-caching
//! reference that tests and the `ablation_m2l` bin measure the FFT path
//! against, which no option, driver or plan can reach.
//!
//! Because the upward-equivalent points of a source box `A` and the
//! downward-check points of a target box `B` are translates of the same
//! regular `p³`-lattice cube-surface grid, the check potential
//! `u[i] = Σ_j K(x_i − y_j) φ[j]` is a discrete correlation. Embedding the
//! surface density into a zero-padded `(2p)³` volume grid turns it into a
//! circular convolution: one forward transform per source box, one
//! Hadamard product per V-list interaction (using a precomputed
//! kernel-tensor spectrum per each of the 316 relative directions), and
//! one inverse transform per target box.
//!
//! ## Layout
//!
//! Every grid involved is real, so only the Hermitian half-spectrum
//! `w₂ ≤ p` ([`M2lFft::slab_len`] entries) exists anywhere, as split
//! real / imaginary values produced by [`kifmm_fft::RealFft3`]. A
//! transform reads or writes one box at a time (**box-major**:
//! `[grid][re|im][slab_len]`), but the Hadamard stage runs
//! **frequency-chunk-major**: the spectrum is cut into chunks of [`F`]
//! consecutive frequencies, and a table of `n` items with `width` grids
//! each is stored `[chunk][item][grid][re|im][F]`. The kernel tensors
//! (`316` directions × `td·sd` blocks), a level's source spectra
//! (`nrhs·sd` grids per source) and a tile of target accumulators
//! (`nrhs·td` grids per target) all use that one shape, so
//! [`M2lFft::hadamard_chunk`] works on three contiguous runs per chunk
//! and keeps one target's accumulator in registers over its whole V
//! list. [`M2lFft::pack_chunk`] and [`M2lFft::extract_check`] are the only
//! box-major ↔ chunk-major crossings.
//!
//! The tensor table holds one set of 316 entries per slot of the
//! [`LevelRule`]: one slot for a homogeneous kernel, whose level factor
//! `fwd` is applied when the check potential is read off the grid, one
//! slot per level otherwise.

use crate::engine::ExpansionStore;
use crate::operators::LevelRule;
use crate::surface::{surface_grid_indices, surface_points, RAD_INNER};
use kifmm_fft::RealFft3;
use kifmm_kernels::{assemble, Kernel};
use kifmm_linalg::Mat;
use kifmm_tree::{InteractionLists, Octree};

/// Plan construction checks the operator tables cover every level of the
/// tree, and the M2L tables are built from the same rule.
const NO_LEVEL: &str = "M2L asked for a level the plan validated";

/// Number of V-list directions.
const DIRS: usize = 316;

/// Frequencies per chunk of the chunk-major tables: one target's
/// `re`/`im` accumulator for a 1×1 kernel is then four 2-lane vectors,
/// which is what stays in registers across a V list. Divides every
/// [`M2lFft::slab_len`] (`4p²(p+1)`).
pub const F: usize = 4;

/// `f64`s of one grid's chunk: `F` real parts, then `F` imaginary parts.
const CL: usize = 2 * F;

/// All 316 V-list directions: offsets `v ∈ [−3, 3]³` with `max|v_i| > 1`,
/// lexicographic.
pub fn v_list_directions() -> Vec<[i32; 3]> {
    let out: Vec<[i32; 3]> = (0..343)
        .filter(|&i| DIR_IDS[i] != u16::MAX)
        .map(|i| [i / 49, (i / 7) % 7, i % 7].map(|w| w as i32 - 3))
        .collect();
    debug_assert_eq!(out.len(), DIRS);
    out
}

/// Direction id of offset `v` at `((v₀+3)·7 + (v₁+3))·7 + (v₂+3)`: V-list
/// offsets numbered in lexicographic order, `u16::MAX` for the 27
/// near-field ones.
const DIR_IDS: [u16; 343] = {
    let mut ids = [u16::MAX; 343];
    let (mut i, mut next) = (0, 0);
    while i < 343 {
        let (x, y, z) = (i / 49, (i / 7) % 7, i % 7);
        // |v| > 1 on the shifted coordinate: outside 2..=4.
        if x < 2 || x > 4 || y < 2 || y > 4 || z < 2 || z > 4 {
            ids[i] = next;
            next += 1;
        }
        i += 1;
    }
    ids
};

/// Index of a V-list offset (target-to-source, in box widths) into the
/// direction axis of the tensor table. Panics on an offset outside
/// `[−3, 3]³`; a near-field offset yields an id past the table.
pub fn dir_id(offset: [i32; 3]) -> u32 {
    let [x, y, z] = offset.map(|v| (v + 3) as usize);
    assert!(x < 7 && y < 7 && z < 7, "offset {offset:?} is not a V-list direction");
    u32::from(DIR_IDS[(x * 7 + y) * 7 + z])
}

/// The V lists of a run of targets as the Hadamard stage reads them: per
/// target, in list order, `[source slot, direction id]` pairs.
#[derive(Default)]
pub struct PairLists {
    /// Start of each target's run in `pairs`, plus the end.
    offsets: Vec<u32>,
    pairs: Vec<[u32; 2]>,
}

impl PairLists {
    /// Drop every list, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.pairs.clear();
    }

    /// Append the next target's list.
    pub fn push(&mut self, list: impl Iterator<Item = [u32; 2]>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.pairs.extend(list);
        self.offsets.push(self.pairs.len() as u32);
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when no target has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each target's pairs, in push order.
    fn iter(&self) -> impl Iterator<Item = &[[u32; 2]]> {
        self.offsets.windows(2).map(|w| &self.pairs[w[0] as usize..w[1] as usize])
    }
}

/// Per-worker scratch of the two transforms (grown on first use).
#[derive(Default)]
pub struct M2lScratch {
    /// The embedded `p³` surface cube.
    corner: Vec<f64>,
    /// One target's box-major spectra, gathered out of a tile.
    spec: Vec<f64>,
    /// Stage buffers of [`RealFft3`].
    fft: Vec<f64>,
}

/// Precomputed FFT M2L data for one kernel and surface order.
pub struct M2lFft<K: Kernel> {
    /// Real transform on the `(2p)³` grid.
    plan: RealFft3,
    /// Index into the `p³` corner cube of each surface point.
    surf_idx: Vec<usize>,
    /// Kernel tensor spectra, one table per slot of `rule`, chunk-major:
    /// `[chunk][direction][TRG·SRC][re|im][F]`.
    tensors: Vec<Vec<f64>>,
    rule: LevelRule,
    /// Kernel block dims, captured at build (dims are runtime values so
    /// closure kernels flow through the same machinery).
    src_dim: usize,
    trg_dim: usize,
    _kernel: std::marker::PhantomData<K>,
}

impl<K: Kernel> M2lFft<K> {
    /// Build tensors for levels `2..=depth` of a tree with root half-width
    /// `root_half`.
    pub fn build(kernel: &K, p: usize, root_half: f64, depth: u8) -> Self {
        let plan = RealFft3::new(p);
        let surf_idx =
            surface_grid_indices(p).into_iter().map(|[i, j, k]| (i * p + j) * p + k).collect();
        let rule = LevelRule::new(kernel, root_half, depth);
        let tensors =
            rule.slot_halves().iter().map(|&half| build_tensors(kernel, &plan, half)).collect();
        M2lFft {
            plan,
            surf_idx,
            tensors,
            rule,
            src_dim: kernel.src_dim(),
            trg_dim: kernel.trg_dim(),
            _kernel: std::marker::PhantomData,
        }
    }

    /// Grid volume `m³`, `m = 2p` — the size the flop model and the
    /// benchmark's byte model count a transform by.
    pub fn grid_len(&self) -> usize {
        self.plan.side().pow(3)
    }

    /// Entries of the half-spectrum slab `w₂ ≤ m/2`, the only part of a
    /// spectrum that is stored or multiplied (the rest of each length-`m`
    /// row is implied by Hermitian symmetry).
    pub fn slab_len(&self) -> usize {
        self.plan.half_len()
    }

    /// Chunks of [`F`] frequencies in a spectrum.
    pub fn chunks(&self) -> usize {
        self.slab_len() / F
    }

    /// Bytes of kernel-tensor spectra held.
    pub fn bytes(&self) -> usize {
        self.tensors.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<f64>()
    }

    /// Forward-transform a box's upward equivalent densities (`nrhs` rows
    /// of `n_s·SRC_DIM`, point-major) into `nrhs·SRC_DIM` box-major
    /// spectra (`2·slab_len` each).
    pub fn transform_source(&self, equiv: &[f64], out: &mut [f64], sc: &mut M2lScratch) {
        let sd = self.src_dim;
        let es = self.surf_idx.len() * sd;
        let glen = 2 * self.slab_len();
        debug_assert_eq!(equiv.len() % es, 0);
        debug_assert_eq!(out.len(), equiv.len() / es * sd * glen);
        // Only surface entries are written below: the interior stays zero.
        sc.corner.clear();
        sc.corner.resize(self.plan.order().pow(3), 0.0);
        for (row, grids) in equiv.chunks_exact(es).zip(out.chunks_exact_mut(sd * glen)) {
            for (s, spec) in grids.chunks_exact_mut(glen).enumerate() {
                for (pt, &ci) in self.surf_idx.iter().enumerate() {
                    sc.corner[ci] = row[pt * sd + s];
                }
                self.plan.forward_corner(&sc.corner, spec, &mut sc.fft);
            }
        }
    }

    /// Chunk `c` of `boxes` — box-major spectra, any number of grids per
    /// box — written chunk-major into `dst` (`[box][grid][re|im][F]`).
    pub fn pack_chunk(&self, c: usize, boxes: &[f64], dst: &mut [f64]) {
        pack_chunk(self.slab_len(), c, boxes, dst);
    }

    /// One chunk of the Hadamard stage for a tile of targets: for target
    /// `j` with V list `lists[j]` and each of the `nrhs` right-hand sides
    /// `q`,
    /// `acc[j][q][t] = Σ_pairs Σ_s K̂_dir[t][s] ⊙ spectra[slot][q][s]`
    /// on the chunk's `F` frequencies, summed in list order from zero
    /// with `s` innermost. `spectra` is chunk `c` of the source table
    /// (`[slot][q][s][re|im][F]`), `acc` chunk `c` of the tile
    /// (`[j][q][t][re|im][F]`), overwritten.
    ///
    /// Each `(j, q)` accumulator lives in locals across the pair loop, so
    /// a pair costs one pass over its kernel and source runs and no
    /// accumulator traffic; the contraction is the one
    /// [`kifmm_fft::pointwise_mul_add`] performs, term for term.
    pub fn hadamard_chunk(
        &self,
        level: u8,
        c: usize,
        lists: &PairLists,
        nrhs: usize,
        spectra: &[f64],
        acc: &mut [f64],
    ) {
        let slot = self.rule.at(level).expect(NO_LEVEL).slot;
        let (td, sd) = (self.trg_dim, self.src_dim);
        let kb = DIRS * td * sd * CL;
        let kernels = &self.tensors[slot][c * kb..(c + 1) * kb];
        debug_assert_eq!(acc.len(), lists.len() * nrhs * td * CL);
        let job = ChunkJob { lists, nrhs, kernels, spectra };
        // Fixed block shapes let the compiler unroll the block loops and
        // keep the accumulator in registers; other shapes run the same
        // code on a heap accumulator.
        match (td, sd) {
            (1, 1) => job.run(&mut [[0.0; CL]; 1], 1, acc),
            (3, 3) => job.run(&mut [[0.0; CL]; 3], 3, acc),
            _ => job.run(&mut vec![[0.0; CL]; td], sd, acc),
        }
    }

    /// Gather target `j`'s accumulated spectra out of a chunk-major tile
    /// of targets (`nrhs·TRG_DIM` grids each), inverse-transform them
    /// and add the surface values into the target's downward check block
    /// (`nrhs` rows of `n_s·TRG_DIM`, point-major), applying the
    /// homogeneity scale for `level`.
    pub fn extract_check(
        &self,
        level: u8,
        tile: &[f64],
        j: usize,
        check: &mut [f64],
        sc: &mut M2lScratch,
    ) {
        let td = self.trg_dim;
        let cs = self.surf_idx.len() * td;
        let slab = self.slab_len();
        let width = check.len() / cs * td;
        debug_assert_eq!(check.len() % cs, 0);
        debug_assert_eq!(tile.len() % (self.chunks() * width * CL), 0);
        let scale = self.rule.at(level).expect(NO_LEVEL).fwd;
        // Both buffers are overwritten in full below.
        sc.spec.resize(width * 2 * slab, 0.0);
        sc.corner.resize(self.plan.order().pow(3), 0.0);
        for (c, chunk) in tile.chunks_exact(tile.len() / self.chunks()).enumerate() {
            let grids = chunk[j * width * CL..(j + 1) * width * CL].chunks_exact(CL);
            for (x, g) in grids.enumerate() {
                let o = x * 2 * slab + c * F;
                sc.spec[o..o + F].copy_from_slice(&g[..F]);
                sc.spec[o + slab..o + slab + F].copy_from_slice(&g[F..]);
            }
        }
        for (x, spec) in sc.spec.chunks_exact(2 * slab).enumerate() {
            self.plan.inverse_corner(spec, &mut sc.corner, &mut sc.fft);
            let (row, t) = (&mut check[x / td * cs..(x / td + 1) * cs], x % td);
            for (pt, &ci) in self.surf_idx.iter().enumerate() {
                row[pt * td + t] += scale * sc.corner[ci];
            }
        }
    }

    /// Nominal flop count of one forward or inverse FFT batch
    /// (`dim` transforms of `m³` points, 5·n·log₂n each).
    pub fn fft_flops(&self, dim: usize) -> u64 {
        let n = self.grid_len() as f64;
        (dim as f64 * 5.0 * n * n.log2()) as u64
    }
}

/// Chunk `c` of each box-major half-spectrum in `grids` (`[re|im][slab]`
/// apiece), written back to back as `[re|im][F]` into `dst`.
fn pack_chunk(slab: usize, c: usize, grids: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(grids.len() * CL, dst.len() * 2 * slab);
    for (grid, out) in grids.chunks_exact(2 * slab).zip(dst.chunks_exact_mut(CL)) {
        out[..F].copy_from_slice(&grid[c * F..(c + 1) * F]);
        out[F..].copy_from_slice(&grid[slab + c * F..slab + (c + 1) * F]);
    }
}

/// The operands of one [`M2lFft::hadamard_chunk`] call.
struct ChunkJob<'a> {
    lists: &'a PairLists,
    nrhs: usize,
    /// `[direction][t·sd + s][re|im][F]`.
    kernels: &'a [f64],
    /// `[slot][q][s][re|im][F]`.
    spectra: &'a [f64],
}

impl ChunkJob<'_> {
    /// Run the chunk with `local` (one `[re|im][F]` row per target
    /// component) as the accumulator of one `(target, rhs)` at a time.
    #[inline(always)]
    fn run(&self, local: &mut [[f64; CL]], sd: usize, acc: &mut [f64]) {
        let td = local.len();
        let (kb, sb) = (td * sd * CL, sd * CL);
        let mut out = acc.chunks_exact_mut(td * CL);
        for list in self.lists.iter() {
            for q in 0..self.nrhs {
                local.fill([0.0; CL]);
                for &[slot, dir] in list {
                    let k = &self.kernels[dir as usize * kb..][..kb];
                    let x = &self.spectra[(slot as usize * self.nrhs + q) * sb..][..sb];
                    for (t, a) in local.iter_mut().enumerate() {
                        for s in 0..sd {
                            let k = &k[(t * sd + s) * CL..][..CL];
                            let x = &x[s * CL..][..CL];
                            for f in 0..F {
                                a[f] = a[f] + k[f] * x[f] - k[F + f] * x[F + f];
                                a[F + f] = a[F + f] + k[f] * x[F + f] + k[F + f] * x[f];
                            }
                        }
                    }
                }
                out.next()
                    .expect("one accumulator block per (target, rhs)")
                    .copy_from_slice(local.as_flattened());
            }
        }
    }
}

/// Build the 316 kernel-tensor spectra for boxes of half-width `half`,
/// chunk-major.
///
/// For direction `v` (target-to-source offset in box widths), the tensor on
/// the wrapped `(2p)³` grid holds `K(d·h − 2r·v)` where `d ∈ (−p, p)³` is
/// the (check-point − equivalent-point) lattice displacement and
/// `h = 2·RAD_INNER·r/(p−1)` the lattice spacing.
fn build_tensors<K: Kernel>(kernel: &K, plan: &RealFft3, half: f64) -> Vec<f64> {
    let (p, m) = (plan.order(), plan.side());
    let g = m * m * m;
    let slab = plan.half_len();
    let h = 2.0 * RAD_INNER * half / (p - 1) as f64;
    let side = 2.0 * half;
    let kdim = kernel.trg_dim() * kernel.src_dim();
    let mut out = vec![0.0; slab / F * DIRS * kdim * CL];
    let mut block = vec![0.0; kdim];
    let mut grids = vec![0.0; kdim * g];
    let mut specs = vec![0.0; kdim * 2 * slab];
    let mut scratch = Vec::new();
    // Map a wrapped grid coordinate to the displacement it represents:
    // w ∈ [0, p) → d = w; w ∈ (m−p, m) → d = w − m; w = p unused (m = 2p).
    let unwrap = |w: usize| -> Option<i64> {
        if w < p {
            Some(w as i64)
        } else if w > m - p {
            Some(w as i64 - m as i64)
        } else {
            None
        }
    };
    for (d, v) in v_list_directions().into_iter().enumerate() {
        for w0 in 0..m {
            let Some(d0) = unwrap(w0) else { continue };
            for w1 in 0..m {
                let Some(d1) = unwrap(w1) else { continue };
                for w2 in 0..m {
                    let Some(d2) = unwrap(w2) else { continue };
                    // x − y for check point of B minus equivalent point of
                    // A, with c_A − c_B = side·v.
                    let x = [
                        d0 as f64 * h - side * v[0] as f64,
                        d1 as f64 * h - side * v[1] as f64,
                        d2 as f64 * h - side * v[2] as f64,
                    ];
                    kernel.eval(x, [0.0; 3], &mut block);
                    let vi = (w0 * m + w1) * m + w2;
                    for c in 0..kdim {
                        grids[c * g + vi] = block[c];
                    }
                }
            }
        }
        for (grid, spec) in grids.chunks_exact(g).zip(specs.chunks_exact_mut(2 * slab)) {
            plan.forward_full(grid, spec, &mut scratch);
        }
        for (ch, table) in out.chunks_exact_mut(DIRS * kdim * CL).enumerate() {
            pack_chunk(slab, ch, &specs, &mut table[d * kdim * CL..(d + 1) * kdim * CL]);
        }
    }
    out
}

/// The dense M2L of paper footnote 5, kept only as the reference
/// [`M2lFft`] is measured against: one `(n_s·TRG) × (n_s·SRC)` operator
/// per V-list direction, assembled at one box size, applied as one GEMV
/// per (pair, RHS). It reads no [`LevelRule`] slot or level factor, so
/// agreeing with it also checks the FFT path's level scaling.
pub struct DenseM2l {
    /// Box half-width the operators were assembled at.
    half: f64,
    /// One operator per direction, indexed by [`dir_id`].
    ops: Vec<Mat>,
}

impl DenseM2l {
    /// Assemble the 316 operators for boxes of half-width `half`.
    pub fn assemble<K: Kernel>(kernel: &K, p: usize, half: f64) -> Self {
        let dc = surface_points(p, RAD_INNER, [0.0; 3], half);
        let ops = v_list_directions()
            .into_iter()
            .map(|v| {
                let ue = surface_points(p, RAD_INNER, v.map(|c| 2.0 * half * c as f64), half);
                assemble(kernel, &dc, &ue)
            })
            .collect();
        DenseM2l { half, ops }
    }

    /// Serial dense M2L over one level of `tree`, whose boxes must have
    /// the half-width the operators were assembled at: every box adds its
    /// V list's contributions, in list order, from `store.up` into
    /// `store.check`. Returns the flop count.
    pub fn sweep(
        &self,
        tree: &Octree,
        lists: &InteractionLists,
        level: u8,
        store: &mut ExpansionStore,
    ) -> u64 {
        assert_eq!(tree.domain.box_half(level), self.half, "operators of another box size");
        let (cs, es, nrhs) = (self.ops[0].rows(), self.ops[0].cols(), store.nrhs());
        let mut flops = 0;
        for &b in &tree.levels[level as usize] {
            let bkey = tree.nodes[b as usize].key;
            for &a in &lists.v[b as usize] {
                let op = &self.ops[dir_id(bkey.offset_to(&tree.nodes[a as usize].key)) as usize];
                for q in 0..nrhs {
                    let (x, y) = ((a as usize * nrhs + q) * es, (b as usize * nrhs + q) * cs);
                    let (up, check) = (&store.up[x..x + es], &mut store.check[y..y + cs]);
                    kifmm_linalg::gemv(1.0, op, up, 1.0, check);
                    flops += 2 * (cs * es) as u64;
                }
            }
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kifmm_kernels::{Laplace, Stokes};

    #[test]
    fn directions_exclude_near_field() {
        let dirs = v_list_directions();
        assert_eq!(dirs.len(), 316);
        for d in &dirs {
            assert!(d.iter().any(|&v| v.abs() > 1));
            assert!(d.iter().all(|&v| v.abs() <= 3));
        }
    }

    #[test]
    fn direction_ids_follow_the_direction_list() {
        for (i, d) in v_list_directions().into_iter().enumerate() {
            assert_eq!(dir_id(d) as usize, i, "{d:?}");
        }
        assert!(dir_id([1, -1, 0]) as usize >= DIRS, "near-field offsets have no tensor");
    }

    /// The FFT path must agree with the dense reference to near machine
    /// precision in all 316 directions — they compute the same discrete
    /// sums. Level 3 reads the level-2 table times `fwd`.
    #[test]
    fn fft_matches_direct_laplace() {
        fft_matches_dense_in_every_direction(&Laplace, 3, 3);
    }

    /// A 3×3 kernel two levels below its table slot.
    #[test]
    fn fft_matches_direct_stokes() {
        fft_matches_dense_in_every_direction(&Stokes::default(), 4, 4);
    }

    /// A block shape without a fixed-size accumulator (3 → 1).
    #[test]
    fn fft_matches_direct_dipole() {
        fft_matches_dense_in_every_direction(&kifmm_kernels::LaplaceDipole, 2, 2);
    }

    /// A kernel with a length scale reads its own table on each level.
    #[test]
    fn fft_matches_direct_modified_laplace_on_two_slots() {
        let k = kifmm_kernels::ModifiedLaplace::new(1.0);
        fft_matches_dense_in_every_direction(&k, 2, 3);
        fft_matches_dense_in_every_direction(&k, 3, 3);
    }

    /// One source and one target per direction at `level` of a depth-
    /// `depth` tree (root half-width 1), p = 4, through every FFT entry
    /// point — transform → pack → Hadamard → gather + inverse — against
    /// the dense operator assembled at the level's own half-width.
    fn fft_matches_dense_in_every_direction<K: Kernel>(kernel: &K, level: u8, depth: u8) {
        let p = 4;
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let ns = crate::surface::num_surface_points(p);
        let equiv: Vec<f64> = (0..ns * sd).map(|i| ((i * 13 % 17) as f64) / 17.0 - 0.4).collect();

        let fft = M2lFft::build(kernel, p, 1.0, depth);
        let mut sc = M2lScratch::default();
        let glen = 2 * fft.slab_len();
        let mut src = vec![0.0; sd * glen];
        fft.transform_source(&equiv, &mut src, &mut sc);
        let mut spectra = vec![0.0; sd * glen];
        let mut tile = vec![f64::NAN; DIRS * td * glen];
        let mut lists = PairLists::default();
        for d in 0..DIRS as u32 {
            lists.push([[0, d]].into_iter());
        }
        for c in 0..fft.chunks() {
            let spectra = &mut spectra[c * sd * CL..(c + 1) * sd * CL];
            fft.pack_chunk(c, &src, spectra);
            let acc = &mut tile[c * DIRS * td * CL..(c + 1) * DIRS * td * CL];
            fft.hadamard_chunk(level, c, &lists, 1, spectra, acc);
        }

        let dense = DenseM2l::assemble(kernel, p, 1.0 / f64::from(1u32 << level));
        for (d, (op, dir)) in dense.ops.iter().zip(v_list_directions()).enumerate() {
            let mut got = vec![0.0; ns * td];
            fft.extract_check(level, &tile, d, &mut got, &mut sc);
            let mut want = vec![0.0; ns * td];
            kifmm_linalg::gemv(1.0, op, &equiv, 0.0, &mut want);
            let scale = want.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() < 1e-10 * scale,
                    "{} level {level} direction {dir:?}: FFT {a} vs dense {b}",
                    kernel.name()
                );
            }
        }
    }

    /// The chunk-major Hadamard stage against the per-pair
    /// `pointwise_mul_add` accumulation it replaced, over the same pair
    /// lists in the same order: bit for bit, for 1×1, 3×3 and 1×3 blocks,
    /// several batch widths, and V lists that include empty and
    /// single-entry ones.
    #[test]
    fn hadamard_is_bitwise_the_per_pair_accumulation() {
        use kifmm_fft::{pointwise_mul_add, C64};
        use kifmm_geom::rng::Rng;

        fn case<K: Kernel>(kernel: &K, nrhs: usize, rng: &mut Rng) {
            let fft = M2lFft::build(kernel, 3, 1.0, 2);
            let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
            let (slab, chunks) = (fft.slab_len(), fft.chunks());
            let (nsrc, ntrg) = (9, 7);
            // Random V lists; targets 0 and 1 pinned to empty and single.
            let mut lists = PairLists::default();
            for j in 0..ntrg {
                let len = [0, 1][..].get(j).copied().unwrap_or_else(|| rng.range_usize(0, 12));
                let list: Vec<[u32; 2]> = (0..len)
                    .map(|_| [rng.range_usize(0, nsrc) as u32, rng.range_usize(0, DIRS) as u32])
                    .collect();
                lists.push(list.into_iter());
            }
            assert_eq!(lists.len(), ntrg);
            // Random source spectra, box-major and packed.
            let sw = nrhs * sd;
            let boxes: Vec<f64> =
                (0..nsrc * sw * 2 * slab).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut spectra = vec![0.0; boxes.len()];
            let mut tile = vec![f64::NAN; ntrg * nrhs * td * 2 * slab];
            for c in 0..chunks {
                let spectra = &mut spectra[c * nsrc * sw * CL..(c + 1) * nsrc * sw * CL];
                fft.pack_chunk(c, &boxes, spectra);
                let acc = &mut tile[c * ntrg * nrhs * td * CL..(c + 1) * ntrg * nrhs * td * CL];
                fft.hadamard_chunk(2, c, &lists, nrhs, spectra, acc);
            }
            // Reference: interleaved-complex slabs, one pair at a time.
            let complex = |re: &[f64], im: &[f64]| -> Vec<C64> {
                re.iter().zip(im).map(|(&r, &i)| C64::new(r, i)).collect()
            };
            let kernel_slab = |dir: usize, ts: usize| -> Vec<C64> {
                (0..slab)
                    .map(|w| {
                        let o = (((w / F) * DIRS + dir) * td * sd + ts) * CL + w % F;
                        C64::new(fft.tensors[0][o], fft.tensors[0][o + F])
                    })
                    .collect()
            };
            for (j, list) in lists.iter().enumerate() {
                for q in 0..nrhs {
                    let mut want = vec![vec![C64::ZERO; slab]; td];
                    for &[slot, dir] in list {
                        for (t, acc) in want.iter_mut().enumerate() {
                            for s in 0..sd {
                                let g = ((slot as usize * nrhs + q) * sd + s) * 2 * slab;
                                let src =
                                    complex(&boxes[g..g + slab], &boxes[g + slab..g + 2 * slab]);
                                pointwise_mul_add(
                                    acc,
                                    &kernel_slab(dir as usize, t * sd + s),
                                    &src,
                                );
                            }
                        }
                    }
                    for (t, want) in want.iter().enumerate() {
                        for (w, v) in want.iter().enumerate() {
                            let o = (((w / F) * ntrg + j) * nrhs + q) * td * CL + t * CL + w % F;
                            assert_eq!(
                                (tile[o].to_bits(), tile[o + F].to_bits()),
                                (v.re.to_bits(), v.im.to_bits()),
                                "{} nrhs={nrhs} target {j} rhs {q} t={t} w={w}",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }

        let mut rng = Rng::seed_from_u64(18);
        for nrhs in [1, 3, 8] {
            case(&Laplace, nrhs, &mut rng);
            case(&Stokes::default(), nrhs, &mut rng);
            case(&kifmm_kernels::LaplaceDipole, nrhs, &mut rng);
        }
    }

    #[test]
    fn homogeneous_levels_share_tensors() {
        let fft = M2lFft::build(&Laplace, 4, 1.0, 6);
        assert_eq!(fft.tensors.len(), 1, "Laplace shares one tensor slot");
        assert_eq!(fft.bytes(), 316 * fft.slab_len() * 16);
    }

    #[test]
    fn inhomogeneous_levels_get_own_tensors() {
        let k = kifmm_kernels::ModifiedLaplace::new(1.0);
        let fft = M2lFft::build(&k, 3, 1.0, 4);
        assert_eq!(fft.tensors.len(), 3, "levels 2, 3, 4");
        assert_eq!(fft.bytes(), 3 * 316 * fft.slab_len() * 16);
    }

    /// A 3×3 kernel holds nine half-spectra per direction.
    #[test]
    fn vector_kernel_tensor_bytes() {
        let fft = M2lFft::build(&Stokes::default(), 3, 1.0, 4);
        assert_eq!(fft.bytes(), 316 * 9 * fft.slab_len() * 16);
    }

    /// The Gaussian declares no homogeneity degree (no power law relates
    /// scales), so it must take the per-level branch ModifiedLaplace
    /// pioneered: one tensor slab per level, all scales exactly 1.
    #[test]
    fn gaussian_gets_per_level_tensors() {
        let k = kifmm_kernels::Gaussian::new(0.8);
        let fft = M2lFft::build(&k, 3, 1.0, 5);
        assert_eq!(fft.tensors.len(), 4, "own tensors for levels 2, 3, 4, 5");
        for l in 2..=5u8 {
            let at = fft.rule.at(l).unwrap();
            assert_eq!(at.slot, l as usize - 2, "level {l} maps to its own slot");
            assert_eq!(at.fwd, 1.0, "no rescale for level {l}");
        }
    }
}
