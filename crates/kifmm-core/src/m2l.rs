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
//! kernel-tensor spectrum per relative direction), and one inverse
//! transform per target box.
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
//! (stored directions × the block's stored components), a level's live
//! source spectra (`nrhs·sd` grids per slot) and a tile of target
//! accumulators (`nrhs·td` grids per target) all use that one shape, so
//! [`M2lFft::hadamard_chunk`] works on three contiguous runs per chunk
//! and keeps one target's accumulator in registers over its whole V
//! list. [`M2lFft::pack_chunk`] and [`M2lFft::extract_check`] are the only
//! box-major ↔ chunk-major crossings.
//!
//! The tensor table holds one set of stored directions per slot of the
//! plan's one [`LevelRule`], the operator table's: one slot for a
//! homogeneous kernel, one per level otherwise. The engine supplies a level's slot and
//! its factor `fwd`, applied as the check potential is read off the grid,
//! as one [`LevelScale`].
//!
//! A block component `(t, s)` whose grid is bit for bit its transpose's
//! in every direction of every slot ([`transposed_twin`]) has that
//! component's spectrum too, so it is stored once: every table holds the
//! same stored components (Stokes and Kelvin 6 of 9, a scalar kernel 1),
//! and the Hadamard stage reads block component `t·sd + s` through one
//! component map.
//!
//! The grid of direction `−v` is the grid of `v` reflected through the
//! origin wherever the kernel is even, `K(−x) = K(x)`, so its spectrum is
//! the complex conjugate of `v`'s. A pair whose grids show that by value
//! in every slot ([`reflected_twin`]) stores `v`'s spectrum only, and `−v`
//! reads it with the imaginary part negated: every kernel but an odd one
//! (`LaplaceDipole`) stores 158 of the 316 directions. The Hadamard stage
//! reaches a direction's run through one direction map, whose entries the
//! V lists carry ([`M2lFft::direction`]).

use crate::engine::ExpansionStore;
use crate::operators::{LevelRule, LevelScale};
use crate::surface::{surface_grid_indices, surface_points, RAD_INNER};
use kifmm_fft::RealFft3;
use kifmm_kernels::{assemble, Kernel};
use kifmm_linalg::Mat;
use kifmm_tree::{InteractionLists, Octree};

/// Number of V-list directions.
const DIRS: usize = 316;

/// Flag of a direction entry ([`M2lFft::direction`]) whose stored
/// spectrum is read conjugated.
const CONJ: u32 = 1 << 31;

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

/// Id of a V-list offset (target-to-source, in box widths), its index in
/// [`v_list_directions`]: the offset `−v` has id `315 − dir_id(v)`. The
/// tensor tables are indexed by the stored direction the id maps to
/// ([`M2lFft::direction`]). Panics on an offset outside `[−3, 3]³`; a
/// near-field offset yields an id past the 316.
pub fn dir_id(offset: [i32; 3]) -> u32 {
    let [x, y, z] = offset.map(|v| (v + 3) as usize);
    assert!(x < 7 && y < 7 && z < 7, "offset {offset:?} is not a V-list direction");
    u32::from(DIR_IDS[(x * 7 + y) * 7 + z])
}

/// The V lists of a run of targets as the Hadamard stage reads them: per
/// target, in list order, `[source slot, direction entry]` pairs (entries
/// from [`M2lFft::direction`]).
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
    /// Kernel tensor spectra, one table per slot of the rule they were
    /// built from, chunk-major:
    /// `[chunk][stored direction][stored comp][re|im][F]`.
    tensors: Vec<Vec<f64>>,
    /// Entry of each direction id ([`dir_id`]): the stored direction it
    /// reads, with [`CONJ`] set where it reads it conjugated; the same for
    /// every table.
    dirs: Vec<u32>,
    /// Stored component of each block component `t·SRC + s`, the same for
    /// every table.
    comps: Vec<usize>,
    /// Kernel block dims, captured at build (dims are runtime values so
    /// closure kernels flow through the same machinery).
    src_dim: usize,
    trg_dim: usize,
    _kernel: std::marker::PhantomData<K>,
}

impl<K: Kernel> M2lFft<K> {
    /// Build one tensor set per slot of `rule`, at the slot's half-width.
    pub fn build(kernel: &K, p: usize, rule: &LevelRule) -> Self {
        let plan = RealFft3::new(p);
        let surf_idx =
            surface_grid_indices(p).into_iter().map(|[i, j, k]| (i * p + j) * p + k).collect();
        let halves = rule.slot_halves();
        let (dirs, comps) = tensor_maps(kernel, &plan, halves);
        let tensors =
            halves.iter().map(|&half| build_tensors(kernel, &plan, half, &dirs, &comps)).collect();
        M2lFft {
            plan,
            surf_idx,
            tensors,
            dirs,
            comps,
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

    /// The direction entry a V list carries for a pair at `offset`
    /// (target to source, in box widths; see [`dir_id`]): the stored
    /// direction whose tensors the pair reads, and whether it reads them
    /// conjugated.
    pub fn direction(&self, offset: [i32; 3]) -> u32 {
        self.dirs[dir_id(offset) as usize]
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

    /// One chunk of the Hadamard stage for a tile of targets of a level
    /// that reads tensor slot `scale.slot`: for target `j` with V list
    /// `lists[j]` and each of the `nrhs` right-hand sides `q`,
    /// `acc[j][q][t] = Σ_pairs Σ_s K̂_dir[t][s] ⊙ spectra[slot][q][s]`
    /// on the chunk's `F` frequencies, summed in list order from zero
    /// with `s` innermost, `K̂_dir` the stored tensor of the pair's
    /// direction entry, conjugated where the entry says so. `spectra` is
    /// chunk `c` of the source table (`[slot][q][s][re|im][F]`), `acc`
    /// chunk `c` of the tile (`[j][q][t][re|im][F]`), overwritten.
    ///
    /// Each `(j, q)` accumulator lives in locals across the pair loop, so
    /// a pair costs one pass over its kernel and source runs and no
    /// accumulator traffic; the contraction is the one
    /// [`kifmm_fft::pointwise_mul_add`] performs, term for term.
    pub fn hadamard_chunk(
        &self,
        scale: LevelScale,
        c: usize,
        lists: &PairLists,
        nrhs: usize,
        spectra: &[f64],
        acc: &mut [f64],
    ) {
        let (td, sd, ns) = (self.trg_dim, self.src_dim, stored(&self.comps));
        let kb = stored_dirs(&self.dirs) * ns * CL;
        let kernels = &self.tensors[scale.slot][c * kb..(c + 1) * kb];
        debug_assert_eq!(acc.len(), lists.len() * nrhs * td * CL);
        let job = ChunkJob { lists, nrhs, kernels, spectra };
        // Fixed block shapes let the compiler unroll the block loops, keep
        // the accumulator in registers and the component map in a local
        // array; other shapes run the same code on a heap accumulator.
        match (td, sd) {
            (1, 1) => job.run(&mut [[0.0; CL]; 1], 1, &[0], 1, acc),
            (3, 3) => {
                let comps: [usize; 9] = self.comps[..].try_into().expect("3 × 3 components");
                job.run(&mut [[0.0; CL]; 3], 3, &comps, ns, acc)
            }
            _ => job.run(&mut vec![[0.0; CL]; td], sd, &self.comps, ns, acc),
        }
    }

    /// Gather target `j`'s accumulated spectra out of a chunk-major tile
    /// of targets (`nrhs·TRG_DIM` grids each), inverse-transform them
    /// and add the surface values into the target's downward check block
    /// (`nrhs` rows of `n_s·TRG_DIM`, point-major), times the level factor
    /// `scale.fwd`.
    pub fn extract_check(
        &self,
        scale: LevelScale,
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
                row[pt * td + t] += scale.fwd * sc.corner[ci];
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
    /// `[stored direction][stored comp][re|im][F]`.
    kernels: &'a [f64],
    /// `[slot][q][s][re|im][F]`.
    spectra: &'a [f64],
}

impl ChunkJob<'_> {
    /// Run the chunk with `local` (one `[re|im][F]` row per target
    /// component) as the accumulator of one `(target, rhs)` at a time,
    /// reading block component `t·sd + s` from kernel run `comps[t·sd + s]`
    /// of the `ns` stored per direction, in the stored direction of the
    /// pair's entry. A conjugated entry reads the imaginary part as
    /// `sg·k_im` with `sg = −1`: exact, so `a − (−k_im)·x_im` has the bits
    /// of `a + k_im·x_im` and the contraction order is the unconjugated one.
    #[inline(always)]
    fn run(&self, local: &mut [[f64; CL]], sd: usize, comps: &[usize], ns: usize, acc: &mut [f64]) {
        let td = local.len();
        let (kb, sb) = (ns * CL, sd * CL);
        let mut out = acc.chunks_exact_mut(td * CL);
        for list in self.lists.iter() {
            for q in 0..self.nrhs {
                local.fill([0.0; CL]);
                for &[slot, entry] in list {
                    let sg = if entry & CONJ == 0 { 1.0 } else { -1.0 };
                    let k = &self.kernels[(entry & !CONJ) as usize * kb..][..kb];
                    let x = &self.spectra[(slot as usize * self.nrhs + q) * sb..][..sb];
                    for (t, a) in local.iter_mut().enumerate() {
                        for s in 0..sd {
                            let k = &k[comps[t * sd + s] * CL..][..CL];
                            let x = &x[s * CL..][..CL];
                            for f in 0..F {
                                let ki = sg * k[F + f];
                                a[f] = a[f] + k[f] * x[f] - ki * x[F + f];
                                a[F + f] = a[F + f] + k[f] * x[F + f] + ki * x[f];
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

/// The direction map ([`direction_map`]) and the component map
/// ([`component_map`]) of `kernel`'s tables over the slot half-widths
/// `halves`, from one scan of the grids: the direction map's scan fills
/// every direction's grids once per slot, and the component fold reads
/// the same grids while some component may still share its transpose's.
fn tensor_maps<K: Kernel>(kernel: &K, plan: &RealFft3, halves: &[f64]) -> (Vec<u32>, Vec<usize>) {
    let dims = (kernel.trg_dim(), kernel.src_dim());
    let mut twins = vec![None; dims.0 * dims.1];
    let mut first = true;
    let dirs = direction_map(kernel, plan, halves, |grids| {
        for (c, twin) in twins.iter_mut().enumerate() {
            if first || twin.is_some() {
                *twin = transposed_twin(grids, dims, c);
            }
        }
        first = false;
        twins.iter().any(Option::is_some)
    });
    (dirs, component_map(twins))
}

/// The entry of each direction id ([`dir_id`]): direction `d ≥ 158` reads
/// the stored spectrum of its opposite `315 − d` conjugated where
/// [`reflected_twin`] holds for the pair in every slot half-width in
/// `halves`; every other direction is the next new stored one, in order of
/// `d` (so direction `d < 158` is stored at index `d`). The one place the
/// direction map is decided.
///
/// `scan` sees the grids of every direction of every slot, in pairs
/// `(v, −v)`, until it returns `false`: grids the fold no longer needs
/// are filled only while it still wants them.
fn direction_map<K: Kernel>(
    kernel: &K,
    plan: &RealFft3,
    halves: &[f64],
    mut scan: impl FnMut(&[f64]) -> bool,
) -> Vec<u32> {
    let dirs = v_list_directions();
    let grid_len = kernel.trg_dim() * kernel.src_dim() * plan.side().pow(3);
    let (mut plus, mut minus) = (vec![0.0; grid_len], vec![0.0; grid_len]);
    let mut folds = vec![true; DIRS / 2];
    let mut scanning = true;
    for &half in halves {
        for (d, fold) in folds.iter_mut().enumerate() {
            if !*fold && !scanning {
                continue;
            }
            fill_grids(kernel, plan, half, dirs[d], &mut plus);
            fill_grids(kernel, plan, half, dirs[DIRS - 1 - d], &mut minus);
            if *fold {
                *fold = reflected_twin(&plus, &minus, plan.side());
            }
            if scanning {
                scanning = scan(&plus) && scan(&minus);
            }
        }
    }
    let mut map: Vec<u32> = Vec::with_capacity(DIRS);
    for d in 0..DIRS {
        let e = match folds.get(DIRS - 1 - d) {
            Some(true) => map[DIRS - 1 - d] | CONJ,
            _ => stored_dirs(&map) as u32,
        };
        map.push(e);
    }
    map
}

/// Number of stored directions in a direction map.
fn stored_dirs(dirs: &[u32]) -> usize {
    dirs.iter().filter(|&&e| e & CONJ == 0).count()
}

/// Whether `minus`, the grids of direction `−v`, holds the values of
/// `plus`, the grids of `v`, at every reflected index `w → (m − w) mod m`
/// of every component (`m` the grid side): `−v`'s spectra are then the
/// conjugates of `v`'s. By value, not bits: on the axis lines a Stokes
/// entry is `(+0)·(±a)`, and the two grids differ there only in the sign
/// of a zero. The identity holds for the values, and the conjugated read
/// replaces `−v`'s computed spectrum anyway.
fn reflected_twin(plus: &[f64], minus: &[f64], m: usize) -> bool {
    let r = |w: usize| if w == 0 { 0 } else { m - w };
    let mut grids = plus.chunks_exact(m * m * m).zip(minus.chunks_exact(m * m * m));
    grids.all(|(plus, minus)| {
        (0..m * m).all(|row| {
            let (minus, mirror) = (&minus[row * m..][..m], (r(row / m) * m + r(row % m)) * m);
            (0..m).all(|w2| minus[w2] == plus[mirror + r(w2)])
        })
    })
}

/// The stored component of each block component `c = (t, s)` of a
/// `trg × src` kernel: its transpose's where [`transposed_twin`] held in
/// every direction of every slot half-width (`twins[c]`, folded by
/// [`tensor_maps`]), else the next new one, in order of `c`.
fn component_map(twins: Vec<Option<usize>>) -> Vec<usize> {
    let mut comps = Vec::with_capacity(twins.len());
    for t in twins {
        let k = match t {
            Some(t) => comps[t],
            None => stored(&comps),
        };
        comps.push(k);
    }
    comps
}

/// Number of distinct stored components in a component map.
fn stored(comps: &[usize]) -> usize {
    comps.iter().max().map_or(0, |&k| k + 1)
}

/// Build the kernel-tensor spectra for boxes of half-width `half`,
/// chunk-major, holding the stored directions of `dirs`
/// ([`direction_map`]) and the stored components of `comps`
/// ([`component_map`]): each is the transform of the first block
/// component that maps to it, and no spectrum is transformed or stored
/// twice.
fn build_tensors<K: Kernel>(
    kernel: &K,
    plan: &RealFft3,
    half: f64,
    dirs: &[u32],
    comps: &[usize],
) -> Vec<f64> {
    let slab = plan.half_len();
    let g = plan.side().pow(3);
    let (nd, stored) = (stored_dirs(dirs), stored(comps));
    let firsts: Vec<usize> =
        (0..comps.len()).filter(|&c| !comps[..c].contains(&comps[c])).collect();
    debug_assert!(firsts.iter().enumerate().all(|(k, &c)| comps[c] == k));
    let mut out = vec![0.0; slab / F * nd * stored * CL];
    let mut grids = vec![0.0; comps.len() * g];
    let mut specs = vec![0.0; stored * 2 * slab];
    let mut scratch = Vec::new();
    for (&e, v) in dirs.iter().zip(v_list_directions()).filter(|(&e, _)| e & CONJ == 0) {
        let d = e as usize;
        fill_grids(kernel, plan, half, v, &mut grids);
        for (&c, spec) in firsts.iter().zip(specs.chunks_exact_mut(2 * slab)) {
            plan.forward_full(&grids[c * g..(c + 1) * g], spec, &mut scratch);
        }
        for (ch, table) in out.chunks_exact_mut(nd * stored * CL).enumerate() {
            pack_chunk(slab, ch, &specs, &mut table[d * stored * CL..(d + 1) * stored * CL]);
        }
    }
    out
}

/// Fill one wrapped `(2p)³` grid per kernel component (`grids` holds
/// `trg·src` of them, component-major) with the tensor of direction `v`
/// for boxes of half-width `half`.
///
/// Grid point `d ∈ (−p, p)³`, the (check-point − equivalent-point) lattice
/// displacement, holds `K(d·h − 2r·v)` with `h = 2·RAD_INNER·r/(p−1)` the
/// lattice spacing.
fn fill_grids<K: Kernel>(kernel: &K, plan: &RealFft3, half: f64, v: [i32; 3], grids: &mut [f64]) {
    let (p, m) = (plan.order(), plan.side());
    let g = m * m * m;
    let h = 2.0 * RAD_INNER * half / (p - 1) as f64;
    let side = 2.0 * half;
    let mut block = vec![0.0; kernel.trg_dim() * kernel.src_dim()];
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
                for (c, &k) in block.iter().enumerate() {
                    grids[c * g + vi] = k;
                }
            }
        }
    }
}

/// Component `(s, t)` of a `trg × src` kernel, if it precedes component
/// `c = (t, s)` and its grid has the same bit patterns: its spectrum is
/// then `c`'s too. Bits, not `==`: `-0.0 == 0.0`, yet the two transform
/// to different bits. The one test [`tensor_maps`] folds over every
/// direction and slot.
fn transposed_twin(grids: &[f64], (trg, src): (usize, usize), c: usize) -> Option<usize> {
    let (t, s) = (c / src, c % src);
    let twin = s * src + t;
    if s >= trg || t >= src || twin >= c {
        return None;
    }
    let g = grids.len() / (trg * src);
    let (a, b) = (&grids[twin * g..(twin + 1) * g], &grids[c * g..(c + 1) * g]);
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()).then_some(twin)
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
    /// the half-width the operators were assembled at: every box of the
    /// level the store holds a check row for adds its V list's
    /// contributions, in list order, from `store.up` into `store.check`.
    /// Returns the flop count.
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
        for b_row in store.rows().local_level(level) {
            let b = store.rows().local_node(b_row);
            let bkey = tree.nodes[b as usize].key;
            for &a in &lists.v[b as usize] {
                let op = &self.ops[dir_id(bkey.offset_to(&tree.nodes[a as usize].key)) as usize];
                let a_row = store.rows().up(a);
                for q in 0..nrhs {
                    let (x, y) = ((a_row * nrhs + q) * es, (b_row * nrhs + q) * cs);
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
    use kifmm_kernels::{Laplace, Point3, Stokes};

    #[test]
    fn directions_exclude_near_field() {
        let dirs = v_list_directions();
        assert_eq!(dirs.len(), 316);
        for d in &dirs {
            assert!(d.iter().any(|&v| v.abs() > 1));
            assert!(d.iter().all(|&v| v.abs() <= 3));
        }
    }

    /// Ids follow the lexicographic direction list, so the opposite offset
    /// `−v` has id `315 − dir_id(v)`.
    #[test]
    fn direction_ids_follow_the_direction_list() {
        for (i, d) in v_list_directions().into_iter().enumerate() {
            assert_eq!(dir_id(d) as usize, i, "{d:?}");
            assert_eq!(dir_id(d.map(|c| -c)) as usize, DIRS - 1 - i, "−{d:?}");
        }
        assert!(dir_id([1, -1, 0]) as usize >= DIRS, "near-field offsets have no tensor");
    }

    /// Every entry of `fft`'s tables, read through both maps, against
    /// transforming and storing every direction and block component: bit
    /// for bit where the entry is stored, within 1e-15 of the table's
    /// largest entry where it is read conjugated.
    fn check_against_full_build<K: Kernel>(kernel: &K, fft: &M2lFft<K>, rule: &LevelRule) {
        let (name, ns, nd) = (kernel.name(), stored(&fft.comps), stored_dirs(&fft.dirs));
        assert_eq!(fft.tensors.len(), rule.slot_halves().len());
        let plan = &fft.plan;
        let (slab, g) = (plan.half_len(), plan.side().pow(3));
        let kdim = kernel.trg_dim() * kernel.src_dim();
        let mut grids = vec![0.0; kdim * g];
        let mut specs = vec![0.0; kdim * 2 * slab];
        let mut scratch = Vec::new();
        for (table, &half) in fft.tensors.iter().zip(rule.slot_halves()) {
            assert_eq!(table.len(), fft.chunks() * nd * ns * CL, "{name}: table size");
            let largest = table.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (d, v) in v_list_directions().into_iter().enumerate() {
                let (k, sg) = ((fft.dirs[d] & !CONJ) as usize, fft.dirs[d] & CONJ != 0);
                fill_grids(kernel, plan, half, v, &mut grids);
                for (grid, spec) in grids.chunks_exact(g).zip(specs.chunks_exact_mut(2 * slab)) {
                    plan.forward_full(grid, spec, &mut scratch);
                }
                for (c, spec) in specs.chunks_exact(2 * slab).enumerate() {
                    for w in 0..slab {
                        let o = (((w / F) * nd + k) * ns + fft.comps[c]) * CL + w % F;
                        let (re, im) = (table[o], if sg { -table[o + F] } else { table[o + F] });
                        let at = format!("{name}: half {half} direction {v:?} component {c} w={w}");
                        if sg {
                            let gap = (re - spec[w]).abs().max((im - spec[slab + w]).abs());
                            assert!(gap <= 1e-15 * largest, "{at}: conjugate off by {gap:e}");
                        } else {
                            assert_eq!(
                                (re.to_bits(), im.to_bits()),
                                (spec[w].to_bits(), spec[slab + w].to_bits()),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A direction reads its opposite's spectrum conjugated only where the
    /// kernel is even on every grid of every slot: every kernel but an odd
    /// one stores 158 of the 316 directions; `LaplaceDipole` and a closure
    /// odd in x₀ store all 316, and a closure even except far out along
    /// +x₀ keeps both directions of the 49 pairs with |v₀| = 3. Stored
    /// directions are numbered in id order and a folded `d` reads
    /// `315 − d`; read through the maps, the tables match a full build.
    #[test]
    fn direction_map_folds_opposites_of_even_kernels() {
        fn case<K: Kernel>(kernel: &K, depth: u8, count: usize) {
            let rule = LevelRule::new(kernel, 1.0, depth);
            let fft = M2lFft::build(kernel, 4, &rule);
            assert_eq!(stored_dirs(&fft.dirs), count, "{}: stored directions", kernel.name());
            let mut next = 0;
            for (d, &e) in fft.dirs.iter().enumerate() {
                if e & CONJ == 0 {
                    assert_eq!(e, next, "{}: stored in id order", kernel.name());
                    next += 1;
                } else {
                    assert!(d >= DIRS / 2, "{}: {d} folds onto a later id", kernel.name());
                    assert_eq!(e, fft.dirs[DIRS - 1 - d] | CONJ, "{}: {d}", kernel.name());
                }
            }
            check_against_full_build(kernel, &fft, &rule);
        }
        let r = |x: Point3, y: Point3| (0..3).map(|i| (x[i] - y[i]).powi(2)).sum::<f64>().sqrt();
        case(&Laplace, 2, 158);
        case(&Stokes::default(), 3, 158);
        case(&kifmm_kernels::Kelvin::new(1.1, 0.3), 3, 158);
        case(&kifmm_kernels::ModifiedLaplace::new(1.0), 4, 158);
        case(&kifmm_kernels::Gaussian::new(0.8), 3, 158);
        let inv_r15 =
            kifmm_kernels::CustomKernel::new("inv-r-1.5", 1, 1, Some(-1.5), move |x, y, b| {
                b[0] = 1.0 / (r(x, y) * r(x, y).sqrt());
            });
        case(&inv_r15, 3, 158);
        case(&kifmm_kernels::LaplaceDipole, 3, 316);
        let odd = kifmm_kernels::CustomKernel::new("odd-x0", 1, 1, Some(-2.0), move |x, y, b| {
            b[0] = (x[0] - y[0]) / r(x, y).powi(3);
        });
        case(&odd, 3, 316);
        // Level 2 (half-width 1/4): x₀ − y₀ > 1.75 only on the grids of
        // v₀ = −3, which reach 8.1 half-widths; their opposites read 1/r.
        let far = kifmm_kernels::CustomKernel::new("far-x0", 1, 1, None, move |x, y, b| {
            b[0] = if x[0] - y[0] > 1.75 { 2.0 } else { 1.0 } / r(x, y);
        });
        case(&far, 2, 158 + 49);
        // Over levels 2 and 3 the same 49 fail on the first slot only, and
        // a closure odd only where r < 0.3 fails on the last slot only
        // (level 2's grids keep r ≥ 0.475).
        case(&far, 3, 158 + 49);
        let near = kifmm_kernels::CustomKernel::new("near-x0", 1, 1, None, move |x, y, b| {
            b[0] = if x[0] > y[0] && r(x, y) < 0.3 { 2.0 } else { 1.0 } / r(x, y);
        });
        case(&near, 3, 158 + 27);
    }

    /// The compacted tensor tables, read through the component map (and the
    /// direction map), equal tables that transform and store every
    /// component, bit for bit in every stored direction, on every slot. A
    /// component shares its transpose's run only where the two grids
    /// match in every direction of every slot: Stokes and Kelvin
    /// store 6 of 9; a skew 3 × 3 kernel and kernels symmetric only where
    /// x₀ < 0 or only on some slots store 9; one whose (1, 0) entry alone
    /// breaks symmetry in some directions stores 7; a scalar kernel over
    /// three slots stores 1.
    #[test]
    fn tensor_build_copies_only_bitwise_transposes() {
        fn case<K: Kernel>(kernel: &K, depth: u8, count: usize) {
            let rule = LevelRule::new(kernel, 1.0, depth);
            let fft = M2lFft::build(kernel, 4, &rule);
            assert_eq!(stored(&fft.comps), count, "{}: stored components", kernel.name());
            check_against_full_build(kernel, &fft, &rule);
        }
        let r = |x: Point3, y: Point3| (0..3).map(|i| (x[i] - y[i]).powi(2)).sum::<f64>().sqrt();
        case(&Stokes::default(), 3, 6);
        case(&kifmm_kernels::Kelvin::new(1.1, 0.3), 3, 6);
        let skew =
            kifmm_kernels::CustomKernel::new("skew-3x3", 3, 3, Some(-1.0), move |x, y, b| {
                for (i, v) in b.iter_mut().enumerate() {
                    *v = (1 + i) as f64 / r(x, y);
                }
            });
        case(&skew, 3, 9);
        // (1 + t + s)/r where x₀ < 0, (1 + 3t + s)/r elsewhere.
        let half_sym =
            kifmm_kernels::CustomKernel::new("half-sym", 3, 3, Some(-1.0), move |x, y, b| {
                let step = if x[0] < y[0] { 1 } else { 3 };
                for (i, v) in b.iter_mut().enumerate() {
                    *v = (1 + step * (i / 3) + i % 3) as f64 / r(x, y);
                }
            });
        // It is symmetric in some directions, and still keeps all nine.
        let plan = RealFft3::new(4);
        let mut grids = vec![0.0; 9 * plan.side().pow(3)];
        fill_grids(&half_sym, &plan, 0.25, [3, 0, 0], &mut grids);
        assert_eq!(transposed_twin(&grids, (3, 3), 3), Some(1), "symmetric at v = (3, 0, 0)");
        case(&half_sym, 3, 9);
        // Only block entry (1, 0) differs from (0, 1), and only where
        // |x₀| < 0.3: the other two pairs stay shared, so 7 are stored.
        let one_pair =
            kifmm_kernels::CustomKernel::new("one-pair", 3, 3, Some(-1.0), move |x, y, b| {
                for (i, v) in b.iter_mut().enumerate() {
                    let bump = usize::from(i == 3 && (x[0] - y[0]).abs() < 0.3);
                    *v = (1 + i / 3 + i % 3 + bump) as f64 / r(x, y);
                }
            });
        case(&one_pair, 3, 7);
        // Symmetric on some slots only (levels 2–4, half-widths 1/4 … 1/16):
        // asymmetric where r < 0.3 (not on level 2's grids) or r > 1.2 (only
        // on levels 2 and 3), so the map reads every slot.
        for (tag, near, far) in [("asym-near", 0.3, f64::MAX), ("asym-far", 0.0, 1.2)] {
            let per_slot = kifmm_kernels::CustomKernel::new(tag, 3, 3, None, move |x, y, b| {
                let step = if (near..far).contains(&r(x, y)) { 1 } else { 3 };
                for (i, v) in b.iter_mut().enumerate() {
                    *v = (1 + step * (i / 3) + i % 3) as f64 / r(x, y);
                }
            });
            case(&per_slot, 4, 9);
        }
        case(&kifmm_kernels::ModifiedLaplace::new(1.0), 4, 1);
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

        let rule = LevelRule::new(kernel, 1.0, depth);
        let scale = rule.at(level).unwrap();
        let fft = M2lFft::build(kernel, p, &rule);
        let mut sc = M2lScratch::default();
        let glen = 2 * fft.slab_len();
        let mut src = vec![0.0; sd * glen];
        fft.transform_source(&equiv, &mut src, &mut sc);
        let mut spectra = vec![0.0; sd * glen];
        let mut tile = vec![f64::NAN; DIRS * td * glen];
        let mut lists = PairLists::default();
        for &e in &fft.dirs {
            lists.push([[0, e]].into_iter());
        }
        for c in 0..fft.chunks() {
            let spectra = &mut spectra[c * sd * CL..(c + 1) * sd * CL];
            fft.pack_chunk(c, &src, spectra);
            let acc = &mut tile[c * DIRS * td * CL..(c + 1) * DIRS * td * CL];
            fft.hadamard_chunk(scale, c, &lists, 1, spectra, acc);
        }

        let dense = DenseM2l::assemble(kernel, p, 1.0 / f64::from(1u32 << level));
        for (d, (op, dir)) in dense.ops.iter().zip(v_list_directions()).enumerate() {
            let mut got = vec![0.0; ns * td];
            fft.extract_check(scale, &tile, d, &mut got, &mut sc);
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
    /// lists in the same order, each block component's kernel read through
    /// the component map and the direction map, conjugated where the
    /// direction entry says so: bit for bit, for 1×1, 3×3 (Stokes, Kelvin)
    /// and 1×3 blocks,
    /// several batch widths, and V lists that include empty and
    /// single-entry ones.
    #[test]
    fn hadamard_is_bitwise_the_per_pair_accumulation() {
        use kifmm_fft::{pointwise_mul_add, C64};
        use kifmm_geom::rng::Rng;

        fn case<K: Kernel>(kernel: &K, nrhs: usize, rng: &mut Rng) {
            let rule = LevelRule::new(kernel, 1.0, 2);
            let fft = M2lFft::build(kernel, 3, &rule);
            let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
            let (slab, chunks) = (fft.slab_len(), fft.chunks());
            let (nsrc, ntrg) = (9, 7);
            // Random V lists; targets 0 and 1 pinned to empty and single.
            let mut lists = PairLists::default();
            for j in 0..ntrg {
                let len = [0, 1][..].get(j).copied().unwrap_or_else(|| rng.range_usize(0, 12));
                let list: Vec<[u32; 2]> = (0..len)
                    .map(|_| [rng.range_usize(0, nsrc) as u32, fft.dirs[rng.range_usize(0, DIRS)]])
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
                fft.hadamard_chunk(rule.at(2).unwrap(), c, &lists, nrhs, spectra, acc);
            }
            // Reference: interleaved-complex slabs, one pair at a time.
            let complex = |re: &[f64], im: &[f64]| -> Vec<C64> {
                re.iter().zip(im).map(|(&r, &i)| C64::new(r, i)).collect()
            };
            let (nd, ns) = (stored_dirs(&fft.dirs), stored(&fft.comps));
            let kernel_slab = |entry: u32, ts: usize| -> Vec<C64> {
                let (dir, sg) = ((entry & !CONJ) as usize, entry & CONJ != 0);
                (0..slab)
                    .map(|w| {
                        let o = (((w / F) * nd + dir) * ns + fft.comps[ts]) * CL + w % F;
                        let im = fft.tensors[0][o + F];
                        C64::new(fft.tensors[0][o], if sg { -im } else { im })
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
                                pointwise_mul_add(acc, &kernel_slab(dir, t * sd + s), &src);
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
            case(&kifmm_kernels::Kelvin::new(1.1, 0.3), nrhs, &mut rng);
            case(&kifmm_kernels::LaplaceDipole, nrhs, &mut rng);
        }
    }

    #[test]
    fn homogeneous_levels_share_tensors() {
        let fft = M2lFft::build(&Laplace, 4, &LevelRule::new(&Laplace, 1.0, 6));
        assert_eq!(fft.tensors.len(), 1, "Laplace shares one tensor slot");
        assert_eq!(fft.bytes(), 158 * fft.slab_len() * 16);
    }

    #[test]
    fn inhomogeneous_levels_get_own_tensors() {
        let k = kifmm_kernels::ModifiedLaplace::new(1.0);
        let fft = M2lFft::build(&k, 3, &LevelRule::new(&k, 1.0, 4));
        assert_eq!(fft.tensors.len(), 3, "levels 2, 3, 4");
        assert_eq!(fft.bytes(), 3 * 158 * fft.slab_len() * 16);
    }

    /// Stokes holds six half-spectra per stored direction, not nine: its
    /// three off-diagonal pairs are stored once, and of each ±v pair only
    /// v is stored.
    #[test]
    fn vector_kernel_tensor_bytes() {
        let stokes = Stokes::default();
        let fft = M2lFft::build(&stokes, 3, &LevelRule::new(&stokes, 1.0, 4));
        assert_eq!(fft.comps, [0, 1, 2, 1, 3, 4, 2, 4, 5]);
        assert_eq!(stored_dirs(&fft.dirs), 158);
        assert_eq!(fft.bytes(), 158 * 6 * fft.slab_len() * 16);
    }

    /// The Gaussian declares no homogeneity degree (no power law relates
    /// scales), so it must take the per-level branch ModifiedLaplace
    /// pioneered: one tensor slab per level, all scales exactly 1.
    #[test]
    fn gaussian_gets_per_level_tensors() {
        let k = kifmm_kernels::Gaussian::new(0.8);
        let rule = LevelRule::new(&k, 1.0, 5);
        let fft = M2lFft::build(&k, 3, &rule);
        assert_eq!(fft.tensors.len(), 4, "own tensors for levels 2, 3, 4, 5");
        for l in 2..=5u8 {
            let at = rule.at(l).unwrap();
            assert_eq!(at.slot, l as usize - 2, "level {l} maps to its own slot");
            assert_eq!(at.fwd, 1.0, "no rescale for level {l}");
        }
    }
}
