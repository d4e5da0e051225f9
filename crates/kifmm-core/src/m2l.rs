//! Multipole-to-local (M2L) translation, FFT-accelerated (paper §1:
//! "the multipole-to-local translations are accelerated using local FFTs")
//! with a dense path kept as the ablation baseline (paper footnote 5) and
//! as the oracle the FFT path is tested against.
//!
//! Because the upward-equivalent points of a source box `A` and the
//! downward-check points of a target box `B` are translates of the same
//! regular `p³`-lattice cube-surface grid, the check potential
//! `u[i] = Σ_j K(x_i − y_j) φ[j]` is a discrete correlation. Embedding the
//! surface density into a zero-padded `(2p)³` volume grid turns it into a
//! circular convolution: one forward 3-D FFT per source box, one Hadamard
//! product per V-list interaction (using a precomputed kernel-tensor FFT
//! per each of the 316 relative directions), and one inverse FFT per
//! target box.
//!
//! Both tables hold one set of 316 entries per slot of the
//! [`LevelRule`]: one slot for a homogeneous kernel, whose level factor
//! `fwd` is applied when the check potential is read off the grid, one
//! slot per level otherwise.

use crate::operators::LevelRule;
use crate::surface::{num_surface_points, surface_grid_indices, surface_points, RAD_INNER};
use kifmm_fft::{pointwise_mul_add, C64, Fft3};
use kifmm_kernels::{assemble, Kernel};
use kifmm_linalg::Mat;
use std::collections::HashMap;

/// How M2L translations are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum M2lMode {
    /// FFT-accelerated (the paper's production path).
    #[default]
    Fft,
    /// One dense matrix application per interaction: the paper's
    /// footnote-5 baseline (higher flop rate, several times the flops) and
    /// the oracle the FFT path is tested against. Never faster than `Fft`.
    Direct,
}

/// Plan construction checks the operator tables cover every level of the
/// tree, and the M2L tables are built from the same rule.
const NO_LEVEL: &str = "M2L asked for a level the plan validated";

/// All 316 V-list directions: offsets `v ∈ [−3, 3]³` with `max|v_i| > 1`.
pub fn v_list_directions() -> Vec<[i32; 3]> {
    let mut out = Vec::with_capacity(316);
    for x in -3i32..=3 {
        for y in -3i32..=3 {
            for z in -3i32..=3 {
                if x.abs() > 1 || y.abs() > 1 || z.abs() > 1 {
                    out.push([x, y, z]);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), 316);
    out
}

/// Precomputed FFT M2L data for one kernel and surface order.
pub struct M2lFft<K: Kernel> {
    /// Padded grid side `m = 2p`.
    m: usize,
    /// 3-D FFT plan on the `m³` grid.
    pub plan: Fft3,
    /// Volume-grid linear index of each surface point.
    surf_idx: Vec<usize>,
    /// Kernel tensor FFTs: `tensors[slot][dir] → [TRG·SRC][m³]`
    /// concatenated, one map per slot of `rule`.
    tensors: Vec<HashMap<[i32; 3], Vec<C64>>>,
    rule: LevelRule,
    /// Hermitian mirror pairs `(dst, src)` covering every grid index with
    /// `w₂ > m/2`: all inputs are real, so `X[−w] = conj(X[w])` and the
    /// Hadamard stage only touches the half-spectrum slab `w₂ ≤ m/2`;
    /// [`M2lFft::extract_check`] reconstructs the rest via this table.
    mirror: Vec<(u32, u32)>,
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
        let m = 2 * p;
        let plan = Fft3::new([m, m, m]);
        let surf_idx = surface_grid_indices(p)
            .into_iter()
            .map(|[i, j, k]| (i * m + j) * m + k)
            .collect();
        let dirs = v_list_directions();
        let rule = LevelRule::new(kernel, root_half, depth);
        let tensors = rule
            .slot_halves()
            .iter()
            .map(|&half| build_tensors(kernel, p, m, &plan, half, &dirs))
            .collect();
        let mut mirror = Vec::with_capacity(m * m * (m / 2 - 1));
        for w0 in 0..m {
            for w1 in 0..m {
                let row = (w0 * m + w1) * m;
                let mrow = (((m - w0) % m) * m + (m - w1) % m) * m;
                for w2 in m / 2 + 1..m {
                    mirror.push(((row + w2) as u32, (mrow + (m - w2)) as u32));
                }
            }
        }
        M2lFft {
            m,
            plan,
            surf_idx,
            tensors,
            rule,
            mirror,
            src_dim: kernel.src_dim(),
            trg_dim: kernel.trg_dim(),
            _kernel: std::marker::PhantomData,
        }
    }

    /// Grid volume `m³`.
    pub fn grid_len(&self) -> usize {
        self.m * self.m * self.m
    }

    /// Entries of the half-spectrum slab `w₂ ≤ m/2` the Hadamard stage
    /// actually multiplies (the rest of each length-`m` row is implied by
    /// Hermitian symmetry).
    pub fn slab_len(&self) -> usize {
        self.m * self.m * (self.m / 2 + 1)
    }

    /// Bytes of kernel-tensor spectra held.
    pub fn bytes(&self) -> usize {
        let entries: usize = self.tensors.iter().flat_map(HashMap::values).map(Vec::len).sum();
        entries * std::mem::size_of::<C64>()
    }

    /// Forward-transform a box's upward equivalent density
    /// (`n_s·SRC_DIM`, point-major) into `SRC_DIM` spectral grids.
    pub fn transform_source(&self, equiv: &[f64], out: &mut [C64]) {
        let g = self.grid_len();
        let sd = self.src_dim;
        debug_assert_eq!(equiv.len(), self.surf_idx.len() * sd);
        debug_assert_eq!(out.len(), sd * g);
        out.fill(C64::ZERO);
        for (pt, &vi) in self.surf_idx.iter().enumerate() {
            for s in 0..sd {
                out[s * g + vi] = C64::real(equiv[pt * sd + s]);
            }
        }
        for s in 0..sd {
            self.plan.forward(&mut out[s * g..(s + 1) * g]);
        }
    }

    /// Accumulate one V-list interaction in frequency space:
    /// `acc[t] += K̂_dir[t][s] ⊙ src[s]`, touching only the Hermitian
    /// half-spectrum slab `w₂ ≤ m/2` of each grid (both factors transform
    /// real data, so the skipped mirror half is determined by conjugation
    /// and filled in once per target by [`M2lFft::extract_check`] — not
    /// once per source). Returns the flop count charged.
    pub fn accumulate(&self, level: u8, dir: [i32; 3], src: &[C64], acc: &mut [C64]) -> u64 {
        let g = self.grid_len();
        let (m, h) = (self.m, self.m / 2 + 1);
        let slot = self.rule.at(level).expect(NO_LEVEL).slot;
        let tensor = self.tensors[slot]
            .get(&dir)
            .unwrap_or_else(|| panic!("missing M2L tensor for direction {dir:?}"));
        let (sd, td) = (self.src_dim, self.trg_dim);
        for t in 0..td {
            for s in 0..sd {
                let a = &mut acc[t * g..(t + 1) * g];
                let tn = &tensor[(t * sd + s) * g..(t * sd + s + 1) * g];
                let sr = &src[s * g..(s + 1) * g];
                for row in 0..m * m {
                    let b = row * m;
                    pointwise_mul_add(&mut a[b..b + h], &tn[b..b + h], &sr[b..b + h]);
                }
            }
        }
        (td * sd * self.slab_len() * 8) as u64
    }

    /// Inverse-transform an accumulated spectrum and scatter the surface
    /// values into a downward check potential (`n_s·TRG_DIM`, point-major),
    /// applying the homogeneity scale for `level`. The mirror half of the
    /// spectrum ([`M2lFft::accumulate`] writes only `w₂ ≤ m/2`) is
    /// reconstructed by Hermitian symmetry first.
    pub fn extract_check(&self, level: u8, acc: &mut [C64], check: &mut [f64]) {
        let g = self.grid_len();
        let td = self.trg_dim;
        debug_assert_eq!(check.len(), self.surf_idx.len() * td);
        let scale = self.rule.at(level).expect(NO_LEVEL).fwd;
        // Only the embedded surface cube `[0, p)³` is read back, so the
        // inverse transform is pruned to that corner.
        let p = self.m / 2;
        let inv = 1.0 / g as f64;
        for t in 0..td {
            let a = &mut acc[t * g..(t + 1) * g];
            for &(dst, src) in &self.mirror {
                a[dst as usize] = a[src as usize].conj();
            }
            self.plan.inverse_corner_unnormalized(a, [p, p, p]);
        }
        for (pt, &vi) in self.surf_idx.iter().enumerate() {
            for t in 0..td {
                check[pt * td + t] += scale * (acc[t * g + vi].re * inv);
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

/// Build the 316 kernel-tensor FFTs for boxes of half-width `half`.
///
/// For direction `v` (target-to-source offset in box widths), the tensor on
/// the wrapped `(2p)³` grid holds `K(d·h − 2r·v)` where `d ∈ (−p, p)³` is
/// the (check-point − equivalent-point) lattice displacement and
/// `h = 2·RAD_INNER·r/(p−1)` the lattice spacing.
fn build_tensors<K: Kernel>(
    kernel: &K,
    p: usize,
    m: usize,
    plan: &Fft3,
    half: f64,
    dirs: &[[i32; 3]],
) -> HashMap<[i32; 3], Vec<C64>> {
    let g = m * m * m;
    let h = 2.0 * RAD_INNER * half / (p - 1) as f64;
    let side = 2.0 * half;
    let kdim = kernel.trg_dim() * kernel.src_dim();
    let mut out = HashMap::with_capacity(dirs.len());
    let mut block = vec![0.0; kdim];
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
    for &v in dirs {
        let mut grids = vec![C64::ZERO; kdim * g];
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
                        grids[c * g + vi] = C64::real(block[c]);
                    }
                }
            }
        }
        for c in 0..kdim {
            plan.forward(&mut grids[c * g..(c + 1) * g]);
        }
        out.insert(v, grids);
    }
    out
}

/// Dense M2L operators, assembled lazily per (level, direction) — the
/// ablation baseline and the reference [`M2lFft`] is checked against.
pub struct M2lDirect<K: Kernel> {
    kernel: K,
    p: usize,
    /// Cache: (rule slot, direction) → `(n_s·TRG) × (n_s·SRC)` matrix.
    cache: std::sync::Mutex<HashMap<(usize, [i32; 3]), std::sync::Arc<Mat>>>,
    rule: LevelRule,
}

impl<K: Kernel> M2lDirect<K> {
    /// Set up the lazy cache for levels `2..=depth`.
    pub fn new(kernel: &K, p: usize, root_half: f64, depth: u8) -> Self {
        M2lDirect {
            kernel: kernel.clone(),
            p,
            cache: std::sync::Mutex::new(HashMap::new()),
            rule: LevelRule::new(kernel, root_half, depth),
        }
    }

    /// Bytes the cache holds once every (slot, direction) has been
    /// assembled — it fills lazily, and a budget must cover the warm state.
    pub fn bytes(&self) -> usize {
        let ns = num_surface_points(self.p);
        let entries = ns * self.kernel.trg_dim() * ns * self.kernel.src_dim();
        self.rule.slot_halves().len() * 316 * entries * std::mem::size_of::<f64>()
    }

    /// Apply one dense M2L interaction: `check += scale · K_dir · equiv`.
    /// Returns the flop count charged.
    pub fn apply(&self, level: u8, dir: [i32; 3], equiv: &[f64], check: &mut [f64]) -> u64 {
        let at = self.rule.at(level).expect(NO_LEVEL);
        let mat = {
            // Recover from poisoning: the map is consistent even if a
            // concurrent assembler panicked.
            let mut cache =
                self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            cache
                .entry((at.slot, dir))
                .or_insert_with(|| {
                    let half = self.rule.slot_halves()[at.slot];
                    let dc = surface_points(self.p, RAD_INNER, [0.0; 3], half);
                    let side = 2.0 * half;
                    let src_center =
                        [side * dir[0] as f64, side * dir[1] as f64, side * dir[2] as f64];
                    let ue = surface_points(self.p, RAD_INNER, src_center, half);
                    std::sync::Arc::new(assemble(&self.kernel, &dc, &ue))
                })
                .clone()
        };
        let mut tmp = vec![0.0; check.len()];
        kifmm_linalg::gemv(at.fwd, &mat, equiv, 0.0, &mut tmp);
        for (c, t) in check.iter_mut().zip(&tmp) {
            *c += t;
        }
        (2 * mat.rows() * mat.cols()) as u64
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

    /// The FFT path must agree with the dense path to near machine
    /// precision — they compute the same discrete sum.
    #[test]
    fn fft_matches_direct_laplace() {
        fft_matches_direct(&Laplace, 4, [2, 0, 0]);
        fft_matches_direct(&Laplace, 4, [-3, 2, 1]);
        fft_matches_direct(&Laplace, 6, [2, -1, 0]);
        fft_matches_direct(&Laplace, 5, [3, 3, 3]);
    }

    #[test]
    fn fft_matches_direct_stokes() {
        fft_matches_direct(&Stokes::default(), 4, [0, 2, -2]);
        fft_matches_direct(&Stokes::default(), 4, [-2, 0, 3]);
    }

    fn fft_matches_direct<K: Kernel>(kernel: &K, p: usize, dir: [i32; 3]) {
        let root_half = 1.0;
        let depth = 3u8;
        let level = 3u8;
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let ns = crate::surface::num_surface_points(p);
        let equiv: Vec<f64> =
            (0..ns * sd).map(|i| ((i * 13 % 17) as f64) / 17.0 - 0.4).collect();

        // FFT path.
        let fft = M2lFft::build(kernel, p, root_half, depth);
        let g = fft.grid_len();
        let mut src = vec![C64::ZERO; sd * g];
        fft.transform_source(&equiv, &mut src);
        let mut acc = vec![C64::ZERO; td * g];
        fft.accumulate(level, dir, &src, &mut acc);
        let mut check_fft = vec![0.0; ns * td];
        fft.extract_check(level, &mut acc, &mut check_fft);

        // Dense path.
        let direct = M2lDirect::new(kernel, p, root_half, depth);
        let mut check_dir = vec![0.0; ns * td];
        direct.apply(level, dir, &equiv, &mut check_dir);

        let scale = check_dir.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for (a, b) in check_fft.iter().zip(&check_dir) {
            assert!(
                (a - b).abs() < 1e-10 * scale.max(1e-30),
                "FFT {a} vs direct {b} (dir {dir:?}, p={p})"
            );
        }
    }

    #[test]
    fn homogeneous_levels_share_tensors() {
        let fft = M2lFft::build(&Laplace, 4, 1.0, 6);
        assert_eq!(fft.tensors.len(), 1, "Laplace shares one tensor slot");
        assert_eq!(fft.bytes(), 316 * fft.grid_len() * 16);
    }

    #[test]
    fn inhomogeneous_levels_get_own_tensors() {
        let k = kifmm_kernels::ModifiedLaplace::new(1.0);
        let fft = M2lFft::build(&k, 3, 1.0, 4);
        assert_eq!(fft.tensors.len(), 3, "levels 2, 3, 4");
        assert_eq!(fft.bytes(), 3 * 316 * fft.grid_len() * 16);
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

    #[test]
    fn direct_cache_reuses_matrices() {
        let direct = M2lDirect::new(&Laplace, 3, 1.0, 5);
        let ns = crate::surface::num_surface_points(3);
        let equiv = vec![1.0; ns];
        let mut check = vec![0.0; ns];
        direct.apply(3, [2, 0, 0], &equiv, &mut check);
        direct.apply(4, [2, 0, 0], &equiv, &mut check);
        direct.apply(5, [2, 0, 0], &equiv, &mut check);
        assert_eq!(direct.cache.lock().unwrap().len(), 1, "homogeneous: one cached matrix");
    }
}
