//! Evaluation at arbitrary target points.
//!
//! The paper's experiments take sources ≡ targets (§2 footnote 1: "in
//! general {x_i} and {y_i} can be the same set of points"), but its
//! applications need fields *off* the source set too — e.g. evaluating the
//! fluid velocity at observation points after a boundary-integral solve.
//!
//! The far-field decomposition is geometric, not point-specific: any
//! point inside a leaf box `B` receives the complete potential as
//!
//! `u(t) = Σ_{A∈U(B)} direct + Σ_{A∈W(B)} equivalent + L2T(φ^{B,d})`,
//!
//! so arbitrary targets reuse the already-computed upward/downward
//! equivalent densities. Targets that fall in a region with no source
//! boxes (their deepest existing box is internal, or they lie outside the
//! computational domain) fall back to exact direct summation — correct
//! always, and rare when targets live near the geometry.

use crate::engine::LeafTargets;
use crate::plan::Session;
use kifmm_kernels::{Kernel, Point3};
use kifmm_tree::{point_in_domain, point_key, MAX_LEVEL};

impl<K: Kernel> Session<K> {
    /// Evaluate the potential at arbitrary `targets` (not necessarily the
    /// source points). Returns `TRG_DIM` components per target. The
    /// targets are binned by the leaf box containing them and read the far
    /// field through the same evaluation body as [`Session::eval`], under
    /// this session's dispatch, tracer and pooled scratch.
    pub fn evaluate_at(&self, densities: &[f64], targets: &[Point3]) -> Vec<f64> {
        let engine = self.engine(self.dispatch);
        let dens = engine.sort_batch(&[densities]);
        let td = self.kernel.trg_dim();
        let (tree, domain) = (&self.tree, self.tree.domain);
        // `(leaf, target)` of every target a leaf serves; the others —
        // outside the domain cube, or in a source-free pocket of an
        // internal box — get the exact sum.
        let (mut binned, mut exact) = (Vec::new(), Vec::new());
        for (ti, &t) in targets.iter().enumerate() {
            let leaf = point_in_domain(t, domain.center, domain.half)
                .then(|| tree.deepest_ancestor(&point_key(t, domain.center, domain.half, MAX_LEVEL)))
                .filter(|&ni| tree.nodes[ni as usize].is_leaf());
            match leaf {
                Some(ni) => binned.push((ni, ti)),
                None => exact.push(ti),
            }
        }
        binned.sort_unstable();
        let mut out = vec![0.0; targets.len() * td];
        if !binned.is_empty() {
            let points: Vec<Point3> = binned.iter().map(|&(_, ti)| targets[ti]).collect();
            let mut ranges: Vec<(u32, usize, usize)> = Vec::new();
            for (j, &(ni, _)) in binned.iter().enumerate() {
                match ranges.last_mut() {
                    Some(r) if r.0 == ni => r.2 = j + 1,
                    _ => ranges.push((ni, j, j + 1)),
                }
            }
            let at = LeafTargets { points: &points, ranges: &ranges };
            let (pots, _, _) = self.evaluate(&engine, &dens, at, false);
            for (row, &(_, ti)) in pots[0].chunks_exact(td).zip(&binned) {
                out[ti * td..(ti + 1) * td].copy_from_slice(row);
            }
        }
        for ti in exact {
            let slot = &mut out[ti * td..(ti + 1) * td];
            self.kernel.p2p(&targets[ti..=ti], &self.sorted_points, &dens[0], slot);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::{direct_eval_src_trg, rel_l2_error};
    use crate::fmm::{Fmm, FmmOptions};
    use kifmm_kernels::{Laplace, Stokes};
    use kifmm_testkit::cloud;

    #[test]
    fn interleaved_targets_match_direct() {
        let srcs = cloud(1000, 3);
        let dens: Vec<f64> = (0..1000).map(|i| ((i % 13) as f64) / 13.0).collect();
        // Targets scattered through the same volume (but distinct points).
        let targets: Vec<Point3> =
            cloud(200, 99).iter().map(|p| [p[0] * 0.95, p[1] * 0.95, p[2] * 0.95]).collect();
        let fmm = Fmm::builder(Laplace)
            .points(&srcs)
            .options(FmmOptions { order: 6, max_pts_per_leaf: 25, ..Default::default() })
            .build();
        let u = fmm.evaluate_at(&dens, &targets);
        let truth = direct_eval_src_trg(&Laplace, &srcs, &dens, &targets);
        let e = rel_l2_error(&u, &truth);
        assert!(e < 1e-5, "off-source targets error {e}");
    }

    #[test]
    fn exterior_targets_fall_back_to_exact() {
        let srcs = cloud(500, 7);
        let dens = vec![1.0; 500];
        let targets = vec![[5.0, 0.0, 0.0], [-3.0, 4.0, 2.0], [0.0, 0.0, 100.0]];
        let fmm = Fmm::builder(Laplace).points(&srcs).options(FmmOptions::with_order(4)).build();
        let u = fmm.evaluate_at(&dens, &targets);
        let truth = direct_eval_src_trg(&Laplace, &srcs, &dens, &targets);
        for (a, b) in u.iter().zip(&truth) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1e-12), "exterior exact: {a} vs {b}");
        }
    }

    #[test]
    fn targets_at_source_locations_match_evaluate() {
        let srcs = cloud(800, 21);
        let dens: Vec<f64> = (0..800).map(|i| (i as f64 * 0.37).sin()).collect();
        let fmm = Fmm::builder(Laplace)
            .points(&srcs)
            .options(FmmOptions { order: 5, max_pts_per_leaf: 20, ..Default::default() })
            .build();
        let via_eval = fmm.eval(&dens).potentials;
        let via_at = fmm.evaluate_at(&dens, &srcs);
        let e = rel_l2_error(&via_at, &via_eval);
        assert!(e < 1e-12, "consistency between evaluate and evaluate_at: {e}");
    }

    #[test]
    fn stokes_targets_in_source_free_pockets() {
        // Sources on two clusters; targets in the empty middle — many hit
        // internal boxes and use the exact fallback.
        let mut srcs: Vec<Point3> = cloud(300, 1)
            .iter()
            .map(|p| [0.8 + p[0] * 0.1, 0.8 + p[1] * 0.1, 0.8 + p[2] * 0.1])
            .collect();
        srcs.extend(
            cloud(300, 2)
                .iter()
                .map(|p| [-0.8 + p[0] * 0.1, -0.8 + p[1] * 0.1, -0.8 + p[2] * 0.1]),
        );
        let dens = kifmm_geom::random_densities(600, 3, 5);
        let targets: Vec<Point3> = (0..50).map(|i| [0.0, i as f64 * 0.01, 0.0]).collect();
        let fmm = Fmm::builder(Stokes::default())
            .points(&srcs)
            .options(FmmOptions { order: 5, max_pts_per_leaf: 15, ..Default::default() })
            .build();
        let u = fmm.evaluate_at(&dens, &targets);
        let truth = direct_eval_src_trg(&Stokes::default(), &srcs, &dens, &targets);
        let e = rel_l2_error(&u, &truth);
        assert!(e < 1e-4, "pocket targets error {e}");
    }

    fn fnv1a(values: &[f64]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// Corner-clustered sources (non-empty W and X lists) read at every
    /// kind of target: jittered copies of sources (deep leaves, W lists),
    /// a uniform scatter (shallow leaves and source-free pockets) and one
    /// point outside the domain. Serial and pool must agree bitwise.
    fn clustered_hash<K: Kernel>(kernel: K) -> u64 {
        let srcs = kifmm_geom::corner_clusters(900, 16);
        let dens = kifmm_geom::random_densities(900, kernel.src_dim(), 40);
        let mut targets: Vec<Point3> =
            srcs.iter().step_by(3).map(|p| [p[0] * 0.999, p[1] * 0.998, p[2] * 0.997]).collect();
        targets.extend(kifmm_geom::uniform_cube(200, 77));
        targets.push([7.0, -3.0, 2.0]);
        let mut fmm = Fmm::builder(kernel)
            .points(&srcs)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 12, ..Default::default() })
            .build();
        assert!(
            fmm.lists.w.iter().any(|w| !w.is_empty()) && fmm.lists.x.iter().any(|x| !x.is_empty()),
            "geometry must exercise the W and X lists"
        );
        let serial = fmm.evaluate_at(&dens, &targets);
        assert!(serial.iter().all(|v| v.is_finite()));
        fmm.set_parallel_eval(true);
        assert_eq!(serial, fmm.evaluate_at(&dens, &targets), "pool differs from serial");
        fnv1a(&serial)
    }

    /// Pinned at the parent of PR 19, when `evaluate_at` still read the
    /// far field off one target at a time: binning the targets by leaf and
    /// running the shared leaf passes keeps every target's U → W → L2T sum
    /// in the same order. Re-pinned in PR 20 (the serial build sorts
    /// `(code, index)` pairs; one of this cloud's 3 tied pairs swaps inside
    /// a leaf) from the parent's evaluator run over the parent's plan with
    /// only the permutation replaced by the pair order. Re-pinned in PR 21
    /// for the rounding of the new SVD (see `tests/golden_fmm_bits.rs`):
    /// against the parent's outputs the potentials moved by at most 2.8e-13
    /// (Laplace) and 3.3e-12 (Stokes) of the largest one, where their own
    /// relative L2 errors against the direct sum are 2.8e-5 and 1.5e-4.
    /// Re-pinned once more for the rounding of the conjugated M2L direction
    /// tensors (see `tests/golden_fmm_bits.rs`): against the parent's
    /// outputs the potentials moved by at most 1.2e-13 (Laplace) and
    /// 3.0e-13 (Stokes) of the largest one; their errors, 2.794789e-5 and
    /// 1.516519e-4, are the parent's in the first seven digits.
    #[test]
    fn evaluate_at_bits_match_per_target_read_off() {
        let got = [clustered_hash(Laplace), clustered_hash(Stokes::new(0.7))];
        assert_eq!(
            got,
            [0x0149303677e6420d, 0xb08aa660cd4eb7da],
            "got {:#018x} {:#018x}",
            got[0],
            got[1]
        );
    }

    #[test]
    fn no_targets_no_output() {
        let srcs = cloud(300, 4);
        let fmm = Fmm::builder(Laplace).points(&srcs).options(FmmOptions::with_order(4)).build();
        assert!(fmm.evaluate_at(&vec![1.0; 300], &[]).is_empty());
    }

    /// One target outside the domain cube and one in a source-free pocket
    /// (its deepest box is internal), between targets the leaves serve:
    /// both take the direct sum, and land in their own output slots.
    #[test]
    fn outside_and_pocket_targets_stay_exact() {
        let srcs = kifmm_geom::corner_clusters(900, 16);
        let dens = kifmm_geom::random_densities(900, 1, 40);
        let fmm = Fmm::builder(Laplace)
            .points(&srcs)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 12, ..Default::default() })
            .build();
        let (tree, domain) = (&fmm.tree, fmm.tree.domain);
        let deepest =
            |t| tree.deepest_ancestor(&point_key(t, domain.center, domain.half, MAX_LEVEL));
        let pocket = kifmm_geom::uniform_cube(400, 77)
            .into_iter()
            .find(|&t| !tree.nodes[deepest(t) as usize].is_leaf())
            .expect("a corner-clustered cloud leaves pockets");
        let targets = [srcs[10], [7.0, -3.0, 2.0], srcs[500], pocket, srcs[20]];
        let u = fmm.evaluate_at(&dens, &targets);
        let truth = direct_eval_src_trg(&Laplace, &srcs, &dens, &targets);
        for i in [1, 3] {
            assert!((u[i] - truth[i]).abs() <= 1e-13 * truth[i].abs(), "target {i} not exact");
        }
        assert!(rel_l2_error(&u, &truth) < 1e-3, "leaf-served targets misplaced");
    }
}
