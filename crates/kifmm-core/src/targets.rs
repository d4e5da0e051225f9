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

use crate::engine::{ExpansionStore, LocalSources};
use crate::operators::FIRST_FMM_LEVEL;
use crate::plan::Session;
use crate::stats::Meter;
use crate::surface::{surface_points, RAD_INNER, RAD_OUTER};
use kifmm_kernels::{Kernel, Point3};
use kifmm_tree::{point_key, MAX_LEVEL};

impl<K: Kernel> Session<K> {
    /// Evaluate the potential at arbitrary `targets` (not necessarily the
    /// source points). Returns `TRG_DIM` components per target. The
    /// far-field passes run under this session's dispatch, tracer and
    /// pooled scratch, like [`Session::eval`].
    pub fn evaluate_at(&self, densities: &[f64], targets: &[Point3]) -> Vec<f64> {
        let sd = self.kernel.src_dim();
        assert_eq!(densities.len(), self.num_points * sd, "density length");
        let dens = self.tree.to_morton(densities, sd);
        let engine = self.engine(self.dispatch());
        let src = LocalSources {
            tree: &self.tree,
            points: &self.sorted_points,
            dens: &[&dens],
            src_dim: sd,
        };
        let rt = self.trace().rank(0);
        self.with_scratch(|store, ws| {
            self.far_field(&engine, &src, store, ws, &mut Meter::new(&rt, self.dispatch()));
            self.read_off(&dens, store, targets)
        })
    }

    /// Per-target U + W + L2T read-off against the final expansions of
    /// one Morton-sorted density vector.
    fn read_off(&self, dens: &[f64], store: &ExpansionStore, targets: &[Point3]) -> Vec<f64> {
        let td = self.kernel.trg_dim();
        let tree = &self.tree;
        let mut out = vec![0.0; targets.len() * td];
        let domain = tree.domain;
        for (ti, &t) in targets.iter().enumerate() {
            let slot = &mut out[ti * td..(ti + 1) * td];
            // Outside the domain cube: everything is far in an unindexed
            // direction — fall back to the exact sum.
            let inside = (0..3).all(|d| (t[d] - domain.center[d]).abs() <= domain.half);
            if !inside {
                self.direct_all(t, dens, slot);
                continue;
            }
            let key = point_key(t, domain.center, domain.half, MAX_LEVEL);
            let ni = tree.deepest_ancestor(&key);
            let node = &tree.nodes[ni as usize];
            if !node.is_leaf() {
                // Source-free pocket inside an internal box: exact sum.
                self.direct_all(t, dens, slot);
                continue;
            }
            // U: direct near-field.
            for &a in &self.lists.u[ni as usize] {
                let (pts, d) = self.leaf_data(a, dens);
                self.kernel.p2p(std::slice::from_ref(&t), pts, d, slot);
            }
            // W: separated finer boxes via their upward equivalents.
            for &a in &self.lists.w[ni as usize] {
                let akey = tree.nodes[a as usize].key;
                let ac = domain.box_center(&akey);
                let ah = domain.box_half(akey.level);
                let ue = surface_points(self.opts.order, RAD_INNER, ac, ah);
                self.kernel.p2p(std::slice::from_ref(&t), &ue, store.up(a), slot);
            }
            // L2T: the rest of the far field.
            if node.key.level >= FIRST_FMM_LEVEL {
                let c = domain.box_center(&node.key);
                let half = domain.box_half(node.key.level);
                let de = surface_points(self.opts.order, RAD_OUTER, c, half);
                self.kernel.p2p(std::slice::from_ref(&t), &de, store.down(ni), slot);
            }
        }
        out
    }

    /// Exact summation over all sources for one target (fallback path).
    fn direct_all(&self, t: Point3, sorted_dens: &[f64], slot: &mut [f64]) {
        self.kernel.p2p(std::slice::from_ref(&t), &self.sorted_points, sorted_dens, slot);
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
}
