//! Property-based tests on the FMM's core contracts: accuracy against
//! direct summation for arbitrary clouds, linearity, permutation
//! invariance, and tree/list invariants under random input.

use kifmm::tree::{build_lists, Octree};
use kifmm::core::PrecomputeCache;
use kifmm::{
    direct_eval, rel_l2_error, BuildError, Fmm, FmmOptions, Laplace, ParallelFmm, PlanCache,
};
use kifmm_testkit::{check, prop_assert, prop_assert_eq, Gen};

/// Random point clouds: uniform boxes and anisotropic slabs. Between 64
/// and 400 points; optionally squash one axis to produce slab-like
/// distributions with deep adaptive refinement.
fn gen_cloud(g: &mut Gen) -> Vec<[f64; 3]> {
    let n = g.usize(64, 400);
    let squash = g.u8(0, 3);
    (0..n)
        .map(|_| {
            let mut p = [g.f64(-1.0, 1.0), g.f64(-1.0, 1.0), g.f64(-1.0, 1.0)];
            if squash > 0 {
                p[(squash - 1) as usize] *= 0.05;
            }
            p
        })
        .collect()
}

/// Whatever the cloud shape, p = 5 keeps the FMM within 1e-4 of truth.
#[test]
fn fmm_matches_direct_on_random_clouds() {
    check("fmm_matches_direct_on_random_clouds", 12, |g| {
        let pts = gen_cloud(g);
        let seed = g.u64_range(0, 1000);
        let dens = kifmm::geom::random_densities(pts.len(), 1, seed);
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 5, max_pts_per_leaf: 12, ..Default::default() })
            .build();
        let approx = fmm.eval(&dens).potentials;
        let truth = direct_eval(&Laplace, &pts, &dens);
        let err = rel_l2_error(&approx, &truth);
        prop_assert!(err < 1e-4, "error {err}");
    });
}

/// Evaluation is linear in the densities.
#[test]
fn evaluation_is_linear() {
    check("evaluation_is_linear", 12, |g| {
        let pts = gen_cloud(g);
        let a = g.f64(-3.0, 3.0);
        let b = g.f64(-3.0, 3.0);
        let n = pts.len();
        let fmm = Fmm::builder(Laplace)
            .points(&pts)
            .options(FmmOptions { order: 4, max_pts_per_leaf: 15, ..Default::default() })
            .build();
        let d1 = kifmm::geom::random_densities(n, 1, 1);
        let d2 = kifmm::geom::random_densities(n, 1, 2);
        let mix: Vec<f64> = d1.iter().zip(&d2).map(|(x, y)| a * x + b * y).collect();
        let u1 = fmm.eval(&d1).potentials;
        let u2 = fmm.eval(&d2).potentials;
        let um = fmm.eval(&mix).potentials;
        let scale = um.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-9);
        for i in 0..n {
            prop_assert!((um[i] - (a * u1[i] + b * u2[i])).abs() < 1e-9 * scale);
        }
    });
}

/// Shuffling the input point order permutes the output identically.
#[test]
fn permutation_invariance() {
    check("permutation_invariance", 12, |g| {
        let pts = gen_cloud(g);
        let n = pts.len();
        let dens = kifmm::geom::random_densities(n, 1, 99);
        let opts = FmmOptions { order: 4, max_pts_per_leaf: 10, ..Default::default() };
        let base = Fmm::builder(Laplace).points(&pts).options(opts).build().eval(&dens).potentials;

        let mut order: Vec<usize> = (0..n).collect();
        g.shuffle(&mut order);
        let pts2: Vec<[f64; 3]> = order.iter().map(|&i| pts[i]).collect();
        let dens2: Vec<f64> = order.iter().map(|&i| dens[i]).collect();
        let out2 =
            Fmm::builder(Laplace).points(&pts2).options(opts).build().eval(&dens2).potentials;
        let scale = base.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-12);
        for (k, &i) in order.iter().enumerate() {
            prop_assert!(
                (out2[k] - base[i]).abs() < 1e-10 * scale,
                "mismatch at {i}: {} vs {}",
                out2[k],
                base[i]
            );
        }
    });
}

/// Octree invariants hold for arbitrary clouds (leaf capacity, point
/// conservation, list symmetries).
#[test]
fn tree_invariants() {
    check("tree_invariants", 12, |g| {
        let pts = gen_cloud(g);
        let s = g.usize(4, 40);
        let tree = Octree::build(&pts, s, 19);
        // Point conservation at every internal node.
        for nd in &tree.nodes {
            if nd.is_leaf() {
                prop_assert!(nd.num_points() <= s || nd.key.level == 19);
            }
        }
        let total: usize = tree.leaves().map(|l| tree.nodes[l as usize].num_points()).sum();
        prop_assert_eq!(total, pts.len());
        // List symmetries.
        let lists = build_lists(&tree);
        for b in 0..tree.num_nodes() {
            for &v in &lists.v[b] {
                prop_assert!(lists.v[v as usize].contains(&(b as u32)));
            }
            for &w in &lists.w[b] {
                prop_assert!(lists.x[w as usize].contains(&(b as u32)));
            }
        }
    });
}

/// Degenerate inputs that a random cloud generator would rarely hit.
#[test]
fn degenerate_colinear_points() {
    let pts: Vec<[f64; 3]> = (0..300).map(|i| [i as f64 * 1e-3, 0.0, 0.0]).collect();
    let dens = vec![1.0; 300];
    let fmm = Fmm::builder(Laplace)
        .points(&pts)
        .options(FmmOptions { order: 4, max_pts_per_leaf: 10, ..Default::default() })
        .build();
    let approx = fmm.eval(&dens).potentials;
    let truth = direct_eval(&Laplace, &pts, &dens);
    let err = rel_l2_error(&approx, &truth);
    assert!(err < 1e-4, "colinear cloud error {err}");
}

#[test]
fn duplicate_points_capped_by_max_level() {
    let mut pts = vec![[0.25, 0.25, 0.25]; 50];
    pts.extend(kifmm::geom::uniform_cube(200, 4));
    let dens = vec![1.0; pts.len()];
    let fmm = Fmm::builder(Laplace)
        .points(&pts)
        .options(FmmOptions { order: 4, max_pts_per_leaf: 8, max_level: 6, ..Default::default() })
        .build();
    // Coincident points produce zero self-terms; still finite and accurate.
    let approx = fmm.eval(&dens).potentials;
    let truth = direct_eval(&Laplace, &pts, &dens);
    let err = rel_l2_error(&approx, &truth);
    assert!(err < 1e-3, "duplicate-point cloud error {err}");
}

/// NaN and ±∞ coordinates would build a tree (min/max skip NaN, the Morton
/// cast saturates) and come back as silently wrong potentials (Laplace
/// drops the point: its `r² > 0` mask is false for NaN); every way into a
/// plan rejects them, naming the first offending point and axis.
#[test]
fn non_finite_points_are_a_typed_build_error() {
    let clean = kifmm::geom::uniform_cube(300, 29);
    let cache = PlanCache::unbounded();
    let base = cache.get_or_plan(&Laplace, &clean, FmmOptions::default()).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for dim in 0..3 {
            let mut pts = clean.clone();
            pts[41][dim] = bad;
            pts[200][(dim + 1) % 3] = bad; // a later offender is not the one reported
            let expect = Err(BuildError::NonFinitePoint { point: 41, dim });
            assert_eq!(Fmm::builder(Laplace).points(&pts).try_build().map(|_| ()), expect);
            assert_eq!(Fmm::builder(Laplace).points(&pts).try_plan().map(|_| ()), expect);
            let opts = FmmOptions::default();
            assert_eq!(cache.get_or_plan(&Laplace, &pts, opts).map(|_| ()), expect);
            // The patch refuses the point as domain drift; the full
            // rebuild it falls back to must refuse it too.
            assert_eq!(cache.get_or_update(&base, &pts).map(|_| ()), expect);
        }
    }
    assert_eq!((cache.len(), cache.misses(), cache.updates()), (1, 1, 0), "failures not cached");
}

/// A leaf capacity of 0 would reach the tree build's internal assert — on
/// every rank of a distributed build; every fallible way into a plan
/// refuses it with a typed error instead.
#[test]
fn zero_leaf_capacity_is_a_typed_build_error() {
    let pts = kifmm::geom::uniform_cube(300, 31);
    let opts = FmmOptions { max_pts_per_leaf: 0, ..Default::default() };
    let expect = Err(BuildError::ZeroLeafCapacity);
    let builder = || Fmm::builder(Laplace).points(&pts);
    assert_eq!(builder().options(opts).try_build().map(|_| ()), expect);
    assert_eq!(builder().max_pts_per_leaf(0).try_plan().map(|_| ()), expect);
    assert_eq!(PlanCache::unbounded().get_or_plan(&Laplace, &pts, opts).map(|_| ()), expect);
    let chunks = kifmm_testkit::split_points(&pts, 2);
    let ranks = kifmm::mpi::run(2, |comm| {
        let local = &chunks[comm.rank()];
        ParallelFmm::try_new(comm, Laplace, local, opts, &PrecomputeCache::new()).map(|_| ())
    });
    assert_eq!(ranks, vec![expect; 2]);
}
