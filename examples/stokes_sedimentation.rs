//! Sedimentation of rigid spheres in Stokes flow — the fluid–structure
//! workload of the paper's Figure 4.1, at library scale.
//!
//! Two spheres fall under gravity through a viscous fluid. Each time step
//! solves a boundary integral equation (single-layer ansatz, GMRES with
//! FMM-accelerated matvecs — "tens of interaction calculations" per step,
//! exactly the workload the paper's parallel design optimizes for), turns
//! gravity into rigid-body velocities through the mobility relation, and
//! advances the spheres.
//!
//! Physics checks printed along the way:
//! * an isolated sphere reproduces the Stokes settling velocity
//!   `U = F/(6πμR)`;
//! * a nearby pair falls *faster* than an isolated sphere (the classic
//!   two-body hydrodynamic interaction).
//!
//! ```text
//! cargo run --release --example stokes_sedimentation
//! ```

use kifmm::solver::{net_force, rigid_body_velocity, SingleLayerOperator, SurfaceQuadrature};
use kifmm::{FmmOptions, GmresOptions, OutputSpec, Plan, PlanCache, Session, Stokes};
use std::sync::Arc;

const MU: f64 = 1.0;
const RADIUS: f64 = 0.3;
const NODES_PER_SPHERE: usize = 300;
/// Gravity force on each sphere (buoyancy-corrected weight).
const F_GRAVITY: [f64; 3] = [0.0, 0.0, -1.0];

/// Settling velocity of a set of spheres at the given centers: solve the
/// resistance problem for a unit collective velocity, then scale so the
/// net hydrodynamic drag balances gravity (valid for identical spheres
/// moving together along z).
///
/// Stokes flow is translation-invariant, so the problem is solved in the
/// **body frame** (centroid at the origin): as the spheres fall rigidly,
/// every time step presents the *identical* quadrature geometry, the
/// [`PlanCache`] hit skips tree/list/operator setup entirely, and only
/// the GMRES solve (the FMM matvecs) is paid per step.
fn settling_velocity(centers: &[[f64; 3]], cache: &PlanCache<Stokes>) -> (f64, usize) {
    let m = centers.len() as f64;
    let centroid = centers.iter().fold([0.0; 3], |a, c| {
        [a[0] + c[0] / m, a[1] + c[1] / m, a[2] + c[2] / m]
    });
    let quads: Vec<SurfaceQuadrature> = centers
        .iter()
        .map(|&c| {
            let body = [c[0] - centroid[0], c[1] - centroid[1], c[2] - centroid[2]];
            SurfaceQuadrature::sphere(body, RADIUS, NODES_PER_SPHERE)
        })
        .collect();
    let quad = SurfaceQuadrature::union(&quads);
    let op = SingleLayerOperator::with_plan_cache(
        Stokes::new(MU),
        quad.clone(),
        FmmOptions { order: 6, max_pts_per_leaf: 50, ..Default::default() },
        cache,
    );
    // Resistance problem: all spheres translate with unit velocity -z.
    let mut bc = Vec::with_capacity(quad.len() * 3);
    for (qi, q) in quads.iter().enumerate() {
        let _ = qi;
        bc.extend(rigid_body_velocity(q, [0.0; 3], [0.0, 0.0, -1.0], [0.0; 3]));
    }
    let res = op.solve(&bc, GmresOptions { tol: 1e-4, max_iter: 300, restart: 60 });
    assert!(res.converged, "GMRES stalled: residual {}", res.residual);
    // Net drag for the unit velocity; per-sphere share is drag/n.
    let f = net_force(&quad, &res.x);
    let drag_per_sphere = -f[2] / centers.len() as f64; // positive number
    // Balance: |F_gravity| = drag_per_sphere · U.
    (F_GRAVITY[2].abs() / drag_per_sphere.abs(), op.matvecs.get())
}

fn main() {
    println!("Stokes sedimentation (paper Fig. 4.1 scenario, library scale)");
    println!(
        "spheres: R = {RADIUS}, μ = {MU}, {NODES_PER_SPHERE} quadrature nodes each\n"
    );

    // One plan cache for the whole simulation: the isolated sphere and the
    // pair each plan once; every later time step is a warm hit.
    let cache = PlanCache::unbounded();

    // Reference: isolated sphere vs Stokes law.
    let (u_single, matvecs) = settling_velocity(&[[0.0, 0.0, 0.0]], &cache);
    let u_stokes = F_GRAVITY[2].abs() / (6.0 * std::f64::consts::PI * MU * RADIUS);
    println!(
        "isolated sphere: U = {u_single:.4} (Stokes law {u_stokes:.4}, \
         deviation {:.1}%, {matvecs} FMM matvecs)",
        100.0 * (u_single - u_stokes).abs() / u_stokes
    );

    // Two interacting spheres falling side by side.
    let gap = 3.0 * RADIUS;
    let (u_pair, _) = settling_velocity(&[[-gap / 2.0, 0.0, 0.0], [gap / 2.0, 0.0, 0.0]], &cache);
    println!(
        "sphere pair (gap {gap:.2}): U = {u_pair:.4} — {:.1}% faster than isolated",
        100.0 * (u_pair / u_single - 1.0)
    );
    assert!(u_pair > u_single, "pair must settle faster (hydrodynamic interaction)");

    // Time-step the pair: as they fall together the velocity stays higher
    // than the isolated value; log a short trajectory.
    println!("\n  t      z       U(t)");
    let mut z = 0.0;
    let dt = 0.2;
    let centers = [[-gap / 2.0, 0.0, 0.0], [gap / 2.0, 0.0, 0.0]];
    for step in 0..5 {
        let shifted: Vec<[f64; 3]> =
            centers.iter().map(|c| [c[0], c[1], c[2] + z]).collect();
        let (u, _) = settling_velocity(&shifted, &cache);
        println!("  {:>4.1}  {:>6.3}  {:>7.4}", step as f64 * dt, z, u);
        z -= u * dt;
    }

    // The pair falls rigidly, so all 5 time steps reuse the plan built for
    // the very first pair solve: 2 misses (isolated, pair), 5 hits.
    println!(
        "\nplan cache: {} hits / {} misses (setup amortized across time steps)",
        cache.hits(),
        cache.misses()
    );
    assert_eq!(cache.misses(), 2, "only two distinct geometries were planned");
    assert!(cache.hits() >= 5, "every time step must be a warm hit");

    drafting_trio();
    println!("\nOK");
}

/// Three collinear spheres in the **lab frame**: non-rigid motion, served
/// by incremental plan updates.
///
/// The body-frame trick above works because the spheres fall rigidly —
/// every step presents the identical geometry. When bodies move *relative
/// to each other* the cache can never hit, and before PR 9 every step
/// paid full FMM setup. [`PlanCache::get_or_update`] patches the previous
/// step's plan instead ([`Plan::update_points`]): the tree is rebuilt in
/// the old root cube and the operator tables are shared, so only the tree
/// (and, when its boxes changed, the interaction lists) is paid for.
///
/// Physics: the middle sphere of a horizontal row sits in the downwash of
/// both neighbors and settles faster than the edge spheres (drafting), so
/// the row bows — genuinely non-rigid motion. Each step solves the 2×2
/// resistance system for (edge, middle) speeds from two unit-velocity
/// GMRES solves.
///
/// The plan is built with [`OutputSpec::PotentialAndGradient`] and every
/// incremental update inherits it, so once the step's traction density is
/// known, one fused eval returns the surface velocity *and* its gradient
/// tensor ∇u — from which the drag/shear diagnostic reads the local shear
/// rate per sphere and checks incompressibility (a Stokes single-layer
/// field is divergence-free, so `tr ∇u ≈ 0` up to quadrature error).
fn drafting_trio() {
    println!("\nthree collinear spheres (lab frame, incremental plan updates)");
    let cache = PlanCache::unbounded();
    let opts = FmmOptions {
        order: 6,
        max_pts_per_leaf: 50,
        output: OutputSpec::PotentialAndGradient,
        ..Default::default()
    };
    let sep = 3.0 * RADIUS;
    // The wide horizontal row gives the root cube vertical headroom: the
    // spheres can fall several steps before leaving the first step's
    // domain.
    let mut centers = [[-sep, 0.0, 0.0], [0.0, 0.0, 0.0], [sep, 0.0, 0.0]];
    let g = F_GRAVITY[2].abs();
    let dt = 0.4;
    let steps = 4;

    // Net z-force on one sphere's contiguous node block.
    let sphere_force_z = |quad: &SurfaceQuadrature, x: &[f64], s: usize| -> f64 {
        let mut f = 0.0;
        for j in s * NODES_PER_SPHERE..(s + 1) * NODES_PER_SPHERE {
            f += quad.weights[j] * x[3 * j + 2];
        }
        f
    };

    let mut plan: Option<Arc<Plan<Stokes>>> = None;
    println!("  t      z_edge   z_mid    U_edge   U_mid");
    for step in 0..steps {
        let quads: Vec<SurfaceQuadrature> = centers
            .iter()
            .map(|&c| SurfaceQuadrature::sphere(c, RADIUS, NODES_PER_SPHERE))
            .collect();
        let quad = SurfaceQuadrature::union(&quads);
        let p = match &plan {
            None => cache.get_or_plan(&Stokes::new(MU), &quad.points, opts).unwrap(),
            Some(prev) => cache.get_or_update(prev, &quad.points).unwrap(),
        };
        let op = SingleLayerOperator::with_plan(quad.clone(), p.clone());
        let op_plan = p.clone();
        plan = Some(p);

        // One resistance column: the flagged spheres translate with unit
        // velocity -z, the rest are held. Returns the upward drag
        // coefficients measured on an edge sphere and the middle sphere,
        // plus the solved traction density.
        let column = |movers: [bool; 3]| -> ([f64; 2], Vec<f64>) {
            let mut bc = Vec::with_capacity(quad.len() * 3);
            for (si, q) in quads.iter().enumerate() {
                let u = if movers[si] { [0.0, 0.0, -1.0] } else { [0.0; 3] };
                bc.extend(rigid_body_velocity(q, [0.0; 3], u, [0.0; 3]));
            }
            let res = op.solve(&bc, GmresOptions { tol: 1e-4, max_iter: 600, restart: 80 });
            assert!(res.converged, "GMRES stalled: residual {}", res.residual);
            ([-sphere_force_z(&quad, &res.x, 0), -sphere_force_z(&quad, &res.x, 1)], res.x)
        };
        let (a, phi_a) = column([true, false, true]); // edges move, middle held
        let (b, phi_b) = column([false, true, false]); // middle moves, edges held
        // Force balance per sphere: a_i·U_e + b_i·U_m = |F_gravity|.
        let det = a[0] * b[1] - b[0] * a[1];
        let u_edge = (g * b[1] - g * b[0]) / det;
        let u_mid = (g * a[0] - g * a[1]) / det;

        // Drag/shear diagnostic from the fused gradient output. By
        // linearity the settling flow's traction is U_e·φ_a + U_m·φ_b;
        // one fused eval of the weighted density returns u and ∇u at
        // every node through the gradient-carrying (and incrementally
        // updated) plan.
        let session = Session::new(op_plan.clone());
        let weighted: Vec<f64> = phi_a
            .iter()
            .zip(&phi_b)
            .enumerate()
            .map(|(i, (pa, pb))| (u_edge * pa + u_mid * pb) * quad.weights[i / 3])
            .collect();
        let rep = session.eval(&weighted);
        assert_eq!(rep.gradients.len(), quad.len() * 9);
        // Incompressibility: tr ∇u = 0 analytically; the Nyström sum of
        // the near-singular ∇G leaves a small quadrature residue.
        let (mut div2, mut grad2) = (0.0, 0.0);
        let mut shear = [0.0f64; 3];
        for i in 0..quad.len() {
            let gblk = &rep.gradients[i * 9..(i + 1) * 9];
            let mut div = 0.0;
            let mut e2 = 0.0;
            for t in 0..3 {
                div += gblk[t * 3 + t];
                for d in 0..3 {
                    grad2 += gblk[t * 3 + d] * gblk[t * 3 + d];
                    let e = 0.5 * (gblk[t * 3 + d] + gblk[d * 3 + t]);
                    e2 += e * e;
                }
            }
            div2 += div * div;
            // Local shear rate √(2 E:E), averaged per sphere below.
            shear[i / NODES_PER_SPHERE] += (2.0 * e2).sqrt();
        }
        for s in &mut shear {
            *s /= NODES_PER_SPHERE as f64;
        }
        let div_rel = (div2 / grad2).sqrt();
        assert!(div_rel < 0.05, "single-layer flow must be near divergence-free: {div_rel}");
        println!(
            "  {:>4.1}  {:>7.3}  {:>7.3}  {:>7.4}  {:>7.4}   shear (e/m/e) \
             {:.2}/{:.2}/{:.2}  div {div_rel:.1e}",
            step as f64 * dt,
            centers[0][2],
            centers[1][2],
            u_edge,
            u_mid,
            shear[0],
            shear[1],
            shear[2]
        );
        assert!(u_mid > u_edge, "middle sphere must draft faster ({u_mid} vs {u_edge})");
        for (si, c) in centers.iter_mut().enumerate() {
            c[2] -= if si == 1 { u_mid } else { u_edge } * dt;
        }
    }
    println!(
        "\nplan cache: {} miss / {} incremental updates (no full re-plan after step 0)",
        cache.misses(),
        cache.updates()
    );
    assert_eq!(cache.misses(), 1, "only the first step pays a full plan build");
    assert!(
        cache.updates() >= steps as u64 - 1,
        "every later step must be served by an incremental update"
    );

    // Eventually the spheres sink out of the original root cube; the
    // patch then fails with a typed DomainOverflow and get_or_update
    // falls back to a full re-rooted rebuild.
    let base = plan.expect("loop ran");
    for c in &mut centers {
        c[2] -= 10.0;
    }
    let quads: Vec<SurfaceQuadrature> = centers
        .iter()
        .map(|&c| SurfaceQuadrature::sphere(c, RADIUS, NODES_PER_SPHERE))
        .collect();
    let far = SurfaceQuadrature::union(&quads);
    assert!(base.update_points(&far.points).is_err(), "drift out of the cube is typed");
    let rebuilt = cache.get_or_update(&base, &far.points).unwrap();
    assert_eq!(cache.misses(), 2, "out-of-domain drift falls back to a full rebuild");
    assert!((rebuilt.tree.domain.center[2] - centers[0][2]).abs() < 1.0);
    println!("out-of-domain drift: typed DomainOverflow, automatic re-rooted rebuild");
}
