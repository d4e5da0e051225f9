//! Point generators.

use crate::rng::Rng;
use crate::Point3;

/// Uniform random points in the cube `[−1, 1]³`.
pub fn uniform_cube(n: usize, seed: u64) -> Vec<Point3> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)]
        })
        .collect()
}

/// Random source densities in `[0, 1]` — the density distribution used
/// throughout the paper's experiments ("densities are chosen randomly from
/// `[0, 1]`"). `components` is the kernel's source dimension.
pub fn random_densities(n: usize, components: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    (0..n * components).map(|_| rng.next_f64()).collect()
}

/// Latitude/longitude sampling of a sphere — deliberately non-uniform
/// (points crowd at the poles), reproducing the paper's note that "the
/// sampling over a single sphere is non-uniform" at high rates.
pub fn latlong_sphere(center: Point3, radius: f64, n: usize) -> Vec<Point3> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![[center[0], center[1], center[2] + radius]];
    }
    // Choose rings ~ sqrt(n) and points per ring ~ sqrt(n).
    let rings = ((n as f64).sqrt().round() as usize).max(2);
    let per_ring = n.div_ceil(rings);
    // The ring grid overshoots (rings · per_ring ≥ n); truncate to the
    // requested count rather than returning the padded grid.
    let mut pts = Vec::with_capacity(rings * per_ring);
    for i in 0..rings {
        let theta = std::f64::consts::PI * (i as f64 + 0.5) / rings as f64;
        let (st, ct) = theta.sin_cos();
        for j in 0..per_ring {
            let phi = 2.0 * std::f64::consts::PI * j as f64 / per_ring as f64;
            let (sp, cp) = phi.sin_cos();
            pts.push([
                center[0] + radius * st * cp,
                center[1] + radius * st * sp,
                center[2] + radius * ct,
            ]);
        }
    }
    pts.truncate(n);
    assert_eq!(pts.len(), n, "latlong_sphere must return exactly n points");
    pts
}

/// Near-uniform Fibonacci-spiral sphere sampling (used by the
/// boundary-integral solver where a quasi-uniform quadrature is wanted).
pub fn fibonacci_sphere(center: Point3, radius: f64, n: usize) -> Vec<Point3> {
    let golden = (1.0 + 5f64.sqrt()) / 2.0;
    (0..n)
        .map(|i| {
            let z = 1.0 - (2.0 * i as f64 + 1.0) / n as f64;
            let r = (1.0 - z * z).max(0.0).sqrt();
            let phi = 2.0 * std::f64::consts::PI * (i as f64 / golden).fract();
            let (s, c) = phi.sin_cos();
            [center[0] + radius * r * c, center[1] + radius * r * s, center[2] + radius * z]
        })
        .collect()
}

/// The paper's first particle set: `total` points distributed over 512
/// spheres centered on an 8×8×8 Cartesian grid in `[−1, 1]³`
/// (lat/long-sampled, so locally non-uniform at high rates).
///
/// Returns one point set; [`sphere_grid_patches`] keeps the per-sphere
/// structure.
pub fn sphere_grid(total: usize, grid: usize) -> Vec<Point3> {
    sphere_grid_patches(total, grid).into_iter().flatten().collect()
}

/// Per-sphere point sets for the sphere-grid distribution; `grid = 8`
/// reproduces the paper's 512-sphere input.
pub fn sphere_grid_patches(total: usize, grid: usize) -> Vec<Vec<Point3>> {
    assert!(grid >= 1);
    let spheres = grid * grid * grid;
    let per = total / spheres;
    let mut rem = total % spheres;
    // Sphere radius: a bit less than half the grid spacing so neighbors
    // don't touch. Grid spacing in [-1,1] is 2/grid.
    let spacing = 2.0 / grid as f64;
    let radius = 0.4 * spacing;
    let mut out = Vec::with_capacity(spheres);
    for i in 0..grid {
        for j in 0..grid {
            for k in 0..grid {
                let c = [
                    -1.0 + spacing * (i as f64 + 0.5),
                    -1.0 + spacing * (j as f64 + 0.5),
                    -1.0 + spacing * (k as f64 + 0.5),
                ];
                let n = per + usize::from(rem > 0);
                rem = rem.saturating_sub(1);
                out.push(latlong_sphere(c, radius, n));
            }
        }
    }
    out
}

/// The paper's second particle set: points clustered at the eight corners
/// of `[−1, 1]³`. Each point is drawn at a power-law distance from a
/// randomly chosen corner, giving strong local refinement.
pub fn corner_clusters(n: usize, seed: u64) -> Vec<Point3> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xc0ffee);
    let corners: Vec<Point3> = (0..8)
        .map(|c| {
            [
                if c & 1 == 0 { -1.0 } else { 1.0 },
                if c & 2 == 0 { -1.0 } else { 1.0 },
                if c & 4 == 0 { -1.0 } else { 1.0 },
            ]
        })
        .collect();
    (0..n)
        .map(|_| {
            let corner = corners[rng.below(8)];
            // Power-law radius: heavy clustering at the corner, tail across
            // the cube.
            let u: f64 = rng.next_f64().max(1e-12);
            let r = 0.9 * u * u * u;
            // Random direction pointing into the cube.
            let dir = loop {
                let v = [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ];
                let n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                if n2 > 1e-12 && n2 <= 1.0 {
                    let inv = 1.0 / n2.sqrt();
                    break [v[0] * inv, v[1] * inv, v[2] * inv];
                }
            };
            let mut p = [
                corner[0] - corner[0].signum() * r * dir[0].abs() * 2.0,
                corner[1] - corner[1].signum() * r * dir[1].abs() * 2.0,
                corner[2] - corner[2].signum() * r * dir[2].abs() * 2.0,
            ];
            for v in &mut p {
                *v = v.clamp(-1.0, 1.0);
            }
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cube_in_bounds_and_deterministic() {
        let a = uniform_cube(100, 42);
        let b = uniform_cube(100, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.iter().all(|&v| (-1.0..1.0).contains(&v))));
        let c = uniform_cube(100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn densities_in_unit_interval() {
        let d = random_densities(50, 3, 7);
        assert_eq!(d.len(), 150);
        assert!(d.iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn spheres_have_correct_radius() {
        for gen in [latlong_sphere as fn(Point3, f64, usize) -> Vec<Point3>, fibonacci_sphere] {
            let pts = gen([1.0, -2.0, 0.5], 0.7, 200);
            assert_eq!(pts.len(), 200);
            for p in &pts {
                let r = ((p[0] - 1.0).powi(2) + (p[1] + 2.0).powi(2) + (p[2] - 0.5).powi(2)).sqrt();
                assert!((r - 0.7).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sphere_grid_count_and_bounds() {
        let pts = sphere_grid(10_000, 8);
        assert_eq!(pts.len(), 10_000);
        assert!(pts.iter().all(|p| p.iter().all(|&v| (-1.0..=1.0).contains(&v))));
        let patches = sphere_grid_patches(10_000, 8);
        assert_eq!(patches.len(), 512);
        let total: usize = patches.iter().map(|p| p.len()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn sphere_grid_spheres_disjoint() {
        // Neighboring sphere centers are spacing apart with radius 0.4*spacing,
        // so patches cannot overlap.
        let patches = sphere_grid_patches(4096, 4);
        let spacing = 2.0 / 4.0;
        for (a, pa) in patches.iter().enumerate() {
            for pt in pa {
                // Every point is within 0.4*spacing + eps of its own center.
                let ci = [a / 16, (a / 4) % 4, a % 4];
                let c = [
                    -1.0 + spacing * (ci[0] as f64 + 0.5),
                    -1.0 + spacing * (ci[1] as f64 + 0.5),
                    -1.0 + spacing * (ci[2] as f64 + 0.5),
                ];
                let r = ((pt[0] - c[0]).powi(2) + (pt[1] - c[1]).powi(2) + (pt[2] - c[2]).powi(2))
                    .sqrt();
                assert!(r <= 0.4 * spacing + 1e-12);
            }
        }
    }

    #[test]
    fn corner_clusters_cluster() {
        let pts = corner_clusters(4000, 1);
        assert_eq!(pts.len(), 4000);
        assert!(pts.iter().all(|p| p.iter().all(|&v| (-1.0..=1.0).contains(&v))));
        // Most points lie near some corner: median distance-to-nearest-corner
        // must be much smaller than for a uniform cloud (~0.96).
        let mut d: Vec<f64> = pts
            .iter()
            .map(|p| {
                let mut best = f64::INFINITY;
                for c in 0..8 {
                    let corner = [
                        if c & 1 == 0 { -1.0 } else { 1.0 },
                        if c & 2 == 0 { -1.0f64 } else { 1.0 },
                        if c & 4 == 0 { -1.0 } else { 1.0 },
                    ];
                    let dist = ((p[0] - corner[0]) as f64).hypot(p[1] - corner[1]).hypot(p[2] - corner[2]);
                    best = best.min(dist);
                }
                best
            })
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(d[2000] < 0.5, "median corner distance {}", d[2000]);
    }
}
