//! Equivalent and check surfaces (paper §2.1, Figure 2.1).
//!
//! Surfaces are discretized cubes with `p` points per edge, giving
//! `n_s = 6(p−1)² + 2` points (`p³ − (p−2)³`). For a box of half-width `r`:
//!
//! * upward equivalent / downward check surface: radius [`RAD_INNER`]`·r`,
//! * upward check / downward equivalent surface: radius [`RAD_OUTER`]`·r`.
//!
//! These radii satisfy all five constraints listed at the end of the
//! paper's §2: the inner surface encloses the box, the outer surface stays
//! inside the near range `N_B` (the `3r` cube), a parent's inner surface
//! (`2.1r`) encloses its children's (`≤ 2.05r`), and the outer/downward
//! surfaces nest correctly across levels.
//!
//! Crucially, the inner surface is a **regular grid** on the cube: the
//! upward-equivalent points of a source box and the downward-check points
//! of a target box live on translates of the same lattice, which is what
//! turns the M2L translation into a discrete convolution and lets the FFT
//! accelerate it (§1, "the multipole-to-local translations are accelerated
//! using local FFTs").

use kifmm_kernels::Point3;

/// Scale of the upward-equivalent / downward-check surface relative to the
/// box half-width.
pub const RAD_INNER: f64 = 1.05;
/// Scale of the upward-check / downward-equivalent surface.
pub const RAD_OUTER: f64 = 2.95;

/// Number of surface points for discretization order `p` (points per cube
/// edge): `p³ − (p−2)³ = 6(p−1)² + 2`.
pub fn num_surface_points(p: usize) -> usize {
    debug_assert!(p >= 2);
    p * p * p - (p - 2) * (p - 2) * (p - 2)
}

/// Grid index triples `(i, j, k) ∈ [0, p)³` lying on the cube surface
/// (at least one index equal to `0` or `p−1`), in lexicographic order.
///
/// The ordering here defines the canonical surface-point ordering used by
/// every operator in the crate and maps surface points into the volume
/// grid for the FFT M2L.
pub fn surface_grid_indices(p: usize) -> Vec<[usize; 3]> {
    assert!(p >= 2, "surface order must be at least 2");
    let mut out = Vec::with_capacity(num_surface_points(p));
    for i in 0..p {
        for j in 0..p {
            for k in 0..p {
                if i == 0 || i == p - 1 || j == 0 || j == p - 1 || k == 0 || k == p - 1 {
                    out.push([i, j, k]);
                }
            }
        }
    }
    out
}

/// Physical surface points for a box with center `c` and half-width `r`,
/// scaled by `radius` (one of [`RAD_INNER`]/[`RAD_OUTER`]): a `p`-per-edge
/// grid on the cube of half-width `radius·r` centered at `c`.
pub fn surface_points(p: usize, radius: f64, c: Point3, r: f64) -> Vec<Point3> {
    let half = radius * r;
    let step = 2.0 * half / (p - 1) as f64;
    surface_grid_indices(p)
        .into_iter()
        .map(|[i, j, k]| {
            [
                c[0] - half + step * i as f64,
                c[1] - half + step * j as f64,
                c[2] - half + step * k as f64,
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        for p in 2..=10 {
            let n = surface_grid_indices(p).len();
            assert_eq!(n, num_surface_points(p));
            assert_eq!(n, 6 * (p - 1) * (p - 1) + 2);
        }
        // The paper-accuracy setting p = 6 gives 152 points.
        assert_eq!(num_surface_points(6), 152);
    }

    #[test]
    fn indices_on_surface_and_unique() {
        let p = 5;
        let idx = surface_grid_indices(p);
        let mut seen = std::collections::HashSet::new();
        for t in &idx {
            assert!(t.iter().any(|&v| v == 0 || v == p - 1));
            assert!(seen.insert(*t));
        }
    }

    #[test]
    fn points_on_cube_of_correct_radius() {
        let c = [1.0, -2.0, 0.5];
        let r = 0.25;
        let pts = surface_points(6, RAD_INNER, c, r);
        let half = RAD_INNER * r;
        for pt in &pts {
            let d = (0..3).map(|d| (pt[d] - c[d]).abs()).fold(0.0_f64, f64::max);
            assert!((d - half).abs() < 1e-12, "point must lie on the cube surface");
        }
    }

    #[test]
    fn surface_constraints_hold() {
        // Constraint checks from paper §2 summary, for a unit box (r = 1):
        // inner surface encloses the box…
        assert!(RAD_INNER > 1.0);
        // …outer stays strictly inside the near range (3r)…
        assert!(RAD_OUTER < 3.0);
        // …check encloses equivalent with a gap…
        assert!(RAD_OUTER > RAD_INNER + 1.0);
        // …parent inner surface (2·1.05 r) encloses child inner surfaces
        // (offset r, radius 1.05·r/… children have half-width r/2 at offset
        // r/2: extent 0.5 + 1.05·0.5 = 1.025 < 1.05·… at parent scale:
        let parent_inner = 2.0 * RAD_INNER; // in child-half-width units… r_p = 1
        let child_extent = 1.0 + RAD_INNER; // offset r_c + radius·r_c, r_c = 1
        assert!(parent_inner > child_extent / 1.0 * 1.0 - 1e-9);
        // …V-list separation: nearest V offset is 2 parent-level boxes =
        // 4r; equivalent (1.05r) and check (1.05r) surfaces stay disjoint.
        assert!(4.0 - RAD_INNER - RAD_INNER > 0.0);
    }

    #[test]
    fn lattice_property_for_fft() {
        // Surface points of two boxes at the same level differ by an exact
        // lattice translation: (c_A − c_B) is a multiple of 2r and the
        // local grids are identical.
        let pa = surface_points(4, RAD_INNER, [0.0, 0.0, 0.0], 0.5);
        let pb = surface_points(4, RAD_INNER, [2.0, -1.0, 3.0], 0.5);
        for (a, b) in pa.iter().zip(&pb) {
            assert!((b[0] - a[0] - 2.0).abs() < 1e-12);
            assert!((b[1] - a[1] + 1.0).abs() < 1e-12);
            assert!((b[2] - a[2] - 3.0).abs() < 1e-12);
        }
    }
}
