//! Surface patches — the partitioning granularity of the paper.
//!
//! §3.1: "our input is a set of surface patches on which the particles are
//! generated. We first gather all input surface patches on a single
//! processor, and assign to each patch a weight which in the simplest case
//! is equal to the number of particles in that patch." The Morton-curve
//! partitioner in `kifmm-tree` splits patches into equal-weight groups.

use crate::Point3;

/// A group of particles generated from one input surface (e.g. one of the
/// 512 spheres), carrying the weight used for load balancing.
#[derive(Clone, Debug)]
pub struct SurfacePatch {
    /// Particles sampled from this patch.
    pub points: Vec<Point3>,
    /// Load-balancing weight; the simplest choice (and the paper's) is the
    /// particle count, but work estimates from a previous time step can be
    /// plugged in here.
    pub weight: f64,
}

impl SurfacePatch {
    /// Patch with weight = particle count (the paper's default).
    pub fn from_points(points: Vec<Point3>) -> Self {
        let weight = points.len() as f64;
        SurfacePatch { points, weight }
    }

    /// Centroid of the patch (used as its Morton-curve key).
    pub fn centroid(&self) -> Point3 {
        if self.points.is_empty() {
            return [0.0; 3];
        }
        let mut c = [0.0; 3];
        for p in &self.points {
            c[0] += p[0];
            c[1] += p[1];
            c[2] += p[2];
        }
        let inv = 1.0 / self.points.len() as f64;
        [c[0] * inv, c[1] * inv, c[2] * inv]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_defaults_to_count() {
        let p = SurfacePatch::from_points(vec![[0.0; 3], [1.0, 0.0, 0.0]]);
        assert_eq!(p.weight, 2.0);
    }

    #[test]
    fn centroid() {
        let p = SurfacePatch::from_points(vec![[0.0, 0.0, 0.0], [2.0, 4.0, -2.0]]);
        assert_eq!(p.centroid(), [1.0, 2.0, -1.0]);
        assert_eq!(SurfacePatch::from_points(vec![]).centroid(), [0.0; 3]);
    }
}
