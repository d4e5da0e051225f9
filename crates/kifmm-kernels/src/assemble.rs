//! Kernel matrix assembly.
//!
//! Builds the dense interaction matrix between two point sets — the
//! discretized integral operators of equations (2.1)–(2.5) that the FMM
//! inverts or applies when constructing its translation operators.

use crate::kernel::Kernel;
use crate::Point3;
use kifmm_linalg::Mat;

/// Assemble the `(targets·trg_dim) × (sources·src_dim)` kernel matrix
/// `K[(i,a), (j,b)] = G(x_i, y_j)[a, b]`.
pub fn assemble<K: Kernel>(kernel: &K, targets: &[Point3], sources: &[Point3]) -> Mat {
    let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
    let m = targets.len() * td;
    let n = sources.len() * sd;
    let mut out = Mat::zeros(m, n);
    let mut block = vec![0.0; td * sd];
    for (i, &x) in targets.iter().enumerate() {
        for (j, &y) in sources.iter().enumerate() {
            kernel.eval(x, y, &mut block);
            for a in 0..td {
                let row = i * td + a;
                for b in 0..sd {
                    out[(row, j * sd + b)] = block[a * sd + b];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Laplace, Stokes};

    #[test]
    fn laplace_matrix_shape_and_values() {
        let t = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]];
        let s = [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [4.0, 0.0, 0.0]];
        let m = assemble(&Laplace, &t, &s);
        assert_eq!(m.shape(), (2, 3));
        let c = 1.0 / (4.0 * std::f64::consts::PI);
        assert!((m[(0, 0)] - c / 2.0).abs() < 1e-15);
        assert!((m[(0, 1)] - c / 3.0).abs() < 1e-15);
        assert!((m[(1, 2)] - c / 3.0).abs() < 1e-15);
    }

    #[test]
    fn matvec_equals_p2p() {
        let k = Stokes::default();
        let t: Vec<Point3> = (0..4).map(|i| [0.1 * i as f64, 0.0, 0.3]).collect();
        let s: Vec<Point3> = (0..3).map(|i| [1.0, 0.2 * i as f64, -0.5]).collect();
        let dens: Vec<f64> = (0..9).map(|i| (i as f64 * 0.3).sin()).collect();
        let m = assemble(&k, &t, &s);
        let via_matrix = m.matvec(&dens);
        let mut via_p2p = vec![0.0; 12];
        k.p2p(&t, &s, &dens, &mut via_p2p);
        for (a, b) in via_matrix.iter().zip(&via_p2p) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn grad_matvec_equals_p2p_grad() {
        let k = Stokes::new(0.8);
        let t: Vec<Point3> = (0..3).map(|i| [0.1 * i as f64, 0.2, 0.3]).collect();
        let s: Vec<Point3> = (0..4).map(|i| [1.0, 0.25 * i as f64, -0.4]).collect();
        let dens: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).cos()).collect();
        // The gradient mat-vec, block by block from `eval_grad`.
        let mut via_matrix = vec![0.0; 27];
        let mut block = [0.0; 27];
        for (i, &x) in t.iter().enumerate() {
            for (j, &y) in s.iter().enumerate() {
                k.eval_grad(x, y, &mut block);
                for (a, row) in block.chunks_exact(3).enumerate() {
                    via_matrix[i * 9 + a] += (0..3).map(|b| row[b] * dens[j * 3 + b]).sum::<f64>();
                }
            }
        }
        let mut pot = vec![0.0; 9];
        let mut via_p2p = vec![0.0; 27];
        k.p2p_grad(&t, &s, &dens, &mut pot, &mut via_p2p);
        for (a, b) in via_matrix.iter().zip(&via_p2p) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
