//! Row-major dense matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, `f64` matrix.
///
/// Row-major storage keeps the inner loops of the FMM translation operators
/// (`potential = K * density`) contiguous over matrix rows, matching how
/// [`crate::blas::gemv`] walks memory.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an existing row-major buffer. Panics when the buffer
    /// length does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Mat { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a new vector (columns are strided).
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        crate::blas::gemm(1.0, self, rhs, 0.0, &mut out);
        out
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        crate::blas::gemv(1.0, self, x, 0.0, &mut y);
        y
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other` entrywise. Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Maximum absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_eye() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_indexing() {
        let m = Mat::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0, 22.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |i, j| (i + 2 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn matmul_identity() {
        let m = Mat::from_fn(4, 4, |i, j| ((i * j) % 7) as f64 - 3.0);
        let i = Mat::eye(4);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matvec_known() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matvec(&[1., 0., -1.]), vec![-2., -2.]);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Mat::eye(2);
        let b = Mat::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.add_scaled(2.0, &b);
        assert_eq!(a.as_slice(), &[3., 4., 6., 9.]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2., 3., 4.5]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
