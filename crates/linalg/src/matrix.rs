//! Dense row-major `f64` matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::Rng;

use crate::vector::{sample_standard_normal, Vector};

/// A dense row-major matrix of `f64` values.
///
/// Used for dataset feature blocks, model weight matrices, and the coding
/// coefficient matrix `B` of classic gradient coding.
///
/// # Examples
///
/// ```
/// use isgc_linalg::{Matrix, Vector};
///
/// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 0.0, 1.0]);
/// let x = Vector::from_slice(&[5.0, 7.0]);
/// assert_eq!(m.matvec(&x).as_slice(), &[19.0, 7.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a closure mapping `(row, col)` to value.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: size mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix with standard-normal entries scaled by `std`.
    pub fn random_normal<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        rng: &mut R,
    ) -> Self {
        Self::from_fn(rows, cols, |_, _| mean + std * sample_standard_normal(rng))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix-vector product written into `out` (overwritten), reusing its
    /// allocation. Each row reduces in the canonical blocked order of
    /// [`crate::kernels::dot`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec: output dimension mismatch");
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for (r, o) in os.iter_mut().enumerate() {
            *o = crate::kernels::dot(self.row(r), xs);
        }
    }

    /// Transposed matrix-vector product `selfᵀ * y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn matvec_transposed(&self, y: &Vector) -> Vector {
        assert_eq!(y.len(), self.rows, "matvec_transposed: dimension mismatch");
        let mut out = Vector::zeros(self.cols);
        for r in 0..self.rows {
            let coeff = y[r];
            if coeff == 0.0 {
                continue;
            }
            crate::kernels::axpy(out.as_mut_slice(), coeff, self.row(r));
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Extracts the sub-matrix formed by the given row indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(indices.len(), self.cols, |r, c| self[(indices[r], c)])
    }

    /// Numerical rank by Gaussian elimination with partial pivoting:
    /// pivots below `tol · max|entry|` are treated as zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use isgc_linalg::Matrix;
    ///
    /// assert_eq!(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).rank(1e-9), 2);
    /// let singular = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
    /// assert_eq!(singular.rank(1e-9), 1);
    /// ```
    pub fn rank(&self, tol: f64) -> usize {
        let (m, k) = (self.rows, self.cols);
        if m == 0 || k == 0 {
            return 0;
        }
        let scale = self.data.iter().fold(0.0_f64, |s, x| s.max(x.abs()));
        if scale == 0.0 {
            return 0;
        }
        let cutoff = tol * scale;
        let mut a = self.clone();
        let mut rank = 0usize;
        for col in 0..k {
            if rank >= m {
                break;
            }
            // Pivot: largest entry in this column at or below `rank`.
            let mut best = rank;
            for r in (rank + 1)..m {
                if a[(r, col)].abs() > a[(best, col)].abs() {
                    best = r;
                }
            }
            if a[(best, col)].abs() <= cutoff {
                continue;
            }
            if best != rank {
                for c in 0..k {
                    let tmp = a[(rank, c)];
                    a[(rank, c)] = a[(best, c)];
                    a[(best, c)] = tmp;
                }
            }
            let pivot = a[(rank, col)];
            for r in (rank + 1)..m {
                let factor = a[(r, col)] / pivot;
                if factor != 0.0 {
                    for c in col..k {
                        let v = a[(rank, c)];
                        a[(r, c)] -= factor * v;
                    }
                }
            }
            rank += 1;
        }
        rank
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_matvec() {
        let m = identity(3);
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.matvec(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn matvec_and_transpose() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).as_slice(), &[-2.0, -2.0]);
        let y = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.matvec_transposed(&y).as_slice(), &[5.0, 7.0, 9.0]);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[1.0, 4.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 - 5.0);
        let y = Vector::from_slice(&[0.5, -1.0, 2.0, 0.0]);
        let direct = m.matvec_transposed(&y);
        let via_t = m.transposed().matvec(&y);
        for i in 0..3 {
            assert!((direct[i] - via_t[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_into_reuses_and_matches() {
        let m = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f64 * 0.25 - 2.0);
        let x = Vector::from_fn(6, |i| 1.0 / (i + 1) as f64);
        let mut out = Vector::filled(3, 99.0);
        m.matvec_into(&x, &mut out);
        let fresh = m.matvec(&x);
        for i in 0..3 {
            assert_eq!(out[i].to_bits(), fresh[i].to_bits());
        }
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f64);
        assert_eq!(a.matmul(&identity(3)), a);
        assert_eq!(identity(3).matmul(&a), a);
    }

    #[test]
    fn select_rows_extracts() {
        let m = Matrix::from_vec(3, 2, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[2.0, 2.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn rank_computes() {
        assert_eq!(Matrix::zeros(3, 3).rank(1e-9), 0);
        assert_eq!(identity(4).rank(1e-9), 4);
        // Rank 2: third row is the sum of the first two.
        let m = Matrix::from_vec(3, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(m.rank(1e-9), 2);
        // Wide and tall shapes.
        assert_eq!(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).rank(1e-9), 1);
        assert_eq!(Matrix::zeros(0, 5).rank(1e-9), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_mismatch_panics() {
        Matrix::zeros(2, 3).matvec(&Vector::zeros(2));
    }
}
