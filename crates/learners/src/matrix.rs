//! A minimal dense matrix and linear-system solver.
//!
//! Only what the closed-form linear models need: matrix products,
//! transposition and Gaussian elimination with partial pivoting.

use crate::error::LearnError;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from rows of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(
            !rows.is_empty() && !rows[0].is_empty(),
            "matrix must be non-empty"
        );
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must match for matrix multiplication"
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    let value = out.get(r, c) + a * other.get(k, c);
                    out.set(r, c, value);
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must match column count");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum())
            .collect()
    }

    /// Adds `value` to every diagonal element (ridge regularisation).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let v = self.get(i, i) + value;
            self.set(i, i, v);
        }
    }
}

/// Solves the linear system `a * x = b` with Gaussian elimination and partial
/// pivoting.
///
/// # Errors
///
/// Returns [`LearnError::SingularSystem`] when a pivot is (numerically) zero.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve_linear_system(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LearnError> {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(b.len(), a.rows(), "right-hand side has wrong length");
    let n = a.rows();
    // Augmented working copy.
    let mut work = vec![vec![0.0f64; n + 1]; n];
    for (r, work_row) in work.iter_mut().enumerate() {
        for c in 0..n {
            work_row[c] = a.get(r, c);
        }
        work_row[n] = b[r];
    }

    for col in 0..n {
        // Partial pivoting: pick the row with the largest absolute pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                work[r1][col]
                    .abs()
                    .partial_cmp(&work[r2][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if work[pivot_row][col].abs() < 1e-12 {
            return Err(LearnError::SingularSystem);
        }
        work.swap(col, pivot_row);
        // Eliminate below.
        for row in col + 1..n {
            let factor = work[row][col] / work[col][col];
            if factor == 0.0 {
                continue;
            }
            for k in col..=n {
                work[row][k] -= factor * work[col][k];
            }
        }
    }

    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut sum = work[row][n];
        for col in row + 1..n {
            sum -= work[row][col] * x[col];
        }
        x[row] = sum / work[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_and_matmul() {
        let id = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
        ]);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn transpose_swaps_dims() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_known_value() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = a.matvec(&[1.0, 1.0]);
        assert_eq!(v, vec![3.0, 7.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5, x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve_linear_system(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(
            solve_linear_system(&a, &[1.0, 2.0]),
            Err(LearnError::SingularSystem)
        );
    }

    #[test]
    fn add_diagonal_regularises() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(0.5);
        assert_eq!(a.get(0, 0), 0.5);
        assert_eq!(a.get(1, 1), 0.5);
        assert_eq!(a.get(0, 1), 0.0);
    }

    proptest! {
        /// Solving A x = b and multiplying back recovers b for well-conditioned A.
        #[test]
        fn prop_solve_roundtrip(seed in 0u64..500, n in 1usize..6) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // Diagonally dominant matrix -> invertible and well conditioned.
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    if r != c {
                        let v: f64 = rng.gen_range(-1.0..1.0);
                        a.set(r, c, v);
                        row_sum += v.abs();
                    }
                }
                a.set(r, r, row_sum + rng.gen_range(1.0..2.0));
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let x = solve_linear_system(&a, &b).unwrap();
            let back = a.matvec(&x);
            for (bi, backi) in b.iter().zip(back.iter()) {
                prop_assert!((bi - backi).abs() < 1e-6);
            }
        }

        /// (A^T)^T = A and (AB)^T = B^T A^T on small random matrices.
        #[test]
        fn prop_transpose_product_identity(seed in 0u64..200) {
            use rand::{Rng, SeedableRng, rngs::StdRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(1..5);
            let inner = rng.gen_range(1..5);
            let cols = rng.gen_range(1..5);
            let a = Matrix::from_rows(&(0..rows).map(|_| (0..inner).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect::<Vec<_>>());
            let b = Matrix::from_rows(&(0..inner).map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect::<Vec<_>>());
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for r in 0..left.rows() {
                for c in 0..left.cols() {
                    prop_assert!((left.get(r, c) - right.get(r, c)).abs() < 1e-9);
                }
            }
        }
    }
}
