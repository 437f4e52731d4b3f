//! Linear solvers: LU with partial pivoting and exact Gauss–Jordan
//! elimination for consistent systems.
//!
//! These back classic gradient coding: the encoder solves one square LU
//! system per row of its coefficient matrix `B`, and the decoder solves the
//! consistent system `Bᵀ_{W'} a = 1` for a decoding vector `a` given the
//! coefficient rows of the non-straggling workers.

use std::error::Error;
use std::fmt;

use crate::{Matrix, Vector};

/// Error returned by the solvers in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The system matrix is singular (or numerically so) and cannot be solved.
    Singular,
    /// The (overdetermined) system has no solution: the right-hand side is
    /// not in the column space of the matrix.
    Inconsistent,
    /// The operand shapes are inconsistent with the requested operation.
    ShapeMismatch {
        /// What the solver expected, e.g. `"square matrix"`.
        expected: String,
        /// What it received, e.g. `"3x4"`.
        got: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular to working precision"),
            SolveError::Inconsistent => {
                write!(f, "system is inconsistent: rhs outside the column space")
            }
            SolveError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl Error for SolveError {}

/// Pivot magnitude below which a matrix is treated as singular.
const PIVOT_TOL: f64 = 1e-12;

/// Solves the square system `a * x = b` by LU decomposition with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`SolveError::ShapeMismatch`] if `a` is not square or `b` has the
/// wrong length, and [`SolveError::Singular`] if a pivot underflows the
/// tolerance.
///
/// # Examples
///
/// ```
/// use isgc_linalg::{lu_solve, Matrix, Vector};
///
/// # fn main() -> Result<(), isgc_linalg::SolveError> {
/// let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
/// let b = Vector::from_slice(&[5.0, 10.0]);
/// let x = lu_solve(&a, &b)?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn lu_solve(a: &Matrix, b: &Vector) -> Result<Vector, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::ShapeMismatch {
            expected: "square matrix".to_string(),
            got: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(SolveError::ShapeMismatch {
            expected: format!("rhs of length {n}"),
            got: format!("length {}", b.len()),
        });
    }

    // Working copies: `m` is factored in place, `x` starts as the rhs.
    let mut m = a.clone();
    let mut x = b.clone();

    for col in 0..n {
        // Partial pivoting: bring the largest remaining entry of this column
        // to the diagonal.
        let mut pivot_row = col;
        for r in (col + 1)..n {
            if m[(r, col)].abs() > m[(pivot_row, col)].abs() {
                pivot_row = r;
            }
        }
        if m[(pivot_row, col)].abs() < PIVOT_TOL {
            return Err(SolveError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(pivot_row, c)];
                m[(pivot_row, c)] = tmp;
            }
            let tmp = x[col];
            x[col] = x[pivot_row];
            x[pivot_row] = tmp;
        }

        // Eliminate below the pivot.
        let pivot = m[(col, col)];
        for r in (col + 1)..n {
            let factor = m[(r, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            m[(r, col)] = 0.0;
            for c in (col + 1)..n {
                let v = m[(col, c)];
                m[(r, c)] -= factor * v;
            }
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc -= m[(col, c)] * x[c];
        }
        x[col] = acc / m[(col, col)];
    }
    Ok(x)
}

/// Solves a *consistent* (possibly overdetermined or rank-deficient) system
/// `a x = b` exactly by Gauss–Jordan elimination with partial pivoting.
///
/// - Overdetermined (`rows > cols`) consistent systems return the exact
///   solution.
/// - Rank-deficient systems return *one* solution, with free variables set
///   to zero.
/// - Inconsistent systems are detected by a residual check on the eliminated
///   rows.
///
/// This is the decoder's workhorse in classic gradient coding, where the
/// system `Bᵀ_{W'} a = 1` is consistent exactly when decoding is possible.
///
/// # Errors
///
/// Returns [`SolveError::ShapeMismatch`] if `b.len() != a.rows()` and
/// [`SolveError::Inconsistent`] if no solution exists to working precision.
///
/// # Examples
///
/// ```
/// use isgc_linalg::{solve_consistent, Matrix, Vector, SolveError};
///
/// // Overdetermined but consistent: x = [2, 1].
/// let a = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
/// let b = Vector::from_slice(&[2.0, 1.0, 3.0]);
/// let x = solve_consistent(&a, &b).unwrap();
/// assert!((x[0] - 2.0).abs() < 1e-12);
///
/// // Inconsistent: detected.
/// let b_bad = Vector::from_slice(&[2.0, 1.0, 100.0]);
/// assert_eq!(solve_consistent(&a, &b_bad), Err(SolveError::Inconsistent));
/// ```
pub fn solve_consistent(a: &Matrix, b: &Vector) -> Result<Vector, SolveError> {
    let (m, k) = (a.rows(), a.cols());
    if b.len() != m {
        return Err(SolveError::ShapeMismatch {
            expected: format!("rhs of length {m}"),
            got: format!("length {}", b.len()),
        });
    }
    // Augmented matrix [a | b].
    let mut aug = Matrix::from_fn(m, k + 1, |r, c| if c < k { a[(r, c)] } else { b[r] });
    let scale = a
        .as_slice()
        .iter()
        .fold(1.0_f64, |s, x| s.max(x.abs()))
        .max(b.norm_inf());
    let tol = 1e-10 * scale;

    let mut pivot_rows: Vec<(usize, usize)> = Vec::new(); // (row, col)
    let mut row = 0usize;
    for col in 0..k {
        if row >= m {
            break;
        }
        // Partial pivoting within the remaining rows.
        let mut best = row;
        for r in (row + 1)..m {
            if aug[(r, col)].abs() > aug[(best, col)].abs() {
                best = r;
            }
        }
        if aug[(best, col)].abs() <= tol {
            continue; // free column
        }
        if best != row {
            for c in 0..=k {
                let tmp = aug[(row, c)];
                aug[(row, c)] = aug[(best, c)];
                aug[(best, c)] = tmp;
            }
        }
        // Normalize and eliminate everywhere else (Gauss–Jordan).
        let pivot = aug[(row, col)];
        for c in col..=k {
            aug[(row, c)] /= pivot;
        }
        for r in 0..m {
            if r == row {
                continue;
            }
            let factor = aug[(r, col)];
            if factor == 0.0 {
                continue;
            }
            for c in col..=k {
                let v = aug[(row, c)];
                aug[(r, c)] -= factor * v;
            }
        }
        pivot_rows.push((row, col));
        row += 1;
    }
    // Consistency: every fully-eliminated row must have (near-)zero rhs.
    for r in row..m {
        if aug[(r, k)].abs() > 1e-7 * scale.max(1.0) {
            return Err(SolveError::Inconsistent);
        }
    }
    let mut x = Vector::zeros(k);
    for (r, c) in pivot_rows {
        x[c] = aug[(r, k)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solves_diagonal_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
        let b = Vector::from_slice(&[2.0, 8.0]);
        let x = lu_solve(&a, &b).unwrap();
        assert_eq!(x.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn solves_with_pivoting_required() {
        // Leading zero forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        let x = lu_solve(&a, &b).unwrap();
        assert_eq!(x.as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(lu_solve(&a, &b), Err(SolveError::Singular));
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            lu_solve(&a, &Vector::zeros(2)),
            Err(SolveError::ShapeMismatch { .. })
        ));
        let sq = Matrix::zeros(2, 2);
        assert!(matches!(
            lu_solve(&sq, &Vector::zeros(3)),
            Err(SolveError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 12] {
            let a = Matrix::random_normal(n, n, 0.0, 1.0, &mut rng);
            let x_true = Vector::random_normal(n, 0.0, 1.0, &mut rng);
            let b = a.matvec(&x_true);
            let x = lu_solve(&a, &b).unwrap();
            let err = (&x - &x_true).norm_inf();
            assert!(err < 1e-8, "n={n} err={err}");
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = SolveError::Singular;
        assert!(e.to_string().contains("singular"));
        let e = SolveError::ShapeMismatch {
            expected: "square matrix".into(),
            got: "2x3".into(),
        };
        assert!(e.to_string().contains("2x3"));
    }

    #[test]
    fn solve_consistent_square_matches_lu() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [1usize, 3, 7] {
            let a = Matrix::random_normal(n, n, 0.0, 1.0, &mut rng);
            let x_true = Vector::random_normal(n, 0.0, 1.0, &mut rng);
            let b = a.matvec(&x_true);
            let x = solve_consistent(&a, &b).unwrap();
            assert!((&x - &x_true).norm_inf() < 1e-8, "n={n}");
        }
    }

    #[test]
    fn solve_consistent_overdetermined_exact() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = Matrix::random_normal(8, 3, 0.0, 1.0, &mut rng);
        let x_true = Vector::random_normal(3, 0.0, 1.0, &mut rng);
        let b = a.matvec(&x_true);
        let x = solve_consistent(&a, &b).unwrap();
        assert!((&x - &x_true).norm_inf() < 1e-9);
    }

    #[test]
    fn solve_consistent_detects_inconsistency() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let b = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(solve_consistent(&a, &b), Err(SolveError::Inconsistent));
    }

    #[test]
    fn solve_consistent_rank_deficient_free_vars_zero() {
        // Column 1 is all zeros: free variable, must come back 0.
        let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 4.0, 0.0]);
        let b = Vector::from_slice(&[2.0, 4.0]);
        let x = solve_consistent(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert_eq!(x[1], 0.0);
    }

    #[test]
    fn solve_consistent_duplicate_columns() {
        // Rank-deficient via duplicated columns; any consistent solution ok.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 6.0]);
        let x = solve_consistent(&a, &b).unwrap();
        let r = (&a.matvec(&x) - &b).norm_inf();
        assert!(r < 1e-12, "residual {r}");
    }

    #[test]
    fn solve_consistent_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        assert!(matches!(
            solve_consistent(&a, &Vector::zeros(3)),
            Err(SolveError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solves_1x1() {
        let a = Matrix::from_vec(1, 1, vec![4.0]);
        let b = Vector::from_slice(&[8.0]);
        assert_eq!(lu_solve(&a, &b).unwrap().as_slice(), &[2.0]);
    }
}
