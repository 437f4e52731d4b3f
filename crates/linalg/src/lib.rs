//! # isgc-linalg
//!
//! A small, dependency-light dense linear-algebra substrate used throughout the
//! IS-GC reproduction. It provides exactly what distributed-SGD experiments
//! need — column vectors, row-major matrices, BLAS-1/2/3-style kernels, an LU
//! solver, and least squares — implemented from scratch in safe Rust.
//!
//! The crate deliberately stays minimal: `f64` only, no views/strides, no
//! explicit SIMD. The numeric hot paths (codeword aggregation, the SGD
//! update, per-sample dots) run through the blocked kernels in [`kernels`],
//! which pin the repo-wide canonical reduction order; everything else
//! favors clarity over raw speed.
//!
//! # Examples
//!
//! ```
//! use isgc_linalg::{Matrix, Vector};
//!
//! let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
//! let x = Vector::from_slice(&[1.0, 0.5]);
//! let y = a.matvec(&x);
//! assert_eq!(y.as_slice(), &[2.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod matrix;
mod qr;
mod solve;
mod special;
mod vector;

pub use matrix::Matrix;
pub use qr::{qr_least_squares, Qr};
pub use solve::{least_squares, lu_solve, solve_consistent, SolveError};
pub use special::{log_sum_exp, softmax_in_place};
pub use vector::Vector;

/// Absolute tolerance used by the crate's own tests when comparing floats.
pub const TEST_EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within `tol` of each other.
///
/// Handles exact equality (including infinities) first so that comparing
/// identical extreme values does not produce a `NaN` difference.
///
/// # Examples
///
/// ```
/// assert!(isgc_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!isgc_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(0.0, 0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + 1e-10, 1e-9));
        assert!(!approx_eq(1.0, 2.0, 0.5));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-9));
    }
}
