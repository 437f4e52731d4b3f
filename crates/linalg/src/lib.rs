//! # isgc-linalg
//!
//! A small, dependency-light dense linear-algebra substrate used throughout the
//! IS-GC reproduction. It provides exactly what distributed-SGD experiments
//! need — column vectors, row-major matrices, BLAS-1/2/3-style kernels, an LU
//! solver, and an exact solver for consistent (possibly rank-deficient)
//! systems — implemented from scratch in safe Rust.
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
//! let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
//! let x = Vector::from_slice(&[1.0, 0.5]);
//! let y = a.matvec(&x);
//! assert_eq!(y.as_slice(), &[2.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod matrix;
mod solve;
mod special;
mod vector;

pub use matrix::Matrix;
pub use solve::{lu_solve, solve_consistent, SolveError};
pub use special::{log_sum_exp, softmax_in_place};
pub use vector::Vector;
