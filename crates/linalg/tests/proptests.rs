//! Property-based tests for the linear-algebra kernels.

use isgc_linalg::{log_sum_exp, lu_solve, softmax_in_place, solve_consistent, Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a finite f64 in a tame range.
fn tame() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

/// Strategy: vector of a given length.
fn vector(len: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(tame(), len).prop_map(Vector::from)
}

/// Strategy: rows x cols matrix.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(tame(), rows * cols).prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dot_is_symmetric_and_cauchy_schwarz(a in vector(6), b in vector(6)) {
        prop_assert_eq!(a.dot(&b), b.dot(&a));
        prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-6);
    }

    #[test]
    fn axpy_matches_operator_form(a in vector(5), b in vector(5), alpha in tame()) {
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let via_ops = &a + &b.scaled(alpha);
        prop_assert!((&via_axpy - &via_ops).norm_inf() < 1e-9);
    }

    #[test]
    fn norms_are_ordered(a in vector(8)) {
        // ||x||_inf <= ||x||_2 <= ||x||_1 for any vector.
        prop_assert!(a.norm_inf() <= a.norm() + 1e-9);
        prop_assert!(a.norm() <= a.norm_l1() + 1e-9);
    }

    #[test]
    fn matvec_is_linear(m in matrix(4, 3), x in vector(3), y in vector(3), alpha in tame()) {
        let lhs = m.matvec(&(&x + &y.scaled(alpha)));
        let mut rhs = m.matvec(&x);
        rhs.axpy(alpha, &m.matvec(&y));
        prop_assert!((&lhs - &rhs).norm_inf() < 1e-6 * (1.0 + rhs.norm_inf()));
    }

    #[test]
    fn transpose_is_involutive(m in matrix(5, 3)) {
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_swaps_matvec(m in matrix(4, 3), x in vector(3), y in vector(4)) {
        // yᵀ (M x) == (Mᵀ y)ᵀ x
        let lhs = y.dot(&m.matvec(&x));
        let rhs = m.matvec_transposed(&y).dot(&x);
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!((lhs - rhs).abs() / scale < 1e-9);
    }

    #[test]
    fn matmul_associates_with_matvec(a in matrix(3, 4), b in matrix(4, 2), x in vector(2)) {
        let lhs = a.matmul(&b).matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        let scale = 1.0 + rhs.norm_inf();
        prop_assert!((&lhs - &rhs).norm_inf() / scale < 1e-7);
    }

    #[test]
    fn lu_solve_roundtrips_well_conditioned(x_true in vector(5), diag in prop::collection::vec(1.0..10.0f64, 5)) {
        // Diagonally dominant matrix: guaranteed solvable.
        let mut m = Matrix::from_fn(5, 5, |r, c| if r == c { 0.0 } else { 0.1 * ((r + c) as f64).sin() });
        for i in 0..5 {
            m[(i, i)] = diag[i] + 1.0;
        }
        let b = m.matvec(&x_true);
        let x = lu_solve(&m, &b).unwrap();
        prop_assert!((&x - &x_true).norm_inf() < 1e-6 * (1.0 + x_true.norm_inf()));
    }

    #[test]
    fn solve_consistent_solves_constructed_systems(x_true in vector(3), rows in 3usize..8) {
        let m = Matrix::from_fn(rows, 3, |r, c| ((r * 3 + c) as f64 * 0.7).cos() + if r % 3 == c { 2.0 } else { 0.0 });
        let b = m.matvec(&x_true);
        let x = solve_consistent(&m, &b).unwrap();
        let residual = (&m.matvec(&x) - &b).norm_inf();
        prop_assert!(residual < 1e-6 * (1.0 + b.norm_inf()), "residual {residual}");
    }

    #[test]
    fn softmax_is_shift_invariant(mut v in prop::collection::vec(tame(), 1..6), shift in tame()) {
        let mut shifted: Vec<f64> = v.iter().map(|x| x + shift).collect();
        softmax_in_place(&mut v);
        softmax_in_place(&mut shifted);
        for (a, b) in v.iter().zip(&shifted) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        prop_assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_bounds(v in prop::collection::vec(tame(), 1..6)) {
        let m = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = log_sum_exp(&v);
        prop_assert!(lse >= m - 1e-12);
        prop_assert!(lse <= m + (v.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn select_rows_preserves_content(m in matrix(6, 3), idx in prop::collection::vec(0usize..6, 1..6)) {
        let s = m.select_rows(&idx);
        prop_assert_eq!(s.rows(), idx.len());
        for (r, &src) in idx.iter().enumerate() {
            prop_assert_eq!(s.row(r), m.row(src));
        }
    }
}
