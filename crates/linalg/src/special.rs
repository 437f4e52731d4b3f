//! Numerically stable special functions used by the ML models.

/// Numerically stable `log(Σ exp(xᵢ))`.
///
/// Returns `-inf` for an empty slice (the sum of zero exponentials).
///
/// # Examples
///
/// ```
/// let v = [1000.0, 1000.0];
/// let l = isgc_linalg::log_sum_exp(&v);
/// assert!((l - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
/// ```
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + sum.ln()
}

/// Transforms `xs` into softmax probabilities in place, numerically stably.
///
/// After the call the entries are non-negative and sum to 1 (for non-empty
/// input).
///
/// # Examples
///
/// ```
/// let mut v = [1.0, 1.0, 1.0];
/// isgc_linalg::softmax_in_place(&mut v);
/// assert!((v[0] - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn softmax_in_place(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let xs: [f64; 3] = [0.1, -0.4, 1.2];
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_edge_cases() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[5.0]), 5.0);
        assert!(log_sum_exp(&[1e308, 1e308]).is_finite());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = [1.0, 2.0, 3.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[0] < v[1] && v[1] < v[2]);
    }

    #[test]
    fn softmax_large_inputs_stable() {
        let mut v = [1e300, 1e300, 0.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert_eq!(v[2], 0.0);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: [f64; 0] = [];
        softmax_in_place(&mut v);
    }
}
