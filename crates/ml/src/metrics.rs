//! Light statistics helpers.

/// Mean of a sample; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a sample; 0 for fewer than two points.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on sorted data.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be within [0, 1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }
}
