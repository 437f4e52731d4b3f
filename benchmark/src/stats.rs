//! Order statistics the benchmark reports: medians, interquartile means,
//! window throughput, and
//! percentiles gated by the "at least ten samples beyond" rule.

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts a sample set ascending (timings are never NaN; a NaN would be a
/// harness bug and panics here rather than poisoning a reported number).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    samples
}

/// Median of an ascending, non-empty sample set (mean of the two middle
/// samples when the count is even).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile mean of an ascending, non-empty sample set: the mean of
/// what is left after dropping the lowest and the highest quarter (rounded
/// down). How the benchmark combines per-window readings: unlike a mean it
/// ignores a few stalled windows, and unlike a median it does not jump from
/// one level to the other when a host that alternates between two speeds
/// spends a little more or a little less than half the run at one of them.
pub fn midmean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "midmean of no samples");
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The nearest-rank `q`-percentile of an ascending sample set, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie strictly beyond it — a tail
/// read off fewer samples is an anecdote, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "percentile {q} outside [0, 1)");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    let index = rank.max(1) - 1;
    (sorted.len() > index + TAIL_SAMPLES).then(|| sorted[index])
}

/// `q`-percentile if it has its ten samples beyond, else the highest
/// percentile that does (never below the median); returns the value and the
/// percentile actually used.
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    if let Some(value) = percentile(sorted, q) {
        return (value, q);
    }
    if sorted.len() > TAIL_SAMPLES {
        let index = sorted.len() - TAIL_SAMPLES - 1;
        let used = (index + 1) as f64 / sorted.len() as f64;
        if used > 0.5 {
            return (sorted[index], used);
        }
    }
    (median(sorted), 0.5)
}

/// One measurement window: steps completed and the wall time they took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Steps that completed inside the window.
    pub steps: u64,
    /// Wall-clock length of the window in seconds.
    pub seconds: f64,
}

impl Window {
    /// Completed steps per second of wall time.
    pub fn rate(&self) -> f64 {
        self.steps as f64 / self.seconds
    }
}

/// Interquartile mean, minimum and maximum of the per-window rates.
pub fn window_rates(windows: &[Window]) -> (f64, f64, f64) {
    let rates = sorted(windows.iter().map(Window::rate).collect());
    (midmean(&rates), rates[0], rates[rates.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 10.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), 3.0);
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[7.0]), 7.0);
        // Fewer than four samples: nothing to drop, the plain mean.
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        // Eight samples: the outer two at each end go.
        assert_eq!(
            midmean(&[0.0, 0.0, 10.0, 10.0, 20.0, 20.0, 900.0, 900.0]),
            15.0
        );
        // Two speeds, 5 windows at one and 7 at the other: between the two,
        // where a median would read 20.
        let mixed = [
            10.0, 10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0, 20.0,
        ];
        assert!((midmean(&mixed) - 100.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn window_midmean_ignores_one_slow_window() {
        let windows = [
            Window {
                steps: 100,
                seconds: 2.0,
            },
            Window {
                steps: 10,
                seconds: 2.0,
            },
            Window {
                steps: 120,
                seconds: 2.0,
            },
            Window {
                steps: 100,
                seconds: 2.0,
            },
        ];
        let (middle, min, max) = window_rates(&windows);
        assert_eq!(middle, 50.0);
        assert_eq!(min, 5.0);
        assert_eq!(max, 60.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        // p95 would leave only five beyond.
        assert_eq!(percentile(&hundred, 0.95), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.90), None);
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, used) = tail(&fifty, 0.99);
        // 50 samples support at most p80: the 40th leaves exactly ten beyond.
        assert_eq!(used, 0.8);
        assert_eq!(value, 40.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand, 0.99), (990.0, 0.99));
        // Fewer than eleven samples: the median is all that can be said.
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(tail(&five, 0.9), (3.0, 0.5));
    }
}
