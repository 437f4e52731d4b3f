//! # isgc-bench — experiment harness reproducing the paper's evaluation
//!
//! Each quantitative figure of the paper has a binary that regenerates it
//! (see DESIGN.md for the experiment index):
//!
//! | binary | paper figure | metric |
//! |---|---|---|
//! | `fig11` | Fig. 11(a)(b) | average time per step under exponential straggler delays, n = 24 |
//! | `fig12` | Fig. 12(a–d) | recovery %, steps-to-threshold, time/step, total training time, n = 4 |
//! | `fig13` | Fig. 13(a)(b) | HR(8, c₁, 4−c₁) tradeoff: recovery and loss curves |
//! | `bounds` | §VII-A (Thms 10–11) | decoder output vs. theoretical recovery bounds |
//! | `fairness` | §IV claim | per-partition inclusion frequency uniformity |
//! | `ablation` | Fig. 3 / Theorem 12 | optimal vs. arrival-order decoding; sum-of-means vs. mean-over-recovered update |
//! | `expectation` | §VII-A | `E[α(G[W'])]`: closed form vs. enumeration vs. Monte-Carlo through the decoders |
//! | `enduring` | §I, §VIII-C (extension) | time-correlated (Markov) stragglers, every scheme on one trace |
//! | `partial` | §II (extension) | IS-GC vs. uncoded partial upload at equal deadlines |
//! | `distribution` | Thms 10–11 (extension) | exact PMF of `α(G[W'])` over all `C(n, w)` subsets |
//!
//! All ten are bit-deterministic; `run_all_experiments.sh` writes their
//! output to `results/`, which `scripts/check.sh` holds them to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plot;
pub mod table;

use isgc_ml::metrics::{mean, std_dev};
use isgc_simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc_simnet::delay::Delay;

/// A measurement aggregated over trials: mean ± standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Mean over the trials.
    pub mean: f64,
    /// Population standard deviation over the trials.
    pub std: f64,
    /// Number of trials.
    pub trials: usize,
}

impl Aggregate {
    /// Aggregates a slice of per-trial values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "aggregate of no trials");
        Self {
            mean: mean(values),
            std: std_dev(values),
            trials: values.len(),
        }
    }

    /// Aggregates an [`isgc_obs`] histogram: the moment sums a histogram
    /// carries (`sum`, `sum_squares`, `count`) are exactly what mean ±
    /// population-std needs, so the figure binaries can feed every trial
    /// into a metrics registry and aggregate from its snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn from_histogram(h: &isgc_obs::HistogramSnapshot) -> Self {
        assert!(h.count > 0, "aggregate of no trials");
        Self {
            mean: h.mean(),
            std: h.std_dev(),
            trials: h.count as usize,
        }
    }
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let precision = f.precision().unwrap_or(3);
        write!(
            f,
            "{:.prec$} ± {:.prec$}",
            self.mean,
            self.std,
            prec = precision
        )
    }
}

/// The Fig. 11 cluster: 24 workers, base compute/communication cost per
/// partition, and exponential straggler delays of the given mean injected on
/// `straggler_count` workers chosen fresh each step (the paper injects
/// delays on 12 or 24 of the 24 workers).
pub fn fig11_cluster(n: usize, mean_delay: f64, straggler_count: usize) -> ClusterConfig {
    ClusterConfig {
        n,
        compute_time_per_partition: 0.2,
        comm_time: 0.05,
        jitter: Delay::Uniform { lo: 0.0, hi: 0.02 },
        straggler_delay: Delay::Exponential { mean: mean_delay },
        stragglers: StragglerSelection::RandomEachStep(straggler_count),
    }
}

/// The Fig. 12/13 cluster: natural communication-dominated straggling — every
/// worker's upload time has an exponential tail (the paper observes "most
/// time is spent on uploading gradients to the master … stragglers are more
/// likely to be caused by communication").
pub fn cloud_cluster(n: usize) -> ClusterConfig {
    ClusterConfig {
        n,
        compute_time_per_partition: 0.05,
        comm_time: 0.1,
        jitter: Delay::Exponential { mean: 0.4 },
        straggler_delay: Delay::none(),
        stragglers: StragglerSelection::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_stats() {
        let a = Aggregate::of(&[1.0, 3.0]);
        assert_eq!(a.mean, 2.0);
        assert_eq!(a.std, 1.0);
        assert_eq!(a.trials, 2);
        assert_eq!(format!("{a:.1}"), "2.0 ± 1.0");
        assert_eq!(format!("{a}"), "2.000 ± 1.000");
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn aggregate_empty_panics() {
        let _ = Aggregate::of(&[]);
    }

    #[test]
    fn aggregate_from_histogram_matches_direct() {
        let values = [1.0, 3.0, 4.5, 0.25];
        let registry = isgc_obs::Registry::new();
        for &v in &values {
            registry.observe(
                "bench.test",
                &[],
                isgc_obs::Class::Timing,
                &isgc_obs::buckets::linear(0.0, 1.0, 6),
                v,
            );
        }
        let from_hist = Aggregate::from_histogram(&registry.histogram("bench.test", &[]).unwrap());
        let direct = Aggregate::of(&values);
        assert!((from_hist.mean - direct.mean).abs() < 1e-12);
        assert!((from_hist.std - direct.std).abs() < 1e-12);
        assert_eq!(from_hist.trials, direct.trials);
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn aggregate_from_empty_histogram_panics() {
        let registry = isgc_obs::Registry::new();
        registry.observe(
            "bench.test",
            &[],
            isgc_obs::Class::Timing,
            &isgc_obs::buckets::linear(0.0, 1.0, 2),
            0.5,
        );
        let mut h = registry.histogram("bench.test", &[]).unwrap();
        h.count = 0;
        let _ = Aggregate::from_histogram(&h);
    }

    #[test]
    fn cluster_builders_are_valid() {
        let c = fig11_cluster(24, 1.5, 12);
        assert_eq!(c.n, 24);
        assert_eq!(c.straggler_delay, Delay::Exponential { mean: 1.5 });
        let c = cloud_cluster(4);
        assert_eq!(c.n, 4);
        assert_eq!(c.jitter, Delay::Exponential { mean: 0.4 });
    }
}
