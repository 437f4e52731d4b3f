//! The simulated cluster: samples per-worker arrival times and applies the
//! master's wait policy.

use isgc_core::WorkerSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::delay::Delay;
use crate::policy::WaitPolicy;

/// Which workers suffer the extra straggler delay.
#[derive(Debug, Clone, PartialEq)]
pub enum StragglerSelection {
    /// Nobody straggles (beyond the shared jitter).
    None,
    /// A fixed set of workers straggles every step.
    Fixed(Vec<usize>),
    /// A fresh uniformly random set of this size straggles each step (the
    /// Fig. 11 setup: delays injected on 12 or 24 of the 24 workers).
    RandomEachStep(usize),
    /// Every worker independently straggles with this probability each step.
    Probabilistic(f64),
}

/// Static description of the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of workers.
    pub n: usize,
    /// Time to compute the gradients of **one** partition's mini-batch; a
    /// worker holding `c` partitions pays `c ×` this (the paper's observed
    /// per-step cost of higher `c`).
    pub compute_time_per_partition: f64,
    /// Fixed time to upload the (single) coded gradient to the master.
    pub comm_time: f64,
    /// Noise added to every worker every step.
    pub jitter: Delay,
    /// Extra delay added to straggling workers.
    pub straggler_delay: Delay,
    /// Which workers straggle.
    pub stragglers: StragglerSelection,
}

impl ClusterConfig {
    /// A minimal homogeneous cluster with no stragglers (useful in tests).
    pub fn uniform(n: usize, compute_time_per_partition: f64, comm_time: f64) -> Self {
        Self {
            n,
            compute_time_per_partition,
            comm_time,
            jitter: Delay::none(),
            straggler_delay: Delay::none(),
            stragglers: StragglerSelection::None,
        }
    }
}

/// The result of one simulated step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Arrival time of each worker's coded gradient at the master.
    pub arrivals: Vec<f64>,
    /// The workers the master accepted (`W'`).
    pub available: WorkerSet,
    /// Wall-clock duration of the step.
    pub duration: f64,
}

/// A stateful cluster simulator: owns the RNG stream for arrival sampling.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
    rng: StdRng,
}

impl ClusterSim {
    /// Creates a simulator with its own deterministic RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the config has `n == 0`, negative base times, or a fixed
    /// straggler index out of range.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        assert!(config.n > 0, "cluster must have workers");
        assert!(
            config.compute_time_per_partition >= 0.0 && config.comm_time >= 0.0,
            "negative base times"
        );
        if let StragglerSelection::Fixed(ids) = &config.stragglers {
            assert!(
                ids.iter().all(|&i| i < config.n),
                "straggler index out of range"
            );
        }
        if let StragglerSelection::RandomEachStep(k) = &config.stragglers {
            assert!(*k <= config.n, "more stragglers than workers");
        }
        if let StragglerSelection::Probabilistic(p) = &config.stragglers {
            assert!((0.0..=1.0).contains(p), "probability out of range");
        }
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples one step's arrival times for workers holding `c` partitions
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn sample_arrivals(&mut self, c: usize) -> Vec<f64> {
        assert!(c > 0, "c must be positive");
        let n = self.config.n;
        let straggling: WorkerSet = match &self.config.stragglers {
            StragglerSelection::None => WorkerSet::empty(n),
            StragglerSelection::Fixed(ids) => WorkerSet::from_indices(n, ids.iter().copied()),
            StragglerSelection::RandomEachStep(k) => WorkerSet::random_subset(n, *k, &mut self.rng),
            StragglerSelection::Probabilistic(p) => {
                let mut s = WorkerSet::empty(n);
                for i in 0..n {
                    if rand::Rng::random::<f64>(&mut self.rng) < *p {
                        s.insert(i);
                    }
                }
                s
            }
        };
        (0..n)
            .map(|w| {
                let base =
                    self.config.compute_time_per_partition * c as f64 + self.config.comm_time;
                let jitter = self.config.jitter.sample(w, &mut self.rng);
                let straggle = if straggling.contains(w) {
                    self.config.straggler_delay.sample(w, &mut self.rng)
                } else {
                    0.0
                };
                base + jitter + straggle
            })
            .collect()
    }

    /// Runs one step: samples arrivals and applies `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or the policy is inconsistent with `n` (see
    /// [`WaitPolicy::select`]).
    pub fn run_step(&mut self, c: usize, policy: &WaitPolicy, step: usize) -> StepOutcome {
        let arrivals = self.sample_arrivals(c);
        let outcome = policy.select(&arrivals, step);
        StepOutcome {
            arrivals,
            available: outcome.available,
            duration: outcome.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cluster_is_deterministic() {
        let mut sim = ClusterSim::new(ClusterConfig::uniform(4, 0.1, 0.05), 1);
        let arrivals = sim.sample_arrivals(2);
        assert_eq!(arrivals, vec![0.25; 4]);
    }

    #[test]
    fn compute_time_scales_with_c() {
        let mut sim = ClusterSim::new(ClusterConfig::uniform(2, 0.1, 0.0), 1);
        let a1 = sim.sample_arrivals(1);
        let a3 = sim.sample_arrivals(3);
        assert!((a1[0] - 0.1).abs() < 1e-12);
        assert!((a3[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fixed_stragglers_are_slower() {
        let config = ClusterConfig {
            n: 4,
            compute_time_per_partition: 0.1,
            comm_time: 0.0,
            jitter: Delay::none(),
            straggler_delay: Delay::Constant(5.0),
            stragglers: StragglerSelection::Fixed(vec![1, 3]),
        };
        let mut sim = ClusterSim::new(config, 2);
        let arrivals = sim.sample_arrivals(1);
        assert!((arrivals[0] - 0.1).abs() < 1e-12);
        assert!((arrivals[1] - 5.1).abs() < 1e-12);
        assert!((arrivals[2] - 0.1).abs() < 1e-12);
        assert!((arrivals[3] - 5.1).abs() < 1e-12);
    }

    #[test]
    fn random_each_step_varies_membership() {
        let config = ClusterConfig {
            n: 8,
            compute_time_per_partition: 0.0,
            comm_time: 0.0,
            jitter: Delay::none(),
            straggler_delay: Delay::Constant(1.0),
            stragglers: StragglerSelection::RandomEachStep(4),
        };
        let mut sim = ClusterSim::new(config, 3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..20 {
            let slow: Vec<usize> = sim
                .sample_arrivals(1)
                .iter()
                .enumerate()
                .filter(|(_, &t)| t > 0.5)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(slow.len(), 4);
            distinct.insert(slow);
        }
        assert!(distinct.len() > 1, "straggler set never changed");
    }

    #[test]
    fn probabilistic_stragglers_hit_roughly_p() {
        let config = ClusterConfig {
            n: 10,
            compute_time_per_partition: 0.0,
            comm_time: 0.0,
            jitter: Delay::none(),
            straggler_delay: Delay::Constant(1.0),
            stragglers: StragglerSelection::Probabilistic(0.3),
        };
        let mut sim = ClusterSim::new(config, 4);
        let mut slow_total = 0usize;
        let steps = 2000;
        for _ in 0..steps {
            slow_total += sim.sample_arrivals(1).iter().filter(|&&t| t > 0.5).count();
        }
        let rate = slow_total as f64 / (steps * 10) as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn run_step_respects_policy() {
        let config = ClusterConfig {
            n: 6,
            compute_time_per_partition: 0.1,
            comm_time: 0.0,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.01 },
            straggler_delay: Delay::Exponential { mean: 2.0 },
            stragglers: StragglerSelection::Fixed(vec![0]),
        };
        let mut sim = ClusterSim::new(config, 5);
        let out = sim.run_step(2, &WaitPolicy::WaitForCount(5), 0);
        assert_eq!(out.available.len(), 5);
        assert_eq!(out.arrivals.len(), 6);
        assert!(out.duration > 0.0);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let config = ClusterConfig {
            n: 4,
            compute_time_per_partition: 0.1,
            comm_time: 0.0,
            jitter: Delay::Exponential { mean: 0.2 },
            straggler_delay: Delay::none(),
            stragglers: StragglerSelection::None,
        };
        let mut a = ClusterSim::new(config.clone(), 9);
        let mut b = ClusterSim::new(config, 9);
        for _ in 0..10 {
            assert_eq!(a.sample_arrivals(1), b.sample_arrivals(1));
        }
    }

    #[test]
    #[should_panic(expected = "straggler index out of range")]
    fn bad_fixed_straggler_panics() {
        let config = ClusterConfig {
            n: 2,
            compute_time_per_partition: 0.1,
            comm_time: 0.0,
            jitter: Delay::none(),
            straggler_delay: Delay::none(),
            stragglers: StragglerSelection::Fixed(vec![2]),
        };
        let _ = ClusterSim::new(config, 0);
    }
}
