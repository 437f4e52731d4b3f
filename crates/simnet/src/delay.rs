//! Randomized delay models for worker completion times.
//!
//! The paper's simulation (§VIII-B) injects delays "generated randomly
//! following an exponential distribution, based on measurements from real
//! cloud workloads". [`Delay`] provides that plus the other shapes used in
//! the wider straggler literature.

use rand::Rng;

/// A distribution over non-negative delays (seconds).
///
/// Composable: [`Delay::Sum`] adds two delays, [`Delay::Bernoulli`] applies
/// a delay only with some probability (intermittent stragglers), and
/// [`Delay::PerWorker`] gives each worker its own model (heterogeneous
/// clusters / the paper's "enduring straggler").
#[derive(Debug, Clone, PartialEq)]
pub enum Delay {
    /// Always exactly this value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Exponential with the given mean — the paper's straggler model.
    Exponential {
        /// Mean delay (= 1/rate).
        mean: f64,
    },
    /// `shift + Exponential(mean)`: the shifted-exponential runtime model
    /// common in coded-computing analyses.
    ShiftedExponential {
        /// Deterministic minimum delay.
        shift: f64,
        /// Mean of the exponential tail.
        mean: f64,
    },
    /// Pareto (heavy-tailed) with minimum `scale` and tail index `shape`.
    Pareto {
        /// Minimum value (> 0).
        scale: f64,
        /// Tail index (> 0); smaller = heavier tail.
        shape: f64,
    },
    /// With probability `p`, sample `delay`; otherwise 0.
    Bernoulli {
        /// Probability the delay strikes.
        p: f64,
        /// The delay when it strikes.
        delay: Box<Delay>,
    },
    /// Sum of two independent delays.
    Sum(Box<Delay>, Box<Delay>),
    /// Worker `i` uses `models[i % models.len()]`.
    PerWorker(Vec<Delay>),
}

impl Delay {
    /// Zero delay.
    pub fn none() -> Self {
        Delay::Constant(0.0)
    }

    /// Samples a delay for `worker`.
    ///
    /// Only [`Delay::PerWorker`] inspects the worker index; all other
    /// variants are i.i.d. across workers.
    ///
    /// # Panics
    ///
    /// Panics if the variant's parameters are invalid (negative constant,
    /// `hi < lo`, non-positive mean/scale/shape, `p` outside `[0, 1]`, or an
    /// empty `PerWorker` list).
    pub fn sample<R: Rng + ?Sized>(&self, worker: usize, rng: &mut R) -> f64 {
        match self {
            Delay::Constant(v) => {
                assert!(*v >= 0.0, "negative constant delay");
                *v
            }
            Delay::Uniform { lo, hi } => {
                assert!(*lo >= 0.0 && hi >= lo, "invalid uniform bounds");
                if hi == lo {
                    *lo
                } else {
                    rng.random_range(*lo..*hi)
                }
            }
            Delay::Exponential { mean } => {
                assert!(*mean > 0.0, "exponential mean must be positive");
                // Inverse CDF; 1 - u in (0, 1] keeps ln finite.
                let u: f64 = rng.random();
                -mean * (1.0 - u).ln()
            }
            Delay::ShiftedExponential { shift, mean } => {
                assert!(*shift >= 0.0, "negative shift");
                shift + Delay::Exponential { mean: *mean }.sample(worker, rng)
            }
            Delay::Pareto { scale, shape } => {
                assert!(*scale > 0.0 && *shape > 0.0, "invalid Pareto parameters");
                let u: f64 = rng.random();
                scale / (1.0 - u).powf(1.0 / shape)
            }
            Delay::Bernoulli { p, delay } => {
                assert!((0.0..=1.0).contains(p), "p must be within [0, 1]");
                if rng.random::<f64>() < *p {
                    delay.sample(worker, rng)
                } else {
                    0.0
                }
            }
            Delay::Sum(a, b) => a.sample(worker, rng) + b.sample(worker, rng),
            Delay::PerWorker(models) => {
                assert!(!models.is_empty(), "PerWorker needs at least one model");
                models[worker % models.len()].sample(worker, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean(d: &Delay, trials: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..trials).map(|_| d.sample(0, &mut rng)).sum::<f64>() / trials as f64
    }

    #[test]
    fn constant_and_uniform() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Delay::Constant(1.5).sample(0, &mut rng), 1.5);
        assert_eq!(Delay::none().sample(3, &mut rng), 0.0);
        let u = Delay::Uniform { lo: 1.0, hi: 2.0 };
        for _ in 0..100 {
            let v = u.sample(0, &mut rng);
            assert!((1.0..2.0).contains(&v));
        }
        // Degenerate uniform.
        assert_eq!(Delay::Uniform { lo: 3.0, hi: 3.0 }.sample(0, &mut rng), 3.0);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Delay::Exponential { mean: 1.5 };
        let m = empirical_mean(&d, 40_000, 1);
        assert!((m - 1.5).abs() < 0.05, "m={m}");
    }

    #[test]
    fn shifted_exponential_floor() {
        let d = Delay::ShiftedExponential {
            shift: 2.0,
            mean: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            assert!(d.sample(0, &mut rng) >= 2.0);
        }
    }

    #[test]
    fn pareto_minimum_and_mean() {
        let d = Delay::Pareto {
            scale: 1.0,
            shape: 3.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            assert!(d.sample(0, &mut rng) >= 1.0);
        }
        let m = empirical_mean(&d, 60_000, 4);
        assert!((m - 1.5).abs() < 0.1, "m={m}");
    }

    #[test]
    fn bernoulli_scales_mean() {
        let d = Delay::Bernoulli {
            p: 0.25,
            delay: Box::new(Delay::Constant(4.0)),
        };
        let m = empirical_mean(&d, 40_000, 5);
        assert!((m - 1.0).abs() < 0.1, "m={m}");
    }

    #[test]
    fn sum_composes() {
        let d = Delay::Sum(
            Box::new(Delay::Constant(1.0)),
            Box::new(Delay::Exponential { mean: 2.0 }),
        );
        let mut rng = StdRng::seed_from_u64(6);
        assert!(d.sample(0, &mut rng) >= 1.0);
    }

    #[test]
    fn per_worker_selects_by_index() {
        let d = Delay::PerWorker(vec![Delay::Constant(1.0), Delay::Constant(9.0)]);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(d.sample(0, &mut rng), 1.0);
        assert_eq!(d.sample(1, &mut rng), 9.0);
        assert_eq!(d.sample(2, &mut rng), 1.0); // wraps
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let d = Delay::Exponential { mean: 1.0 };
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(0, &mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(0, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn invalid_exponential_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Delay::Exponential { mean: 0.0 }.sample(0, &mut rng);
    }
}
