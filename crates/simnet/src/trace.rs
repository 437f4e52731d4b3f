//! Trace-driven straggler behavior.
//!
//! The paper injects delays "based on the measurements from real cloud
//! workloads" — real stragglers are *time-correlated*: a worker that is slow
//! now tends to stay slow (hot node, noisy neighbor, failing disk). This
//! module provides
//!
//! - [`StragglerTrace`]: an explicit per-step, per-worker delay matrix that
//!   can be loaded from recorded measurements or generated synthetically;
//! - [`MarkovStragglerModel`]: a two-state (fast/slow) Markov chain per
//!   worker, the standard synthetic model for correlated stragglers;
//! - [`TraceClusterSim`]: a drop-in arrival sampler driven by a trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::StepOutcome;
use crate::delay::Delay;
use crate::policy::WaitPolicy;

/// A recorded (or synthesized) matrix of per-step, per-worker delays.
///
/// `delay(step, worker)` wraps around in `step`, so a finite trace can drive
/// arbitrarily long simulations.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerTrace {
    n: usize,
    /// Row-major: `rows[step][worker]`.
    rows: Vec<Vec<f64>>,
}

impl StragglerTrace {
    /// Wraps an explicit delay matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, ragged, or contains a negative or
    /// non-finite delay.
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "trace must contain at least one step");
        let n = rows[0].len();
        assert!(n > 0, "trace must cover at least one worker");
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "trace row {s} has wrong width");
            for (w, &d) in row.iter().enumerate() {
                assert!(
                    d.is_finite() && d >= 0.0,
                    "invalid delay {d} at step {s}, worker {w}"
                );
            }
        }
        Self { n, rows }
    }

    /// Number of workers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded steps (before wrap-around).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the trace has no steps (impossible via
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The delay of `worker` at `step` (wrapping).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= n`.
    pub fn delay(&self, step: usize, worker: usize) -> f64 {
        assert!(worker < self.n, "worker {worker} outside 0..{}", self.n);
        self.rows[step % self.rows.len()][worker]
    }

    /// Parses a trace from CSV text: one step per line, one comma-separated
    /// delay per worker; `#`-comments and blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line (non-numeric,
    /// negative, ragged, or no data).
    ///
    /// # Examples
    ///
    /// ```
    /// use isgc_simnet::trace::StragglerTrace;
    ///
    /// let t = StragglerTrace::from_csv_str("0.0, 1.5\n2.0, 0.0\n").unwrap();
    /// assert_eq!(t.n(), 2);
    /// assert_eq!(t.delay(0, 1), 1.5);
    /// ```
    pub fn from_csv_str(csv: &str) -> Result<Self, String> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Result<Vec<f64>, _> =
                line.split(',').map(|f| f.trim().parse::<f64>()).collect();
            let fields = fields.map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if fields.iter().any(|&d| !d.is_finite() || d < 0.0) {
                return Err(format!("line {}: delays must be non-negative", lineno + 1));
            }
            if let Some(first) = rows.first() {
                if fields.len() != first.len() {
                    return Err(format!(
                        "line {}: expected {} workers, got {}",
                        lineno + 1,
                        first.len(),
                        fields.len()
                    ));
                }
            }
            rows.push(fields);
        }
        if rows.is_empty() {
            return Err("no data rows".to_string());
        }
        Ok(Self::new(rows))
    }

    /// Serializes the trace to CSV, the inverse of
    /// [`StragglerTrace::from_csv_str`].
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(f64::to_string).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Fraction of (step, worker) cells whose delay exceeds `threshold` —
    /// a quick straggling-rate summary of the trace.
    pub fn straggle_rate(&self, threshold: f64) -> f64 {
        let total = self.rows.len() * self.n;
        let slow = self
            .rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|&&d| d > threshold)
            .count();
        slow as f64 / total as f64
    }
}

/// A per-worker two-state Markov chain: each step a worker is either *fast*
/// (delay drawn from `fast`) or *slow* (delay drawn from `slow`), with
/// transition probabilities `p_fast_to_slow` and `p_slow_to_fast`.
///
/// Small `p_slow_to_fast` produces the *enduring* stragglers of the paper's
/// §VIII-C anecdote; `p_fast_to_slow = p_slow_to_fast` degenerates to i.i.d.
/// Bernoulli straggling.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovStragglerModel {
    /// Number of workers.
    pub n: usize,
    /// Delay distribution in the fast state.
    pub fast: Delay,
    /// Delay distribution in the slow state.
    pub slow: Delay,
    /// P(fast → slow) per step.
    pub p_fast_to_slow: f64,
    /// P(slow → fast) per step.
    pub p_slow_to_fast: f64,
}

impl MarkovStragglerModel {
    /// Stationary probability of the slow state,
    /// `p_fs / (p_fs + p_sf)` (0 when both transition rates are 0).
    pub fn stationary_slow_fraction(&self) -> f64 {
        let denom = self.p_fast_to_slow + self.p_slow_to_fast;
        if denom == 0.0 {
            0.0
        } else {
            self.p_fast_to_slow / denom
        }
    }

    /// Generates a trace of `steps` steps; workers start fast.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, `n == 0`, or a probability is outside
    /// `[0, 1]`.
    pub fn generate(&self, steps: usize, seed: u64) -> StragglerTrace {
        assert!(steps > 0, "steps must be positive");
        assert!(self.n > 0, "n must be positive");
        assert!(
            (0.0..=1.0).contains(&self.p_fast_to_slow)
                && (0.0..=1.0).contains(&self.p_slow_to_fast),
            "transition probabilities must be within [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut slow_state = vec![false; self.n];
        let mut rows = Vec::with_capacity(steps);
        for _ in 0..steps {
            let mut row = Vec::with_capacity(self.n);
            for (w, slow) in slow_state.iter_mut().enumerate() {
                // Transition, then emit.
                let p = if *slow {
                    self.p_slow_to_fast
                } else {
                    self.p_fast_to_slow
                };
                if rng.random::<f64>() < p {
                    *slow = !*slow;
                }
                let delay = if *slow {
                    self.slow.sample(w, &mut rng)
                } else {
                    self.fast.sample(w, &mut rng)
                };
                row.push(delay);
            }
            rows.push(row);
        }
        StragglerTrace::new(rows)
    }
}

/// An arrival sampler driven by a [`StragglerTrace`] instead of fresh random
/// draws — the trace-replay counterpart of [`crate::cluster::ClusterSim`].
#[derive(Debug, Clone)]
pub struct TraceClusterSim {
    trace: StragglerTrace,
    compute_time_per_partition: f64,
    comm_time: f64,
    step: usize,
}

impl TraceClusterSim {
    /// Creates a replay simulator.
    ///
    /// # Panics
    ///
    /// Panics if the base times are negative.
    pub fn new(trace: StragglerTrace, compute_time_per_partition: f64, comm_time: f64) -> Self {
        assert!(
            compute_time_per_partition >= 0.0 && comm_time >= 0.0,
            "negative base times"
        );
        Self {
            trace,
            compute_time_per_partition,
            comm_time,
            step: 0,
        }
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &StragglerTrace {
        &self.trace
    }

    /// Arrival times for the next step (advances the replay cursor).
    ///
    /// # Panics
    ///
    /// Panics if `c == 0`.
    pub fn sample_arrivals(&mut self, c: usize) -> Vec<f64> {
        assert!(c > 0, "c must be positive");
        let base = self.compute_time_per_partition * c as f64 + self.comm_time;
        let step = self.step;
        self.step += 1;
        (0..self.trace.n())
            .map(|w| base + self.trace.delay(step, w))
            .collect()
    }

    /// Runs one step against a wait policy.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or the policy is invalid for this cluster size.
    pub fn run_step(&mut self, c: usize, policy: &WaitPolicy) -> StepOutcome {
        let step = self.step;
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

    fn enduring_model(n: usize) -> MarkovStragglerModel {
        MarkovStragglerModel {
            n,
            fast: Delay::Uniform { lo: 0.0, hi: 0.01 },
            slow: Delay::Constant(2.0),
            p_fast_to_slow: 0.02,
            p_slow_to_fast: 0.05,
        }
    }

    #[test]
    fn trace_validates_and_wraps() {
        let t = StragglerTrace::new(vec![vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(t.n(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.delay(0, 1), 1.0);
        assert_eq!(t.delay(2, 0), 0.0); // wraps to step 0
        assert_eq!(t.delay(3, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn ragged_trace_panics() {
        let _ = StragglerTrace::new(vec![vec![0.0], vec![0.0, 1.0]]);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_panics() {
        let _ = StragglerTrace::new(vec![vec![-1.0]]);
    }

    #[test]
    fn csv_roundtrip_preserves_trace() {
        let model = enduring_model(3);
        let t = model.generate(40, 5);
        let back = StragglerTrace::from_csv_str(&t.to_csv_string()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_parsing_errors() {
        assert!(StragglerTrace::from_csv_str("").is_err());
        assert!(StragglerTrace::from_csv_str("1.0\n1.0,2.0\n")
            .unwrap_err()
            .contains("expected 1 workers"));
        assert!(StragglerTrace::from_csv_str("-1.0\n")
            .unwrap_err()
            .contains("non-negative"));
        assert!(StragglerTrace::from_csv_str("x\n")
            .unwrap_err()
            .contains("line 1"));
    }

    #[test]
    fn straggle_rate_counts_cells() {
        let t = StragglerTrace::new(vec![vec![0.0, 5.0], vec![5.0, 5.0]]);
        assert_eq!(t.straggle_rate(1.0), 0.75);
        assert_eq!(t.straggle_rate(10.0), 0.0);
    }

    #[test]
    fn markov_stationary_fraction_matches_empirical() {
        let model = enduring_model(10);
        let trace = model.generate(20_000, 7);
        let expected = model.stationary_slow_fraction();
        let measured = trace.straggle_rate(1.0);
        assert!(
            (measured - expected).abs() < 0.03,
            "expected {expected}, measured {measured}"
        );
    }

    #[test]
    fn markov_straggling_is_time_correlated() {
        // P(slow at t+1 | slow at t) should be far above the stationary rate.
        let model = enduring_model(1);
        let trace = model.generate(30_000, 3);
        let mut slow_now_and_next = 0usize;
        let mut slow_now = 0usize;
        for s in 0..trace.len() - 1 {
            if trace.delay(s, 0) > 1.0 {
                slow_now += 1;
                if trace.delay(s + 1, 0) > 1.0 {
                    slow_now_and_next += 1;
                }
            }
        }
        let conditional = slow_now_and_next as f64 / slow_now as f64;
        assert!(
            conditional > 0.9,
            "correlated stragglers expected, got P(slow|slow) = {conditional}"
        );
    }

    #[test]
    fn markov_generation_is_deterministic() {
        let model = enduring_model(4);
        assert_eq!(model.generate(100, 9), model.generate(100, 9));
        assert_ne!(model.generate(100, 9), model.generate(100, 10));
    }

    #[test]
    fn zero_transitions_mean_no_straggling() {
        let model = MarkovStragglerModel {
            n: 3,
            fast: Delay::Constant(0.0),
            slow: Delay::Constant(9.0),
            p_fast_to_slow: 0.0,
            p_slow_to_fast: 0.0,
        };
        assert_eq!(model.stationary_slow_fraction(), 0.0);
        let trace = model.generate(50, 1);
        assert_eq!(trace.straggle_rate(1.0), 0.0);
    }

    #[test]
    fn replay_sim_applies_base_times_and_policy() {
        let trace = StragglerTrace::new(vec![vec![0.0, 10.0], vec![10.0, 0.0]]);
        let mut sim = TraceClusterSim::new(trace, 0.1, 0.05);
        let out = sim.run_step(2, &WaitPolicy::WaitForCount(1));
        assert_eq!(out.available.to_vec(), vec![0]); // worker 1 straggles at step 0
        assert!((out.duration - 0.25).abs() < 1e-12);
        let out = sim.run_step(2, &WaitPolicy::WaitForCount(1));
        assert_eq!(out.available.to_vec(), vec![1]); // roles swap at step 1
    }
}
