//! The worker half of a step, transport-free: the paper's §IV worker sums
//! the gradients of its `c` partitions over a deterministic mini-batch and
//! uploads the *plain sum* (the all-ones row that separates IS-GC from the
//! coefficient-weighted upload of classic gradient coding).
//!
//! [`WorkerStep`] is the only implementation of that arithmetic outside the
//! simulator's per-partition gradient cache: the in-process collectors call
//! it directly, and every protocol client (TCP worker, swarm member, chaos
//! client, the model checker's peer) reaches it through `isgc-net`'s
//! `WorkerCore`. One recipe is what makes their codewords bit-identical.

use isgc_linalg::Vector;
use isgc_ml::{Dataset, Model, Partitioned};

/// One peer's codeword recipe: the deterministic partitioning, the
/// mini-batch coordinates every peer shares, and a reusable per-partition
/// gradient buffer so the per-step loop allocates only the codeword.
#[derive(Debug, Clone)]
pub struct WorkerStep {
    partitioned: Partitioned,
    batch_size: usize,
    seed: u64,
    scratch: Vector,
}

impl WorkerStep {
    /// Partitions `dataset` into `n` parts (as every peer does, so all slice
    /// identically) and sizes the scratch buffer for `model`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the sample count.
    pub fn new<M: Model>(
        model: &M,
        dataset: &Dataset,
        n: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        WorkerStep {
            partitioned: dataset.partition(n),
            batch_size,
            seed,
            scratch: model.zero_params(),
        }
    }

    /// The codeword of a worker holding `partitions` at `step`: starting
    /// from zeros, each partition's gradient sum over its
    /// `(partition, batch_size, step, seed)` mini-batch is accumulated with
    /// `axpy(1.0, ·)`. Zeros-then-`axpy` is the pinned convention — `0.0 + x`
    /// turns a `-0.0` gradient component into `+0.0`, and every backend must
    /// agree on that bit.
    pub fn codeword<M: Model>(
        &mut self,
        model: &M,
        dataset: &Dataset,
        partitions: &[usize],
        step: u64,
        params: &Vector,
    ) -> Vector {
        let mut codeword = model.zero_params();
        for &p in partitions {
            let batch = self
                .partitioned
                .minibatch(p, self.batch_size, step, self.seed);
            self.scratch.fill_zero();
            model.gradient_sum_into(params, dataset, &batch, &mut self.scratch);
            codeword.axpy(1.0, &self.scratch);
        }
        codeword
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_core::{HrParams, Placement};
    use isgc_linalg::Matrix;
    use isgc_ml::LinearRegression;
    use rand::RngCore;

    /// Least squares with the loss negated. Negating in place is exact only
    /// for a zeroed `out` — which is how [`WorkerStep`] and
    /// [`Model::gradient_sum`] call it — and it is the one way a scratch
    /// buffer can hold `-0.0`: accumulation into `+0.0` never produces it.
    struct Negated(LinearRegression);

    impl Model for Negated {
        fn param_dim(&self) -> usize {
            self.0.param_dim()
        }

        fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
            self.0.init_params(rng)
        }

        fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
            -self.0.loss_mean(params, data, indices)
        }

        fn gradient_sum_into(
            &self,
            params: &Vector,
            data: &Dataset,
            indices: &[usize],
            out: &mut Vector,
        ) {
            self.0.gradient_sum_into(params, data, indices, out);
            out.scale(-1.0);
        }
    }

    /// The recipe written longhand — the reference the shared
    /// implementation is held to, bit for bit.
    fn longhand(
        model: &Negated,
        dataset: &Dataset,
        n: usize,
        partitions: &[usize],
        step: u64,
        params: &Vector,
    ) -> Vec<u64> {
        let partitioned = dataset.partition(n);
        let mut codeword = vec![0.0f64; model.param_dim()];
        for &p in partitions {
            let batch = partitioned.minibatch(p, BATCH, step, SEED);
            let gradient = model.gradient_sum(params, dataset, &batch);
            for (c, g) in codeword.iter_mut().zip(gradient.iter()) {
                *c += 1.0 * g;
            }
        }
        codeword.into_iter().map(f64::to_bits).collect()
    }

    const BATCH: usize = 4;
    const SEED: u64 = 11;

    #[test]
    fn codeword_matches_the_longhand_recipe_bit_for_bit() {
        // Feature 1 is identically zero and every residual is negative
        // (targets are large, predictions small), so the inner gradient's
        // component 1 is `+0.0` and the negated model's is `-0.0`.
        let (features, samples) = (3, 48);
        let xs = Matrix::from_fn(samples, features, |i, j| match j {
            0 => 0.25 * i as f64 - 3.0,
            1 => 0.0,
            _ => (0.7 * i as f64).sin(),
        });
        let ys = Vector::from_fn(samples, |i| 50.0 + 0.5 * i as f64);
        let dataset = Dataset::new(xs, ys, 0);
        let model = Negated(LinearRegression::new(features));
        let params = Vector::from_slice(&[0.1, -0.2, 0.3, 0.05]);
        let raw = model.gradient_sum(&params, &dataset, &[0, 1]);
        assert_eq!(raw[1].to_bits(), (-0.0f64).to_bits(), "no -0.0 to pin");

        for placement in [
            Placement::fractional(4, 2).unwrap(),
            Placement::cyclic(6, 2).unwrap(),
            Placement::hybrid(HrParams::new(4, 2, 1, 1)).unwrap(),
        ] {
            let n = placement.n();
            let mut work = WorkerStep::new(&model, &dataset, n, BATCH, SEED);
            // Every worker's own list, plus a repaired 3-partition list.
            let mut lists: Vec<Vec<usize>> = (0..n)
                .map(|w| placement.partitions_of(w).to_vec())
                .collect();
            lists.push(vec![0, 1, n - 1]);
            for partitions in &lists {
                for step in [0u64, 7] {
                    let got = work.codeword(&model, &dataset, partitions, step, &params);
                    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    let want = longhand(&model, &dataset, n, partitions, step, &params);
                    assert_eq!(
                        bits,
                        want,
                        "{} {partitions:?} step {step}",
                        placement.scheme()
                    );
                    // Zeros-then-axpy: `0.0 + -0.0` is `+0.0`. Taking the
                    // first partition's gradient as-is would keep `-0.0`.
                    assert_eq!(bits[1], 0.0f64.to_bits());
                }
            }
        }
    }
}
