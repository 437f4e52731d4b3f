//! Synthetic datasets with deterministic partitioning and mini-batching.

use isgc_core::hash::{GOLDEN_GAMMA, MIX_MULTIPLIERS};
use isgc_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A supervised dataset: a feature matrix (one row per sample) plus targets.
///
/// For regression tasks `targets[i]` is the real-valued label; for
/// classification it is the class index stored as `f64` (exact for any
/// realistic class count).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    targets: Vector,
    classes: usize,
}

impl Dataset {
    /// Wraps an explicit feature matrix and target vector.
    ///
    /// `classes` is 0 for regression data, otherwise the number of classes
    /// (targets must then be integers in `0..classes`).
    ///
    /// # Panics
    ///
    /// Panics if `features.rows() != targets.len()` or a classification
    /// target is out of range.
    pub fn new(features: Matrix, targets: Vector, classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            targets.len(),
            "feature/target count mismatch"
        );
        if classes > 0 {
            for (i, &t) in targets.iter().enumerate() {
                assert!(
                    t.fract() == 0.0 && (0.0..classes as f64).contains(&t),
                    "target {t} of sample {i} is not a class in 0..{classes}"
                );
            }
        }
        Self {
            features,
            targets,
            classes,
        }
    }

    /// Generates a linear-regression dataset: `y = xᵀw* + b* + ε` with
    /// standard-normal features, a random ground-truth model, and Gaussian
    /// noise of standard deviation `noise`.
    ///
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0` or `features == 0`.
    pub fn synthetic_regression(samples: usize, features: usize, noise: f64, seed: u64) -> Self {
        assert!(samples > 0 && features > 0, "empty dataset requested");
        let mut rng = StdRng::seed_from_u64(seed);
        let w_true = Vector::random_normal(features, 0.0, 1.0, &mut rng);
        let b_true: f64 = rng.random_range(-1.0..1.0);
        let x = Matrix::random_normal(samples, features, 0.0, 1.0, &mut rng);
        let y = Vector::from_fn(samples, |i| {
            let xi = Vector::from_slice(x.row(i));
            xi.dot(&w_true) + b_true + noise * Vector::random_normal(1, 0.0, 1.0, &mut rng)[0]
        });
        Self::new(x, y, 0)
    }

    /// Generates a `k`-class Gaussian-mixture classification dataset:
    /// class `c` samples are drawn around a random mean of norm
    /// `separation`, with unit-variance spherical noise. Classes are
    /// balanced up to rounding. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`, `features == 0`, or `classes < 2`.
    pub fn gaussian_classification(
        samples: usize,
        features: usize,
        classes: usize,
        separation: f64,
        seed: u64,
    ) -> Self {
        assert!(samples > 0 && features > 0, "empty dataset requested");
        assert!(classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(seed);
        let means: Vec<Vector> = (0..classes)
            .map(|_| {
                let mut m = Vector::random_normal(features, 0.0, 1.0, &mut rng);
                let norm = m.norm();
                if norm > 0.0 {
                    m.scale(separation / norm);
                }
                m
            })
            .collect();
        let mut x = Matrix::zeros(samples, features);
        let mut y = Vector::zeros(samples);
        for i in 0..samples {
            let class = i % classes; // balanced, interleaved
            let sample = Vector::random_normal(features, 0.0, 1.0, &mut rng);
            for f in 0..features {
                x[(i, f)] = means[class][f] + sample[f];
            }
            y[i] = class as f64;
        }
        Self::new(x, y, classes)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Returns `true` when the dataset has no samples (unreachable via the
    /// provided constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes: 0 for regression data.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Features of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn features_of(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Target of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn target_of(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Splits the sample indices into `n` contiguous, near-equal partitions
    /// (the `D_1 … D_n` of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > len()`.
    pub fn partition(&self, n: usize) -> Partitioned {
        assert!(n > 0, "cannot partition into zero parts");
        assert!(
            n <= self.len(),
            "more partitions ({n}) than samples ({})",
            self.len()
        );
        let total = self.len();
        let base = total / n;
        let extra = total % n;
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0;
        for p in 0..n {
            let size = base + usize::from(p < extra);
            ranges.push(start..start + size);
            start += size;
        }
        Partitioned { ranges }
    }
}

/// A partitioning of a dataset's sample indices into `n` contiguous ranges,
/// with deterministic per-step mini-batch selection.
///
/// The same `(partition, batch_size, step, seed)` always yields the same
/// sample indices — so every replica of a partition, on whichever worker,
/// computes the gradient of the *same* mini-batch. This is what makes
/// summed codewords from different workers compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioned {
    ranges: Vec<std::ops::Range<usize>>,
}

impl Partitioned {
    /// Number of partitions.
    pub fn n(&self) -> usize {
        self.ranges.len()
    }

    /// The index range of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n()`.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.ranges[p].clone()
    }

    /// Number of samples in partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n()`.
    pub fn len_of(&self, p: usize) -> usize {
        self.ranges[p].len()
    }

    /// Draws the mini-batch of partition `p` for training step `step`:
    /// `batch_size` indices sampled (with replacement) from the partition,
    /// deterministically from `(seed, step, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= n()` or `batch_size == 0`.
    pub fn minibatch(&self, p: usize, batch_size: usize, step: u64, seed: u64) -> Vec<usize> {
        assert!(batch_size > 0, "batch_size must be positive");
        let range = self.range(p);
        // Derive a stream unique to (seed, step, partition) with splitmix-style mixing.
        let [m1, m2] = MIX_MULTIPLIERS;
        let stream = seed
            .wrapping_mul(GOLDEN_GAMMA)
            .wrapping_add(step.wrapping_mul(m1))
            .wrapping_add((p as u64).wrapping_mul(m2));
        let mut rng = StdRng::seed_from_u64(stream);
        (0..batch_size)
            .map(|_| rng.random_range(range.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_is_deterministic_and_learnable_shape() {
        let a = Dataset::synthetic_regression(100, 4, 0.1, 9);
        let b = Dataset::synthetic_regression(100, 4, 0.1, 9);
        assert_eq!(a, b);
        let c = Dataset::synthetic_regression(100, 4, 0.1, 10);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert_eq!(a.feature_dim(), 4);
        assert_eq!(a.classes(), 0);
        assert!(!a.is_empty());
    }

    #[test]
    fn noiseless_regression_is_exactly_linear() {
        let d = Dataset::synthetic_regression(50, 3, 0.0, 3);
        // Fit exactly: solve for (w, b) from 4 samples and check the rest.
        use isgc_linalg::{lu_solve, Matrix, Vector};
        let a = Matrix::from_fn(4, 4, |r, c| if c < 3 { d.features_of(r)[c] } else { 1.0 });
        let y = Vector::from_fn(4, |r| d.target_of(r));
        let wb = lu_solve(&a, &y).unwrap();
        for i in 0..50 {
            let pred: f64 = d
                .features_of(i)
                .iter()
                .zip(wb.as_slice())
                .map(|(x, w)| x * w)
                .sum::<f64>()
                + wb[3];
            assert!((pred - d.target_of(i)).abs() < 1e-8, "sample {i}");
        }
    }

    #[test]
    fn classification_targets_are_balanced_classes() {
        let d = Dataset::gaussian_classification(90, 5, 3, 3.0, 1);
        assert_eq!(d.classes(), 3);
        let mut counts = [0usize; 3];
        for i in 0..90 {
            counts[d.target_of(i) as usize] += 1;
        }
        assert_eq!(counts, [30, 30, 30]);
    }

    #[test]
    fn two_gaussians_are_separable_when_far() {
        let d = Dataset::gaussian_classification(200, 2, 2, 10.0, 5);
        // With separation 10 the class means are far; a nearest-mean rule
        // should classify almost perfectly. Compute class means first.
        let mut means = [[0.0f64; 2]; 2];
        let mut counts = [0usize; 2];
        for i in 0..200 {
            let c = d.target_of(i) as usize;
            means[c][0] += d.features_of(i)[0];
            means[c][1] += d.features_of(i)[1];
            counts[c] += 1;
        }
        for c in 0..2 {
            means[c][0] /= counts[c] as f64;
            means[c][1] /= counts[c] as f64;
        }
        let mut correct = 0;
        for i in 0..200 {
            let x = d.features_of(i);
            let d0 = (x[0] - means[0][0]).powi(2) + (x[1] - means[0][1]).powi(2);
            let d1 = (x[0] - means[1][0]).powi(2) + (x[1] - means[1][1]).powi(2);
            let pred = usize::from(d1 < d0);
            if pred == d.target_of(i) as usize {
                correct += 1;
            }
        }
        assert!(correct >= 195, "only {correct}/200 separable");
    }

    #[test]
    #[should_panic(expected = "not a class")]
    fn new_rejects_out_of_range_class() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_slice(&[0.0, 2.0]);
        let _ = Dataset::new(x, y, 2);
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        let d = Dataset::synthetic_regression(10, 2, 0.1, 0);
        let parts = d.partition(3);
        assert_eq!(parts.n(), 3);
        // 10 = 4 + 3 + 3.
        assert_eq!(parts.range(0), 0..4);
        assert_eq!(parts.range(1), 4..7);
        assert_eq!(parts.range(2), 7..10);
        assert_eq!(parts.len_of(0), 4);
        let total: usize = (0..3).map(|p| parts.len_of(p)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "more partitions")]
    fn partition_rejects_more_parts_than_samples() {
        Dataset::synthetic_regression(3, 1, 0.0, 0).partition(4);
    }

    #[test]
    fn minibatch_is_deterministic_per_partition_step() {
        let d = Dataset::synthetic_regression(100, 2, 0.1, 0);
        let parts = d.partition(4);
        let b1 = parts.minibatch(2, 8, 5, 99);
        let b2 = parts.minibatch(2, 8, 5, 99);
        assert_eq!(b1, b2, "same (partition, step, seed) must agree");
        assert_ne!(b1, parts.minibatch(2, 8, 6, 99), "steps differ");
        assert_ne!(b1, parts.minibatch(1, 8, 5, 99), "partitions differ");
        assert_ne!(b1, parts.minibatch(2, 8, 5, 100), "seeds differ");
    }

    #[test]
    fn minibatch_indices_stay_in_partition() {
        let d = Dataset::synthetic_regression(100, 2, 0.1, 0);
        let parts = d.partition(4);
        for p in 0..4 {
            let range = parts.range(p);
            for step in 0..20u64 {
                for idx in parts.minibatch(p, 16, step, 7) {
                    assert!(range.contains(&idx), "p={p}, step={step}, idx={idx}");
                }
            }
        }
    }

    #[test]
    fn minibatch_samples_whole_partition_over_time() {
        let d = Dataset::synthetic_regression(40, 2, 0.1, 0);
        let parts = d.partition(4);
        let mut seen = std::collections::HashSet::new();
        for step in 0..100u64 {
            seen.extend(parts.minibatch(0, 4, step, 3));
        }
        // Partition 0 has 10 samples; with 400 draws we expect all touched.
        assert_eq!(seen.len(), parts.len_of(0));
    }
}
