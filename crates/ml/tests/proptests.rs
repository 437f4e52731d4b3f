//! Property-based tests for datasets and models.

use isgc_ml::dataset::Dataset;
use isgc_ml::model::{LinearRegression, Mlp, Model, SoftmaxRegression};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioning covers every sample exactly once, in order.
    #[test]
    fn partitions_tile_the_dataset(samples in 4usize..200, parts in 1usize..4) {
        prop_assume!(parts <= samples);
        let d = Dataset::synthetic_regression(samples, 2, 0.1, 1);
        let p = d.partition(parts);
        let mut covered = Vec::new();
        for i in 0..parts {
            covered.extend(p.range(i));
        }
        prop_assert_eq!(covered, (0..samples).collect::<Vec<_>>());
        // Sizes differ by at most one.
        let sizes: Vec<usize> = (0..parts).map(|i| p.len_of(i)).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    /// Mini-batches are a pure function of (partition, step, seed).
    #[test]
    fn minibatch_determinism(step in 0u64..1000, seed in 0u64..1000, part in 0usize..4) {
        let d = Dataset::synthetic_regression(64, 2, 0.1, 9);
        let p = d.partition(4);
        prop_assert_eq!(
            p.minibatch(part, 8, step, seed),
            p.minibatch(part, 8, step, seed)
        );
    }

    /// Cross-entropy losses are non-negative; squared error too.
    #[test]
    fn losses_are_non_negative(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx: Vec<usize> = (0..20).collect();

        let reg = Dataset::synthetic_regression(20, 3, 0.5, seed);
        let lin = LinearRegression::new(3);
        prop_assert!(lin.loss_mean(&lin.init_params(&mut rng), &reg, &idx) >= 0.0);

        let cls = Dataset::gaussian_classification(20, 3, 3, 2.0, seed);
        let soft = SoftmaxRegression::new(3, 3);
        prop_assert!(soft.loss_mean(&soft.init_params(&mut rng), &cls, &idx) >= 0.0);
        let mlp = Mlp::new(3, 4, 3);
        prop_assert!(mlp.loss_mean(&mlp.init_params(&mut rng), &cls, &idx) >= 0.0);
    }

    /// A gradient step at a small enough rate never increases the loss of
    /// the batch it was computed on (descent property, convex models).
    #[test]
    fn tiny_steps_descend(seed in 0u64..100) {
        let data = Dataset::gaussian_classification(24, 3, 3, 2.0, seed);
        let model = SoftmaxRegression::new(3, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = model.init_params(&mut rng);
        let idx: Vec<usize> = (0..24).collect();
        let before = model.loss_mean(&params, &data, &idx);
        let mut g = model.gradient_sum(&params, &data, &idx);
        g.scale(1.0 / 24.0);
        params.axpy(-1e-4, &g);
        let after = model.loss_mean(&params, &data, &idx);
        prop_assert!(after <= before + 1e-12, "{before} -> {after}");
    }

    /// Class predictions agree with the arg-max of probabilities.
    #[test]
    fn predictions_are_argmax(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soft = SoftmaxRegression::new(4, 3);
        let params = soft.init_params(&mut rng);
        let x = [0.3, -1.0, 2.0, 0.1];
        let probs = soft.probabilities(&params, &x);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        prop_assert_eq!(soft.predict_class(&params, &x), argmax);
    }
}
