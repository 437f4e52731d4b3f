//! Trainable models with analytic gradients.
//!
//! All models expose gradients as **sums** over the requested samples (not
//! means): IS-GC sums per-partition gradients across workers, and the master
//! normalizes once by the total number of samples recovered (paper
//! Assumption 2). Losses are reported as means for monitoring.

use isgc_linalg::{kernels, log_sum_exp, softmax_in_place, Vector};
use rand::RngCore;

use crate::dataset::Dataset;

/// A model trainable by (distributed) SGD.
///
/// Implementations are stateless descriptions of the architecture; the
/// parameter vector is owned by the caller, which lets a simulation keep
/// many synchronized replicas cheaply.
pub trait Model {
    /// Dimension of the flat parameter vector.
    fn param_dim(&self) -> usize;

    /// A zero-initialized parameter vector (fine for convex models).
    fn zero_params(&self) -> Vector {
        Vector::zeros(self.param_dim())
    }

    /// A small-random parameter vector (needed to break symmetry in MLPs).
    fn init_params(&self, rng: &mut dyn RngCore) -> Vector;

    /// Mean loss over the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension, an index is out of
    /// bounds, or `indices` is empty.
    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64;

    /// Sum of per-sample loss gradients over the given indices,
    /// **accumulated** into `out` (the caller zeroes or pre-loads it).
    ///
    /// This is the allocation-free primitive the per-step hot path uses: a
    /// worker keeps one scratch `Vector` alive across steps and partitions
    /// instead of allocating a gradient per call. Accumulation semantics
    /// make `Σ_partitions gradient_sum` a single running `out` when the
    /// bracketing allows it.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `out` has the wrong dimension or an index is
    /// out of bounds. An empty `indices` leaves `out` unchanged.
    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    );

    /// Sum of per-sample loss gradients over the given indices, as a fresh
    /// vector. Convenience wrapper over [`Model::gradient_sum_into`]; cold
    /// paths and tests use this, the per-step loop should not.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension or an index is out of
    /// bounds. An empty `indices` yields the zero vector.
    fn gradient_sum(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> Vector {
        let mut out = Vector::zeros(self.param_dim());
        self.gradient_sum_into(params, data, indices, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Linear regression
// ---------------------------------------------------------------------------

/// Least-squares linear regression `ŷ = wᵀx + b` with loss `½(ŷ − y)²`.
///
/// # Examples
///
/// ```
/// use isgc_ml::dataset::Dataset;
/// use isgc_ml::model::{LinearRegression, Model};
///
/// let data = Dataset::synthetic_regression(32, 3, 0.0, 1);
/// let model = LinearRegression::new(3);
/// let params = model.zero_params();
/// let idx: Vec<usize> = (0..32).collect();
/// assert!(model.loss_mean(&params, &data, &idx) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearRegression {
    features: usize,
}

impl LinearRegression {
    /// Creates the model for `features`-dimensional inputs.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "features must be positive");
        Self { features }
    }

    /// The prediction `wᵀx + b`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn predict(&self, params: &Vector, x: &[f64]) -> f64 {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        kernels::dot(x, &params.as_slice()[..self.features]) + params[self.features]
    }
}

impl Model for LinearRegression {
    fn param_dim(&self) -> usize {
        self.features + 1 // weights + bias
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        Vector::random_normal(self.param_dim(), 0.0, 0.01, rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let e = self.predict(params, data.features_of(i)) - data.target_of(i);
                0.5 * e * e
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        for &i in indices {
            let x = data.features_of(i);
            let e = self.predict(params, x) - data.target_of(i);
            let os = out.as_mut_slice();
            kernels::axpy(&mut os[..self.features], e, x);
            os[self.features] += e;
        }
    }
}

// ---------------------------------------------------------------------------
// Softmax regression
// ---------------------------------------------------------------------------

/// Multinomial logistic (softmax) regression with `k` classes.
///
/// Parameter layout: `k` weight rows of length `features`, then `k` biases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftmaxRegression {
    features: usize,
    classes: usize,
}

impl SoftmaxRegression {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `classes < 2`.
    pub fn new(features: usize, classes: usize) -> Self {
        assert!(features > 0, "features must be positive");
        assert!(classes >= 2, "need at least two classes");
        Self { features, classes }
    }

    fn logits(&self, params: &Vector, x: &[f64]) -> Vec<f64> {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        let p = self.features;
        (0..self.classes)
            .map(|c| {
                let w = &params.as_slice()[c * p..(c + 1) * p];
                let b = params[self.classes * p + c];
                kernels::dot(x, w) + b
            })
            .collect()
    }

    /// Class probabilities for input `x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn probabilities(&self, params: &Vector, x: &[f64]) -> Vec<f64> {
        let mut z = self.logits(params, x);
        softmax_in_place(&mut z);
        z
    }

    /// The arg-max class prediction.
    pub fn predict_class(&self, params: &Vector, x: &[f64]) -> usize {
        let z = self.logits(params, x);
        z.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("at least two classes")
    }
}

impl Model for SoftmaxRegression {
    fn param_dim(&self) -> usize {
        self.classes * self.features + self.classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        Vector::random_normal(self.param_dim(), 0.0, 0.01, rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let z = self.logits(params, data.features_of(i));
                let y = data.target_of(i) as usize;
                log_sum_exp(&z) - z[y]
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        let p = self.features;
        for &i in indices {
            let x = data.features_of(i);
            let probs = self.probabilities(params, x);
            let y = data.target_of(i) as usize;
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let e = pc - f64::from(c == y);
                kernels::axpy(&mut os[c * p..(c + 1) * p], e, x);
                os[self.classes * p + c] += e;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-hidden-layer MLP
// ---------------------------------------------------------------------------

/// A one-hidden-layer perceptron with `tanh` activation and softmax output —
/// the non-convex stand-in for the paper's ResNet-18.
///
/// Parameter layout: `W1 (hidden × features)`, `b1 (hidden)`,
/// `W2 (classes × hidden)`, `b2 (classes)`, all row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mlp {
    features: usize,
    hidden: usize,
    classes: usize,
}

impl Mlp {
    /// Creates the architecture.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes < 2`.
    pub fn new(features: usize, hidden: usize, classes: usize) -> Self {
        assert!(features > 0 && hidden > 0, "dimensions must be positive");
        assert!(classes >= 2, "need at least two classes");
        Self {
            features,
            hidden,
            classes,
        }
    }

    fn w1_offset(&self) -> usize {
        0
    }
    fn b1_offset(&self) -> usize {
        self.hidden * self.features
    }
    fn w2_offset(&self) -> usize {
        self.b1_offset() + self.hidden
    }
    fn b2_offset(&self) -> usize {
        self.w2_offset() + self.classes * self.hidden
    }

    /// Forward pass: returns (hidden activations, logits).
    fn forward(&self, params: &Vector, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(params.len(), self.param_dim(), "bad parameter vector");
        assert_eq!(x.len(), self.features, "bad feature vector");
        let ps = params.as_slice();
        let a: Vec<f64> = (0..self.hidden)
            .map(|h| {
                let w = &ps[self.w1_offset() + h * self.features..][..self.features];
                let b = ps[self.b1_offset() + h];
                (kernels::dot(x, w) + b).tanh()
            })
            .collect();
        let z: Vec<f64> = (0..self.classes)
            .map(|c| {
                let w = &ps[self.w2_offset() + c * self.hidden..][..self.hidden];
                let b = ps[self.b2_offset() + c];
                kernels::dot(&a, w) + b
            })
            .collect();
        (a, z)
    }
}

impl Model for Mlp {
    fn param_dim(&self) -> usize {
        self.hidden * self.features + self.hidden + self.classes * self.hidden + self.classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        // Xavier-ish scaling keeps tanh units in their linear regime.
        let s1 = (1.0 / self.features as f64).sqrt();
        let s2 = (1.0 / self.hidden as f64).sqrt();
        let mut v = Vector::zeros(self.param_dim());
        let w1 = Vector::random_normal(self.hidden * self.features, 0.0, s1, rng);
        let w2 = Vector::random_normal(self.classes * self.hidden, 0.0, s2, rng);
        for (i, &w) in w1.iter().enumerate() {
            v[self.w1_offset() + i] = w;
        }
        for (i, &w) in w2.iter().enumerate() {
            v[self.w2_offset() + i] = w;
        }
        v
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "loss over empty batch");
        let total: f64 = indices
            .iter()
            .map(|&i| {
                let (_, z) = self.forward(params, data.features_of(i));
                let y = data.target_of(i) as usize;
                log_sum_exp(&z) - z[y]
            })
            .sum();
        total / indices.len() as f64
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        assert_eq!(out.len(), self.param_dim(), "bad gradient vector");
        let ps = params.as_slice();
        let mut delta_hidden = vec![0.0f64; self.hidden];
        for &i in indices {
            let x = data.features_of(i);
            let (a, mut probs) = self.forward(params, x);
            softmax_in_place(&mut probs);
            let y = data.target_of(i) as usize;
            // Output layer deltas: dL/dz_c = p_c − 1[c = y].
            delta_hidden.fill(0.0);
            let os = out.as_mut_slice();
            for (c, &pc) in probs.iter().enumerate() {
                let dz = pc - f64::from(c == y);
                let w2_row = &ps[self.w2_offset() + c * self.hidden..][..self.hidden];
                kernels::axpy(
                    &mut os[self.w2_offset() + c * self.hidden..][..self.hidden],
                    dz,
                    &a,
                );
                kernels::axpy(&mut delta_hidden, dz, w2_row);
                os[self.b2_offset() + c] += dz;
            }
            // Hidden layer: dL/da_h through tanh'(u) = 1 − a².
            for (h, &dh) in delta_hidden.iter().enumerate() {
                let da = dh * (1.0 - a[h] * a[h]);
                kernels::axpy(
                    &mut os[self.w1_offset() + h * self.features..][..self.features],
                    da,
                    x,
                );
                os[self.b1_offset() + h] += da;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of `gradient_sum` against
    /// `loss_mean * len` for an arbitrary parameter point.
    fn check_gradient<M: Model>(model: &M, data: &Dataset, indices: &[usize], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = model.init_params(&mut rng);
        let grad = model.gradient_sum(&params, data, indices);
        let eps = 1e-6;
        let k = indices.len() as f64;
        for d in 0..model.param_dim() {
            let mut plus = params.clone();
            plus[d] += eps;
            let mut minus = params.clone();
            minus[d] -= eps;
            // loss_mean * k = summed loss, matching gradient_sum convention.
            let numeric = (model.loss_mean(&plus, data, indices)
                - model.loss_mean(&minus, data, indices))
                * k
                / (2.0 * eps);
            let analytic = grad[d];
            let scale = 1.0_f64.max(analytic.abs()).max(numeric.abs());
            assert!(
                (numeric - analytic).abs() / scale < 1e-4,
                "param {d}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn linear_regression_gradient_matches_finite_differences() {
        let data = Dataset::synthetic_regression(20, 3, 0.3, 1);
        let idx: Vec<usize> = (0..20).collect();
        check_gradient(&LinearRegression::new(3), &data, &idx, 10);
    }

    #[test]
    fn softmax_regression_gradient_matches_finite_differences() {
        let data = Dataset::gaussian_classification(21, 3, 3, 2.0, 3);
        let idx: Vec<usize> = (0..21).collect();
        check_gradient(&SoftmaxRegression::new(3, 3), &data, &idx, 12);
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let data = Dataset::gaussian_classification(12, 3, 3, 2.0, 4);
        let idx: Vec<usize> = (0..12).collect();
        check_gradient(&Mlp::new(3, 5, 3), &data, &idx, 13);
    }

    #[test]
    fn gradient_sum_is_additive_over_batches() {
        // The property IS-GC relies on: gradient of a union = sum of
        // gradients — exactly, since everything is plain summation.
        let data = Dataset::gaussian_classification(30, 4, 3, 2.0, 5);
        let model = SoftmaxRegression::new(4, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let params = model.init_params(&mut rng);
        let left: Vec<usize> = (0..15).collect();
        let right: Vec<usize> = (15..30).collect();
        let all: Vec<usize> = (0..30).collect();
        let mut combined = model.gradient_sum(&params, &data, &left);
        combined.axpy(1.0, &model.gradient_sum(&params, &data, &right));
        let direct = model.gradient_sum(&params, &data, &all);
        assert!((&combined - &direct).norm_inf() < 1e-12);
    }

    #[test]
    fn linear_regression_sgd_converges_on_noiseless_data() {
        let data = Dataset::synthetic_regression(128, 3, 0.0, 7);
        let model = LinearRegression::new(3);
        let mut params = model.zero_params();
        let idx: Vec<usize> = (0..128).collect();
        let initial = model.loss_mean(&params, &data, &idx);
        for _ in 0..300 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 128.0);
            params.axpy(-0.1, &g);
        }
        let final_loss = model.loss_mean(&params, &data, &idx);
        assert!(final_loss < 1e-3, "initial={initial}, final={final_loss}");
    }

    #[test]
    fn softmax_learns_separable_classes() {
        // Separation 8.0 keeps the classes cleanly separable for any
        // reasonable RNG stream (6.0 left a handful of overlapping points
        // under some seeds).
        let data = Dataset::gaussian_classification(150, 4, 3, 8.0, 8);
        let model = SoftmaxRegression::new(4, 3);
        let mut params = model.zero_params();
        let idx: Vec<usize> = (0..150).collect();
        for _ in 0..200 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 150.0);
            params.axpy(-0.5, &g);
        }
        let correct = idx
            .iter()
            .filter(|&&i| {
                model.predict_class(&params, data.features_of(i)) == data.target_of(i) as usize
            })
            .count();
        assert!(correct >= 140, "accuracy {correct}/150");
    }

    #[test]
    fn mlp_learns_nonlinear_boundary() {
        // XOR-like data: class = sign(x0 * x1), unlearnable by a linear model.
        let mut rng = StdRng::seed_from_u64(21);
        let x = isgc_linalg::Matrix::random_normal(200, 2, 0.0, 1.0, &mut rng);
        let y = Vector::from_fn(200, |i| f64::from(x[(i, 0)] * x[(i, 1)] > 0.0));
        let data = Dataset::new(x, y, 2);
        let model = Mlp::new(2, 16, 2);
        let mut params = model.init_params(&mut rng);
        let idx: Vec<usize> = (0..200).collect();
        for _ in 0..800 {
            let mut g = model.gradient_sum(&params, &data, &idx);
            g.scale(1.0 / 200.0);
            params.axpy(-0.5, &g);
        }
        let correct = idx
            .iter()
            .filter(|&&i| {
                let (_, z) = model.forward(&params, data.features_of(i));
                let class = (0..z.len()).max_by(|&a, &b| z[a].total_cmp(&z[b]));
                class == Some(data.target_of(i) as usize)
            })
            .count();
        assert!(correct >= 180, "accuracy {correct}/200");
    }

    #[test]
    fn param_dims() {
        assert_eq!(LinearRegression::new(5).param_dim(), 6);
        assert_eq!(SoftmaxRegression::new(5, 3).param_dim(), 18);
        assert_eq!(Mlp::new(4, 8, 3).param_dim(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let sm = SoftmaxRegression::new(3, 4);
        let params = sm.init_params(&mut rng);
        let probs = sm.probabilities(&params, &[0.5, -1.0, 2.0]);
        assert_eq!(probs.len(), 4);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
