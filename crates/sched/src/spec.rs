//! Job specifications: everything needed to build a training session
//! deterministically — placement, seed, model/dataset recipe.

use isgc_core::Placement;
use isgc_engine::{DegradePolicy, EngineConfig};
use isgc_linalg::Vector;
use isgc_ml::{Dataset, LinearRegression, Model, SoftmaxRegression};
use rand::RngCore;

use crate::SchedError;

/// A deterministic model + dataset build: jobs are heterogeneous (different
/// models, sizes, placements), but a recipe plus a seed always reproduces
/// the same session — the scheduler's determinism contract starts here.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecipe {
    /// Linear regression on a synthetic regression set.
    Regression {
        /// Feature dimension.
        features: usize,
        /// Dataset size.
        samples: usize,
        /// Label noise standard deviation.
        noise: f64,
    },
    /// Softmax regression on Gaussian class blobs.
    Classification {
        /// Feature dimension.
        features: usize,
        /// Number of classes.
        classes: usize,
        /// Dataset size.
        samples: usize,
        /// Class separation.
        separation: f64,
    },
}

impl JobRecipe {
    /// Builds the model and dataset. The dataset seed is derived from the
    /// job seed so two jobs with different seeds train on different data.
    pub fn build(&self, seed: u64) -> (ModelKind, Dataset) {
        let data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5354_5241_474C_4552;
        match *self {
            JobRecipe::Regression {
                features,
                samples,
                noise,
            } => (
                ModelKind::Linear(LinearRegression::new(features)),
                Dataset::synthetic_regression(samples, features, noise, data_seed),
            ),
            JobRecipe::Classification {
                features,
                classes,
                samples,
                separation,
            } => (
                ModelKind::Softmax(SoftmaxRegression::new(features, classes)),
                Dataset::gaussian_classification(samples, features, classes, separation, data_seed),
            ),
        }
    }
}

/// A job's model, behind one concrete type so heterogeneous jobs can share
/// the scheduler (the [`Model`] trait is not object-safe everywhere it is
/// used generically).
#[derive(Debug, Clone)]
pub enum ModelKind {
    /// Linear regression.
    Linear(LinearRegression),
    /// Softmax regression.
    Softmax(SoftmaxRegression),
}

impl Model for ModelKind {
    fn param_dim(&self) -> usize {
        match self {
            ModelKind::Linear(m) => m.param_dim(),
            ModelKind::Softmax(m) => m.param_dim(),
        }
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        match self {
            ModelKind::Linear(m) => m.init_params(rng),
            ModelKind::Softmax(m) => m.init_params(rng),
        }
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        match self {
            ModelKind::Linear(m) => m.loss_mean(params, data, indices),
            ModelKind::Softmax(m) => m.loss_mean(params, data, indices),
        }
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        match self {
            ModelKind::Linear(m) => m.gradient_sum_into(params, data, indices, out),
            ModelKind::Softmax(m) => m.gradient_sum_into(params, data, indices, out),
        }
    }
}

/// Everything defining one tenant job. Pure data: two identical specs
/// always produce bitwise-identical sessions, regardless of co-tenants.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name: the metrics scope (`("job", name)` label).
    pub name: String,
    /// The job's own partition-to-worker placement.
    pub placement: Placement,
    /// Master seed: parameter init, per-step decode RNG, minibatch
    /// selection, and the straggler schedule all derive from it.
    pub seed: u64,
    /// Mini-batch size per partition.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Stop once full-dataset loss reaches this value (use a negative
    /// value for fixed-length runs).
    pub loss_threshold: f64,
    /// Step cap.
    pub max_steps: u64,
    /// Workers deterministically straggling (absent) each step, chosen by
    /// a seed-derived schedule — see [`crate::arrivals_for`].
    pub stragglers: usize,
    /// What the job's engine does when a step decodes below the
    /// recoverable floor. Part of the spec (not the scheduler) so a
    /// resumed job replays the same ladder decisions.
    pub degrade: DegradePolicy,
    /// Model + dataset build.
    pub recipe: JobRecipe,
}

impl JobSpec {
    /// A spec with neutral defaults: fixed-length 12-step run, no
    /// stragglers, linear regression on 192×5 data.
    pub fn new(name: impl Into<String>, placement: Placement, seed: u64) -> Self {
        let features = 5;
        JobSpec {
            name: name.into(),
            placement,
            seed,
            batch_size: 8,
            learning_rate: 0.05,
            loss_threshold: -1.0,
            max_steps: 12,
            stragglers: 0,
            degrade: DegradePolicy::Skip,
            recipe: JobRecipe::Regression {
                features,
                samples: 192,
                noise: 0.05,
            },
        }
    }

    /// The engine configuration this spec induces.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.placement.clone());
        config.batch_size = self.batch_size;
        config.learning_rate = self.learning_rate;
        config.loss_threshold = self.loss_threshold;
        config.max_steps = self.max_steps;
        config.seed = self.seed;
        config.degrade = self.degrade.clone();
        config
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidSpec`] with the violated constraint.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.name.is_empty() {
            return Err(SchedError::InvalidSpec("job name must be non-empty".into()));
        }
        if self.stragglers >= self.placement.n() {
            return Err(SchedError::InvalidSpec(format!(
                "{} stragglers would leave no arrivals out of n={}",
                self.stragglers,
                self.placement.n()
            )));
        }
        if let DegradePolicy::Approximate {
            max_consecutive,
            min_coverage,
        } = &self.degrade
        {
            if *max_consecutive == 0 {
                return Err(SchedError::InvalidSpec(
                    "degrade.max_consecutive must be at least 1".into(),
                ));
            }
            if !(0.0..=1.0).contains(min_coverage) {
                return Err(SchedError::InvalidSpec(format!(
                    "degrade.min_coverage must lie in [0, 1], got {min_coverage}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_build_deterministically() {
        let recipe = JobRecipe::Regression {
            features: 3,
            samples: 32,
            noise: 0.01,
        };
        let (_, a) = recipe.build(9);
        let (_, b) = recipe.build(9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.features_of(0), b.features_of(0));
        let (_, c) = recipe.build(10);
        assert_ne!(a.features_of(0), c.features_of(0));
    }
}
