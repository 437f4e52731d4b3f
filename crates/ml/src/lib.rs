//! # isgc-ml — models, datasets, and SGD for the IS-GC reproduction
//!
//! The paper trains ResNet-18 on ImageNet/CIFAR-10; this crate provides the
//! laptop-scale stand-ins that preserve the training dynamics IS-GC cares
//! about:
//!
//! - [`dataset`] — synthetic datasets (regression and multi-class Gaussian
//!   classification) with **deterministic partition/mini-batch selection**,
//!   mirroring the paper's "we carefully control all random seeds so that
//!   data in each batch are always the same in the same dataset partition";
//! - [`model`] — linear regression, softmax regression, and a
//!   one-hidden-layer MLP (so both convex and non-convex losses are
//!   covered), each exposing *summed* per-sample gradients as IS-GC requires;
//! - [`optimizer`] — plain SGD, the paper's Theorem 12 update;
//! - [`metrics`] — sample statistics (mean, standard deviation).
//!
//! # Example: one manual SGD step over two partitions
//!
//! ```
//! use isgc_ml::dataset::Dataset;
//! use isgc_ml::model::{LinearRegression, Model};
//! use isgc_ml::optimizer::Sgd;
//!
//! let data = Dataset::synthetic_regression(64, 3, 0.1, 7);
//! let parts = data.partition(2);
//! let model = LinearRegression::new(3);
//! let mut params = model.zero_params();
//! let mut opt = Sgd::new(0.01);
//!
//! let batch0 = parts.minibatch(0, 8, 0, 42);
//! let batch1 = parts.minibatch(1, 8, 0, 42);
//! let mut g = model.gradient_sum(&params, &data, &batch0);
//! g.axpy(1.0, &model.gradient_sum(&params, &data, &batch1));
//! g.scale(1.0 / 16.0); // normalize by total samples
//! opt.step(&mut params, &g);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod metrics;
pub mod model;
pub mod optimizer;

pub use dataset::{Dataset, Partitioned};
pub use model::{LinearRegression, Mlp, Model, SoftmaxRegression};
pub use optimizer::Sgd;
