//! # isgc — umbrella crate
//!
//! Re-exports the whole IS-GC reproduction behind one dependency:
//!
//! - [`core`] — placements, conflict graphs, decoders, classic GC;
//! - [`linalg`] — the dense linear-algebra substrate;
//! - [`ml`] — models, synthetic datasets, SGD;
//! - [`simnet`] — discrete-event cluster simulation;
//! - [`engine`] — the transport-agnostic training step engine and the shared
//!   worker step;
//! - [`net`] — the TCP master/worker runtime;
//! - [`sched`] — the multi-tenant job scheduler;
//! - [`mc`] — fault injection on the TCP runtime and exhaustive model
//!   checking of its collector;
//! - [`obs`] — metrics registry and trace spans with deterministic snapshots.
//!
//! See the repository README for a guided tour and the `examples/` directory
//! for runnable entry points. The crate also ships the `isgc` CLI
//! (`placement | decode | bounds | recommend | plan | trace | sim | serve |
//! serve-jobs | worker | launch | chaos | mc`).
//!
//! # Quickstart: decode a straggler pattern
//!
//! ```
//! use isgc::core::decode::{CrDecoder, Decoder};
//! use isgc::core::{Placement, WorkerSet};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), isgc::core::Error> {
//! let placement = Placement::cyclic(4, 2)?;
//! let decoder = CrDecoder::new(&placement)?;
//! let available = WorkerSet::from_indices(4, [0, 2]); // 1 and 3 straggle
//! let result = decoder.decode(&available, &mut StdRng::seed_from_u64(0));
//! assert_eq!(result.partitions(), &[0, 1, 2, 3]); // full recovery
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart: simulate a training run
//!
//! ```
//! use isgc::core::Placement;
//! use isgc::ml::dataset::Dataset;
//! use isgc::ml::model::SoftmaxRegression;
//! use isgc::simnet::cluster::ClusterConfig;
//! use isgc::simnet::policy::WaitPolicy;
//! use isgc::simnet::trainer::{train, CodingScheme, TrainingConfig};
//!
//! # fn main() -> Result<(), isgc::core::Error> {
//! let report = train(
//!     &SoftmaxRegression::new(8, 4),
//!     &Dataset::gaussian_classification(256, 8, 4, 3.0, 7),
//!     &CodingScheme::IsGc(Placement::cyclic(4, 2)?),
//!     &WaitPolicy::WaitForCount(2),
//!     ClusterConfig::uniform(4, 0.05, 0.05),
//!     &TrainingConfig {
//!         max_steps: 20,
//!         loss_threshold: 0.0,
//!         ..TrainingConfig::default()
//!     },
//! );
//! assert_eq!(report.step_count(), 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use isgc_core as core;
pub use isgc_engine as engine;
pub use isgc_linalg as linalg;
pub use isgc_mc as mc;
pub use isgc_ml as ml;
pub use isgc_net as net;
pub use isgc_obs as obs;
pub use isgc_sched as sched;
pub use isgc_simnet as simnet;
