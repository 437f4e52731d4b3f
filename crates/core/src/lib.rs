//! # isgc-core — Ignore-Straggler Gradient Coding
//!
//! A faithful implementation of **IS-GC** from *"On Arbitrary Ignorance of
//! Stragglers with Gradient Coding"* (Su, Sukhnandan, Li — ICDCS 2023),
//! together with the classic gradient-coding baseline it compares against.
//!
//! ## The problem
//!
//! In distributed synchronous SGD a dataset is split into `n` partitions,
//! one per worker; the master must sum the per-partition gradients
//! `g = g_1 + … + g_n` each step, so a single slow worker (*straggler*)
//! stalls the whole step. Classic gradient coding (GC) stores `c` partitions
//! per worker and encodes gradients with carefully chosen coefficients so any
//! `n − c + 1` workers suffice — but with more than `c − 1` stragglers it
//! recovers *nothing*, and with fewer it wastes the redundancy.
//!
//! **IS-GC** instead has every worker upload the *plain sum* of its `c`
//! per-partition gradients. Summed codewords from any non-*conflicting* set
//! of workers (workers sharing no partition) combine into a partial gradient
//! `ĝ = Σ_{i∈I} g_i`, so the master may stop waiting after *any* number of
//! arrivals. Maximizing `|I|` is a maximum-independent-set problem on the
//! *conflict graph*, which the paper solves in linear time for the three
//! placement families:
//!
//! - [`Placement::fractional`] (FR) — groups of identical workers,
//!   decoded by [`decode::FrDecoder`] (paper Alg. 1);
//! - [`Placement::cyclic`] (CR) — round-robin placement whose conflict graph
//!   is the circulant `C_n^{1..c−1}` (Theorem 1), decoded by
//!   [`decode::CrDecoder`] (paper Alg. 2);
//! - [`Placement::hybrid`] (HR) — a family `HR(n, c₁, c₂)` interpolating
//!   between FR and CR (Theorems 5–7), decoded by [`decode::HrDecoder`]
//!   (paper Algs. 3–4).
//!
//! ## Quick example
//!
//! ```
//! use isgc_core::decode::{CrDecoder, Decoder};
//! use isgc_core::{Placement, WorkerSet};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), isgc_core::Error> {
//! // 4 workers, 2 partitions each, cyclic placement (Fig. 1(d) of the paper).
//! let placement = Placement::cyclic(4, 2)?;
//! let decoder = CrDecoder::new(&placement)?;
//!
//! // Workers 1 and 3 straggle; only 0 and 2 arrived.
//! let available = WorkerSet::from_indices(4, [0, 2]);
//! let mut rng = StdRng::seed_from_u64(1);
//! let result = decoder.decode(&available, &mut rng);
//!
//! // Workers 0 and 2 do not conflict, so all 4 partitions are recovered
//! // from just 2 workers — IS-SGD would recover only 2.
//! assert_eq!(result.selected().len(), 2);
//! assert_eq!(result.partitions(), &[0, 1, 2, 3]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`placement`] | §III, §IV, §VI | FR / CR / HR placement construction |
//! | [`conflict`] | §V-A | conflict graph, circulant checks, exact MIS oracle |
//! | [`decode`] | §IV–§VI | Algorithms 1–4 + exact & arrival-order baselines |
//! | [`bounds`] | §VII-A | Theorems 10–11 recovery bounds |
//! | [`expectation`] | §VII-A, Fig. 13(a) | expected recovery `E[α(G[W'])]` |
//! | [`design`] | §V-C, §VI | placement recommendation for a given `(n, c)` |
//! | [`encode`] | §IV | sum-encoding and `ĝ` assembly |
//! | [`classic`] | §III | classic GC baseline (Tandon et al.) |
//! | [`fairness`] | §IV, §V-B | Monte-Carlo partition-inclusion fairness |
//! | [`hash`] | — | FNV-1a and the SplitMix64 finalizer, written once |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod classic;
pub mod conflict;
pub mod decode;
pub mod design;
pub mod encode;
mod error;
pub mod expectation;
pub mod fairness;
pub mod hash;
pub mod placement;
mod worker_set;

pub use conflict::ConflictGraph;
pub use error::Error;
pub use placement::{HrParams, Placement, Scheme};
pub use worker_set::WorkerSet;

/// Identifier of a worker, in `0..n`.
pub type WorkerId = usize;

/// Identifier of a dataset partition, in `0..n` (the paper always uses as
/// many partitions as workers).
pub type PartitionId = usize;
