//! Per-step and per-run measurements for networked training.
//!
//! These are the engine's unified reporting types ([`isgc_engine::StepReport`]
//! and [`isgc_engine::TrainReport`]) under this crate's historical names, so
//! a TCP run, a simulated run, and an in-process scheduler job all produce
//! structurally identical, directly comparable records.

pub use isgc_engine::{RepairEvent, StepReport as NetReport, TrainReport as NetTrainReport};
