//! # isgc-chaos — deterministic fault injection for the IS-GC runtime
//!
//! The paper's claim is a *robustness* claim: a master that ignores an
//! arbitrary subset of stragglers each step still recovers a bounded
//! fraction of the gradient (Theorems 10–11). This crate turns that claim
//! into an executable contract for the real TCP runtime in `isgc-net`: a
//! [`FaultPlan`] scripts per-step, per-worker faults — connection drops,
//! corrupted and truncated frames, delay spikes, duplicate and stale
//! codewords, worker flaps and permanent deaths, cold master crashes — and
//! the [`harness`] runs a genuine loopback cluster under the plan while
//! asserting, step by step, that recovery stays inside the theorems'
//! bounds, that decode results match an independent oracle, and that the
//! run's observable behavior is a pure function of `(plan, seed)`. The
//! step-by-step checks are [`invariants::check_reports`], the one report
//! checker the tree harness and the model checker (`isgc-mc`) call too.
//!
//! Determinism is engineered, not hoped for:
//!
//! * faults trigger on **step indices**, never timers;
//! * the harness waits for every live worker each step, so arrival *sets*
//!   are schedule-independent even when arrival *order* is not;
//! * a flapped worker reconnects immediately but `Decline`s any step it
//!   rejoins mid-flight, pinning exactly which steps it misses;
//! * all randomness — including the `random` plan generator — flows from
//!   [`ChaosRng`], a pinned SplitMix64 whose sequence is part of the
//!   format.
//!
//! The same properties make master recovery testable: the plan crashes the
//! master cold after a chosen step, the harness rebinds the same port, and
//! the resumed master (restored from its `isgc_net` checkpoint) must
//! produce the missing steps exactly once — verified by the stitched
//! report's step sequence and fingerprint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod invariants;
pub mod metrics;
pub mod plan;
pub mod rng;
pub mod trace;
pub mod tree;
pub mod worker;

pub use harness::{run_chaos, ChaosConfig, ChaosOutcome};
pub use plan::{Action, Fault, FaultKind, FaultPlan, Mangle, PLAN_NAMES};
pub use rng::ChaosRng;
pub use trace::{failure_fingerprint, Trace};
pub use tree::{run_tree_chaos, TreeChaosConfig, TreeChaosOutcome};
pub use worker::{run_chaos_worker, ChaosWorkerSummary};

use std::fmt;

/// Everything that can go wrong running a chaos experiment (beyond the
/// faults themselves, which are the point).
#[derive(Debug)]
pub enum ChaosError {
    /// The underlying runtime failed in a way no plan scripts.
    Net(isgc_net::NetError),
    /// The plan cannot run against the requested cluster.
    InvalidPlan(String),
    /// The harness itself broke (a thread panicked).
    Harness(String),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Net(e) => write!(f, "runtime error: {e}"),
            ChaosError::InvalidPlan(why) => write!(f, "invalid fault plan: {why}"),
            ChaosError::Harness(why) => write!(f, "harness failure: {why}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<isgc_net::NetError> for ChaosError {
    fn from(e: isgc_net::NetError) -> Self {
        ChaosError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = ChaosError::InvalidPlan("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = ChaosError::from(isgc_net::NetError::AllWorkersLost);
        assert!(e.to_string().contains("every worker"));
        let e = ChaosError::Harness("panic".into());
        assert!(e.to_string().contains("panic"));
    }
}
