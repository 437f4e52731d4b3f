//! # isgc-mc — fault injection and model checking for the IS-GC runtime
//!
//! The paper's claim is a *robustness* claim: a master that ignores an
//! arbitrary subset of stragglers each step still recovers a bounded
//! fraction of the gradient (Theorems 10–11). This crate checks that claim
//! against the shipped protocol in two ways, both driven by one fault
//! vocabulary ([`Fault`], [`FaultKind`]) and held to one report checker:
//!
//! * **Sampling.** [`run_chaos`] runs a genuine loopback TCP cluster under a
//!   [`FaultPlan`] — connection drops, corrupted and truncated frames, delay
//!   spikes, duplicate and stale codewords, worker flaps and permanent
//!   deaths, cold master crashes — restarting the master from its
//!   `isgc_net` checkpoint when the plan crashes it.
//! * **Enumeration.** [`explore`] drives the **real** collector state
//!   machine — `isgc-net`'s [`MasterLoop`](isgc_net::master::MasterLoop) —
//!   over a deterministic virtual network whose every delivery order and
//!   worker misbehavior (decline, stale codeword, duplicate, connection
//!   drop, death) is a choice point in a depth-first search. The code under
//!   test sits behind the [`isgc_net::seam::Transport`] seam, so a property
//!   proved here is a property of the shipped protocol, not of a model of
//!   it.
//!
//! A modeled worker and a loopback chaos worker are the same client: an
//! `isgc_net` `WorkerCore` answers honestly, and a fault is one short
//! script of actions that the loopback worker performs as bytes on its
//! socket and the checker as events on its virtual network. Every run, of
//! either kind, is checked step by step against the same invariants:
//!
//! * recovery inside the Theorem 10–11 interval, and equal to the exact
//!   branch-and-bound decoder's maximum (after a placement repair, equal to
//!   an independent reconstruction of the repaired decode);
//! * degradation-ladder arithmetic (streak counters, skipped-step and
//!   bias-weight coherence);
//! * scripted absences: a suppressed codeword keeps its worker out of the
//!   step's arrivals — no stale or duplicate frame is ever double-counted;
//! * stale accounting: every scripted stale/duplicate frame is discarded
//!   and counted.
//!
//! The search adds the checks only it can make: progress (no reachable
//! state leaves the collector waiting on events nobody will send) and
//! determinism (two runs delivering the same per-step event multiset
//! produce the same recovery fingerprint). Its soundness rests on two
//! properties argued in [`explore`]'s implementation: per-connection
//! delivery is FIFO (TCP semantics), and the master's state is a function
//! of per-connection delivered prefixes — so canonical-state hashing
//! collapses interleavings that only permute deliveries across connections.
//!
//! Loopback runs are deterministic by construction, not by luck:
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
//! The two halves close a loop. When the search finds a violation,
//! [`minimize`] shrinks the fault schedule to a 1-minimal core and
//! [`counterexample_trace`] serializes it as a [`Trace`], a plain-text
//! file of `key value` lines: `isgc chaos --plan <file>` replays the
//! schedule on a genuine TCP cluster and must reproduce the same
//! [`failure_fingerprint`]. The `mc-mutation`
//! feature (forwarded to `isgc-net`) seeds a deliberate stale-acceptance
//! bug into the real master so this loop — explore, shrink, emit, replay —
//! is exercised end to end in CI.
//!
//! ```
//! use isgc_mc::{explore, McConfig};
//!
//! let mut cfg = McConfig::flat3();
//! cfg.depth = 6; // keep the doctest fast; CI uses larger bounds
//! let result = explore(&cfg);
//! assert!(result.passed(), "{:?}", result.violations);
//! assert!(result.runs > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod harness;
mod invariants;
mod metrics;
mod plan;
mod rng;
mod sched;
mod trace;
mod worker;
mod world;

pub use explore::{
    counterexample_trace, explore, explore_plan, minimize, Exploration, McConfig, Shape, Violation,
};
pub use harness::{run_chaos, ChaosConfig, ChaosOutcome};
pub use metrics::MASTER_RESTARTS_TOTAL;
pub use plan::{Fault, FaultKind, FaultPlan, PLAN_NAMES};
pub use rng::ChaosRng;
pub use trace::{failure_fingerprint, Trace};
pub use worker::run_chaos_worker;

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
