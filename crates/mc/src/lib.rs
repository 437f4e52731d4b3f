//! # isgc-mc — exhaustive protocol model checker for the IS-GC collectors
//!
//! The chaos harness (`isgc-chaos`) samples fault schedules on a real
//! loopback cluster; this crate *enumerates* them. It drives the **real**
//! collector state machines — `isgc-net`'s
//! [`MasterLoop`](isgc_net::master::MasterLoop),
//! [`TreeRootLoop`](isgc_net::submaster::TreeRootLoop) and
//! [`ShardLoop`](isgc_net::submaster::ShardLoop), three instances of one
//! peer table and collection loop — over a deterministic virtual network
//! whose every delivery order and worker misbehavior (decline, stale
//! codeword, duplicate, connection drop, death) is a choice point in a
//! depth-first search. Because the code under test is the production
//! collector behind the [`isgc_net::seam::Transport`] seam, a property
//! proved here is a property of the shipped protocol, not of a model of it.
//!
//! At every terminal state the checker holds the run to the report checker
//! the chaos harness calls, [`isgc_chaos::invariants::check_reports`] — one
//! function, so a modeled violation and its loopback replay produce the same
//! strings — and adds the last two checks below, which only a search can
//! make:
//!
//! * recovery inside the Theorem 10–11 interval, and equal to the exact
//!   branch-and-bound decoder's maximum (after a placement repair, equal to
//!   an independent reconstruction of the repaired decode);
//! * degradation-ladder arithmetic (streak counters, skipped-step and
//!   bias-weight coherence);
//! * scripted absences: a suppressed codeword keeps its worker out of the
//!   step's arrivals — no stale or duplicate frame is ever double-counted;
//! * stale accounting: every scripted stale/duplicate frame is discarded
//!   and counted;
//! * progress: no reachable state leaves the collector waiting on events
//!   nobody will send;
//! * determinism: two runs delivering the same per-step event multiset
//!   produce the same recovery fingerprint.
//!
//! Soundness of the search rests on two properties argued in [`explore`]'s
//! implementation: per-connection delivery is FIFO (TCP semantics), and the
//! master's state is a function of per-connection delivered prefixes — so
//! canonical-state hashing collapses interleavings that only permute
//! deliveries across connections.
//!
//! When a violation is found, [`minimize`] shrinks the fault schedule to a
//! 1-minimal core and [`counterexample_trace`] serializes it as an
//! [`isgc_chaos::Trace`]: `isgc chaos --plan <trace.json>` replays the
//! schedule on a genuine TCP cluster and must reproduce the same failure
//! fingerprint. The `mc-mutation` feature (forwarded to `isgc-net`) seeds a
//! deliberate stale-acceptance bug into the real master so this loop —
//! explore, shrink, emit, replay — is exercised end to end in CI.
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
mod sched;
mod world;

pub use explore::{
    counterexample_trace, explore, explore_plan, minimize, Exploration, McConfig, Shape, Violation,
};
