//! isgc-sched: a multi-tenant job scheduler for IS-GC training sessions.
//!
//! One server process hosts `J` concurrent training jobs, each with its own
//! [`isgc_core::Placement`], seed, and metrics scope.
//! The crate splits responsibilities in two:
//!
//! - **Scheduler** ([`Scheduler`]): admission control (a cap on concurrent
//!   jobs plus a bounded wait queue with typed overflow rejection) and
//!   deterministic fair queueing — each [`Scheduler::run_round`] steps every
//!   admitted job exactly once, in admission order, so no job ever starves
//!   and the interleaving is a pure function of the submission sequence.
//! - **Invoker** ([`JobDriver`]): one training session advanced one step at
//!   a time. The scheduler never looks inside a job; anything that can run
//!   a step behind the trait schedules identically — the in-process
//!   [`LocalJob`] here, or a TCP master session from `isgc-net`.
//!
//! On top, [`TreeCollector`] adds two-level hierarchical aggregation for
//! large `n`: sub-masters own a worker shard (cut at
//! [`isgc_engine::shard_ranges`] so each shard is a subtree of the canonical
//! pairwise reduction), run shard-local collection and partial
//! conflict-graph decoding, and forward partial codeword sums; the root
//! merges them with [`isgc_engine::pairwise_sum`], bound-checks, normalizes,
//! and applies SGD. Because the FR decoder decomposes over group-aligned
//! shards and the merge order is fixed, a job's recovery fingerprint and
//! loss curve are **bitwise identical** whether it runs solo, co-tenant
//! with `J−1` other jobs, or under a 2-level tree vs flat aggregation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod local;
mod scheduler;
mod spec;

pub use local::{arrivals_for, LocalCollector, LocalJob, TreeCollector};
pub use scheduler::{JobId, JobOutcome, RoundReport, Scheduler, SchedulerConfig};
pub use spec::{JobRecipe, JobSpec, ModelKind, Topology};

use std::fmt;

/// An opaque failure from inside one job's driver (transport errors, engine
/// errors); the scheduler records it in the job's [`JobOutcome`] without
/// letting it affect co-tenants.
pub type DriverError = Box<dyn std::error::Error + Send + Sync>;

/// Whether a job will run another step (re-exported engine type: the
/// scheduler speaks the engine's session vocabulary).
pub use isgc_engine::SessionStatus;

/// One schedulable training session, advanced one step per call — the
/// "invoker" half of the scheduler/invoker split.
///
/// Contract: after [`JobDriver::step`] returns [`SessionStatus::Done`] (or
/// an error), further `step` calls must be no-ops returning `Done`, and
/// [`JobDriver::finish`] yields the session's report.
pub trait JobDriver {
    /// Runs one training step (or none, if the session already finished).
    ///
    /// # Errors
    ///
    /// Driver-specific; the scheduler folds the error into the job's
    /// outcome and keeps scheduling the other jobs.
    fn step(&mut self) -> Result<SessionStatus, DriverError>;

    /// Closes the session and returns its report.
    fn finish(self: Box<Self>) -> isgc_engine::TrainReport;
}

/// Typed scheduler errors.
#[derive(Debug)]
pub enum SchedError {
    /// The job was rejected at admission: every concurrent slot is taken
    /// and the wait queue is full.
    QueueFull {
        /// Concurrent-job cap.
        max_concurrent: usize,
        /// Wait-queue capacity.
        queue_capacity: usize,
    },
    /// The job specification is inconsistent (e.g. a tree topology whose
    /// shard boundaries cut through an FR group).
    InvalidSpec(String),
    /// A job's driver could not be built at admission time.
    Build {
        /// The job's name.
        job: String,
        /// The underlying driver failure.
        source: DriverError,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::QueueFull {
                max_concurrent,
                queue_capacity,
            } => write!(
                f,
                "job rejected: {max_concurrent} concurrent slots busy and the \
                 wait queue ({queue_capacity} deep) is full"
            ),
            SchedError::InvalidSpec(why) => write!(f, "invalid job spec: {why}"),
            SchedError::Build { job, source } => {
                write!(f, "job {job:?} failed to start: {source}")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Build { source, .. } => Some(source.as_ref() as _),
            _ => None,
        }
    }
}
