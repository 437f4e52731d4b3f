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
//! A job's steps are a pure function of its spec: its arrival sets come
//! from [`arrivals_for`] (seed and step, never the clock), its decode RNG
//! from `(seed, step)`, and its aggregate from the engine's fixed pairwise
//! reduction order. So its recovery fingerprint and loss curve are
//! **bitwise identical** whether it runs solo or co-tenant with `J−1`
//! other jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod local;
mod scheduler;
mod spec;

pub use local::{arrivals_for, LocalCollector, LocalJob};
pub use scheduler::{JobId, JobOutcome, RoundReport, Scheduler, SchedulerConfig};
pub use spec::{JobRecipe, JobSpec, ModelKind};

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
    /// The job specification is inconsistent (e.g. so many stragglers that
    /// no worker would arrive).
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
