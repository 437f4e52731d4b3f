//! Admission control and deterministic fair queueing over [`JobDriver`]s.

use std::collections::VecDeque;

use isgc_engine::TrainReport;
use isgc_obs::Registry;

use crate::local::LocalJob;
use crate::spec::JobSpec;
use crate::{DriverError, JobDriver, SchedError, SessionStatus};

/// Stable identifier of a submitted job (assigned at submission, never
/// reused within one scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Scheduler sizing: how many jobs run concurrently and how many may wait.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Jobs stepped concurrently (admitted). Must be ≥ 1.
    pub max_concurrent: usize,
    /// Jobs allowed to wait for a slot; submissions beyond this are
    /// rejected with [`SchedError::QueueFull`].
    pub queue_capacity: usize,
    /// Shared metrics registry; each job records under its
    /// `("job", name)` label scope.
    pub metrics: Option<Registry>,
}

impl SchedulerConfig {
    /// A scheduler hosting up to `max_concurrent` jobs with a
    /// `queue_capacity`-deep wait queue and no metrics.
    pub fn new(max_concurrent: usize, queue_capacity: usize) -> Self {
        SchedulerConfig {
            max_concurrent,
            queue_capacity,
            metrics: None,
        }
    }

    /// Attaches a shared metrics registry.
    pub fn with_metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }
}

/// How one finished job ended.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id.
    pub id: JobId,
    /// The job's name.
    pub name: String,
    /// Steps the scheduler ran for this job.
    pub steps_run: u64,
    /// The training report (`Err` if the driver failed; co-tenants are
    /// unaffected either way).
    pub result: Result<TrainReport, DriverError>,
}

/// What one [`Scheduler::run_round`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Jobs stepped this round, in scheduling order.
    pub stepped: Vec<JobId>,
    /// Jobs that finished (or failed) this round.
    pub finished: Vec<JobId>,
    /// Jobs promoted from the wait queue into a freed slot.
    pub admitted: Vec<JobId>,
}

struct RunningJob {
    id: JobId,
    name: String,
    driver: Box<dyn JobDriver>,
    steps_run: u64,
}

struct QueuedJob {
    id: JobId,
    name: String,
    factory: Box<dyn FnOnce() -> Result<Box<dyn JobDriver>, DriverError>>,
}

/// The multi-tenant scheduler: admission control plus deterministic
/// round-robin stepping. See the crate docs for the scheduler/invoker
/// split.
///
/// Fairness contract: every admitted job is stepped exactly once per
/// [`Scheduler::run_round`], in admission order. While two jobs are both
/// admitted their step counts never differ by more than one, and a queued
/// job is admitted the moment a slot frees — no job starves.
pub struct Scheduler {
    config: SchedulerConfig,
    running: Vec<RunningJob>,
    queue: VecDeque<QueuedJob>,
    outcomes: Vec<JobOutcome>,
    next_id: u64,
}

impl Scheduler {
    /// An empty scheduler.
    ///
    /// # Panics
    ///
    /// If `config.max_concurrent` is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(
            config.max_concurrent >= 1,
            "a scheduler needs at least one concurrent slot"
        );
        Scheduler {
            config,
            running: Vec::new(),
            queue: VecDeque::new(),
            outcomes: Vec::new(),
            next_id: 0,
        }
    }

    /// Submits an in-process job built from `spec` (the common case; use
    /// [`Scheduler::submit_driver`] for custom transports).
    ///
    /// # Errors
    ///
    /// [`SchedError::QueueFull`] when both the slots and the queue are
    /// full, [`SchedError::InvalidSpec`] / [`SchedError::Build`] when the
    /// spec is rejected at admission.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SchedError> {
        // Validate eagerly so a queued job is not rejected much later.
        spec.validate()?;
        let name = spec.name.clone();
        let metrics = self.config.metrics.clone();
        self.submit_driver(
            name,
            Box::new(move || {
                LocalJob::build(&spec, metrics)
                    .map(|job| Box::new(job) as Box<dyn JobDriver>)
                    .map_err(|e| Box::new(e) as DriverError)
            }),
        )
    }

    /// Submits a job behind an arbitrary driver factory. The factory runs
    /// at *admission* (not submission), so a queued job holds no resources
    /// — a TCP-backed job binds its listener only once a slot frees.
    ///
    /// # Errors
    ///
    /// [`SchedError::QueueFull`] when both the slots and the queue are
    /// full, [`SchedError::Build`] when admission is immediate and the
    /// factory fails.
    pub fn submit_driver(
        &mut self,
        name: impl Into<String>,
        factory: Box<dyn FnOnce() -> Result<Box<dyn JobDriver>, DriverError>>,
    ) -> Result<JobId, SchedError> {
        let name = name.into();
        let id = JobId(self.next_id);
        if self.running.len() < self.config.max_concurrent {
            let driver = factory().map_err(|source| SchedError::Build {
                job: name.clone(),
                source,
            })?;
            self.next_id += 1;
            self.running.push(RunningJob {
                id,
                name,
                driver,
                steps_run: 0,
            });
            Ok(id)
        } else if self.queue.len() < self.config.queue_capacity {
            self.next_id += 1;
            self.queue.push_back(QueuedJob { id, name, factory });
            Ok(id)
        } else {
            Err(SchedError::QueueFull {
                max_concurrent: self.config.max_concurrent,
                queue_capacity: self.config.queue_capacity,
            })
        }
    }

    /// Whether no job is admitted or queued any more.
    fn is_idle(&self) -> bool {
        self.running.is_empty() && self.queue.is_empty()
    }

    /// One fair round: step every admitted job exactly once in admission
    /// order, retire the ones that finished (or failed — a failing job
    /// never disturbs its co-tenants), then admit queued jobs into the
    /// freed slots.
    pub fn run_round(&mut self) -> RoundReport {
        let mut report = RoundReport {
            stepped: Vec::new(),
            finished: Vec::new(),
            admitted: Vec::new(),
        };
        let mut idx = 0;
        while idx < self.running.len() {
            let job = &mut self.running[idx];
            report.stepped.push(job.id);
            match job.driver.step() {
                Ok(SessionStatus::Running) => {
                    job.steps_run += 1;
                    idx += 1;
                }
                Ok(SessionStatus::Done) => {
                    job.steps_run += 1;
                    let job = self.running.remove(idx);
                    report.finished.push(job.id);
                    self.outcomes.push(JobOutcome {
                        id: job.id,
                        name: job.name,
                        steps_run: job.steps_run,
                        result: Ok(job.driver.finish()),
                    });
                }
                Err(source) => {
                    let job = self.running.remove(idx);
                    report.finished.push(job.id);
                    self.outcomes.push(JobOutcome {
                        id: job.id,
                        name: job.name,
                        steps_run: job.steps_run,
                        result: Err(source),
                    });
                }
            }
        }
        while self.running.len() < self.config.max_concurrent {
            let Some(queued) = self.queue.pop_front() else {
                break;
            };
            match (queued.factory)() {
                Ok(driver) => {
                    report.admitted.push(queued.id);
                    self.running.push(RunningJob {
                        id: queued.id,
                        name: queued.name,
                        driver,
                        steps_run: 0,
                    });
                }
                Err(source) => {
                    report.finished.push(queued.id);
                    self.outcomes.push(JobOutcome {
                        id: queued.id,
                        name: queued.name,
                        steps_run: 0,
                        result: Err(source),
                    });
                }
            }
        }
        report
    }

    /// Runs rounds until every job (admitted and queued) has finished,
    /// then returns all outcomes sorted by job id.
    pub fn run_to_completion(mut self) -> Vec<JobOutcome> {
        while !self.is_idle() {
            self.run_round();
        }
        let mut outcomes = self.outcomes;
        outcomes.sort_by_key(|o| o.id);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use isgc_core::Placement;

    fn spec(name: &str, seed: u64, max_steps: u64) -> JobSpec {
        let mut spec = JobSpec::new(name, Placement::fractional(4, 2).unwrap(), seed);
        spec.max_steps = max_steps;
        spec.recipe = crate::JobRecipe::Regression {
            features: 3,
            samples: 48,
            noise: 0.05,
        };
        spec
    }

    #[test]
    fn admission_overflow_is_a_typed_rejection() {
        let mut sched = Scheduler::new(SchedulerConfig::new(1, 1));
        sched.submit(spec("a", 1, 4)).unwrap();
        sched.submit(spec("b", 2, 4)).unwrap(); // queued
        let err = sched.submit(spec("c", 3, 4)).unwrap_err();
        assert!(matches!(
            err,
            SchedError::QueueFull {
                max_concurrent: 1,
                queue_capacity: 1
            }
        ));
    }

    #[test]
    fn round_robin_steps_every_admitted_job_once() {
        let mut sched = Scheduler::new(SchedulerConfig::new(3, 0));
        let a = sched.submit(spec("a", 1, 5)).unwrap();
        let b = sched.submit(spec("b", 2, 5)).unwrap();
        let c = sched.submit(spec("c", 3, 5)).unwrap();
        let round = sched.run_round();
        assert_eq!(round.stepped, vec![a, b, c]);
        assert!(round.finished.is_empty());
    }

    #[test]
    fn queued_jobs_are_admitted_when_slots_free() {
        let mut sched = Scheduler::new(SchedulerConfig::new(1, 2));
        let a = sched.submit(spec("a", 1, 2)).unwrap();
        let b = sched.submit(spec("b", 2, 2)).unwrap();
        let c = sched.submit(spec("c", 3, 2)).unwrap();
        // a runs its 2 steps; on the round it finishes, b is admitted.
        let r1 = sched.run_round();
        assert_eq!(r1.stepped, vec![a]);
        let r2 = sched.run_round();
        assert_eq!(r2.finished, vec![a]);
        assert_eq!(r2.admitted, vec![b]);
        let outcomes = sched.run_to_completion();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(outcomes[2].id, c);
    }

    #[test]
    fn invalid_specs_are_rejected_at_submission() {
        let mut sched = Scheduler::new(SchedulerConfig::new(2, 2));
        let mut bad = spec("bad", 1, 4);
        bad.stragglers = bad.placement.n();
        assert!(matches!(sched.submit(bad), Err(SchedError::InvalidSpec(_))));
        assert!(sched.is_idle());
    }
}
