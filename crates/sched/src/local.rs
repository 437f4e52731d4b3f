//! The in-process job backend: faithful gradient computation with a
//! deterministic straggler schedule.

use isgc_core::WorkerSet;
use isgc_engine::{
    step_rng, Collected, Collector, EngineError, MetricsObserver, Session, SessionStatus,
    StepContext, StepEngine, TrainReport, WorkerStep,
};
use isgc_linalg::Vector;
use isgc_ml::Dataset;
use isgc_obs::Registry;

use crate::spec::{JobSpec, ModelKind};
use crate::{DriverError, JobDriver, SchedError};

/// Salt separating the straggler schedule from every other seed-derived
/// stream (decode RNG, parameter init, minibatch selection).
const STRAGGLER_SALT: u64 = 0x5354_5241_474C_4552; // "STRAGLER"

/// The deterministic arrival set for one step: all `n` workers minus
/// `stragglers` chosen by a pure function of `(seed, step)` — never of
/// wall-clock time or co-tenant activity. This is what makes a job's run
/// bitwise reproducible solo or co-tenant.
pub fn arrivals_for(n: usize, stragglers: usize, seed: u64, step: u64) -> Vec<usize> {
    if stragglers == 0 {
        return (0..n).collect();
    }
    let mut rng = step_rng(seed ^ STRAGGLER_SALT, step);
    WorkerSet::random_subset(n, n - stragglers, &mut rng).to_vec()
}

/// In-process collection: every scheduled arrival computes its codeword
/// synchronously; the engine decodes and aggregates as usual.
pub struct LocalCollector {
    model: ModelKind,
    dataset: Dataset,
    /// The shared worker recipe (partitioning and gradient scratch), built
    /// once instead of re-derived every step.
    work: WorkerStep,
    assignments: Vec<Vec<usize>>,
    seed: u64,
    stragglers: usize,
}

impl Collector for LocalCollector {
    fn n(&self) -> usize {
        self.assignments.len()
    }

    fn gather(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let n = self.n();
        let arrivals = arrivals_for(n, self.stragglers, self.seed, ctx.step);
        let mut codewords: Vec<Option<Vector>> = vec![None; n];
        for &w in &arrivals {
            codewords[w] = Some(self.work.codeword(
                &self.model,
                &self.dataset,
                &self.assignments[w],
                ctx.step,
                ctx.params,
            ));
        }
        Ok(Collected {
            arrivals,
            codewords,
            declined: Vec::new(),
            stale: 0,
            waited_ms: 0.0,
            duration: 0.0,
        })
    }
}

/// One in-process tenant job: engine + open session + collector, stepped
/// by the scheduler through [`JobDriver`].
pub struct LocalJob {
    engine: StepEngine,
    session: Session,
    model: ModelKind,
    dataset: Dataset,
    collector: LocalCollector,
    metrics: Option<MetricsObserver>,
}

impl LocalJob {
    /// Builds the job from its spec. With `metrics` set, every step is
    /// recorded into the shared registry under the job's
    /// `("job", name)` label scope.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidSpec`] for inconsistent specs.
    pub fn build(spec: &JobSpec, metrics: Option<Registry>) -> Result<Self, SchedError> {
        spec.validate()?;
        let (model, dataset) = spec.recipe.build(spec.seed);
        let engine = StepEngine::new(spec.engine_config())
            .map_err(|e| SchedError::InvalidSpec(e.to_string()))?;
        let n = spec.placement.n();
        let assignments: Vec<Vec<usize>> = (0..n)
            .map(|w| spec.placement.partitions_of(w).to_vec())
            .collect();
        let work = WorkerStep::new(&model, &dataset, n, spec.batch_size, spec.seed);
        let collector = LocalCollector {
            model: model.clone(),
            dataset: dataset.clone(),
            work,
            assignments,
            seed: spec.seed,
            stragglers: spec.stragglers,
        };
        let session = engine.begin(&model, &dataset, None);
        let metrics = metrics.map(|registry| MetricsObserver::for_job(registry, n, &spec.name));
        Ok(LocalJob {
            engine,
            session,
            model,
            dataset,
            collector,
            metrics,
        })
    }
}

impl JobDriver for LocalJob {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        let collector = &mut self.collector;
        let result = match &mut self.metrics {
            Some(observer) => self.engine.step(
                &mut self.session,
                &self.model,
                &self.dataset,
                collector,
                observer,
            ),
            None => self.engine.step(
                &mut self.session,
                &self.model,
                &self.dataset,
                collector,
                &mut isgc_engine::NoopObserver,
            ),
        };
        result.map_err(|e| Box::new(e) as DriverError)
    }

    fn finish(self: Box<Self>) -> TrainReport {
        self.engine.finish(self.session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_and_respects_count() {
        let a = arrivals_for(16, 5, 9, 3);
        let b = arrivals_for(16, 5, 9, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        assert_ne!(arrivals_for(16, 5, 9, 4), a);
        assert_eq!(arrivals_for(16, 0, 9, 3), (0..16).collect::<Vec<_>>());
    }
}
