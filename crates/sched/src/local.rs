//! The in-process job backend: faithful gradient computation with a
//! deterministic straggler schedule, in flat and 2-level-tree flavours.

use isgc_core::decode::{decoder_for, Decoder};
use isgc_core::WorkerSet;
use isgc_engine::{
    decode_shard, shard_ranges, step_rng, Collected, Collector, EngineError, MetricsObserver,
    Session, SessionStatus, ShardedDecode, StepContext, StepEngine, TrainReport, WorkerStep,
};
use isgc_linalg::Vector;
use isgc_ml::Dataset;
use isgc_obs::Registry;

use crate::spec::{JobSpec, ModelKind, Topology};
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

/// Flat in-process collection: every scheduled arrival computes its
/// codeword synchronously; the engine decodes and aggregates as usual.
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

    fn collect(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
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
            sharded: None,
        })
    }
}

/// Two-level in-process collection: each sub-master owns a group-aligned
/// shard, decodes its slice of the conflict graph with the same
/// `(seed, step)`-derived RNG as a flat master would, sums its selected
/// codewords with the canonical pairwise reduction over its shard range,
/// and hands the root only `(selection, partial sum)` — the root never
/// sees raw codewords.
pub struct TreeCollector {
    model: ModelKind,
    dataset: Dataset,
    /// The shared worker recipe (partitioning and gradient scratch).
    work: WorkerStep,
    assignments: Vec<Vec<usize>>,
    seed: u64,
    stragglers: usize,
    decoder: Box<dyn Decoder>,
    shards: Vec<(usize, usize)>,
}

impl Collector for TreeCollector {
    fn n(&self) -> usize {
        self.assignments.len()
    }

    fn collect(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let n = self.n();
        let arrivals = arrivals_for(n, self.stragglers, self.seed, ctx.step);

        let mut selected = Vec::new();
        let mut recovered = 0;
        let mut partials: Vec<Option<Vector>> = Vec::with_capacity(self.shards.len());
        for &(lo, hi) in &self.shards {
            let own: Vec<usize> = arrivals
                .iter()
                .copied()
                .filter(|w| (lo..hi).contains(w))
                .collect();
            // Only the workers the shard selects compute a codeword.
            let shard = decode_shard(
                self.decoder.as_ref(),
                n,
                (lo, hi),
                &own,
                (self.seed, ctx.step),
                |w| {
                    self.work.codeword(
                        &self.model,
                        &self.dataset,
                        &self.assignments[w],
                        ctx.step,
                        ctx.params,
                    )
                },
            );
            partials.push(shard.partial);
            selected.extend(shard.selected);
            recovered += shard.recovered;
        }

        Ok(Collected {
            arrivals,
            codewords: vec![None; n],
            declined: Vec::new(),
            stale: 0,
            waited_ms: 0.0,
            duration: 0.0,
            sharded: Some(ShardedDecode {
                selected,
                recovered,
                partials,
            }),
        })
    }
}

enum Backend {
    Flat(LocalCollector),
    Tree(TreeCollector),
}

/// One in-process tenant job: engine + open session + backend, stepped by
/// the scheduler through [`JobDriver`].
pub struct LocalJob {
    engine: StepEngine,
    session: Session,
    model: ModelKind,
    dataset: Dataset,
    backend: Backend,
    metrics: Option<MetricsObserver>,
}

impl LocalJob {
    /// Builds the job from its spec. With `metrics` set, every step is
    /// recorded into the shared registry under the job's
    /// `("job", name)` label scope.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidSpec`] for inconsistent specs (including tree
    /// shards that cut through FR groups).
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
        let backend = match spec.topology {
            Topology::Flat => Backend::Flat(LocalCollector {
                model: model.clone(),
                dataset: dataset.clone(),
                work,
                assignments,
                seed: spec.seed,
                stragglers: spec.stragglers,
            }),
            Topology::Tree { submasters } => Backend::Tree(TreeCollector {
                model: model.clone(),
                dataset: dataset.clone(),
                work,
                assignments,
                seed: spec.seed,
                stragglers: spec.stragglers,
                decoder: decoder_for(&spec.placement)
                    .map_err(|e| SchedError::InvalidSpec(e.to_string()))?,
                shards: shard_ranges(n, submasters),
            }),
        };
        let session = engine.begin(&model, &dataset, None);
        let metrics = metrics.map(|registry| MetricsObserver::for_job(registry, n, &spec.name));
        Ok(LocalJob {
            engine,
            session,
            model,
            dataset,
            backend,
            metrics,
        })
    }
}

impl JobDriver for LocalJob {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        let collector: &mut dyn Collector = match &mut self.backend {
            Backend::Flat(c) => c,
            Backend::Tree(c) => c,
        };
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
    use isgc_core::Placement;

    fn spec(n: usize, c: usize, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new("t", Placement::fractional(n, c).unwrap(), seed);
        spec.stragglers = 3;
        spec.max_steps = 8;
        spec
    }

    fn run(spec: &JobSpec) -> TrainReport {
        let mut job = Box::new(LocalJob::build(spec, None).unwrap());
        while job.step().unwrap() == SessionStatus::Running {}
        job.finish()
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_respects_count() {
        let a = arrivals_for(16, 5, 9, 3);
        let b = arrivals_for(16, 5, 9, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        assert_ne!(arrivals_for(16, 5, 9, 4), a);
        assert_eq!(arrivals_for(16, 0, 9, 3), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tree_matches_flat_bitwise() {
        // The acceptance bar: 2 sub-masters at n=16 match flat aggregation's
        // fingerprint exactly, and the loss curve is bitwise identical.
        for submasters in [2usize, 4] {
            let flat_spec = spec(16, 2, 42);
            let mut tree_spec = flat_spec.clone();
            tree_spec.topology = Topology::Tree { submasters };
            let flat = run(&flat_spec);
            let tree = run(&tree_spec);
            assert_eq!(
                flat.recovery_fingerprint(),
                tree.recovery_fingerprint(),
                "submasters={submasters}"
            );
            assert_eq!(flat.loss_curve(), tree.loss_curve());
            assert_eq!(flat.final_params.as_slice(), tree.final_params.as_slice());
        }
    }

    #[test]
    fn tree_and_flat_report_identical_selections() {
        let flat_spec = spec(16, 4, 7);
        let mut tree_spec = flat_spec.clone();
        tree_spec.topology = Topology::Tree { submasters: 2 };
        let flat = run(&flat_spec);
        let tree = run(&tree_spec);
        for (a, b) in flat.steps.iter().zip(tree.steps.iter()) {
            assert_eq!(a.selected, b.selected, "step {}", a.step);
            assert_eq!(a.recovered, b.recovered);
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.bounds, b.bounds);
        }
    }
}
