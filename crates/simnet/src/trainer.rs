//! End-to-end simulated training (the pipeline behind paper Figs. 11–13).
//!
//! Each step mirrors the paper's Ray implementation (§VIII-A):
//!
//! 1. every worker computes the gradient of each of its `c` partitions on a
//!    *deterministic* mini-batch (replicas of a partition use identical
//!    batches, so their gradients agree bit-for-bit);
//! 2. the worker encodes its codeword (plain sum for IS-GC, coefficient
//!    combination for classic GC) and "uploads" it — the simulated cluster
//!    supplies the arrival time;
//! 3. the master stops waiting per its [`WaitPolicy`], decodes whatever
//!    arrived, normalizes, and applies an SGD update broadcast to all
//!    replicas;
//! 4. repeat until the training loss reaches a threshold.
//!
//! Steps 3–4 — decode, repair, bounds, normalization, the SGD update, and
//! reporting — are [`isgc_engine::StepEngine`]'s job; this module supplies
//! the simulation-backed [`isgc_engine::Collector`] (arrival sampling plus
//! synchronous codeword computation) and the scheme-to-config mapping.
//!
//! Per-partition gradients are computed once and shared between worker
//! replicas — numerically identical to computing them on each worker, since
//! batches are deterministic per partition.

use isgc_core::classic::ClassicGc;
use isgc_core::Placement;
use isgc_engine::{
    Collected, Collector, DegradePolicy, EngineConfig, EngineError, NoopObserver, Observer,
    StepContext, StepEngine,
};
use isgc_linalg::Vector;
use isgc_ml::dataset::{Dataset, Partitioned};
use isgc_ml::model::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use isgc_engine::{CodecSpec, GradientNormalization, StepReport, TrainReport};

use crate::cluster::{ClusterConfig, ClusterSim};
use crate::policy::WaitPolicy;

/// Which straggler-mitigation scheme the master runs.
#[derive(Debug, Clone)]
pub enum CodingScheme {
    /// Plain synchronous SGD: `c = 1`, the master needs every worker
    /// (pair with [`WaitPolicy::All`]).
    Synchronous,
    /// IS-SGD (k-sync SGD): `c = 1`, gradients of stragglers are dropped.
    IgnoreStragglerSgd,
    /// Classic GC on an FR placement: exact recovery from any `n − c + 1`
    /// workers, nothing from fewer.
    ClassicFr {
        /// Partitions per worker.
        c: usize,
    },
    /// Classic GC on a CR placement (Tandon et al. coefficients).
    ClassicCr {
        /// Partitions per worker.
        c: usize,
    },
    /// IS-GC with the given placement (FR, CR, or HR): maximal partial
    /// recovery from an arbitrary worker subset.
    IsGc(Placement),
    /// Ablation: IS-GC with the *arrival-order greedy* decoder of Fig. 3
    /// instead of the optimal one — quantifies what the paper's maximum-
    /// independent-set decoders buy.
    IsGcArrivalOrder(Placement),
}

impl CodingScheme {
    /// Partitions stored per worker.
    pub fn c(&self) -> usize {
        match self {
            CodingScheme::Synchronous | CodingScheme::IgnoreStragglerSgd => 1,
            CodingScheme::ClassicFr { c } | CodingScheme::ClassicCr { c } => *c,
            CodingScheme::IsGc(p) | CodingScheme::IsGcArrivalOrder(p) => p.c(),
        }
    }

    /// Human-readable label used by the experiment binaries.
    pub fn label(&self) -> String {
        match self {
            CodingScheme::Synchronous => "SyncSGD".to_string(),
            CodingScheme::IgnoreStragglerSgd => "IS-SGD".to_string(),
            CodingScheme::ClassicFr { c } => format!("GC-FR(c={c})"),
            CodingScheme::ClassicCr { c } => format!("GC-CR(c={c})"),
            CodingScheme::IsGc(p) => format!("IS-GC-{}(c={})", p.scheme(), p.c()),
            CodingScheme::IsGcArrivalOrder(p) => {
                format!("IS-GC-{}-arrival(c={})", p.scheme(), p.c())
            }
        }
    }
}

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Mini-batch size per partition (the paper's 64 or 128).
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Stop when the full-dataset training loss reaches this value.
    pub loss_threshold: f64,
    /// Hard cap on the number of steps.
    pub max_steps: usize,
    /// Seed controlling parameter init, mini-batches, and decoding choices
    /// (the cluster's arrival RNG is seeded separately by the caller).
    pub seed: u64,
    /// Gradient normalization rule (paper-faithful by default).
    pub normalization: GradientNormalization,
    /// What to do when a step decodes below the recoverable floor; the
    /// simulator's historical behavior is [`DegradePolicy::Skip`].
    pub degrade: DegradePolicy,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            batch_size: 32,
            learning_rate: 0.05,
            loss_threshold: 0.05,
            max_steps: 2000,
            seed: 0,
            normalization: GradientNormalization::SumOfPartitionMeans,
            degrade: DegradePolicy::Skip,
        }
    }
}

/// The scheme's placement and codec, as the engine understands them.
fn engine_spec(scheme: &CodingScheme, n: usize, seed: u64) -> (Placement, CodecSpec) {
    match scheme {
        CodingScheme::Synchronous | CodingScheme::IgnoreStragglerSgd => {
            // c = 1: each worker holds exactly its own partition. The CR
            // decoder with c = 1 selects every available worker.
            (Placement::cyclic(n, 1).expect("n >= 1"), CodecSpec::Scheme)
        }
        CodingScheme::ClassicFr { c } => {
            let gc = ClassicGc::fractional(n, *c).expect("valid FR parameters");
            (gc.placement().clone(), CodecSpec::Classic(gc))
        }
        CodingScheme::ClassicCr { c } => {
            // Coefficient construction gets the same dedicated RNG stream the
            // master historically used, so runs stay seed-reproducible.
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let gc = ClassicGc::cyclic(n, *c, &mut rng).expect("valid CR parameters");
            (gc.placement().clone(), CodecSpec::Classic(gc))
        }
        CodingScheme::IsGc(placement) => (placement.clone(), CodecSpec::Scheme),
        CodingScheme::IsGcArrivalOrder(placement) => (placement.clone(), CodecSpec::ArrivalOrder),
    }
}

/// Runs one full simulated training job.
///
/// The model starts from `model.init_params` seeded by `config.seed`, so
/// different schemes with the same seed start from identical parameters —
/// the paper's "same random seeds in different schemes so that the same
/// values of parameters are initialized … to make the comparisons fair".
///
/// # Panics
///
/// Panics on inconsistent configuration: `cluster.n` not matching the
/// scheme's placement size, `batch_size == 0`, `max_steps == 0`, a
/// classification/regression mismatch between model and data, or a wait
/// policy invalid for `n`.
pub fn train<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    policy: &WaitPolicy,
    cluster: ClusterConfig,
    config: &TrainingConfig,
) -> TrainReport {
    train_observed(
        model,
        dataset,
        scheme,
        policy,
        cluster,
        config,
        &mut NoopObserver,
    )
}

/// [`train`], with an [`Observer`] receiving every step report as it is
/// produced — bench plots and chaos harnesses hook in here, and an
/// [`isgc_engine::MetricsObserver`] records every step into a registry.
/// Simulated waits land in its timing-classed series even though they are
/// deterministic here, because their *values* are simulated time and would
/// never match a wall-clock backend's.
///
/// # Panics
///
/// As [`train`].
pub fn train_observed<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    policy: &WaitPolicy,
    cluster: ClusterConfig,
    config: &TrainingConfig,
    observer: &mut dyn Observer,
) -> TrainReport {
    train_impl(
        model,
        dataset,
        scheme,
        cluster,
        config,
        |_, _| policy.clone(),
        observer,
    )
}

/// Runs a training job with a **closed-loop adaptive wait policy** (paper
/// §IV's "fewer workers at the beginning, more afterwards", driven by
/// observed loss instead of a fixed schedule).
///
/// The controller sees the training loss after every step and chooses the
/// wait count for the next one; its decisions are recorded in
/// [`crate::adaptive::AdaptiveWaitController::w_history`].
///
/// # Panics
///
/// As [`train`], plus if the controller's `max_w` exceeds the cluster size.
pub fn train_adaptive<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    controller: &mut crate::adaptive::AdaptiveWaitController,
    cluster: ClusterConfig,
    config: &TrainingConfig,
) -> TrainReport {
    train_impl(
        model,
        dataset,
        scheme,
        cluster,
        config,
        |_, last_loss| {
            if let Some(loss) = last_loss {
                controller.observe(loss);
            }
            WaitPolicy::WaitForCount(controller.current_w())
        },
        &mut NoopObserver,
    )
}

/// Runs a training job whose arrival times replay a
/// [`crate::trace::StragglerTrace`]
/// instead of being sampled fresh — for studying recorded or synthetic
/// *time-correlated* straggler behavior (e.g. the enduring stragglers of a
/// [`crate::trace::MarkovStragglerModel`]).
///
/// # Panics
///
/// As [`train`], plus if the trace's worker count differs from the scheme's
/// placement size.
pub fn train_on_trace<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    policy: &WaitPolicy,
    sim: crate::trace::TraceClusterSim,
    config: &TrainingConfig,
) -> TrainReport {
    let n = sim.trace().n();
    train_loop(
        model,
        dataset,
        scheme,
        n,
        sim,
        config,
        |_, _| policy.clone(),
        &mut NoopObserver,
    )
}

/// Anything that can produce one step's arrival outcome.
trait ArrivalSampler {
    fn step(&mut self, c: usize, policy: &WaitPolicy, step: usize) -> crate::cluster::StepOutcome;
}

impl ArrivalSampler for ClusterSim {
    fn step(&mut self, c: usize, policy: &WaitPolicy, step: usize) -> crate::cluster::StepOutcome {
        self.run_step(c, policy, step)
    }
}

impl ArrivalSampler for crate::trace::TraceClusterSim {
    fn step(&mut self, c: usize, policy: &WaitPolicy, _step: usize) -> crate::cluster::StepOutcome {
        self.run_step(c, policy)
    }
}

/// Shared entry; `policy_for_step(step, last_loss)` yields the wait policy
/// for each step.
#[allow(clippy::too_many_arguments)]
fn train_impl<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    cluster: ClusterConfig,
    config: &TrainingConfig,
    policy_for_step: impl FnMut(usize, Option<f64>) -> WaitPolicy,
    observer: &mut dyn Observer,
) -> TrainReport {
    let n = cluster.n;
    let sim = ClusterSim::new(cluster, config.seed.wrapping_add(0xA5A5_5A5A));
    train_loop(
        model,
        dataset,
        scheme,
        n,
        sim,
        config,
        policy_for_step,
        observer,
    )
}

/// How the simulated workers encode their upload.
enum CodewordMode {
    /// IS-GC / sync / IS-SGD: the plain sum of the worker's partitions.
    Summed,
    /// Classic GC: coefficient combination over all `n` partition gradients.
    Classic(ClassicGc),
}

/// The simulation-backed [`Collector`]: samples one step's arrivals from
/// the cluster model and computes arriving workers' codewords synchronously.
struct SimCollector<'a, M: Model, S: ArrivalSampler, P: FnMut(usize, Option<f64>) -> WaitPolicy> {
    model: &'a M,
    dataset: &'a Dataset,
    partitions: Partitioned,
    /// Mirrors the engine's assignment table (updated through `on_repair`,
    /// though simulated workers never die — scripted liveness lives in the
    /// chaos harness).
    assignments: Vec<Vec<usize>>,
    mode: CodewordMode,
    batch_size: usize,
    seed: u64,
    c: usize,
    sim: S,
    policy_for_step: P,
}

impl<M: Model, S: ArrivalSampler, P: FnMut(usize, Option<f64>) -> WaitPolicy> Collector
    for SimCollector<'_, M, S, P>
{
    fn n(&self) -> usize {
        self.assignments.len()
    }

    fn on_repair(&mut self, _events: &[isgc_engine::RepairEvent], assignments: &[Vec<usize>]) {
        self.assignments = assignments.to_vec();
    }

    fn gather(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let step = ctx.step as usize;
        let policy = (self.policy_for_step)(step, ctx.last_loss);
        let outcome = self.sim.step(self.c, &policy, step);
        let n = self.n();

        // Per-partition summed gradients, computed lazily: replicas of a
        // partition would compute identical values (deterministic batches),
        // so one evaluation per partition is exact. The cache hands out
        // borrows — the summed hot path never clones a gradient; only the
        // classic encoder, which wants owned inputs, copies.
        let mut partition_grads: Vec<Option<Vector>> = vec![None; n];
        let ensure = |cache: &mut [Option<Vector>], j: usize| {
            if cache[j].is_none() {
                let batch = self
                    .partitions
                    .minibatch(j, self.batch_size, ctx.step, self.seed);
                cache[j] = Some(self.model.gradient_sum(ctx.params, self.dataset, &batch));
            }
        };

        let dim = ctx.params.len();
        let mut codewords: Vec<Option<Vector>> = vec![None; n];
        let arrivals: Vec<usize> = outcome.available.to_vec();
        for &w in &arrivals {
            let cw = match &self.mode {
                CodewordMode::Summed => {
                    // Worker w's codeword: sum of its partitions' gradients.
                    let mut cw = Vector::zeros(dim);
                    for &j in &self.assignments[w] {
                        ensure(&mut partition_grads, j);
                        cw.axpy(1.0, partition_grads[j].as_ref().expect("ensured"));
                    }
                    cw
                }
                CodewordMode::Classic(gc) => {
                    let mut full = Vec::with_capacity(n);
                    for j in 0..n {
                        ensure(&mut partition_grads, j);
                        full.push(partition_grads[j].clone().expect("ensured"));
                    }
                    gc.encode(w, &full)
                }
            };
            codewords[w] = Some(cw);
        }

        Ok(Collected {
            arrivals,
            codewords,
            declined: Vec::new(),
            stale: 0,
            waited_ms: outcome.duration * 1e3,
            duration: outcome.duration,
        })
    }
}

/// The actual loop, generic over the arrival source: builds the engine
/// config for the scheme and hands the step semantics to [`StepEngine`].
#[allow(clippy::too_many_arguments)]
fn train_loop<M: Model>(
    model: &M,
    dataset: &Dataset,
    scheme: &CodingScheme,
    n: usize,
    sim: impl ArrivalSampler,
    config: &TrainingConfig,
    policy_for_step: impl FnMut(usize, Option<f64>) -> WaitPolicy,
    observer: &mut dyn Observer,
) -> TrainReport {
    assert!(config.batch_size > 0, "batch_size must be positive");
    assert!(config.max_steps > 0, "max_steps must be positive");
    if let CodingScheme::IsGc(p) | CodingScheme::IsGcArrivalOrder(p) = scheme {
        assert_eq!(p.n(), n, "placement size must match cluster size");
    }
    let (placement, codec) = engine_spec(scheme, n, config.seed);
    let mode = match &codec {
        CodecSpec::Classic(gc) => CodewordMode::Classic(gc.clone()),
        _ => CodewordMode::Summed,
    };
    let mut engine_config = EngineConfig::new(placement.clone());
    engine_config.codec = codec;
    engine_config.batch_size = config.batch_size;
    engine_config.learning_rate = config.learning_rate;
    engine_config.loss_threshold = config.loss_threshold;
    engine_config.max_steps = config.max_steps as u64;
    engine_config.seed = config.seed;
    engine_config.normalization = config.normalization;
    engine_config.degrade = config.degrade.clone();
    let mut engine = StepEngine::new(engine_config)
        .unwrap_or_else(|e| panic!("invalid simulated training config: {e}"));

    let mut collector = SimCollector {
        model,
        dataset,
        partitions: dataset.partition(n),
        assignments: engine.assignments().to_vec(),
        mode,
        batch_size: config.batch_size,
        seed: config.seed,
        c: scheme.c(),
        sim,
        policy_for_step,
    };
    engine
        .run(model, dataset, None, &mut collector, observer)
        .unwrap_or_else(|e| panic!("simulated training failed: {e}"))
}

/// Measures per-step durations only (no model training) — sufficient for the
/// paper's Fig. 11, whose metric depends only on arrival order statistics
/// and the wait policy.
///
/// # Panics
///
/// Panics if `steps == 0`, `c == 0`, or the policy is invalid for the
/// cluster size.
pub fn measure_step_times(
    cluster: ClusterConfig,
    c: usize,
    policy: &WaitPolicy,
    steps: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(steps > 0, "steps must be positive");
    let mut sim = ClusterSim::new(cluster, seed);
    (0..steps)
        .map(|t| sim.run_step(c, policy, t).duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StragglerSelection;
    use crate::delay::Delay;
    use isgc_ml::model::{LinearRegression, SoftmaxRegression};

    fn quiet_cluster(n: usize) -> ClusterConfig {
        ClusterConfig {
            n,
            compute_time_per_partition: 0.1,
            comm_time: 0.05,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.01 },
            straggler_delay: Delay::none(),
            stragglers: StragglerSelection::None,
        }
    }

    fn straggly_cluster(n: usize, mean: f64, count: usize) -> ClusterConfig {
        ClusterConfig {
            n,
            compute_time_per_partition: 0.1,
            comm_time: 0.05,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.01 },
            straggler_delay: Delay::Exponential { mean },
            stragglers: StragglerSelection::RandomEachStep(count),
        }
    }

    fn regression_setup() -> (LinearRegression, Dataset, TrainingConfig) {
        let data = Dataset::synthetic_regression(256, 4, 0.05, 11);
        let model = LinearRegression::new(4);
        let config = TrainingConfig {
            batch_size: 16,
            learning_rate: 0.05,
            loss_threshold: 0.01,
            max_steps: 800,
            seed: 5,
            normalization: GradientNormalization::default(),
            ..Default::default()
        };
        (model, data, config)
    }

    #[test]
    fn scheme_metadata() {
        assert_eq!(CodingScheme::Synchronous.c(), 1);
        assert_eq!(CodingScheme::IgnoreStragglerSgd.label(), "IS-SGD");
        assert_eq!(CodingScheme::ClassicFr { c: 2 }.c(), 2);
        assert_eq!(CodingScheme::ClassicCr { c: 3 }.label(), "GC-CR(c=3)");
        let p = Placement::cyclic(4, 2).unwrap();
        assert_eq!(CodingScheme::IsGc(p).label(), "IS-GC-CR(c=2)");
    }

    #[test]
    fn synchronous_training_converges() {
        let (model, data, config) = regression_setup();
        let report = train(
            &model,
            &data,
            &CodingScheme::Synchronous,
            &WaitPolicy::All,
            quiet_cluster(4),
            &config,
        );
        assert!(
            report.reached_threshold,
            "final loss {}",
            report.final_loss()
        );
        assert_eq!(report.recovered_fractions()[0], 1.0);
        assert_eq!(report.failed_decodes(), 0);
        assert!(report.sim_time() > 0.0);
        assert_eq!(report.loss_curve().len(), report.step_count());
    }

    #[test]
    fn isgc_converges_with_stragglers_where_waiting_is_partial() {
        let (model, data, config) = regression_setup();
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(2),
            straggly_cluster(4, 2.0, 2),
            &config,
        );
        assert!(
            report.reached_threshold,
            "final loss {}",
            report.final_loss()
        );
        // With w = 2 and c = 2, recovery is between 50% and 100%.
        for &f in &report.recovered_fractions() {
            assert!((0.5..=1.0).contains(&f), "fraction {f}");
        }
    }

    #[test]
    fn classic_gc_always_fully_recovers_with_enough_workers() {
        let (model, data, config) = regression_setup();
        let report = train(
            &model,
            &data,
            &CodingScheme::ClassicCr { c: 2 },
            &WaitPolicy::WaitForCount(3),
            straggly_cluster(4, 2.0, 1),
            &config,
        );
        assert_eq!(report.failed_decodes(), 0);
        assert!(report.recovered_fractions().iter().all(|&f| f == 1.0));
        assert!(report.reached_threshold);
    }

    #[test]
    fn classic_gc_fails_to_decode_below_minimum() {
        let (model, data, mut config) = regression_setup();
        config.max_steps = 10;
        let report = train(
            &model,
            &data,
            &CodingScheme::ClassicCr { c: 2 },
            &WaitPolicy::WaitForCount(2), // below n - c + 1 = 3
            quiet_cluster(4),
            &config,
        );
        assert_eq!(report.failed_decodes(), 10);
        assert!(!report.reached_threshold);
        assert!(report.recovered_fractions().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn isgc_recovers_more_than_issgd_at_same_w() {
        // The paper's core claim (Fig. 12(a)): with the same w, IS-GC
        // recovers a strictly larger fraction of gradients than IS-SGD.
        let (model, data, mut config) = regression_setup();
        config.max_steps = 40;
        config.loss_threshold = 0.0; // run all steps
        let placement = Placement::cyclic(4, 2).unwrap();
        let isgc = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(2),
            straggly_cluster(4, 1.5, 2),
            &config,
        );
        let issgd = train(
            &model,
            &data,
            &CodingScheme::IgnoreStragglerSgd,
            &WaitPolicy::WaitForCount(2),
            straggly_cluster(4, 1.5, 2),
            &config,
        );
        assert_eq!(issgd.mean_recovered_fraction(), 0.5); // always w/n
        assert!(
            isgc.mean_recovered_fraction() > 0.6,
            "IS-GC fraction {}",
            isgc.mean_recovered_fraction()
        );
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let (model, data, config) = regression_setup();
        let placement = Placement::cyclic(4, 2).unwrap();
        let a = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement.clone()),
            &WaitPolicy::WaitForCount(3),
            straggly_cluster(4, 1.0, 1),
            &config,
        );
        let b = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(3),
            straggly_cluster(4, 1.0, 1),
            &config,
        );
        assert_eq!(a, b);
        assert_eq!(a.recovery_fingerprint(), b.recovery_fingerprint());
    }

    #[test]
    fn classification_training_works_end_to_end() {
        let data = Dataset::gaussian_classification(240, 4, 3, 5.0, 2);
        let model = SoftmaxRegression::new(4, 3);
        let config = TrainingConfig {
            batch_size: 16,
            learning_rate: 0.1,
            loss_threshold: 0.1,
            max_steps: 600,
            seed: 3,
            normalization: GradientNormalization::default(),
            ..Default::default()
        };
        let placement = Placement::fractional(4, 2).unwrap();
        let report = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(2),
            straggly_cluster(4, 1.0, 2),
            &config,
        );
        assert!(report.reached_threshold, "loss {}", report.final_loss());
    }

    #[test]
    fn adaptive_training_escalates_w_when_loss_stalls() {
        use crate::adaptive::AdaptiveWaitController;
        let data = Dataset::synthetic_regression(256, 4, 0.2, 11);
        let model = LinearRegression::new(4);
        let mut controller = AdaptiveWaitController::new(1, 4, 10, 0.03);
        let config = TrainingConfig {
            batch_size: 16,
            learning_rate: 0.05,
            loss_threshold: 0.0, // run the full budget, past the noise floor
            max_steps: 300,
            seed: 5,
            ..TrainingConfig::default()
        };
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train_adaptive(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &mut controller,
            straggly_cluster(4, 1.0, 2),
            &config,
        );
        // The controller observes losses from step 1 on (no loss exists
        // before step 0), so the history is one shorter than the step count.
        let hist = controller.w_history();
        assert_eq!(hist.len() + 1, report.step_count());
        assert_eq!(hist[0], 1);
        // Once descent stalls at the w = 1 noise floor, w must escalate.
        assert!(*hist.last().unwrap() > 1, "never escalated: {hist:?}");
        // Escalations are monotone non-decreasing.
        for pair in hist.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        // And training still made real progress.
        assert!(report.final_loss() < report.loss_curve()[0] / 2.0);
    }

    #[test]
    fn adaptive_training_converges_on_reachable_threshold() {
        use crate::adaptive::AdaptiveWaitController;
        let data = Dataset::synthetic_regression(256, 4, 0.2, 11);
        let model = LinearRegression::new(4);
        let mut controller = AdaptiveWaitController::new(1, 4, 10, 0.03);
        let config = TrainingConfig {
            batch_size: 16,
            learning_rate: 0.05,
            loss_threshold: 0.025,
            max_steps: 2000,
            seed: 5,
            ..TrainingConfig::default()
        };
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train_adaptive(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &mut controller,
            straggly_cluster(4, 1.0, 2),
            &config,
        );
        assert!(report.reached_threshold, "loss {}", report.final_loss());
    }

    #[test]
    fn trace_driven_training_replays_enduring_stragglers() {
        use crate::trace::{MarkovStragglerModel, StragglerTrace, TraceClusterSim};
        let (model, data, mut config) = regression_setup();
        config.max_steps = 60;
        config.loss_threshold = 0.0;
        // Workers 0 and 1 permanently slow: an explicit trace.
        let rows: Vec<Vec<f64>> = (0..60).map(|_| vec![5.0, 5.0, 0.0, 0.0]).collect();
        let sim = TraceClusterSim::new(StragglerTrace::new(rows), 0.05, 0.05);
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train_on_trace(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(2),
            sim,
            &config,
        );
        // Workers 2, 3 always win the race; they conflict (share partition
        // 3), so exactly one is selectable: recovery fixed at 2/4.
        assert!(report
            .recovered_fractions()
            .iter()
            .all(|&f| (f - 0.5).abs() < 1e-12));
        // Steps never wait for the slow pair.
        assert!(report.step_durations().iter().all(|&d| d < 1.0));

        // A Markov-generated trace also drives training end to end.
        let markov = MarkovStragglerModel {
            n: 4,
            fast: Delay::Uniform { lo: 0.0, hi: 0.01 },
            slow: Delay::Constant(2.0),
            p_fast_to_slow: 0.1,
            p_slow_to_fast: 0.3,
        };
        let sim = TraceClusterSim::new(markov.generate(200, 3), 0.05, 0.05);
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train_on_trace(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(3),
            sim,
            &config,
        );
        assert_eq!(report.step_count(), 60);
        assert!(report.mean_recovered_fraction() > 0.5);
    }

    #[test]
    fn report_display_is_informative() {
        let (model, data, mut config) = regression_setup();
        config.max_steps = 5;
        config.loss_threshold = 0.0;
        let report = train(
            &model,
            &data,
            &CodingScheme::Synchronous,
            &WaitPolicy::All,
            quiet_cluster(4),
            &config,
        );
        let text = report.to_string();
        assert!(text.contains("5 steps"));
        assert!(text.contains("stopped at the step cap"));
        assert!(text.contains("100.0% gradients"));
    }

    #[test]
    fn communication_accounting_counts_accepted_codewords() {
        let (model, data, mut config) = regression_setup();
        config.max_steps = 25;
        config.loss_threshold = 0.0;
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(3),
            quiet_cluster(4),
            &config,
        );
        assert_eq!(report.codewords_received().len(), 25);
        assert!(report.codewords_received().iter().all(|&m| m == 3));
    }

    #[test]
    fn metered_training_fills_the_registry_deterministically() {
        use isgc_engine::metrics::names;
        use isgc_engine::MetricsObserver;
        use isgc_obs::{Registry, Snapshot};
        let (model, data, mut config) = regression_setup();
        config.max_steps = 6;
        config.loss_threshold = 0.0;
        let run = |registry: &Registry| {
            let placement = Placement::cyclic(4, 2).unwrap();
            train_observed(
                &model,
                &data,
                &CodingScheme::IsGc(placement),
                &WaitPolicy::WaitForCount(3),
                straggly_cluster(4, 1.0, 1),
                &config,
                &mut MetricsObserver::new(registry.clone(), 4),
            )
        };
        let (a, b) = (Registry::new(), Registry::new());
        let report = run(&a);
        run(&b);
        assert_eq!(a.counter(names::STEPS_TOTAL, &[]), Some(6));
        assert_eq!(
            a.counter(names::PARTITIONS_RECOVERED_TOTAL, &[]),
            Some(report.steps.iter().map(|s| s.recovered as u64).sum())
        );
        assert_eq!(a.gauge(names::LOSS_LAST, &[]), Some(report.final_loss()));
        assert_eq!(a.to_text(Snapshot::Logical), b.to_text(Snapshot::Logical));
        assert_eq!(a.to_jsonl(Snapshot::Logical), b.to_jsonl(Snapshot::Logical));
    }

    #[test]
    fn observer_sees_the_report_stream() {
        use isgc_engine::RecordingObserver;
        let (model, data, mut config) = regression_setup();
        config.max_steps = 8;
        config.loss_threshold = 0.0;
        let placement = Placement::cyclic(4, 2).unwrap();
        let mut recorder = RecordingObserver::default();
        let report = train_observed(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(3),
            quiet_cluster(4),
            &config,
            &mut recorder,
        );
        assert_eq!(recorder.steps, report.steps);
    }

    #[test]
    fn measure_step_times_matches_order_statistics() {
        // Deterministic cluster: every worker arrives at exactly
        // c * 0.1 + 0.05; any wait count gives that duration.
        let times = measure_step_times(
            ClusterConfig::uniform(6, 0.1, 0.05),
            2,
            &WaitPolicy::WaitForCount(3),
            20,
            1,
        );
        assert_eq!(times.len(), 20);
        for t in times {
            assert!((t - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn waiting_for_fewer_workers_is_faster_under_straggling() {
        fn mean(xs: &[f64]) -> f64 {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
        let cluster = straggly_cluster(8, 3.0, 8);
        let t2 = mean(&measure_step_times(
            cluster.clone(),
            2,
            &WaitPolicy::WaitForCount(2),
            300,
            7,
        ));
        let t8 = mean(&measure_step_times(
            cluster,
            2,
            &WaitPolicy::WaitForCount(8),
            300,
            7,
        ));
        assert!(t2 < t8, "t2={t2}, t8={t8}");
    }

    #[test]
    fn deadline_policy_trains() {
        let (model, data, mut config) = regression_setup();
        config.max_steps = 100;
        let placement = Placement::cyclic(4, 2).unwrap();
        let report = train(
            &model,
            &data,
            &CodingScheme::IsGc(placement),
            &WaitPolicy::Deadline(0.3),
            straggly_cluster(4, 1.0, 1),
            &config,
        );
        // Steps are capped at the deadline whenever someone straggles past it.
        for &d in &report.step_durations() {
            assert!(d <= 0.3 + 1e-12, "duration {d}");
        }
    }
}
