//! isgc-engine: the transport-agnostic IS-GC training step engine.
//!
//! The paper's pipeline — place partitions, wait for an arbitrary arrival set
//! `W'`, decode a maximum independent set `I`, sum `ĝ = Σ_{i∈I} g_i`, step
//! SGD (§IV–§V) — is the same whether codewords come from a discrete-event
//! simulator (`isgc-simnet`), in-process tenant jobs (`isgc-sched`), or TCP
//! (`isgc-net`). This crate implements that pipeline **once**, as a
//! [`StepEngine`] state machine, and leaves only transport to the backends:
//!
//! ```text
//!                 ┌──────────────────────────────┐
//!                 │          StepEngine          │
//!                 │  placement · decoder · RNG   │
//!                 │  repair · bounds · SGD       │
//!                 └──────┬───────────────┬───────┘
//!          Collector ────┘               └──── Observer
//!   (broadcast params,                  (per-step StepReport
//!    gather W', report                   callbacks: bench plots,
//!    liveness, apply repairs)            chaos harness, crash tests)
//!     │           │           │
//!   simnet      sched        net
//! (sim clock) (in-process)  (TCP)
//! ```
//!
//! A step is pipelined one step ahead of its report, so the master's
//! full-dataset loss runs while the workers compute the next codewords:
//!
//! ```text
//!   gather(t) → decode → bound check → aggregate → SGD update
//!     → after_step(t+1)            checkpoint, durable before t+1 is sent
//!     → liveness, repair for t+1
//!     → broadcast(t+1, params)     only if t+1 < max_steps
//!     → loss(params)               overlaps the workers' step t+1
//!     → StepReport(t) → Observer
//! ```
//!
//! The first step of a session broadcasts before it gathers. See
//! [`Collector`] for what the order implies.
//!
//! The worker half of a step — sum the gradients of the assigned partitions
//! over a deterministic mini-batch — is likewise implemented once, as
//! [`WorkerStep`].
//!
//! The engine owns every piece of step semantics the backends used to
//! duplicate:
//!
//! - **Decoder selection** via [`isgc_core::decode::decoder_for`], or the
//!   Fig. 3 arrival-order strawman, or classic gradient coding, chosen with
//!   [`CodecSpec`].
//! - **Deterministic randomness**: parameter init from a dedicated
//!   seed-derived stream, and a fresh [`step_rng`]`(seed, step)` per decode,
//!   so every backend makes the *same* decode choices given the same seed —
//!   the cross-backend parity tests rely on this.
//! - **Placement repair** (previously net-only): workers reported dead for
//!   `repair_after_steps` consecutive steps have their partitions re-homed
//!   deterministically onto survivors; decoding switches to an exact MIS
//!   over the rebuilt conflict graph.
//! - **Theorem 10–11 bound checks**: every scheme decode is checked against
//!   `min(⌈w/c⌉, ⌊n/c⌋)·c ≤ recovered ≤ min(w, ⌊n/c⌋)·c`; a violation is a
//!   bug in the decoder or placement and surfaces as a typed error.
//! - **Normalization and the SGD update** (Theorem 12), plus the unified
//!   [`StepReport`]/[`TrainReport`].

pub mod merge;
pub mod metrics;
mod repair;
mod report;
pub mod worker;

pub use merge::{decode_shard, pairwise_sum, shard_ranges, ShardDecode, ShardedDecode};
pub use metrics::MetricsObserver;
pub use report::{RepairEvent, StepOutcome, StepReport, TrainReport};
pub use worker::WorkerStep;

use isgc_core::classic::ClassicGc;
use isgc_core::decode::{decoder_for, ApproxDecoder, ArrivalOrderDecoder, Decoder};
use isgc_core::hash::{mix64, GOLDEN_GAMMA};
use isgc_core::{bounds, Placement, WorkerSet};
use isgc_linalg::Vector;
use isgc_ml::optimizer::Sgd;
use isgc_ml::{Dataset, Model};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::repair::RepairState;

/// The decode RNG for one step: a SplitMix64 mix of `(seed, step)`, so the
/// stream is identical across backends and across a master restart — a
/// resumed run decodes step `t` exactly as the original would have.
pub fn step_rng(seed: u64, step: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ step.wrapping_mul(GOLDEN_GAMMA)))
}

/// How the decoded gradient `ĝ` is normalized before the SGD update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientNormalization {
    /// Paper-faithful: `ĝ = Σ_{i∈I} ḡ_i`, the sum of per-partition batch
    /// *means*. The update magnitude scales with the number of recovered
    /// partitions — exactly the `η·|D_d|` factor in Theorem 12 — so partial
    /// recovery takes proportionally smaller steps and more of them
    /// (Fig. 12(b)).
    #[default]
    SumOfPartitionMeans,
    /// `ĝ` averaged over every recovered sample: an unbiased gradient
    /// estimate whose magnitude is independent of the recovery level (only
    /// its variance changes). Useful as an ablation.
    MeanOverRecovered,
}

/// What the engine does with a step whose decode lands below the coverage
/// floor — the **graceful degradation ladder**.
///
/// A "degraded" step is one that recovered zero partitions, or (under
/// [`DegradePolicy::Approximate`]) one whose coverage `recovered / n` fell
/// below `min_coverage`. The ladder decides, deterministically from the
/// decode result alone, whether such a step is fatal, skipped, or served by
/// the bias-corrected partial estimate of
/// [`isgc_core::decode::ApproxDecoder`].
#[derive(Debug, Clone, PartialEq)]
pub enum DegradePolicy {
    /// A zero-recovery step is a fatal [`EngineError::Degraded`] — the
    /// strict posture a supervised TCP master historically took.
    Fail,
    /// A zero-recovery step reuses the previous iterate and training
    /// continues, unbounded — the simulator's historical posture. The step
    /// is recorded as [`StepOutcome::Skipped`].
    Skip,
    /// Steps below `min_coverage` apply the bias-corrected partial
    /// aggregate (recorded as [`StepOutcome::Approx`]); steps with nothing
    /// to aggregate reuse the previous iterate ([`StepOutcome::Skipped`]).
    /// More than `max_consecutive` degraded steps in a row escalate to
    /// [`EngineError::Degraded`] — the ladder is bounded, not silent.
    Approximate {
        /// Degraded steps tolerated back-to-back before escalating.
        max_consecutive: u64,
        /// Coverage floor in `[0, 1]`: a step with
        /// `recovered / n < min_coverage` takes the approximate path.
        min_coverage: f64,
    },
}

impl DegradePolicy {
    /// The bounded-approximation default used by chaos plans that expect
    /// blackouts: up to 4 consecutive degraded steps, coverage floor ½.
    pub fn approximate_default() -> Self {
        DegradePolicy::Approximate {
            max_consecutive: 4,
            min_coverage: 0.5,
        }
    }

    /// Stable lowercase label (`fail` / `skip` / `approx`).
    pub fn label(&self) -> &'static str {
        match self {
            DegradePolicy::Fail => "fail",
            DegradePolicy::Skip => "skip",
            DegradePolicy::Approximate { .. } => "approx",
        }
    }
}

/// Which decode/aggregate strategy the engine runs.
#[derive(Debug, Clone)]
pub enum CodecSpec {
    /// The paper's decoder for the placement's scheme (Alg. 1 for FR,
    /// Alg. 2 for CR, Algs. 3–4 for HR, exact MIS for custom placements).
    Scheme,
    /// The Fig. 3 strawman: greedily accept workers in arrival order
    /// (maximal, not maximum, independent set). Ablation only.
    ArrivalOrder,
    /// Classic exact-recovery gradient coding (Tandon et al.): weighted
    /// decoding vector, all-or-nothing recovery.
    Classic(ClassicGc),
}

/// Hyper-parameters and strategy choices for one training run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The partition-to-worker placement (also fixes `n` and `c`).
    pub placement: Placement,
    /// Decode/aggregate strategy.
    pub codec: CodecSpec,
    /// Mini-batch size per partition.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Stop once full-dataset loss reaches this value.
    pub loss_threshold: f64,
    /// Step cap.
    pub max_steps: u64,
    /// Master seed: derives parameter init, per-step decode RNG, and
    /// minibatch selection.
    pub seed: u64,
    /// How `ĝ` is scaled before the update.
    pub normalization: GradientNormalization,
    /// Declare a worker permanently dead — and re-home its partitions —
    /// after this many consecutive steps of reported death. `None` disables
    /// placement repair.
    pub repair_after_steps: Option<u64>,
    /// What to do with steps below the coverage floor: fail fast, reuse the
    /// previous iterate, or apply a bias-corrected approximation with
    /// bounded escalation (the graceful degradation ladder).
    pub degrade: DegradePolicy,
}

impl EngineConfig {
    /// A config with neutral defaults; backends override what they expose.
    pub fn new(placement: Placement) -> Self {
        Self {
            placement,
            codec: CodecSpec::Scheme,
            batch_size: 32,
            learning_rate: 0.05,
            loss_threshold: 0.05,
            max_steps: 2000,
            seed: 0,
            normalization: GradientNormalization::default(),
            repair_after_steps: None,
            degrade: DegradePolicy::Skip,
        }
    }
}

/// Errors produced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration (or the collector handed to [`StepEngine::run`])
    /// is inconsistent.
    InvalidConfig(String),
    /// A core-layer error (placement/decoder construction, selection
    /// validation).
    Core(isgc_core::Error),
    /// The degradation ladder ran out: a zero-recovery step under
    /// [`DegradePolicy::Fail`], or more than `max_consecutive` degraded
    /// steps in a row under [`DegradePolicy::Approximate`].
    Degraded {
        /// The step that exhausted the ladder.
        step: u64,
        /// Partitions recovered by that step.
        recovered: usize,
        /// The Theorem 10 floor the step should have met, given how many
        /// workers were alive.
        bound: usize,
    },
    /// A scheme decode landed outside the Theorem 10–11 recovery bounds —
    /// a decoder or placement bug, never expected in a healthy run.
    BoundViolation {
        /// The offending step.
        step: u64,
        /// Partitions the decode claimed to recover.
        recovered: usize,
        /// Theorem 10 lower bound for the arrival count.
        lo: usize,
        /// Theorem 11 upper bound for the arrival count.
        hi: usize,
    },
    /// A transport-layer failure surfaced by the backend's collector.
    Backend(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(reason) => write!(f, "invalid engine config: {reason}"),
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Degraded {
                step,
                recovered,
                bound,
            } => write!(
                f,
                "step {step} recovered {recovered} partitions (Theorem 10 floor for the \
                 surviving workers is {bound}): the run is degraded beyond progress"
            ),
            EngineError::BoundViolation {
                step,
                recovered,
                lo,
                hi,
            } => write!(
                f,
                "step {step} recovered {recovered} partitions, outside the Theorem 10–11 \
                 bounds [{lo}, {hi}] — decoder or placement bug"
            ),
            EngineError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Backend(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<isgc_core::Error> for EngineError {
    fn from(e: isgc_core::Error) -> Self {
        EngineError::Core(e)
    }
}

/// What the engine hands [`Collector::gather`] for each step.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// The step being gathered.
    pub step: u64,
    /// The parameters broadcast for this step (what in-process collectors
    /// compute their codewords at).
    pub params: &'a Vector,
    /// Loss after the previous step, if one ran (lets adaptive collectors
    /// tune their wait policy).
    pub last_loss: Option<f64>,
}

/// One step's worth of arrivals, as gathered by a [`Collector`].
#[derive(Debug)]
pub struct Collected {
    /// Workers whose codeword arrived, in arrival order.
    pub arrivals: Vec<usize>,
    /// `codewords[w]` is `Some` exactly when `w ∈ arrivals`.
    pub codewords: Vec<Option<Vector>>,
    /// Workers that actively declined the step.
    pub declined: Vec<usize>,
    /// Stale codewords from earlier steps discarded while waiting.
    pub stale: usize,
    /// How long collection waited, in milliseconds.
    pub waited_ms: f64,
    /// Duration to attribute to this step, in seconds (simulated time for
    /// the simulator, wall-clock for real transports).
    pub duration: f64,
    /// Set when the step was collected through sub-masters: the shard-local
    /// decode results and partial codeword sums. The engine then skips its
    /// own decode, merges the partials with [`merge::pairwise_sum`], and
    /// bound-checks the merged recovery against the arrival count. When set,
    /// `codewords` may be all-`None` (the raw codewords never left the
    /// shards).
    pub sharded: Option<ShardedDecode>,
}

/// The transport half of a training step: broadcast the parameters, gather
/// the arrival set `W'` with per-worker codewords, and report liveness.
///
/// Everything else — decode, repair, bounds, normalization, the SGD update,
/// reporting — is the engine's job.
///
/// The engine runs one step ahead: step `t + 1` is broadcast right after
/// step `t`'s update and checkpoint, before the engine evaluates the
/// full-dataset loss, so the loss runs while the workers compute. Per step
/// the calls are `gather(t)` → `after_step(t + 1)` → `alive` / `on_repair` →
/// `broadcast(t + 1)`, and only then is step `t` reported. Three rules
/// follow:
///
/// - **No broadcast past `max_steps`.** Step `t + 1` is broadcast only when
///   `t + 1 < max_steps`, so a run bounded by its step cap sends exactly one
///   broadcast per gathered step.
/// - **A threshold or [`StepControl::Crash`] stop leaves one broadcast
///   unconsumed.** Both are decided after the next broadcast went out. The
///   totals that move are the frames and bytes sent and the workers' served
///   steps; no per-step logical series does. A transport backend drains that
///   step's answers before it shuts its peers down.
/// - **Same numbers.** `after_step(t + 1)` returns before step `t + 1` is
///   broadcast, so a checkpoint is durable before any of that step's
///   codewords can be accepted; `gather` still receives the previous step's
///   loss in [`StepContext::last_loss`].
pub trait Collector {
    /// Cluster size; must equal the placement's `n`.
    fn n(&self) -> usize;

    /// Current liveness view, one flag per worker. The default says
    /// everyone is alive, which suits backends without failure detection.
    fn alive(&self) -> Vec<bool> {
        vec![true; self.n()]
    }

    /// Called after the engine re-homes a dead worker's partitions, with
    /// the repair events and the complete post-repair assignment table.
    /// Backends that push assignments to real workers re-issue them here.
    fn on_repair(&mut self, _events: &[RepairEvent], _assignments: &[Vec<usize>]) {}

    /// Delivers `params` for `step` to the workers. Called exactly once per
    /// step, after liveness and repair for that step and before its
    /// [`Collector::gather`]. The default does nothing, which suits
    /// in-process backends that compute codewords inside `gather`.
    fn broadcast(&mut self, _step: u64, _params: &Vector) {}

    /// Waits for the answers to `ctx.step`, whose broadcast already went
    /// out, and returns the arrivals under the backend's wait policy.
    fn gather(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError>;

    /// Called after the optimizer update with the step count completed so
    /// far, the new parameters, and the degradation-ladder state
    /// (checkpointing hook). Backends that persist state must include
    /// `ladder` so a resumed run replays escalation decisions bit-for-bit.
    fn after_step(
        &mut self,
        _completed: u64,
        _params: &Vector,
        _ladder: LadderState,
    ) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Degradation-ladder state handed to [`Collector::after_step`] so
/// checkpointing backends can persist it alongside the parameters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderState {
    /// Consecutive degraded (approx/skipped) steps ending at this point;
    /// resets to zero on every exact step.
    pub consecutive_degraded: u64,
}

/// Whether training should continue after a step (observer verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepControl {
    /// Keep training.
    Continue,
    /// Abort now, as if the master crashed; the engine returns the partial
    /// report with [`TrainReport::interrupted`] set.
    Crash,
}

/// Per-step event consumer: bench tables, chaos harnesses, progress bars.
pub trait Observer {
    /// Called once per completed step, before the threshold check.
    fn on_step(&mut self, _report: &StepReport) -> StepControl {
        StepControl::Continue
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Forwarding impl so observers can be chained by mutable reference (e.g.
/// wrapping a caller-owned observer in a [`MetricsObserver`]).
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_step(&mut self, report: &StepReport) -> StepControl {
        (**self).on_step(report)
    }
}

/// Adapts a closure into an [`Observer`].
pub struct FnObserver<F: FnMut(&StepReport) -> StepControl>(pub F);

impl<F: FnMut(&StepReport) -> StepControl> Observer for FnObserver<F> {
    fn on_step(&mut self, report: &StepReport) -> StepControl {
        (self.0)(report)
    }
}

/// Records every step report it sees; useful for bench plots that want the
/// stream without waiting for the final [`TrainReport`].
#[derive(Debug, Default)]
pub struct RecordingObserver {
    /// The observed step reports, in order.
    pub steps: Vec<StepReport>,
}

impl Observer for RecordingObserver {
    fn on_step(&mut self, report: &StepReport) -> StepControl {
        self.steps.push(report.clone());
        StepControl::Continue
    }
}

enum DecodePath {
    /// IS-GC: unit-coefficient sum over a decoder-selected independent set.
    Summed(Box<dyn Decoder>),
    /// Classic GC: weighted sum via the decoding vector, all-or-nothing.
    Classic(ClassicGc),
}

struct Decoded {
    selected: Vec<usize>,
    recovered: usize,
    /// Per-selected-worker weights (classic GC); `None` means all ones.
    coefficients: Option<Vec<f64>>,
    failed: bool,
}

/// The transport-agnostic step state machine: owns placement, decoder,
/// per-step RNG, repair state, bound checks, normalization, and the SGD
/// update loop. Backends implement [`Collector`] and call [`StepEngine::run`].
pub struct StepEngine {
    config: EngineConfig,
    path: DecodePath,
    approx: ApproxDecoder,
    repair: RepairState,
    dead_steps: Vec<u64>,
    start_step: u64,
    consecutive_degraded: u64,
    bounds_checked: bool,
}

impl StepEngine {
    /// Validates the configuration and builds the decoder.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for inconsistent hyper-parameters, and
    /// [`EngineError::Core`] if the placement rejects its scheme decoder.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        if config.batch_size == 0 {
            return Err(EngineError::InvalidConfig(
                "batch_size must be positive".into(),
            ));
        }
        if config.max_steps == 0 {
            return Err(EngineError::InvalidConfig(
                "max_steps must be positive".into(),
            ));
        }
        if config.repair_after_steps == Some(0) {
            return Err(EngineError::InvalidConfig(
                "repair_after_steps must be at least 1".into(),
            ));
        }
        if let DegradePolicy::Approximate {
            max_consecutive,
            min_coverage,
        } = &config.degrade
        {
            if *max_consecutive == 0 {
                return Err(EngineError::InvalidConfig(
                    "degrade max_consecutive must be at least 1".into(),
                ));
            }
            if !(0.0..=1.0).contains(min_coverage) {
                return Err(EngineError::InvalidConfig(format!(
                    "degrade min_coverage must be within [0, 1], got {min_coverage}"
                )));
            }
        }
        let path = match &config.codec {
            CodecSpec::Scheme => DecodePath::Summed(decoder_for(&config.placement)?),
            CodecSpec::ArrivalOrder => {
                DecodePath::Summed(Box::new(ArrivalOrderDecoder::new(&config.placement)))
            }
            CodecSpec::Classic(gc) => {
                if gc.placement().n() != config.placement.n() {
                    return Err(EngineError::InvalidConfig(format!(
                        "classic code built for n={}, placement has n={}",
                        gc.placement().n(),
                        config.placement.n()
                    )));
                }
                if config.repair_after_steps.is_some() {
                    return Err(EngineError::InvalidConfig(
                        "placement repair is not supported with classic gradient coding \
                         (its coefficients are tied to the original placement)"
                            .into(),
                    ));
                }
                DecodePath::Classic(gc.clone())
            }
        };
        // The theorems assume a scheme decoder over an intact FR/CR/HR
        // placement; the arrival-order strawman is only maximal and custom
        // placements have no closed-form bounds.
        let bounds_checked = matches!(config.codec, CodecSpec::Scheme)
            && config.placement.scheme() != isgc_core::Scheme::Custom;
        let repair = RepairState::new(&config.placement);
        let approx = ApproxDecoder::new(&config.placement);
        let n = config.placement.n();
        Ok(Self {
            config,
            path,
            approx,
            repair,
            dead_steps: vec![0; n],
            start_step: 0,
            consecutive_degraded: 0,
            bounds_checked,
        })
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.config.placement.n()
    }

    /// The current per-worker partition assignments (diverges from the
    /// placement only after repair or a non-pristine resume).
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.repair.assignments
    }

    /// Resumes a checkpointed run: training restarts at `step` with the
    /// given assignment table. If the table differs from the pristine
    /// placement, decoding switches to the exact-MIS repaired path.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] if the table's size does not match
    /// the cluster.
    pub fn resume_from(
        &mut self,
        step: u64,
        assignments: Vec<Vec<usize>>,
    ) -> Result<(), EngineError> {
        if assignments.len() != self.n() {
            return Err(EngineError::InvalidConfig(format!(
                "resume table has {} workers, cluster has {}",
                assignments.len(),
                self.n()
            )));
        }
        let pristine =
            (0..self.n()).all(|w| assignments[w] == self.config.placement.partitions_of(w));
        self.repair.assignments = assignments;
        if !pristine {
            self.repair.commit();
        }
        self.start_step = step;
        Ok(())
    }

    /// Restores the ladder's escalation counter on resume (pair with
    /// [`StepEngine::resume_from`]).
    pub fn resume_ladder(&mut self, consecutive_degraded: u64) {
        self.consecutive_degraded = consecutive_degraded;
    }

    /// Deterministic initial parameters: a dedicated seed-derived stream,
    /// independent of any other randomness, so every backend (and every
    /// codec choice) starts from identical parameters under the same seed —
    /// the paper's fairness-of-comparison requirement.
    pub fn initial_params<M: Model>(&self, model: &M) -> Vector {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_mul(0x517C_C1B7_2722_0A95));
        model.init_params(&mut rng)
    }

    fn decode(&self, available: &WorkerSet, step: u64) -> Decoded {
        let mut rng = step_rng(self.config.seed, step);
        match &self.path {
            DecodePath::Summed(decoder) => {
                if self.repair.repaired {
                    let (selected, recovered) = self.repair.decode(available);
                    Decoded {
                        selected,
                        recovered,
                        coefficients: None,
                        failed: false,
                    }
                } else {
                    let result = decoder.decode(available, &mut rng);
                    Decoded {
                        selected: result.selected().to_vec(),
                        recovered: result.recovered_count(),
                        coefficients: None,
                        failed: false,
                    }
                }
            }
            DecodePath::Classic(gc) => match gc.decoding_vector(available) {
                Ok(decoding) => {
                    let (selected, coefficients) = decoding.into_iter().unzip();
                    Decoded {
                        selected,
                        recovered: self.n(),
                        coefficients: Some(coefficients),
                        failed: false,
                    }
                }
                Err(_) => Decoded {
                    selected: Vec::new(),
                    recovered: 0,
                    coefficients: None,
                    failed: true,
                },
            },
        }
    }

    /// Opens a step-at-a-time training [`Session`]: the caller drives it with
    /// [`StepEngine::step`] and closes it with [`StepEngine::finish`]. This is
    /// what a scheduler hosting several jobs uses to interleave their steps;
    /// [`StepEngine::run`] is the run-to-completion convenience on top.
    ///
    /// `params` resumes from a checkpointed vector; `None` derives the
    /// deterministic initial parameters from the seed.
    pub fn begin<M: Model>(&self, model: &M, dataset: &Dataset, params: Option<Vector>) -> Session {
        Session {
            params: params.unwrap_or_else(|| self.initial_params(model)),
            opt: Sgd::new(self.config.learning_rate),
            all_indices: (0..dataset.len()).collect(),
            steps: Vec::new(),
            reached_threshold: false,
            interrupted: false,
            last_loss: None,
            started: std::time::Instant::now(),
            next_step: self.start_step,
            broadcast: None,
            done: self.start_step >= self.config.max_steps,
        }
    }

    /// Runs exactly one training step of an open session (or none, if the
    /// session is already done). The step semantics are identical to one
    /// iteration of [`StepEngine::run`]'s loop: gather the step the previous
    /// call broadcast (a session's first call broadcasts it first), update,
    /// and broadcast the next step, unless the step cap is reached, before
    /// evaluating the loss.
    ///
    /// # Errors
    ///
    /// Collector failures ([`EngineError::Backend`]), degradation-ladder
    /// exhaustion ([`EngineError::Degraded`] under [`DegradePolicy::Fail`]
    /// or a spent `max_consecutive`), and Theorem 10–11 bound violations.
    /// After an error the session is left done; [`StepEngine::finish`] still
    /// yields the partial report.
    pub fn step<M: Model>(
        &mut self,
        session: &mut Session,
        model: &M,
        dataset: &Dataset,
        collector: &mut dyn Collector,
        observer: &mut dyn Observer,
    ) -> Result<SessionStatus, EngineError> {
        if session.done {
            return Ok(SessionStatus::Done);
        }
        let n = self.n();
        if collector.n() != n {
            session.done = true;
            return Err(EngineError::InvalidConfig(format!(
                "collector serves {} workers, placement has n={n}",
                collector.n()
            )));
        }
        match self.step_inner(session, model, dataset, collector, observer) {
            Ok(()) => Ok(session.status()),
            Err(e) => {
                session.done = true;
                Err(e)
            }
        }
    }

    /// Liveness bookkeeping and placement repair for `step`, then its
    /// broadcast — repair first, so adopters receive their new partitions
    /// along with the params. Returns the step's repair events.
    fn broadcast(
        &mut self,
        step: u64,
        params: &Vector,
        collector: &mut dyn Collector,
    ) -> Vec<RepairEvent> {
        let n = self.n();
        let alive = collector.alive();
        debug_assert_eq!(alive.len(), n, "collector liveness vector sized wrong");
        for (w, &w_alive) in alive.iter().enumerate() {
            if w_alive {
                self.dead_steps[w] = 0;
            } else {
                self.dead_steps[w] += 1;
            }
        }
        let mut repairs = Vec::new();
        if let Some(threshold) = self.config.repair_after_steps {
            for dead in 0..n {
                if self.dead_steps[dead] >= threshold && !self.repair.assignments[dead].is_empty() {
                    repairs.extend(self.repair.repair_worker(dead, &alive));
                }
            }
            if !repairs.is_empty() {
                self.repair.commit();
                collector.on_repair(&repairs, &self.repair.assignments);
            }
        }
        collector.broadcast(step, params);
        repairs
    }

    fn step_inner<M: Model>(
        &mut self,
        session: &mut Session,
        model: &M,
        dataset: &Dataset,
        collector: &mut dyn Collector,
        observer: &mut dyn Observer,
    ) -> Result<(), EngineError> {
        let n = self.n();
        let step = session.next_step;

        // The first step of a session broadcasts here; every later one was
        // broadcast by the step before it.
        let repairs = match session.broadcast.take() {
            Some(broadcast) => {
                debug_assert_eq!(broadcast.step, step, "the broadcast step is the next one");
                broadcast.repairs
            }
            None => self.broadcast(step, &session.params, collector),
        };
        let collected = collector.gather(&StepContext {
            step,
            params: &session.params,
            last_loss: session.last_loss,
        })?;
        let decode_started = std::time::Instant::now();
        let available = WorkerSet::from_indices(n, collected.arrivals.iter().copied());
        let decoded = match &collected.sharded {
            // Sub-masters already decoded their conflict-graph slices; the
            // root only takes the union. Sort so reports and fingerprints
            // match the flat decoder's canonical order.
            Some(sharded) => {
                let mut selected = sharded.selected.clone();
                selected.sort_unstable();
                Decoded {
                    selected,
                    recovered: sharded.recovered,
                    coefficients: None,
                    failed: false,
                }
            }
            None => self.decode(&available, step),
        };
        let decode_ms = decode_started.elapsed().as_secs_f64() * 1e3;

        let bound_check = (self.bounds_checked && !self.repair.repaired).then(|| {
            bounds::check_recovery_of(
                &self.config.placement,
                collected.arrivals.len(),
                decoded.recovered,
            )
        });
        if let Some(check) = bound_check {
            if !decoded.failed && !check.within() {
                return Err(EngineError::BoundViolation {
                    step,
                    recovered: decoded.recovered,
                    lo: check.lo,
                    hi: check.hi,
                });
            }
        }

        let alive_now = collector.alive();
        // The degradation ladder: a pure function of the decode result, the
        // policy, and the escalation counter — nothing timing-dependent —
        // so a resumed run replays the same decisions bit-for-bit.
        let coverage = decoded.recovered as f64 / n as f64;
        let degraded = match &self.config.degrade {
            DegradePolicy::Fail | DegradePolicy::Skip => decoded.recovered == 0,
            DegradePolicy::Approximate { min_coverage, .. } => {
                decoded.recovered == 0 || coverage < *min_coverage
            }
        };
        let (outcome, bias_weight) = if !degraded {
            self.consecutive_degraded = 0;
            (StepOutcome::Exact, 1.0)
        } else {
            let floor = {
                let alive_count = alive_now.iter().filter(|&&a| a).count();
                bounds::recovery_bounds_of(&self.config.placement, alive_count.min(n)).0
            };
            match &self.config.degrade {
                DegradePolicy::Fail => {
                    // No gradient at all, yet workers are nominally alive:
                    // the run is spinning without progress. Surface it as a
                    // typed error instead of silently looping.
                    return Err(EngineError::Degraded {
                        step,
                        recovered: decoded.recovered,
                        bound: floor,
                    });
                }
                DegradePolicy::Skip => {
                    self.consecutive_degraded += 1;
                    (StepOutcome::Skipped, 0.0)
                }
                DegradePolicy::Approximate {
                    max_consecutive, ..
                } => {
                    self.consecutive_degraded += 1;
                    if self.consecutive_degraded > *max_consecutive {
                        return Err(EngineError::Degraded {
                            step,
                            recovered: decoded.recovered,
                            bound: floor,
                        });
                    }
                    if decoded.recovered == 0 || decoded.failed {
                        (StepOutcome::Skipped, 0.0)
                    } else if matches!(self.path, DecodePath::Summed(_)) && !self.repair.repaired {
                        let approx = self.approx.report_for(&available, &decoded.selected);
                        (StepOutcome::Approx, approx.bias_weight)
                    } else {
                        // Repaired placements and classic codecs have no
                        // placement-faithful ApproxReport; apply the same
                        // scalar coverage correction directly.
                        (StepOutcome::Approx, n as f64 / decoded.recovered as f64)
                    }
                }
            }
        };

        if decoded.recovered > 0 && outcome != StepOutcome::Skipped {
            // Aggregate through the canonical balanced pairwise reduction
            // (`merge`), so flat masters and 2-level trees add the same
            // numbers in the same order — the bitwise-equality contract.
            let summed = match &collected.sharded {
                Some(sharded) => merge::pairwise_sum(&sharded.partials),
                None => {
                    // Classic codecs scale each codeword by its decoding
                    // coefficient; those copies live here so the slot
                    // vector below can borrow uniformly. The IS-GC path
                    // (no coefficients) borrows the collected codewords in
                    // place — no per-slot clone.
                    let scaled_store: Vec<Vector> = match decoded.coefficients.as_ref() {
                        Some(coeffs) => decoded
                            .selected
                            .iter()
                            .zip(coeffs)
                            .map(|(&w, &c)| {
                                collected.codewords[w]
                                    .as_ref()
                                    .expect("decoder selects only arrived workers")
                                    .scaled(c)
                            })
                            .collect(),
                        None => Vec::new(),
                    };
                    let mut slots: Vec<Option<&Vector>> = vec![None; n];
                    if decoded.coefficients.is_some() {
                        for (i, &w) in decoded.selected.iter().enumerate() {
                            slots[w] = Some(&scaled_store[i]);
                        }
                    } else {
                        for &w in &decoded.selected {
                            slots[w] = Some(
                                collected.codewords[w]
                                    .as_ref()
                                    .expect("decoder selects only arrived workers"),
                            );
                        }
                    }
                    merge::pairwise_sum_of(&slots)
                }
            };
            if let Some(g) = summed {
                // `g` holds summed per-sample gradients over every recovered
                // partition's batch (Theorem 12's η·|D_d| factor).
                let divisor = match self.config.normalization {
                    GradientNormalization::SumOfPartitionMeans => self.config.batch_size,
                    GradientNormalization::MeanOverRecovered => {
                        decoded.recovered * self.config.batch_size
                    }
                };
                // Normalization, approximate-GC bias correction (inflates
                // the partial sum so its expectation matches the
                // full-gradient sum; a *separate* multiply so the exact
                // path's float operations are untouched — bitwise-parity
                // contract), and the SGD update, fused into one pass.
                session.opt.step_prescaled(
                    &mut session.params,
                    &g,
                    1.0 / divisor as f64,
                    (outcome == StepOutcome::Approx).then_some(bias_weight),
                );
            }
        }

        collector.after_step(
            step + 1,
            &session.params,
            LadderState {
                consecutive_degraded: self.consecutive_degraded,
            },
        )?;
        // Step t + 1 goes out before the loss of its parameters is
        // evaluated, so the workers compute while the master does.
        if step + 1 < self.config.max_steps {
            let repairs = self.broadcast(step + 1, &session.params, collector);
            session.broadcast = Some(Broadcast {
                step: step + 1,
                repairs,
            });
        }
        let loss = model.loss_mean(&session.params, dataset, &session.all_indices);

        let report = StepReport {
            step,
            // One pass over a bitset, not a scan of `selected` per worker.
            ignored: WorkerSet::from_indices(n, decoded.selected.iter().copied())
                .complement()
                .to_vec(),
            arrivals: collected.arrivals,
            waited_ms: collected.waited_ms,
            duration: collected.duration,
            decode_ms,
            selected: decoded.selected,
            recovered: decoded.recovered,
            bounds: bound_check.map(|check| (check.lo, check.hi)),
            dead: (0..n).filter(|&w| !alive_now[w]).collect(),
            declined: collected.declined,
            repairs,
            stale: collected.stale,
            failed_decode: decoded.failed,
            outcome,
            coverage,
            bias_weight,
            consecutive_degraded: self.consecutive_degraded,
            loss,
        };
        let control = observer.on_step(&report);
        session.steps.push(report);
        session.last_loss = Some(loss);
        session.next_step += 1;
        if control == StepControl::Crash {
            session.interrupted = true;
            session.done = true;
        } else if loss <= self.config.loss_threshold {
            session.reached_threshold = true;
            session.done = true;
        } else if session.next_step >= self.config.max_steps {
            session.done = true;
        }
        Ok(())
    }

    /// Closes a session and returns its [`TrainReport`].
    pub fn finish(&self, session: Session) -> TrainReport {
        TrainReport {
            n: self.n(),
            steps: session.steps,
            reached_threshold: session.reached_threshold,
            interrupted: session.interrupted,
            wall_time: session.started.elapsed().as_secs_f64(),
            final_params: session.params,
        }
    }

    /// Runs the training loop to completion (threshold, step cap, observer
    /// crash, or error), driving `collector` for transport and reporting
    /// every step to `observer`.
    ///
    /// `params` resumes from a checkpointed vector; `None` derives the
    /// deterministic initial parameters from the seed.
    ///
    /// # Errors
    ///
    /// Collector failures ([`EngineError::Backend`]), degradation-ladder
    /// exhaustion ([`EngineError::Degraded`] under [`DegradePolicy::Fail`]
    /// or a spent `max_consecutive`), and Theorem 10–11 bound violations.
    pub fn run<M: Model>(
        &mut self,
        model: &M,
        dataset: &Dataset,
        params: Option<Vector>,
        collector: &mut dyn Collector,
        observer: &mut dyn Observer,
    ) -> Result<TrainReport, EngineError> {
        let mut session = self.begin(model, dataset, params);
        while self.step(&mut session, model, dataset, collector, observer)?
            == SessionStatus::Running
        {}
        Ok(self.finish(session))
    }
}

/// Whether a [`Session`] will run another step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// More steps to run.
    Running,
    /// The session hit its threshold, step cap, an observer crash, or an
    /// error; further [`StepEngine::step`] calls are no-ops.
    Done,
}

/// The mutable training state of one run, advanced one step at a time by
/// [`StepEngine::step`]. Holds no borrows, so a scheduler can keep many
/// sessions (one per job) side by side and round-robin across them.
pub struct Session {
    params: Vector,
    opt: Sgd,
    all_indices: Vec<usize>,
    steps: Vec<StepReport>,
    reached_threshold: bool,
    interrupted: bool,
    last_loss: Option<f64>,
    started: std::time::Instant,
    next_step: u64,
    /// The step already broadcast and not yet gathered, if any.
    broadcast: Option<Broadcast>,
    done: bool,
}

/// A step whose parameters went out before its gather.
struct Broadcast {
    step: u64,
    /// The placement repairs made for that step, reported with it.
    repairs: Vec<RepairEvent>,
}

impl Session {
    fn status(&self) -> SessionStatus {
        if self.done {
            SessionStatus::Done
        } else {
            SessionStatus::Running
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_ml::LinearRegression;
    use std::cell::RefCell;

    #[test]
    fn step_rng_is_stable_per_step_and_differs_across_steps() {
        use rand::RngCore;
        let a = step_rng(7, 3).next_u64();
        let b = step_rng(7, 3).next_u64();
        let c = step_rng(7, 4).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// An in-process collector that computes codewords synchronously from
    /// the model: the minimal faithful backend, used to exercise the engine
    /// without any transport at all.
    struct ScriptedCollector<'a, M: Model> {
        model: &'a M,
        dataset: &'a Dataset,
        assignments: Vec<Vec<usize>>,
        work: WorkerStep,
        /// `down[step]` = workers that neither respond nor count as alive
        /// from that step on (empty slice = everyone healthy).
        down_from: Vec<(u64, Vec<usize>)>,
        /// Workers that come back to life from that step on (models a
        /// blackout window that ends: down via `down_from`, back here).
        back_from: Vec<(u64, Vec<usize>)>,
        step_now: u64,
    }

    impl<M: Model> ScriptedCollector<'_, M> {
        fn down_now(&self) -> Vec<usize> {
            let back: Vec<usize> = self
                .back_from
                .iter()
                .filter(|(from, _)| self.step_now >= *from)
                .flat_map(|(_, ws)| ws.iter().copied())
                .collect();
            self.down_from
                .iter()
                .filter(|(from, _)| self.step_now >= *from)
                .flat_map(|(_, ws)| ws.iter().copied())
                .filter(|w| !back.contains(w))
                .collect()
        }
    }

    impl<M: Model> Collector for ScriptedCollector<'_, M> {
        fn n(&self) -> usize {
            self.assignments.len()
        }

        fn alive(&self) -> Vec<bool> {
            let down = self.down_now();
            (0..self.n()).map(|w| !down.contains(&w)).collect()
        }

        fn on_repair(&mut self, _events: &[RepairEvent], assignments: &[Vec<usize>]) {
            self.assignments = assignments.to_vec();
        }

        fn gather(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
            self.step_now = ctx.step;
            let n = self.n();
            let down = self.down_now();
            let mut arrivals = Vec::new();
            let mut codewords: Vec<Option<Vector>> = vec![None; n];
            for (w, slot) in codewords.iter_mut().enumerate() {
                if down.contains(&w) {
                    continue;
                }
                *slot = Some(self.work.codeword(
                    self.model,
                    self.dataset,
                    &self.assignments[w],
                    ctx.step,
                    ctx.params,
                ));
                arrivals.push(w);
            }
            Ok(Collected {
                arrivals,
                codewords,
                declined: Vec::new(),
                stale: 0,
                waited_ms: 0.0,
                duration: 0.01,
                sharded: None,
            })
        }
    }

    fn try_run_scripted(
        down_from: Vec<(u64, Vec<usize>)>,
        back_from: Vec<(u64, Vec<usize>)>,
        repair_after_steps: Option<u64>,
        degrade: DegradePolicy,
        observer: &mut dyn Observer,
    ) -> Result<TrainReport, EngineError> {
        let placement = Placement::fractional(4, 2).unwrap();
        let dataset = Dataset::synthetic_regression(64, 3, 0.05, 9);
        let model = LinearRegression::new(3);
        let mut config = EngineConfig::new(placement.clone());
        config.batch_size = 8;
        config.max_steps = 12;
        config.loss_threshold = -1.0; // never reached: fixed-length runs
        config.seed = 5;
        config.repair_after_steps = repair_after_steps;
        config.degrade = degrade;
        let mut engine = StepEngine::new(config).unwrap();
        let mut collector = ScriptedCollector {
            model: &model,
            dataset: &dataset,
            assignments: (0..4)
                .map(|w| placement.partitions_of(w).to_vec())
                .collect(),
            work: WorkerStep::new(&model, &dataset, 4, 8, 5),
            down_from,
            back_from,
            step_now: 0,
        };
        engine.run(&model, &dataset, None, &mut collector, observer)
    }

    fn run_scripted(
        down_from: Vec<(u64, Vec<usize>)>,
        repair_after_steps: Option<u64>,
        observer: &mut dyn Observer,
    ) -> TrainReport {
        try_run_scripted(
            down_from,
            Vec::new(),
            repair_after_steps,
            DegradePolicy::Skip,
            observer,
        )
        .unwrap()
    }

    #[test]
    fn healthy_run_recovers_everything_and_is_deterministic() {
        let a = run_scripted(Vec::new(), None, &mut NoopObserver);
        let b = run_scripted(Vec::new(), None, &mut NoopObserver);
        assert_eq!(a.step_count(), 12);
        assert!(a.recovered_fractions().iter().all(|&f| f == 1.0));
        assert!(a.final_loss() < a.steps[0].loss);
        assert_eq!(a, b);
        assert_eq!(a.recovery_fingerprint(), b.recovery_fingerprint());
    }

    /// The headline of the refactor: placement repair now works behind any
    /// collector, not just the TCP master. A worker that dies mid-run has
    /// its partitions re-homed and full recovery resumes.
    #[test]
    fn repair_restores_full_recovery_after_permanent_death() {
        let report = run_scripted(vec![(3, vec![3])], Some(2), &mut NoopObserver);
        // FR(4,2): losing worker 3 costs nothing while worker 2 survives
        // (they mirror partitions {2,3}); repair still re-homes to restore
        // redundancy, switching decode to the exact-MIS path.
        let repaired_at = report
            .steps
            .iter()
            .position(|s| !s.repairs.is_empty())
            .expect("repair should have fired");
        assert_eq!(report.steps[repaired_at].step, 5); // dead_steps hits 2 at step 3+2
        for s in &report.steps {
            assert_eq!(s.recovered, 4, "step {} under-recovered", s.step);
        }
        assert!(report.steps[repaired_at..]
            .iter()
            .all(|s| s.dead == vec![3]));
        // Deterministic end to end, repair included.
        let again = run_scripted(vec![(3, vec![3])], Some(2), &mut NoopObserver);
        assert_eq!(report, again);
    }

    #[test]
    fn observer_crash_interrupts_the_run() {
        let mut crash_after = FnObserver(|r: &StepReport| {
            if r.step >= 1 {
                StepControl::Crash
            } else {
                StepControl::Continue
            }
        });
        let report = run_scripted(Vec::new(), None, &mut crash_after);
        assert!(report.interrupted);
        assert!(!report.reached_threshold);
        assert_eq!(report.step_count(), 2);
    }

    /// One call the engine made, to the collector or the observer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Broadcast(u64),
        Gather(u64),
        AfterStep(u64),
        OnStep(u64),
    }

    /// Forwards to a scripted collector and logs every step-order call.
    struct Logging<'a, C: Collector> {
        inner: C,
        log: &'a RefCell<Vec<Call>>,
    }

    impl<C: Collector> Collector for Logging<'_, C> {
        fn n(&self) -> usize {
            self.inner.n()
        }

        fn alive(&self) -> Vec<bool> {
            self.inner.alive()
        }

        fn broadcast(&mut self, step: u64, params: &Vector) {
            self.log.borrow_mut().push(Call::Broadcast(step));
            self.inner.broadcast(step, params);
        }

        fn gather(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
            self.log.borrow_mut().push(Call::Gather(ctx.step));
            self.inner.gather(ctx)
        }

        fn after_step(
            &mut self,
            completed: u64,
            params: &Vector,
            ladder: LadderState,
        ) -> Result<(), EngineError> {
            self.log.borrow_mut().push(Call::AfterStep(completed));
            self.inner.after_step(completed, params, ladder)
        }
    }

    /// A healthy FR(4,2) run of at most 6 steps that stops on
    /// `loss_threshold` or crashes after reporting `crash_at`, with the
    /// calls it made in order.
    fn logged_run(loss_threshold: f64, crash_at: Option<u64>) -> (TrainReport, Vec<Call>) {
        let placement = Placement::fractional(4, 2).unwrap();
        let dataset = Dataset::synthetic_regression(64, 3, 0.05, 9);
        let model = LinearRegression::new(3);
        let mut config = EngineConfig::new(placement.clone());
        config.batch_size = 8;
        config.max_steps = 6;
        config.loss_threshold = loss_threshold;
        config.seed = 5;
        let mut engine = StepEngine::new(config).unwrap();
        let log = RefCell::new(Vec::new());
        let mut collector = Logging {
            inner: ScriptedCollector {
                model: &model,
                dataset: &dataset,
                assignments: (0..4)
                    .map(|w| placement.partitions_of(w).to_vec())
                    .collect(),
                work: WorkerStep::new(&model, &dataset, 4, 8, 5),
                down_from: Vec::new(),
                back_from: Vec::new(),
                step_now: 0,
            },
            log: &log,
        };
        let mut observer = FnObserver(|r: &StepReport| {
            log.borrow_mut().push(Call::OnStep(r.step));
            if crash_at == Some(r.step) {
                StepControl::Crash
            } else {
                StepControl::Continue
            }
        });
        let report = engine
            .run(&model, &dataset, None, &mut collector, &mut observer)
            .unwrap();
        (report, log.into_inner())
    }

    /// The steps broadcast and never gathered.
    fn unconsumed(log: &[Call]) -> Vec<u64> {
        log.iter()
            .filter_map(|&call| match call {
                Call::Broadcast(t) if !log.contains(&Call::Gather(t)) => Some(t),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_next_step_is_broadcast_after_the_checkpoint_and_before_the_report() {
        let (report, log) = logged_run(-1.0, None);
        assert_eq!(report.step_count(), 6);
        let at = |call: Call| {
            log.iter()
                .position(|&c| c == call)
                .unwrap_or_else(|| panic!("{call:?} never happened: {log:?}"))
        };
        // The first step broadcasts before it gathers.
        assert_eq!(log[..2], [Call::Broadcast(0), Call::Gather(0)]);
        for t in 0..5 {
            assert!(at(Call::Gather(t)) < at(Call::AfterStep(t + 1)), "{log:?}");
            assert!(
                at(Call::AfterStep(t + 1)) < at(Call::Broadcast(t + 1)),
                "{log:?}"
            );
            assert!(at(Call::Broadcast(t + 1)) < at(Call::OnStep(t)), "{log:?}");
        }
        // No broadcast past max_steps: one broadcast per gathered step.
        assert!(!log.contains(&Call::Broadcast(6)), "{log:?}");
        assert_eq!(unconsumed(&log), Vec::<u64>::new());

        // Pipelining moves no number.
        let again = run_scripted(Vec::new(), None, &mut NoopObserver);
        assert_eq!(report.loss_curve(), again.loss_curve()[..6]);
    }

    #[test]
    fn a_threshold_or_crash_stop_leaves_exactly_one_broadcast_unconsumed() {
        let (full, _) = logged_run(-1.0, None);
        // The loss first reaches the step-2 value at step 2.
        let (stopped, log) = logged_run(full.steps[2].loss, None);
        assert!(stopped.reached_threshold);
        assert_eq!(stopped.step_count(), 3);
        assert_eq!(unconsumed(&log), vec![3]);
        assert_eq!(stopped.loss_curve(), full.loss_curve()[..3]);

        let (crashed, log) = logged_run(-1.0, Some(2));
        assert!(crashed.interrupted);
        assert_eq!(crashed.step_count(), 3);
        assert_eq!(unconsumed(&log), vec![3]);
        assert_eq!(log.last(), Some(&Call::OnStep(2)));
    }

    #[test]
    fn recording_observer_sees_every_step() {
        let mut recorder = RecordingObserver::default();
        let report = run_scripted(Vec::new(), None, &mut recorder);
        assert_eq!(recorder.steps, report.steps);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let placement = Placement::cyclic(4, 2).unwrap();
        let mut bad = EngineConfig::new(placement.clone());
        bad.batch_size = 0;
        assert!(matches!(
            StepEngine::new(bad),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut bad = EngineConfig::new(placement.clone());
        bad.repair_after_steps = Some(0);
        assert!(matches!(
            StepEngine::new(bad),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut bad = EngineConfig::new(placement);
        bad.codec = CodecSpec::Classic(ClassicGc::fractional(4, 2).unwrap());
        bad.repair_after_steps = Some(3);
        assert!(matches!(
            StepEngine::new(bad),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn resume_from_non_pristine_assignments_switches_to_mis() {
        let placement = Placement::fractional(4, 2).unwrap();
        let mut engine = StepEngine::new(EngineConfig::new(placement)).unwrap();
        engine
            .resume_from(7, vec![vec![0, 1], vec![0, 1], vec![2, 3], vec![]])
            .unwrap();
        let (selected, recovered) = (engine.assignments().to_vec(), engine.repair.repaired);
        assert!(recovered, "diverged table must mark the placement repaired");
        assert_eq!(selected[3], Vec::<usize>::new());
        assert!(engine.resume_from(0, vec![vec![0]; 3]).is_err());
    }

    #[test]
    fn degrade_config_validation() {
        let placement = Placement::fractional(4, 2).unwrap();
        let mut bad = EngineConfig::new(placement.clone());
        bad.degrade = DegradePolicy::Approximate {
            max_consecutive: 0,
            min_coverage: 0.5,
        };
        assert!(matches!(
            StepEngine::new(bad),
            Err(EngineError::InvalidConfig(_))
        ));
        let mut bad = EngineConfig::new(placement);
        bad.degrade = DegradePolicy::Approximate {
            max_consecutive: 2,
            min_coverage: 1.5,
        };
        assert!(matches!(
            StepEngine::new(bad),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fail_policy_turns_blackout_into_typed_error() {
        let err = try_run_scripted(
            vec![(4, vec![0, 1, 2, 3])],
            Vec::new(),
            None,
            DegradePolicy::Fail,
            &mut NoopObserver,
        )
        .unwrap_err();
        match err {
            EngineError::Degraded {
                step, recovered, ..
            } => {
                assert_eq!(step, 4);
                assert_eq!(recovered, 0);
            }
            other => panic!("expected Degraded, got {other}"),
        }
    }

    /// Step-at-a-time drivers (the scheduler's `JobDriver`s) forward
    /// `step` without state of their own: a session that failed or finished
    /// must answer `Done` and leave the collector untouched.
    #[test]
    fn a_failed_or_finished_session_steps_as_a_done_no_op() {
        let placement = Placement::fractional(4, 2).unwrap();
        let dataset = Dataset::synthetic_regression(64, 3, 0.05, 9);
        let model = LinearRegression::new(3);
        for (max_steps, degrade) in [(12, DegradePolicy::Fail), (1, DegradePolicy::Skip)] {
            let mut config = EngineConfig::new(placement.clone());
            config.batch_size = 8;
            config.max_steps = max_steps;
            config.loss_threshold = -1.0;
            config.degrade = degrade;
            let mut engine = StepEngine::new(config).unwrap();
            let mut collector = ScriptedCollector {
                model: &model,
                dataset: &dataset,
                assignments: (0..4)
                    .map(|w| placement.partitions_of(w).to_vec())
                    .collect(),
                work: WorkerStep::new(&model, &dataset, 4, 8, 0),
                down_from: vec![(1, vec![0, 1, 2, 3])],
                back_from: Vec::new(),
                step_now: 0,
            };
            let mut session = engine.begin(&model, &dataset, None);
            let mut step = |session: &mut Session| {
                engine.step(session, &model, &dataset, &mut collector, &mut NoopObserver)
            };
            if max_steps == 1 {
                assert_eq!(step(&mut session).unwrap(), SessionStatus::Done);
            } else {
                assert_eq!(step(&mut session).unwrap(), SessionStatus::Running);
                assert!(matches!(
                    step(&mut session),
                    Err(EngineError::Degraded { step: 1, .. })
                ));
            }
            for _ in 0..2 {
                assert_eq!(step(&mut session).unwrap(), SessionStatus::Done);
            }
            assert_eq!(session.steps.len(), 1);
            assert_eq!(collector.step_now, max_steps.min(2) - 1);
        }
    }

    #[test]
    fn skip_policy_freezes_the_iterate_through_a_blackout() {
        let report = try_run_scripted(
            vec![(4, vec![0, 1, 2, 3])],
            vec![(7, vec![0, 1, 2, 3])],
            None,
            DegradePolicy::Skip,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(report.step_count(), 12);
        for s in &report.steps {
            let expect_skip = (4..7).contains(&s.step);
            assert_eq!(
                s.outcome == StepOutcome::Skipped,
                expect_skip,
                "step {}",
                s.step
            );
            if expect_skip {
                assert_eq!(s.recovered, 0);
                assert_eq!(s.bias_weight, 0.0);
                assert_eq!(s.consecutive_degraded, s.step - 3);
            }
        }
        // The iterate is frozen: loss is flat across the blackout.
        assert_eq!(report.steps[4].loss, report.steps[3].loss);
        assert_eq!(report.steps[6].loss, report.steps[3].loss);
        // Recovery resets the escalation counter.
        assert_eq!(report.steps[7].outcome, StepOutcome::Exact);
        assert_eq!(report.steps[7].consecutive_degraded, 0);
        assert!(report.steps[7].loss < report.steps[6].loss);
    }

    #[test]
    fn approximate_policy_applies_bias_corrected_partial_updates() {
        // FR(4,2): dropping workers 0 and 1 (the {0,1}-partition group)
        // halves coverage; min_coverage ¾ sends those steps down the
        // approximate rung with bias weight 4/2 = 2.
        let policy = DegradePolicy::Approximate {
            max_consecutive: 5,
            min_coverage: 0.75,
        };
        let report = try_run_scripted(
            vec![(3, vec![0, 1])],
            vec![(6, vec![0, 1])],
            None,
            policy.clone(),
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(report.step_count(), 12);
        for s in &report.steps {
            let expect_approx = (3..6).contains(&s.step);
            assert_eq!(
                s.outcome == StepOutcome::Approx,
                expect_approx,
                "step {}",
                s.step
            );
            if expect_approx {
                assert_eq!(s.recovered, 2);
                assert_eq!(s.coverage, 0.5);
                assert_eq!(s.bias_weight, 2.0);
                assert_eq!(s.consecutive_degraded, s.step - 2);
            }
        }
        // Approximate steps still make progress (unlike Skip).
        assert!(report.steps[5].loss < report.steps[2].loss);
        assert_eq!(report.steps[6].outcome, StepOutcome::Exact);
        assert_eq!(report.steps[6].consecutive_degraded, 0);
        // Deterministic end to end, ladder included.
        let again = try_run_scripted(
            vec![(3, vec![0, 1])],
            vec![(6, vec![0, 1])],
            None,
            policy,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(report, again);
        assert_eq!(report.recovery_fingerprint(), again.recovery_fingerprint());
    }

    #[test]
    fn approximate_policy_escalates_after_max_consecutive() {
        let err = try_run_scripted(
            vec![(3, vec![0, 1])],
            Vec::new(),
            None,
            DegradePolicy::Approximate {
                max_consecutive: 2,
                min_coverage: 0.75,
            },
            &mut NoopObserver,
        )
        .unwrap_err();
        match err {
            EngineError::Degraded {
                step, recovered, ..
            } => {
                // Steps 3 and 4 are tolerated; the third degraded step in a
                // row (step 5) exceeds max_consecutive = 2.
                assert_eq!(step, 5);
                assert_eq!(recovered, 2);
            }
            other => panic!("expected Degraded, got {other}"),
        }
    }

    #[test]
    fn approximate_matches_fail_bitwise_when_coverage_holds() {
        // No worker ever drops below the floor: the ladder must never
        // engage, and the run must be bitwise identical to Fail.
        let fail = try_run_scripted(
            vec![(5, vec![0])],
            Vec::new(),
            None,
            DegradePolicy::Fail,
            &mut NoopObserver,
        )
        .unwrap();
        let approx = try_run_scripted(
            vec![(5, vec![0])],
            Vec::new(),
            None,
            DegradePolicy::Approximate {
                max_consecutive: 3,
                min_coverage: 0.5,
            },
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(fail, approx);
        assert_eq!(fail.final_params.as_slice(), approx.final_params.as_slice());
        assert!(approx.steps.iter().all(|s| s.outcome == StepOutcome::Exact));
    }

    #[test]
    fn ladder_counter_resumes_for_bitwise_replay() {
        let placement = Placement::fractional(4, 2).unwrap();
        let mut config = EngineConfig::new(placement);
        config.degrade = DegradePolicy::Approximate {
            max_consecutive: 3,
            min_coverage: 0.75,
        };
        let mut engine = StepEngine::new(config).unwrap();
        assert_eq!(engine.consecutive_degraded, 0);
        engine.resume_ladder(2);
        assert_eq!(engine.consecutive_degraded, 2);
    }
}
