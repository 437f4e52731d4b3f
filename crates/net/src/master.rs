//! The IS-GC master: listens on TCP, registers workers, drives training
//! steps, and ignores an arbitrary subset of stragglers every step.
//!
//! Robustness machinery (PR 2): the master checkpoints `(step, params,
//! assignments)` so a restarted process resumes mid-training; workers that
//! stay dead for a configurable number of steps are declared permanently
//! dead and their partitions are re-homed onto survivors (placement repair,
//! minimizing added conflict-graph edges); a step that closes having
//! recovered nothing surfaces as a typed [`NetError::Degraded`] instead of
//! silently spinning. All per-step randomness is derived from
//! `(seed, step)`, never streamed, so a resumed run is bit-identical to an
//! uninterrupted one from the restart point onward.
//!
//! Step semantics — decode, repair, bounds, normalization, the SGD update —
//! live in [`isgc_engine::StepEngine`]; this module is the TCP
//! [`Collector`]. Registration, liveness, broadcast and collection are the
//! worker tier's (`crate::tier`); what is written here is the master's
//! alone: the assignment table and its `Assign` frames, placement repair,
//! checkpoint persistence, rejoin grace. All I/O rides the
//! nonblocking `crate::reactor`: the master process runs the accept path,
//! every connection, and the step state machine on **one** thread,
//! regardless of `n`.

use std::net::{TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use isgc_core::Placement;
use isgc_engine::{
    Collected, Collector, DegradePolicy, EngineConfig, EngineError, FnObserver, LadderState,
    MetricsObserver, NoopObserver, Observer, RepairEvent, SessionStatus, StepContext, StepEngine,
    StepReport,
};
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;

use crate::checkpoint::MasterCheckpoint;
use crate::reactor::{NetEvent, Reactor};
use crate::report::{NetReport, NetTrainReport};
use crate::seam::Transport;
use crate::tier::{Host, Tier};
use crate::wire::{max_codeword_len, Message, MAX_PAYLOAD};
use crate::{NetError, WaitPolicy};

pub use isgc_engine::StepControl;

/// Configuration of a networked training run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The data placement; `placement.n()` workers must register.
    pub placement: Placement,
    /// How each step stops collecting codewords.
    pub wait: WaitPolicy,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Stop when the full-dataset loss reaches this value.
    pub loss_threshold: f64,
    /// Hard cap on steps.
    pub max_steps: usize,
    /// Seed shared with workers (parameter init, batches, decode
    /// tie-breaks); transmitted in `Assign`.
    pub seed: u64,
    /// A worker silent for longer than this is presumed dead and stops
    /// counting toward wait targets until it reconnects or speaks again.
    /// Enforced by the reactor's logical timer wheel, so the decision is a
    /// deterministic deadline, not a race between wall-clock thread sleeps.
    pub heartbeat_timeout: Duration,
    /// How long `run` waits for all `n` workers to register.
    pub register_timeout: Duration,
    /// When set, the master persists a [`MasterCheckpoint`] to this file
    /// after every step and resumes from it if it exists at startup.
    pub checkpoint: Option<PathBuf>,
    /// When set, a worker dead for this many consecutive step starts is
    /// declared permanently dead: its partitions are reassigned to
    /// survivors (minimizing added conflict-graph edges) and fresh `Assign`
    /// frames are issued. Counted in steps, not wall time, so seeded chaos
    /// schedules replay exactly.
    pub repair_after_steps: Option<u64>,
    /// How long each step start waits for a previously-registered but
    /// currently disconnected worker to re-register before broadcasting.
    /// Zero (the default) broadcasts immediately. The chaos harness sets a
    /// generous grace so a flapping worker's arrival set depends only on
    /// its scripted faults, never on how fast its reconnect handshake races
    /// the next broadcast. Workers already declared dead by placement
    /// repair are never waited for.
    pub rejoin_grace: Duration,
    /// When set, the master records the engine's per-step metric series
    /// (via [`isgc_engine::MetricsObserver`]) plus transport byte/frame
    /// counters (see [`crate::metrics`]) into this registry.
    pub metrics: Option<isgc_obs::Registry>,
    /// What the engine does with steps below the coverage floor (the
    /// graceful degradation ladder). The TCP default is
    /// [`DegradePolicy::Fail`] — a zero-recovery step surfaces as
    /// [`NetError::Degraded`] — but supervised deployments can opt into
    /// bounded approximation instead.
    pub degrade: DegradePolicy,
    /// Tenant id stamped on every outbound frame and required on every
    /// inbound one — frames tagged with a foreign job are dropped before
    /// they reach the step loop. Job 0 is the single-tenant default.
    pub job: u64,
    /// Human-readable tenant name. When set (and `metrics` is set), the
    /// engine's per-step series are recorded under a `("job", name)` label
    /// scope.
    pub job_name: Option<String>,
}

impl NetConfig {
    /// A config with conventional robustness timeouts.
    pub fn new(placement: Placement, wait: WaitPolicy) -> Self {
        NetConfig {
            placement,
            wait,
            batch_size: 8,
            learning_rate: 0.05,
            loss_threshold: 0.0,
            max_steps: 50,
            seed: 7,
            heartbeat_timeout: Duration::from_secs(2),
            register_timeout: Duration::from_secs(30),
            checkpoint: None,
            repair_after_steps: None,
            rejoin_grace: Duration::ZERO,
            metrics: None,
            degrade: DegradePolicy::Fail,
            job: 0,
            job_name: None,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        let n = self.placement.n();
        if let WaitPolicy::FirstW(w) = self.wait {
            if !(1..=n).contains(&w) {
                return Err(NetError::InvalidConfig(format!(
                    "wait count w = {w} outside 1..={n}"
                )));
            }
        }
        if self.batch_size == 0 {
            return Err(NetError::InvalidConfig(
                "batch_size must be positive".into(),
            ));
        }
        if self.max_steps == 0 {
            return Err(NetError::InvalidConfig("max_steps must be positive".into()));
        }
        if self.repair_after_steps == Some(0) {
            return Err(NetError::InvalidConfig(
                "repair_after_steps must be at least 1".into(),
            ));
        }
        if let DegradePolicy::Approximate {
            max_consecutive,
            min_coverage,
        } = &self.degrade
        {
            if *max_consecutive == 0 {
                return Err(NetError::InvalidConfig(
                    "degrade max_consecutive must be at least 1".into(),
                ));
            }
            if !(0.0..=1.0).contains(min_coverage) {
                return Err(NetError::InvalidConfig(format!(
                    "degrade min_coverage must be within [0, 1], got {min_coverage}"
                )));
            }
        }
        Ok(())
    }

    /// The engine configuration this network config corresponds to: the
    /// one the master's step engine runs, and the one the model checker
    /// drives the collector under.
    pub fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.placement.clone());
        config.batch_size = self.batch_size;
        config.learning_rate = self.learning_rate;
        config.loss_threshold = self.loss_threshold;
        config.max_steps = self.max_steps as u64;
        config.seed = self.seed;
        config.repair_after_steps = self.repair_after_steps;
        // Default Fail: a zero-recovery step over TCP means the run is
        // spinning while workers burn cycles, so surface NetError::Degraded
        // unless the operator opted into the degradation ladder.
        config.degrade = self.degrade.clone();
        config
    }
}

/// Wraps a transport failure for transit through the engine.
pub(crate) fn backend(e: NetError) -> EngineError {
    EngineError::Backend(Box::new(e))
}

/// Recovers the typed [`NetError`] from an engine failure.
pub(crate) fn engine_to_net(e: EngineError) -> NetError {
    match e {
        EngineError::Degraded {
            step,
            recovered,
            bound,
        } => NetError::Degraded {
            step,
            recovered,
            bound,
        },
        EngineError::Backend(inner) => match inner.downcast::<NetError>() {
            Ok(net) => *net,
            Err(other) => NetError::Protocol(other.to_string()),
        },
        EngineError::InvalidConfig(reason) => NetError::InvalidConfig(reason),
        other => NetError::Protocol(other.to_string()),
    }
}

/// A listening IS-GC master. Bind first (so tests can learn the ephemeral
/// port), then [`Master::run`] a training session.
pub struct Master {
    listener: TcpListener,
}

impl Master {
    /// Binds the master's listening socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Master, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Master { listener })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs a full training session; see [`Master::run_with`].
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`].
    pub fn run<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
    ) -> Result<NetTrainReport, NetError> {
        self.run_with(model, dataset, config, |_| {})
    }

    /// Runs a full training session, calling `observer` after every step.
    ///
    /// Blocks until `placement.n()` workers registered, then trains for up
    /// to `max_steps` steps, decoding each step's arrivals with the
    /// placement's IS-GC decoder and applying the shared SGD update. Dead
    /// workers (heartbeat silence, closed connections, `Decline` frames)
    /// shrink the wait target instead of stalling the step; late codewords
    /// are discarded by step tag; reconnecting workers reclaim their slot
    /// mid-run. With [`NetConfig::checkpoint`] set, the session resumes
    /// from the checkpoint file when one exists.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad parameters,
    /// [`NetError::Protocol`] when registration times out or a checkpoint
    /// is unusable, [`NetError::Degraded`] when a step recovers nothing,
    /// and [`NetError::AllWorkersLost`] when no worker is left at all.
    pub fn run_with<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
        mut observer: impl FnMut(&NetReport),
    ) -> Result<NetTrainReport, NetError> {
        self.run_controlled(model, dataset, config, |report| {
            observer(report);
            StepControl::Continue
        })
    }

    /// Like [`Master::run_with`], but the observer may return
    /// [`StepControl::Crash`] to stop the master cold — no shutdown
    /// broadcast, sockets dropped — returning the partial report. The chaos
    /// harness uses this to script mid-run master crashes; a subsequent
    /// `run_controlled` with the same checkpointed config resumes.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`].
    pub fn run_controlled<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
        mut observer: impl FnMut(&NetReport) -> StepControl,
    ) -> Result<NetTrainReport, NetError> {
        config.validate()?;
        let reactor = Reactor::new(Some(self.listener), config.job, config.metrics.clone())?;
        let (mut collector, mut engine, mut session) =
            build_session_state(model, dataset, config, reactor)?;
        let mut observer = metered(config, FnObserver(|report: &StepReport| observer(report)));
        let outcome = loop {
            let status = engine.step(&mut session, model, dataset, &mut collector, &mut *observer);
            match status {
                Ok(SessionStatus::Running) => {}
                Ok(SessionStatus::Done) => break Ok(engine.finish(session)),
                Err(e) => break Err(engine_to_net(e)),
            }
        };

        // Tell workers we're done. A scripted crash skips the shutdown
        // broadcast — a killed process sends nothing — and hard-closes
        // every socket instead. Either way the listener dies with the
        // reactor; there is no accept thread to unblock.
        let crashed = matches!(&outcome, Ok(report) if report.interrupted);
        collector.close_peers(crashed);
        outcome
    }

    /// Turns the bound master into a step-at-a-time [`MasterSession`]:
    /// registration and checkpoint resume happen here, then the caller
    /// drives one training step per [`MasterSession::step`] call.
    /// This is the networked job driver a multi-tenant scheduler
    /// round-robins — `isgc-sched` steps several of these in one process.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`]; on error the transport (reactor, listener,
    /// every accepted socket) is already torn down.
    pub fn into_session<M: Model>(
        self,
        model: M,
        dataset: Dataset,
        config: &NetConfig,
    ) -> Result<MasterSession<M>, NetError> {
        config.validate()?;
        let reactor = Reactor::new(Some(self.listener), config.job, config.metrics.clone())?;

        // Errors need no explicit transport teardown: dropping the reactor
        // closes the listener and every accepted socket.
        let (collector, engine, session) = build_session_state(&model, &dataset, config, reactor)?;
        Ok(MasterSession {
            model,
            dataset,
            engine,
            session,
            collector,
            observer: metered(config, NoopObserver),
        })
    }
}

/// The observer a session reports to: with [`NetConfig::metrics`] set, the
/// engine's logical series land in the registry (under the job's label
/// scope, when it has a name) ahead of `inner`, which keeps its
/// [`StepControl`] authority.
fn metered<'a>(config: &NetConfig, inner: impl Observer + 'a) -> Box<dyn Observer + 'a> {
    let Some(registry) = config.metrics.clone() else {
        return Box::new(inner);
    };
    let mut observer = MetricsObserver::wrapping(registry, config.placement.n(), inner);
    if let Some(name) = &config.job_name {
        observer = observer.scoped_to_job(name.clone());
    }
    Box::new(observer)
}

/// Builds the collector, engine, and open session of a run: registration
/// and checkpoint resume happen here, after a model whose uploads would not
/// fit in one frame is refused.
fn build_session_state<M: Model>(
    model: &M,
    dataset: &Dataset,
    config: &NetConfig,
    reactor: Reactor,
) -> Result<(MasterLoop, StepEngine, isgc_engine::Session), NetError> {
    let (dim, max) = (model.param_dim(), max_codeword_len());
    if dim > max {
        return Err(NetError::InvalidConfig(format!(
            "model dimension {dim} does not fit in one frame of at most {MAX_PAYLOAD} \
             payload bytes; the largest that fits is {max}"
        )));
    }
    let mut loop_state = MasterLoop::new(config.clone(), Box::new(reactor));
    let mut engine = StepEngine::new(config.engine_config()).map_err(engine_to_net)?;
    // Parameter initialization is a pure function of the seed, so a resumed
    // master overwrites it from the checkpoint and a fresh one matches any
    // backend given the same seed.
    let mut params = engine.initial_params(model);
    let (start_step, ladder) = loop_state.host.try_resume(&mut params)?;
    engine
        .resume_from(start_step, loop_state.host.assignments.clone())
        .map_err(engine_to_net)?;
    engine.resume_ladder(ladder);
    loop_state.await_registration()?;
    let session = engine.begin(model, dataset, Some(params));
    Ok((loop_state, engine, session))
}

/// A registered, resumed, step-at-a-time networked training session — the
/// [`Master`]'s run loop with the stepping authority handed to the caller.
/// Drop order does not matter: [`MasterSession::finish`] performs the full
/// transport teardown (shutdown broadcast, then the reactor — which owns
/// the listener and every socket — drops with the session).
pub struct MasterSession<M: Model> {
    model: M,
    dataset: Dataset,
    engine: StepEngine,
    session: isgc_engine::Session,
    collector: MasterLoop,
    observer: Box<dyn Observer>,
}

impl<M: Model> MasterSession<M> {
    /// Runs one training step over the wire.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`]; after an error the session is closed and
    /// further calls return [`isgc_engine::SessionStatus::Done`] without
    /// touching the network.
    pub fn step(&mut self) -> Result<isgc_engine::SessionStatus, NetError> {
        self.engine
            .step(
                &mut self.session,
                &self.model,
                &self.dataset,
                &mut self.collector,
                &mut *self.observer,
            )
            .map_err(engine_to_net)
    }

    /// Closes the session: drains the step already broadcast for the next
    /// [`MasterSession::step`], then broadcasts `Shutdown` to the peers
    /// (unless the run was interrupted by a scripted crash, which emulates a
    /// killed process by hard-closing every socket) and returns the training
    /// report. The listener closes when the reactor drops with the session.
    pub fn finish(mut self) -> NetTrainReport {
        let report = self.engine.finish(self.session);
        self.collector.close_peers(report.interrupted);
        report
    }
}

/// The master's single-threaded state machine over connection events — the
/// engine's TCP [`Collector`]: one worker `Tier` over `[0, n)` plus what is
/// the master's alone. Owns its [`Transport`] (the `Reactor`
/// in production, a virtual network under the model checker) and polls it
/// inline: there is no I/O thread anywhere in the master process.
pub struct MasterLoop {
    tier: Tier,
    host: MasterHost,
    /// Answers swallowed while the last broadcast waited out the rejoin
    /// grace; reported as stale by that step's gather.
    rejoin_stale: usize,
}

/// What the master supplies to its worker tier, and keeps beside it.
struct MasterHost {
    config: NetConfig,
    /// Current per-worker partition lists, mirroring the engine's table;
    /// starts as the placement's and diverges when the engine runs placement
    /// repair (a repaired-dead worker's list becomes empty). Used to build
    /// `Assign` frames and to decide which disconnected workers are worth a
    /// rejoin grace.
    assignments: Vec<Vec<usize>>,
}

impl Host for MasterHost {
    /// Counts every inbound frame, when a metrics registry is attached.
    fn next_event(
        &mut self,
        transport: &mut dyn Transport,
        timeout: Duration,
    ) -> Result<Option<NetEvent>, NetError> {
        let event = transport.next_event(timeout)?;
        if let (
            Some(registry),
            Some(NetEvent::Codeword { bytes, .. } | NetEvent::Msg { bytes, .. }),
        ) = (&self.config.metrics, &event)
        {
            use isgc_obs::Class::Timing;
            registry.inc(crate::metrics::FRAMES_RECEIVED_TOTAL, &[], Timing);
            registry.inc_by(
                crate::metrics::BYTES_RECEIVED_TOTAL,
                &[],
                Timing,
                *bytes as u64,
            );
        }
        Ok(event)
    }

    /// The `Assign` frame for worker `id`, from its *current* assignment
    /// (which placement repair may have changed).
    fn welcome(&self, id: usize) -> Arc<[u8]> {
        Message::Assign {
            worker: id as u64,
            n: self.config.placement.n() as u64,
            c: self.config.placement.c() as u64,
            batch_size: self.config.batch_size as u64,
            seed: self.config.seed,
            partitions: self.assignments[id].iter().map(|&j| j as u64).collect(),
        }
        .encode_for_job(self.config.job)
        .into()
    }

    /// Workers already declared dead by placement repair are never waited
    /// for.
    fn awaits_rejoin(&self, id: usize) -> bool {
        !self.assignments[id].is_empty()
    }
}

impl Collector for MasterLoop {
    fn n(&self) -> usize {
        self.tier.len()
    }

    fn alive(&self) -> Vec<bool> {
        self.tier.alive().collect()
    }

    /// The engine re-homed a dead worker's partitions: mirror the table and
    /// re-issue `Assign` frames to every survivor whose list grew, over the
    /// existing connections.
    fn on_repair(&mut self, events: &[RepairEvent], assignments: &[Vec<usize>]) {
        self.host.assignments = assignments.to_vec();
        let touched: std::collections::BTreeSet<usize> = events.iter().map(|e| e.to).collect();
        for id in touched {
            self.tier.send_to(id, self.host.welcome(id));
        }
    }

    fn broadcast(&mut self, step: u64, params: &Vector) {
        let MasterLoop {
            tier,
            host,
            rejoin_stale,
        } = self;
        let (grace, job) = (host.config.rejoin_grace, host.config.job);
        *rejoin_stale = tier.broadcast_step(host, grace, job, step, params.as_slice());
    }

    fn gather(&mut self, _ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let MasterLoop {
            tier,
            host,
            rejoin_stale,
        } = self;
        let pre_stale = std::mem::take(rejoin_stale);
        let collected = tier.collect(host, host.config.wait).map_err(backend)?;
        // A step that closes with zero arrivals but alive workers (FirstW
        // with everyone freshly dead-marked or declining) is reported
        // upstream as Degraded by the engine.
        if collected.arrivals.is_empty() && !tier.alive().any(|alive| alive) {
            return Err(backend(NetError::AllWorkersLost));
        }
        Ok(Collected {
            arrivals: collected.arrivals,
            codewords: collected.answers,
            declined: collected.declined,
            stale: collected.stale + pre_stale,
            waited_ms: collected.waited.as_secs_f64() * 1e3,
            duration: collected.waited.as_secs_f64(),
        })
    }

    fn after_step(
        &mut self,
        completed: u64,
        params: &Vector,
        ladder: LadderState,
    ) -> Result<(), EngineError> {
        self.host
            .maybe_checkpoint(completed, params, ladder)
            .map_err(backend)
    }
}

impl MasterLoop {
    /// Builds the (not yet registered) master loop over `transport`.
    pub fn new(config: NetConfig, transport: Box<dyn Transport>) -> MasterLoop {
        let n = config.placement.n();
        MasterLoop {
            tier: Tier::new(n, Some(config.heartbeat_timeout), transport),
            host: MasterHost {
                assignments: (0..n)
                    .map(|w| config.placement.partitions_of(w).to_vec())
                    .collect(),
                config,
            },
            rejoin_stale: 0,
        }
    }

    /// Blocks until all `n` workers registered (or the configured
    /// registration deadline passes).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout.
    pub fn await_registration(&mut self) -> Result<(), NetError> {
        let timeout = self.host.config.register_timeout;
        self.tier.await_registered(&mut self.host, timeout)
    }

    /// Notifies workers the run is over — a `Shutdown` broadcast (flushed
    /// through the reactor) normally, or (emulating a killed process, whose
    /// fds all close) a hard shutdown of every socket when the run ended in
    /// a scripted crash. A normal close first drains a step that was
    /// broadcast and never gathered, for up to the same 1 s limit.
    pub fn close_peers(&mut self, crashed: bool) {
        let job = self.host.config.job;
        self.tier
            .close(&mut self.host, crashed, job, Duration::from_secs(1));
    }
}

impl MasterHost {
    /// Restores checkpointed state if a checkpoint exists; returns the step
    /// to resume at and the degradation-ladder counter entering it, and
    /// overwrites the parameters to resume with. The restored assignment
    /// table is handed to the engine via [`StepEngine::resume_from`], which
    /// re-enters the repaired decode path when the table diverged from the
    /// placement; the ladder counter goes to [`StepEngine::resume_ladder`]
    /// so escalation decisions replay bit-for-bit.
    fn try_resume(&mut self, params: &mut Vector) -> Result<(u64, u64), NetError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok((0, 0));
        };
        let Some(ck) = MasterCheckpoint::load(path)? else {
            return Ok((0, 0));
        };
        let (n, c) = (self.config.placement.n(), self.config.placement.c());
        ck.verify_fingerprint(self.config.seed, n, c)?;
        *params = Vector::from_slice(&ck.params);
        self.assignments = ck
            .assignments
            .iter()
            .map(|list| list.iter().map(|&j| j as usize).collect())
            .collect();
        Ok((ck.step, ck.consecutive_degraded))
    }

    /// Persists a checkpoint for `next_step` when checkpointing is on.
    fn maybe_checkpoint(
        &self,
        next_step: u64,
        params: &Vector,
        ladder: LadderState,
    ) -> Result<(), NetError> {
        let Some(path) = &self.config.checkpoint else {
            return Ok(());
        };
        let ck = MasterCheckpoint {
            seed: self.config.seed,
            n: self.config.placement.n() as u64,
            c: self.config.placement.c() as u64,
            step: next_step,
            consecutive_degraded: ladder.consecutive_degraded,
            params: params.as_slice().to_vec(),
            assignments: self
                .assignments
                .iter()
                .map(|list| list.iter().map(|&j| j as u64).collect())
                .collect(),
        };
        ck.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_ml::model::{LinearRegression, SoftmaxRegression};

    fn test_config(n: usize, c: usize, w: usize) -> NetConfig {
        let mut config = NetConfig::new(
            Placement::cyclic(n, c).expect("valid CR"),
            WaitPolicy::FirstW(w),
        );
        config.max_steps = 3;
        config
    }

    #[test]
    fn config_validation_catches_bad_w() {
        let config = test_config(4, 2, 5);
        assert!(matches!(config.validate(), Err(NetError::InvalidConfig(_))));
        assert!(test_config(4, 2, 4).validate().is_ok());
    }

    #[test]
    fn config_validation_catches_zero_batch_steps_and_repair() {
        let mut config = test_config(4, 2, 2);
        config.batch_size = 0;
        assert!(config.validate().is_err());
        let mut config = test_config(4, 2, 2);
        config.max_steps = 0;
        assert!(config.validate().is_err());
        let mut config = test_config(4, 2, 2);
        config.repair_after_steps = Some(0);
        assert!(config.validate().is_err());
    }

    #[test]
    fn registration_times_out_without_workers() {
        let master = Master::bind("127.0.0.1:0").unwrap();
        let mut config = test_config(2, 1, 1);
        config.register_timeout = Duration::from_millis(100);
        let model = LinearRegression::new(2);
        let dataset = Dataset::synthetic_regression(16, 2, 0.1, 1);
        let err = master.run(&model, &dataset, &config).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn a_model_too_large_for_one_frame_is_refused_before_registration() {
        // dim = (1 + 1) · 4,194,303 = 8,388,606: one past the longest
        // codeword a frame carries (21 + 8 · dim ≤ 2²⁶ payload bytes). The
        // model allocates nothing at that size, and neither may the master
        // before refusing it; no worker ever registers here.
        let model = SoftmaxRegression::new(1, 4_194_303);
        let dataset = Dataset::synthetic_regression(16, 1, 0.1, 1);
        let mut config = test_config(4, 2, 4);
        config.register_timeout = Duration::from_millis(100);
        let master = Master::bind("127.0.0.1:0").unwrap();
        match master.run(&model, &dataset, &config) {
            Err(NetError::InvalidConfig(why)) => {
                assert!(why.contains("8388606") && why.contains("8388605"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn bind_reports_local_addr() {
        let master = Master::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn engine_errors_map_back_to_typed_net_errors() {
        let degraded = engine_to_net(EngineError::Degraded {
            step: 3,
            recovered: 0,
            bound: 2,
        });
        assert!(matches!(
            degraded,
            NetError::Degraded {
                step: 3,
                recovered: 0,
                bound: 2
            }
        ));
        let roundtrip = engine_to_net(backend(NetError::AllWorkersLost));
        assert!(matches!(roundtrip, NetError::AllWorkersLost));
        let invalid = engine_to_net(EngineError::InvalidConfig("nope".into()));
        assert!(matches!(invalid, NetError::InvalidConfig(_)));
    }
}
