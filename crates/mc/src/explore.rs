//! The exploration drivers: bounded-exhaustive search over delivery orders
//! and fault schedules, invariant checking, counterexample minimization,
//! and chaos-replayable trace emission.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use isgc_chaos::invariants::check_reports;
use isgc_chaos::{failure_fingerprint, ChaosConfig, Fault, FaultKind, Trace};
use isgc_core::Placement;
use isgc_engine::{EngineConfig, EngineError, RecordingObserver, StepEngine, StepReport};
use isgc_ml::{Dataset, LinearRegression};
use isgc_net::master::MasterLoop;
use isgc_net::submaster::{ShardGeometry, ShardLoop, TreeRootLoop};
use isgc_net::{NetConfig, SubmasterOptions};

use crate::sched::{Ctx, Poison};
use crate::world::{Role, VirtualTransport, World};

/// The cluster geometry a checking run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A flat master over `n` workers with FR replication factor `c`.
    Flat {
        /// Cluster size.
        n: usize,
        /// Copies per partition (must divide `n`).
        c: usize,
    },
    /// The two-level tree: a root over 2 sub-masters, each owning 2 of 4
    /// workers (FR placement with c = 2).
    Tree2x2,
}

impl Shape {
    /// `(n, c)` of the modeled cluster.
    pub fn cluster(self) -> (usize, usize) {
        match self {
            Shape::Flat { n, c } => (n, c),
            Shape::Tree2x2 => (4, 2),
        }
    }

    /// Short name used in trace names and the CLI report.
    pub fn name(self) -> String {
        match self {
            Shape::Flat { n, .. } => format!("flat{n}"),
            Shape::Tree2x2 => "tree2x2".to_string(),
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Cluster geometry.
    pub shape: Shape,
    /// Steps each run executes.
    pub steps: u64,
    /// Seed for parameter init, batch selection, and decode tie-breaks.
    pub seed: u64,
    /// Fault budget per run in free exploration.
    pub max_faults: usize,
    /// Decision-depth bound: choice points beyond this take their default
    /// option and are never backtracked.
    pub depth: usize,
    /// Hard cap on executed runs (a backstop, not a target; exhaustion
    /// normally ends the search first).
    pub max_runs: u64,
    /// Stop at the first invariant violation instead of cataloguing all.
    pub stop_on_violation: bool,
}

impl McConfig {
    fn preset(shape: Shape) -> McConfig {
        McConfig {
            shape,
            steps: 2,
            seed: 7,
            max_faults: 2,
            depth: 64,
            max_runs: 200_000,
            stop_on_violation: true,
        }
    }

    /// The smallest interesting flat cluster: n = 3, c = 1.
    pub fn flat3() -> McConfig {
        McConfig::preset(Shape::Flat { n: 3, c: 1 })
    }

    /// The flat 4-worker cluster with replication: n = 4, c = 2.
    pub fn flat4() -> McConfig {
        McConfig::preset(Shape::Flat { n: 4, c: 2 })
    }

    /// The two-level tree: 2 sub-masters over 4 workers.
    pub fn tree2x2() -> McConfig {
        McConfig::preset(Shape::Tree2x2)
    }
}

/// One invariant violation found by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The fault schedule of the violating run.
    pub faults: Vec<Fault>,
    /// Every violation message the run produced (chaos-identical strings).
    pub messages: Vec<String>,
    /// [`failure_fingerprint`] over `messages` — what a chaos replay must
    /// reproduce.
    pub fingerprint: u64,
}

/// The result of one exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Runs executed (including pruned ones).
    pub runs: u64,
    /// Runs that trained to completion.
    pub completed: u64,
    /// Runs that ended in ladder exhaustion (legal under heavy faults).
    pub degraded: u64,
    /// Runs that ended with every worker lost (legal under heavy faults).
    pub lost: u64,
    /// Runs cut short because their canonical state was already explored.
    pub pruned: u64,
    /// Runs that deadlocked — always also a violation.
    pub stuck: u64,
    /// Fresh branching states encountered.
    pub branch_states: u64,
    /// Events delivered across all runs.
    pub events: u64,
    /// Distinct recovery fingerprints across completed runs.
    pub distinct_fingerprints: usize,
    /// True when `max_runs` ended the search before exhaustion.
    pub truncated: bool,
    /// Violations found (deduplicated by fault schedule + fingerprint).
    pub violations: Vec<Violation>,
    /// Wall-clock time of the whole exploration.
    pub elapsed: Duration,
}

impl Exploration {
    /// Whether the bounded state space held every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Explored states: terminal runs plus interior branching states.
    pub fn states(&self) -> u64 {
        self.runs + self.branch_states
    }

    /// Exploration throughput: explored states per second of wall time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        self.states() as f64 / secs
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Completed,
    Degraded,
    AllLost,
    Pruned,
    Stuck,
    Unexpected,
}

struct RunResult {
    terminal: Terminal,
    reports: Vec<StepReport>,
    recovery_fp: Option<u64>,
    error: Option<String>,
}

/// Exhaustively explores the bounded state space of `cfg` and checks every
/// terminal run against the protocol invariants.
pub fn explore(cfg: &McConfig) -> Exploration {
    explore_inner(cfg, None)
}

/// Directed mode: runs only the delivery interleavings of the scripted
/// `faults` (every worker takes exactly its scripted fault) and returns the
/// first violation, if any. This is the predicate [`minimize`] shrinks
/// against.
///
/// # Panics
///
/// Panics when the plan is not checkable: a worker outside the cluster, a
/// step outside `0..steps`, a `Stale` at step 0, or a fault kind the
/// checker does not model (`Delay`, `Corrupt`, `Truncate` — use the chaos
/// harness for those).
pub fn explore_plan(cfg: &McConfig, faults: &[Fault]) -> Option<Violation> {
    let (n, _) = cfg.shape.cluster();
    for f in faults {
        assert!(
            f.worker < n,
            "fault worker {} outside cluster of {n}",
            f.worker
        );
        assert!(
            f.step < cfg.steps,
            "fault step {} outside 0..{}",
            f.step,
            cfg.steps
        );
        assert!(
            matches!(
                f.kind,
                FaultKind::Decline
                    | FaultKind::Stale
                    | FaultKind::Duplicate
                    | FaultKind::Drop
                    | FaultKind::Die
            ),
            "fault kind {:?} is not modeled by the checker",
            f.kind
        );
        assert!(
            !(f.kind == FaultKind::Stale && f.step == 0),
            "a stale codeword needs a previous step"
        );
    }
    let mut directed = cfg.clone();
    directed.stop_on_violation = true;
    explore_inner(&directed, Some(faults.to_vec()))
        .violations
        .into_iter()
        .next()
}

/// Greedy 1-minimal shrink: repeatedly drops any fault whose removal keeps
/// the plan failing, until every remaining fault is load-bearing. Returns
/// the input unchanged when it does not fail at all.
pub fn minimize(cfg: &McConfig, faults: &[Fault]) -> Vec<Fault> {
    let mut current = faults.to_vec();
    if explore_plan(cfg, &current).is_none() {
        return current;
    }
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if explore_plan(cfg, &candidate).is_some() {
                current = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

/// Serializes a violation as a chaos-replayable trace: `isgc chaos --plan
/// <file>` re-runs the fault schedule on a genuine loopback cluster and
/// compares failure fingerprints.
pub fn counterexample_trace(cfg: &McConfig, violation: &Violation) -> Trace {
    let (n, c) = cfg.shape.cluster();
    Trace {
        name: format!("mc-{}", cfg.shape.name()),
        n,
        c,
        steps: cfg.steps as usize,
        seed: cfg.seed,
        failure: violation.messages.first().cloned(),
        fingerprint: Some(violation.fingerprint),
        faults: violation.faults.clone(),
        master_crashes: Vec::new(),
    }
}

fn explore_inner(cfg: &McConfig, forced: Option<Vec<Fault>>) -> Exploration {
    let prune = matches!(cfg.shape, Shape::Flat { .. });
    let ctx = Rc::new(RefCell::new(Ctx::new(
        cfg.depth,
        cfg.max_faults,
        cfg.steps,
        prune,
    )));
    ctx.borrow_mut().forced = forced;

    let start = Instant::now();
    let mut out = Exploration {
        runs: 0,
        completed: 0,
        degraded: 0,
        lost: 0,
        pruned: 0,
        stuck: 0,
        branch_states: 0,
        events: 0,
        distinct_fingerprints: 0,
        truncated: false,
        violations: Vec::new(),
        elapsed: Duration::ZERO,
    };
    // Fingerprint determinism: the same delivered multiset must always
    // produce the same recovery fingerprint, whatever the interleaving.
    let mut fingerprints: HashMap<u64, u64> = HashMap::new();
    let mut distinct: std::collections::HashSet<u64> = std::collections::HashSet::new();

    loop {
        ctx.borrow_mut().reset_run();
        let run = match cfg.shape {
            Shape::Flat { n, c } => run_flat_once(cfg, &ctx, n, c),
            Shape::Tree2x2 => run_tree_once(cfg, &ctx),
        };
        out.runs += 1;
        let faults = ctx.borrow().faults.clone();
        match run.terminal {
            Terminal::Completed => out.completed += 1,
            Terminal::Degraded => out.degraded += 1,
            Terminal::AllLost => out.lost += 1,
            Terminal::Pruned => out.pruned += 1,
            Terminal::Stuck => out.stuck += 1,
            Terminal::Unexpected => {}
        }
        if run.terminal != Terminal::Pruned {
            let mut messages = check_run(cfg, &run, &faults);
            if run.terminal == Terminal::Completed {
                let fp = run.recovery_fp.expect("completed runs carry a fingerprint");
                distinct.insert(fp);
                let key = ctx.borrow().delivered_key();
                match fingerprints.get(&key) {
                    None => {
                        fingerprints.insert(key, fp);
                    }
                    Some(&seen) if seen != fp => messages.push(format!(
                        "nondeterministic recovery: delivered multiset {key:016x} produced \
                         fingerprints {seen:016x} and {fp:016x}"
                    )),
                    Some(_) => {}
                }
            }
            if !messages.is_empty() {
                let fingerprint = failure_fingerprint(&messages);
                let violation = Violation {
                    faults: faults.clone(),
                    messages,
                    fingerprint,
                };
                if !out
                    .violations
                    .iter()
                    .any(|v| v.fingerprint == fingerprint && v.faults == violation.faults)
                {
                    out.violations.push(violation);
                }
                if cfg.stop_on_violation {
                    break;
                }
            }
        }
        if out.runs >= cfg.max_runs {
            out.truncated = true;
            break;
        }
        if !ctx.borrow_mut().schedule.backtrack() {
            break;
        }
    }

    let ctx = ctx.borrow();
    out.branch_states = ctx.branch_states;
    out.events = ctx.events_delivered;
    out.distinct_fingerprints = distinct.len();
    out.elapsed = start.elapsed();
    out
}

/// The training setup a counterexample trace replays under: `isgc chaos`
/// runs it with `ChaosConfig::new(seed)` at the trace's shape, so the
/// checker trains with exactly that config's task, batch and master setup.
fn chaos_config(cfg: &McConfig) -> ChaosConfig {
    let (n, c) = cfg.shape.cluster();
    let mut chaos = ChaosConfig::new(cfg.seed);
    chaos.n = n;
    chaos.c = c;
    chaos.steps = cfg.steps as usize;
    chaos
}

/// Builds the master/engine configs the checker drives — the chaos
/// harness's own training setup, minus everything wall-clock.
fn configs(chaos: &ChaosConfig, placement: &Placement) -> (NetConfig, EngineConfig) {
    let net = chaos.net_config(placement.clone());
    let mut engine = EngineConfig::new(placement.clone());
    engine.batch_size = net.batch_size;
    engine.learning_rate = net.learning_rate;
    engine.loss_threshold = net.loss_threshold;
    engine.max_steps = net.max_steps as u64;
    engine.seed = net.seed;
    engine.degrade = net.degrade.clone();
    (net, engine)
}

fn run_flat_once(cfg: &McConfig, ctx: &Rc<RefCell<Ctx>>, n: usize, c: usize) -> RunResult {
    let placement = Placement::fractional(n, c).expect("checker shapes are valid placements");
    let chaos = chaos_config(cfg);
    let (net, engine_cfg) = configs(&chaos, &placement);
    let world = World::new(
        Rc::clone(ctx),
        Role::Flat,
        n,
        chaos.batch_size,
        cfg.seed,
        chaos.features,
        chaos.samples,
    );
    {
        let mut w = world.borrow_mut();
        for worker in 0..n {
            w.spawn_worker(worker);
        }
    }
    let model = LinearRegression::new(chaos.features);
    let dataset = Dataset::synthetic_regression(chaos.samples, chaos.features, 0.05, cfg.seed);
    let mut observer = RecordingObserver::default();
    let result = (|| {
        let mut master = MasterLoop::new(net, Box::new(VirtualTransport::new(world)));
        master
            .await_registration()
            .map_err(|e| EngineError::Backend(Box::new(e)))?;
        let mut engine = StepEngine::new(engine_cfg)?;
        let out = engine.run(&model, &dataset, None, &mut master, &mut observer);
        master.close_peers(false);
        out
    })();
    finish(
        ctx,
        result.map(|t| t.recovery_fingerprint()),
        observer.steps,
    )
}

fn run_tree_once(cfg: &McConfig, ctx: &Rc<RefCell<Ctx>>) -> RunResult {
    let (n, c) = Shape::Tree2x2.cluster();
    let submasters = 2;
    let per = n / submasters;
    let placement = Placement::fractional(n, c).expect("tree shape is a valid placement");
    let chaos = chaos_config(cfg);
    let (net, engine_cfg) = configs(&chaos, &placement);

    let model = LinearRegression::new(chaos.features);
    let dataset = Dataset::synthetic_regression(chaos.samples, chaos.features, 0.05, cfg.seed);
    let mut observer = RecordingObserver::default();
    let mut shards: Vec<Rc<RefCell<ShardLoop>>> = Vec::new();
    let result = (|| {
        for k in 0..submasters {
            let world = World::new(
                Rc::clone(ctx),
                Role::ShardWorkers,
                n,
                chaos.batch_size,
                cfg.seed,
                chaos.features,
                chaos.samples,
            );
            {
                let mut w = world.borrow_mut();
                for worker in k * per..(k + 1) * per {
                    w.spawn_worker(worker);
                }
            }
            let geometry = ShardGeometry {
                shard: k,
                lo: k * per,
                hi: (k + 1) * per,
                n,
                c,
                batch_size: chaos.batch_size,
                seed: cfg.seed,
            };
            let shard = ShardLoop::new(
                geometry,
                SubmasterOptions::default(),
                Box::new(VirtualTransport::new(world)),
            )
            .map_err(|e| EngineError::Backend(Box::new(e)))?;
            let shard = Rc::new(RefCell::new(shard));
            shard
                .borrow_mut()
                .await_worker_registration()
                .map_err(|e| EngineError::Backend(Box::new(e)))?;
            shards.push(shard);
        }
        let root_world = World::new(
            Rc::clone(ctx),
            Role::TreeRoot(shards.clone()),
            n,
            chaos.batch_size,
            cfg.seed,
            chaos.features,
            chaos.samples,
        );
        {
            let mut w = root_world.borrow_mut();
            for k in 0..submasters {
                w.spawn_submaster(k);
            }
        }
        let mut root =
            TreeRootLoop::new(net, Box::new(VirtualTransport::new(root_world)), submasters)
                .map_err(|e| EngineError::Backend(Box::new(e)))?;
        root.await_registration()
            .map_err(|e| EngineError::Backend(Box::new(e)))?;
        let mut engine = StepEngine::new(engine_cfg)?;
        let out = engine.run(&model, &dataset, None, &mut root, &mut observer);
        root.close_peers(false);
        out
    })();
    for shard in &shards {
        shard.borrow_mut().close_workers(false);
    }
    finish(
        ctx,
        result.map(|t| t.recovery_fingerprint()),
        observer.steps,
    )
}

fn finish(
    ctx: &Rc<RefCell<Ctx>>,
    result: Result<u64, EngineError>,
    reports: Vec<StepReport>,
) -> RunResult {
    let poison = ctx.borrow().poison;
    match poison {
        Some(Poison::Prune) => RunResult {
            terminal: Terminal::Pruned,
            reports,
            recovery_fp: None,
            error: None,
        },
        Some(Poison::Stuck) => RunResult {
            terminal: Terminal::Stuck,
            reports,
            recovery_fp: None,
            error: None,
        },
        None => match result {
            Ok(fp) => RunResult {
                terminal: Terminal::Completed,
                reports,
                recovery_fp: Some(fp),
                error: None,
            },
            Err(EngineError::Degraded { .. }) => RunResult {
                terminal: Terminal::Degraded,
                reports,
                recovery_fp: None,
                error: None,
            },
            Err(e) => {
                let message = e.to_string();
                let terminal = if message.contains("every worker") {
                    Terminal::AllLost
                } else {
                    Terminal::Unexpected
                };
                RunResult {
                    terminal,
                    reports,
                    recovery_fp: None,
                    error: (terminal == Terminal::Unexpected).then_some(message),
                }
            }
        },
    }
}

/// Checks one terminal run: the chaos harness's report invariants
/// ([`check_reports`], so [`failure_fingerprint`] values are comparable
/// across the model and a loopback replay), plus the terminals only a
/// model checker can reach.
fn check_run(cfg: &McConfig, run: &RunResult, faults: &[Fault]) -> Vec<String> {
    let (n, c) = cfg.shape.cluster();
    let placement = Placement::fractional(n, c).expect("checker shapes are valid placements");
    let completed = (run.terminal == Terminal::Completed).then_some(cfg.steps as usize);
    let mut violations = check_reports(&placement, &run.reports, faults, completed);

    // Model-checker-only terminals.
    if run.terminal == Terminal::Stuck {
        violations.push(format!(
            "deadlock: the collector waits on events no schedule can deliver (faults {faults:?})"
        ));
    }
    if let Some(error) = &run.error {
        violations.push(format!("unexpected collector failure: {error}"));
    }
    violations
}
