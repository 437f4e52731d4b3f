//! The exploration drivers: bounded-exhaustive search over delivery orders
//! and fault schedules, invariant checking, counterexample minimization,
//! and chaos-replayable trace emission.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use isgc_core::Placement;
use isgc_engine::{EngineError, RecordingObserver, StepEngine, StepReport};
use isgc_net::master::MasterLoop;
use isgc_net::NetError;

use crate::harness::ChaosConfig;
use crate::invariants::check_reports;
use crate::plan::{Fault, FaultKind};
use crate::sched::{Ctx, Poison};
use crate::trace::{failure_fingerprint, Trace};
use crate::world::{VirtualTransport, World};

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
}

impl Shape {
    /// `(n, c)` of the modeled cluster.
    pub fn cluster(self) -> (usize, usize) {
        let Shape::Flat { n, c } = self;
        (n, c)
    }

    /// Short name used in trace names and the CLI report.
    pub fn name(self) -> String {
        let Shape::Flat { n, .. } = self;
        format!("flat{n}")
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
    /// The first violation found, if any: the search stops at it.
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
/// terminal run against the protocol invariants, stopping at the first
/// violation.
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
    explore_inner(cfg, Some(faults.to_vec()))
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
        fingerprint: Some(violation.fingerprint),
        faults: violation.faults.clone(),
    }
}

fn explore_inner(cfg: &McConfig, forced: Option<Vec<Fault>>) -> Exploration {
    let ctx = Rc::new(RefCell::new(Ctx::new(
        cfg.depth,
        cfg.max_faults,
        cfg.steps,
        true,
    )));
    ctx.borrow_mut().forced = forced;
    let chaos = chaos_config(cfg);
    let placement =
        Placement::fractional(chaos.n, chaos.c).expect("checker shapes are valid placements");

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
        let run = run_once(&chaos, &placement, &ctx);
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
            let mut messages = check_run(&placement, cfg.steps, &run, &faults);
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
                out.violations.push(Violation {
                    fingerprint: failure_fingerprint(&messages),
                    faults,
                    messages,
                });
                break;
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

fn run_once(chaos: &ChaosConfig, placement: &Placement, ctx: &Rc<RefCell<Ctx>>) -> RunResult {
    // The chaos harness's own training setup, and the engine config the
    // shipped master derives from it.
    let net = chaos.net_config(placement.clone());
    let engine_cfg = net.engine_config();
    let world = World::new(Rc::clone(ctx), chaos);
    {
        let mut w = world.borrow_mut();
        for worker in 0..chaos.n {
            w.spawn_worker(worker);
        }
    }
    let (model, dataset) = chaos.task();
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

fn finish(
    ctx: &Rc<RefCell<Ctx>>,
    result: Result<u64, EngineError>,
    reports: Vec<StepReport>,
) -> RunResult {
    let poison = ctx.borrow().poison;
    let (terminal, recovery_fp, error) = match (poison, result) {
        (Some(Poison::Prune), _) => (Terminal::Pruned, None, None),
        (Some(Poison::Stuck), _) => (Terminal::Stuck, None, None),
        (None, Ok(fp)) => (Terminal::Completed, Some(fp), None),
        (None, Err(EngineError::Degraded { .. })) => (Terminal::Degraded, None, None),
        (None, Err(EngineError::Backend(e)))
            if matches!(e.downcast_ref::<NetError>(), Some(NetError::AllWorkersLost)) =>
        {
            (Terminal::AllLost, None, None)
        }
        (None, Err(e)) => (Terminal::Unexpected, None, Some(e.to_string())),
    };
    RunResult {
        terminal,
        reports,
        recovery_fp,
        error,
    }
}

/// Checks one terminal run: the chaos harness's report invariants
/// ([`check_reports`], so [`failure_fingerprint`] values are comparable
/// across the model and a loopback replay), plus the terminals only a
/// model checker can reach.
fn check_run(placement: &Placement, steps: u64, run: &RunResult, faults: &[Fault]) -> Vec<String> {
    let completed = (run.terminal == Terminal::Completed).then_some(steps as usize);
    let mut violations = check_reports(placement, &run.reports, faults, completed);

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

#[cfg(test)]
mod tests {
    use super::*;

    fn terminal_of(error: EngineError) -> (Terminal, Option<String>) {
        let ctx = Rc::new(RefCell::new(Ctx::new(8, 0, 2, false)));
        let run = finish(&ctx, Err(error), Vec::new());
        (run.terminal, run.error)
    }

    #[test]
    fn only_the_typed_all_lost_error_ends_a_run_all_lost() {
        let lost = EngineError::Backend(Box::new(NetError::AllWorkersLost));
        assert_eq!(terminal_of(lost), (Terminal::AllLost, None));
        // A different failure that merely mentions the words is unexpected.
        let mimic = EngineError::Backend(Box::new(NetError::Protocol(
            "every worker is dead or unreachable".into(),
        )));
        let (terminal, error) = terminal_of(mimic);
        assert_eq!(terminal, Terminal::Unexpected);
        assert!(error.is_some_and(|e| e.contains("every worker")));
    }
}
