//! The chaos harness: runs a real loopback cluster under a [`FaultPlan`],
//! restarts the master when the plan crashes it, and checks every step of
//! the stitched run against the paper's recovery bounds and an independent
//! decode oracle.
//!
//! Determinism is the harness's core promise: the per-step *sets* —
//! arrivals, selection, recovered count, repairs — are pure functions of
//! `(plan, seed)`, so [`ChaosOutcome::fingerprint`] is identical across
//! repeats and a failing schedule replays exactly. Timing fields
//! (`waited_ms`, `stale` drift between steps) are deliberately excluded.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use isgc_core::hash::{fnv1a, FNV_BASIS};
use isgc_core::Placement;
use isgc_engine::DegradePolicy;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{Master, NetConfig, NetReport, RetryPolicy, StepControl, WaitPolicy};

use crate::invariants::check_reports;
use crate::plan::FaultPlan;
use crate::worker::{run_chaos_worker, ChaosWorkerSummary};
use crate::ChaosError;

/// Cluster shape and training knobs of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Workers (= partitions). Must be a multiple of `c` (the harness uses
    /// the fractional placement so the exact-decode oracle is cheap).
    pub n: usize,
    /// Storage factor.
    pub c: usize,
    /// Steps to train.
    pub steps: usize,
    /// Seed for everything: data, parameter init, decode tie-breaks, plan
    /// generation.
    pub seed: u64,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// Feature dimension of the synthetic regression task.
    pub features: usize,
    /// Sample count of the synthetic regression task.
    pub samples: usize,
    /// When set, the run records the engine's per-step series (through the
    /// master's [`NetConfig::metrics`] hook) plus the harness's fault and
    /// restart counters (the `chaos.*` series) into this registry.
    pub metrics: Option<isgc_obs::Registry>,
    /// Degrade policy the master's engine runs under. The default, `Fail`,
    /// is the TCP backend's own default: a step below the recoverable
    /// floor aborts the run. Starvation plans (`blackout`, `slow-bleed`)
    /// need a lenient policy — [`FaultPlan::recommended_policy`] picks one.
    pub degrade: DegradePolicy,
}

impl ChaosConfig {
    /// A small, fast default cluster: FR(6, 2), 8 steps.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            n: 6,
            c: 2,
            steps: 8,
            seed,
            batch_size: 8,
            features: 5,
            samples: 192,
            metrics: None,
            degrade: DegradePolicy::Fail,
        }
    }

    /// The master's training setup for this config: wait for every worker,
    /// this config's batch size, seed, step budget and degrade policy, a
    /// learning rate of 0.02, and a negative loss threshold so a run never
    /// stops early (a deterministic step count keeps fingerprints comparable
    /// across plans). The model checker trains under exactly this setup, so
    /// its counterexample traces replay here.
    pub(crate) fn net_config(&self, placement: Placement) -> NetConfig {
        let mut net = NetConfig::new(placement, WaitPolicy::FirstW(self.n));
        net.batch_size = self.batch_size;
        net.learning_rate = 0.02;
        net.loss_threshold = -1.0;
        net.max_steps = self.steps;
        net.seed = self.seed;
        net.degrade = self.degrade.clone();
        net
    }

    /// The model and dataset every peer — the master, the chaos workers and
    /// the model checker's modeled workers — rebuilds identically from this
    /// config.
    pub(crate) fn task(&self) -> (LinearRegression, Dataset) {
        (
            LinearRegression::new(self.features),
            Dataset::synthetic_regression(self.samples, self.features, 0.05, self.seed),
        )
    }
}

/// Everything a chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The plan that ran.
    pub plan: String,
    /// Per-step reports, stitched across master restarts, in step order.
    pub reports: Vec<NetReport>,
    /// Times the master was crashed and restarted.
    pub master_restarts: usize,
    /// Per-worker lifetime summaries.
    pub workers: Vec<ChaosWorkerSummary>,
    /// Invariant violations found; empty means the run passed.
    pub violations: Vec<String>,
    /// Hash of the run's deterministic observables: per-step sorted
    /// arrivals/selected, recovered counts, repairs, and the final
    /// parameter bits. Identical across repeats of the same `(plan, seed)`.
    pub fingerprint: u64,
    /// Final training loss.
    pub final_loss: f64,
}

impl ChaosOutcome {
    /// Whether the run satisfied every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Steps that took a degraded (approximate or skipped) update.
    pub fn degraded_steps(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_degraded())
            .count()
    }

    /// Longest run of consecutive degraded steps.
    pub fn max_consecutive_degraded(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.consecutive_degraded)
            .max()
            .unwrap_or(0)
    }
}

/// Distinguishes checkpoint files of concurrent chaos runs in one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Runs a loopback cluster under `plan` and checks every invariant.
///
/// # Errors
///
/// [`ChaosError::InvalidPlan`] for unrunnable plans or a non-divisible
/// `(n, c)`; [`ChaosError::Net`] when the cluster itself fails in a way no
/// plan scripts (e.g. the loopback bind is refused);
/// [`ChaosError::Harness`] when a thread panics.
pub fn run_chaos(plan: &FaultPlan, config: &ChaosConfig) -> Result<ChaosOutcome, ChaosError> {
    plan.validate(config.n, config.steps as u64, &config.degrade)?;
    if config.c == 0 || !config.n.is_multiple_of(config.c) {
        return Err(ChaosError::InvalidPlan(format!(
            "chaos harness needs c | n, got n={}, c={}",
            config.n, config.c
        )));
    }
    let placement = Placement::fractional(config.n, config.c)
        .map_err(|e| ChaosError::InvalidPlan(format!("placement: {e}")))?;

    let checkpoint_dir: Option<PathBuf> = if plan.master_crashes.is_empty() {
        None
    } else {
        let dir = std::env::temp_dir().join(format!(
            "isgc-mc-chaos-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(isgc_net::NetError::Io)?;
        Some(dir)
    };

    let mut net_config = config.net_config(placement.clone());
    // Chaos workers speak every step and do not run heartbeat threads; the
    // generous timeout keeps liveness driven by connection state (EOF on
    // fault), which is what the plans script.
    net_config.heartbeat_timeout = Duration::from_secs(30);
    net_config.register_timeout = Duration::from_secs(10);
    // A flapped worker's step membership must depend on its scripted
    // declines, never on how fast its reconnect handshake races the next
    // broadcast: give rejoining workers a generous step-start grace. (A
    // permanently dead worker costs this grace exactly once, at the step
    // before repair declares it dead.)
    net_config.rejoin_grace = Duration::from_secs(5);
    net_config.checkpoint = checkpoint_dir.as_ref().map(|dir| dir.join("master.ckpt"));
    net_config.repair_after_steps = plan.has_deaths().then_some(2);
    // The engine's per-step series stitch naturally across master restarts:
    // a resumed segment starts at the checkpointed step, so each step is
    // recorded exactly once.
    net_config.metrics = config.metrics.clone();

    let first = Master::bind("127.0.0.1:0").map_err(ChaosError::Net)?;
    let addr = first.local_addr().map_err(ChaosError::Net)?;

    // Master side: run segments until the step budget completes, restarting
    // after every scripted crash.
    let master_plan = plan.clone();
    let master_config = net_config.clone();
    let harness_cfg = config.clone();
    let master_handle = thread::Builder::new()
        .name("isgc-mc-chaos-master".into())
        .spawn(move || master_segments(first, addr, &master_plan, &master_config, &harness_cfg))
        .map_err(isgc_net::NetError::Io)?;

    // Worker side: n scriptable clients.
    let retry = RetryPolicy {
        base: Duration::from_millis(20),
        factor: 2,
        cap: Duration::from_millis(400),
        max_attempts: 12,
        jitter: 0.5,
    };
    let worker_handles: Vec<_> = (0..config.n)
        .map(|w| {
            let plan = plan.clone();
            let retry = retry.clone();
            let cfg = config.clone();
            thread::Builder::new()
                .name(format!("isgc-mc-chaos-worker-{w}"))
                .spawn(move || run_chaos_worker(addr, w, &plan, &retry, |_n, _batch| cfg.task()))
                .map_err(isgc_net::NetError::Io)
        })
        .collect::<Result<_, _>>()?;

    let (reports, final_params, master_restarts) = master_handle
        .join()
        .map_err(|_| ChaosError::Harness("master thread panicked".into()))??;
    let mut workers = Vec::with_capacity(config.n);
    for handle in worker_handles {
        let summary = handle
            .join()
            .map_err(|_| ChaosError::Harness("worker thread panicked".into()))??;
        workers.push(summary);
    }

    if let Some(dir) = checkpoint_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut violations = check_reports(&placement, &reports, &plan.faults, Some(config.steps));
    if master_restarts != plan.master_crashes.len() {
        violations.push(format!(
            "plan scripted {} master crashes, harness restarted {} times",
            plan.master_crashes.len(),
            master_restarts
        ));
    }
    let final_loss = reports.last().map_or(f64::INFINITY, |r| r.loss);
    let fingerprint = fingerprint(&reports, &final_params);
    if let Some(registry) = &config.metrics {
        record_chaos_metrics(registry, plan, &workers, master_restarts, &violations);
    }
    Ok(ChaosOutcome {
        plan: plan.name.clone(),
        reports,
        master_restarts,
        workers,
        violations,
        fingerprint,
        final_loss,
    })
}

/// Records the harness-level counters — the fault schedule by kind, what
/// the workers actually applied, and restart/violation totals.
fn record_chaos_metrics(
    registry: &isgc_obs::Registry,
    plan: &FaultPlan,
    workers: &[ChaosWorkerSummary],
    master_restarts: usize,
    violations: &[String],
) {
    use isgc_obs::Class::Logical;
    for fault in &plan.faults {
        registry.inc(
            crate::metrics::FAULTS_SCRIPTED_TOTAL,
            &[("kind", fault.kind.label())],
            Logical,
        );
    }
    let applied: u64 = workers.iter().map(|w| w.faults_applied as u64).sum();
    registry.inc_by(crate::metrics::FAULTS_APPLIED_TOTAL, &[], Logical, applied);
    let reconnects: u64 = workers.iter().map(|w| w.reconnects as u64).sum();
    registry.inc_by(
        crate::metrics::WORKER_RECONNECTS_TOTAL,
        &[],
        Logical,
        reconnects,
    );
    let deaths = workers.iter().filter(|w| w.died).count() as u64;
    registry.inc_by(crate::metrics::WORKER_DEATHS_TOTAL, &[], Logical, deaths);
    registry.inc_by(
        crate::metrics::MASTER_RESTARTS_TOTAL,
        &[],
        Logical,
        master_restarts as u64,
    );
    registry.inc_by(
        crate::metrics::VIOLATIONS_TOTAL,
        &[],
        Logical,
        violations.len() as u64,
    );
}

/// Runs the master through scripted crash/restart cycles until the step
/// budget completes; returns the stitched per-step reports, the final
/// parameters, and the restart count.
#[allow(clippy::type_complexity)]
fn master_segments(
    first: Master,
    addr: SocketAddr,
    plan: &FaultPlan,
    net_config: &NetConfig,
    config: &ChaosConfig,
) -> Result<(Vec<NetReport>, Vec<f64>, usize), ChaosError> {
    let (model, dataset) = config.task();
    let crashes: BTreeSet<u64> = plan.master_crashes.iter().copied().collect();
    let bind_retry = RetryPolicy {
        base: Duration::from_millis(10),
        factor: 2,
        cap: Duration::from_millis(200),
        max_attempts: 10,
        jitter: 0.0,
    };

    let mut pending = Some(first);
    let mut all_steps: Vec<NetReport> = Vec::new();
    let mut restarts = 0usize;
    loop {
        let master = match pending.take() {
            Some(m) => m,
            // A master coming back on its old port may briefly race the OS
            // releasing it.
            None => bind_retry.run(0, || Master::bind(addr))?,
        };
        let segment = master
            .run_controlled(&model, &dataset, net_config, |report| {
                if crashes.contains(&report.step) {
                    StepControl::Crash
                } else {
                    StepControl::Continue
                }
            })
            .map_err(ChaosError::Net)?;
        let done = segment
            .steps
            .last()
            .map(|s| s.step + 1 >= config.steps as u64)
            // An empty segment means the checkpoint already covered every
            // step (crash scripted on the final step).
            .unwrap_or(true);
        let final_params = segment.final_params.as_slice().to_vec();
        all_steps.extend(segment.steps);
        if done {
            return Ok((all_steps, final_params, restarts));
        }
        restarts += 1;
    }
}

/// FNV-1a over the run's deterministic observables.
pub(crate) fn fingerprint(reports: &[NetReport], final_params: &[f64]) -> u64 {
    let mut h = FNV_BASIS;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    for r in reports {
        eat(&r.step.to_le_bytes());
        let mut arrivals = r.arrivals.clone();
        arrivals.sort_unstable();
        for w in arrivals {
            eat(&(w as u64).to_le_bytes());
        }
        eat(b"|");
        let mut selected = r.selected.clone();
        selected.sort_unstable();
        for w in selected {
            eat(&(w as u64).to_le_bytes());
        }
        eat(b"|");
        eat(&(r.recovered as u64).to_le_bytes());
        // Degradation-ladder decisions are observables too: a replay that
        // skipped where the original approximated must not fingerprint
        // equal, even if the parameter bits happened to collide.
        eat(&r.outcome.tag().to_le_bytes());
        eat(&r.consecutive_degraded.to_le_bytes());
        for e in &r.repairs {
            eat(&(e.partition as u64).to_le_bytes());
            eat(&(e.from as u64).to_le_bytes());
            eat(&(e.to as u64).to_le_bytes());
        }
        eat(b"\n");
    }
    for v in final_params {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_divisible() {
        let c = ChaosConfig::new(1);
        assert!(c.n.is_multiple_of(c.c));
    }

    #[test]
    fn non_divisible_shape_is_rejected() {
        let mut c = ChaosConfig::new(1);
        c.n = 5;
        c.c = 2;
        let plan = FaultPlan::quiet("t");
        assert!(matches!(
            run_chaos(&plan, &c),
            Err(ChaosError::InvalidPlan(_))
        ));
    }

    #[test]
    fn fingerprint_ignores_arrival_order_but_not_content() {
        let base = NetReport {
            step: 0,
            arrivals: vec![2, 0, 1],
            waited_ms: 5.0,
            duration: 0.005,
            decode_ms: 0.0,
            selected: vec![0, 2],
            recovered: 4,
            bounds: None,
            ignored: vec![1],
            dead: vec![],
            declined: vec![],
            repairs: vec![],
            stale: 0,
            failed_decode: false,
            outcome: isgc_engine::StepOutcome::Exact,
            coverage: 1.0,
            bias_weight: 1.0,
            consecutive_degraded: 0,
            loss: 1.0,
        };
        let mut reordered = base.clone();
        reordered.arrivals = vec![0, 1, 2];
        reordered.waited_ms = 99.0; // timing excluded
        assert_eq!(
            fingerprint(std::slice::from_ref(&base), &[1.0]),
            fingerprint(&[reordered], &[1.0])
        );
        let mut different = base;
        different.recovered = 2;
        assert_ne!(
            fingerprint(&[different], &[1.0]),
            fingerprint(
                &[NetReport {
                    step: 0,
                    arrivals: vec![2, 0, 1],
                    waited_ms: 5.0,
                    duration: 0.005,
                    decode_ms: 0.0,
                    selected: vec![0, 2],
                    recovered: 4,
                    bounds: None,
                    ignored: vec![1],
                    dead: vec![],
                    declined: vec![],
                    repairs: vec![],
                    stale: 0,
                    failed_decode: false,
                    outcome: isgc_engine::StepOutcome::Exact,
                    coverage: 1.0,
                    bias_weight: 1.0,
                    consecutive_degraded: 0,
                    loss: 1.0,
                }],
                &[1.0]
            )
        );
    }
}
