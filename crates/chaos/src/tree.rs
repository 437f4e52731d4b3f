//! The `submaster-crash` scenario: chaos for 2-level hierarchical
//! aggregation.
//!
//! A real loopback tree — root, sub-masters, workers — runs with one
//! sub-master scripted to crash the moment it receives the `Params`
//! broadcast of a chosen step: mid-step, after the root committed to the
//! shard's liveness, before any upload. The contract mirrors the flat
//! harness's:
//!
//! * the run **never hangs** — the crashed shard's EOF unblocks the step,
//!   which closes over the surviving shards' partials;
//! * the degraded step's recovery stays within the placement-aware
//!   Theorem 10–11 bounds for the arrivals it actually had, and matches an
//!   independent exact-decode oracle;
//! * the harness restarts the sub-master on the same address; its workers
//!   reconnect, and (thanks to the root's rejoin grace) the very next step
//!   is whole again — exactly one step degrades;
//! * the whole outcome is a pure function of `(config, seed)`:
//!   [`TreeChaosOutcome::fingerprint`] is byte-for-byte identical across
//!   replays.

use std::thread;
use std::time::Duration;

use isgc_core::Placement;
use isgc_engine::{shard_ranges, SessionStatus};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{
    run_worker, Master, NetConfig, NetReport, RetryPolicy, Submaster, SubmasterOptions, WaitPolicy,
    WorkerOptions,
};

use crate::harness::fingerprint;
use crate::invariants::check_reports;
use crate::ChaosError;

/// Shape and script of a tree chaos run.
#[derive(Debug, Clone)]
pub struct TreeChaosConfig {
    /// Workers (= partitions); must be a multiple of `c` and cut cleanly
    /// into `submasters` group-aligned shards.
    pub n: usize,
    /// Storage factor (the harness uses the fractional placement).
    pub c: usize,
    /// Sub-masters in the aggregation tree (positive power of two).
    pub submasters: usize,
    /// Steps to train.
    pub steps: usize,
    /// Seed for everything: data, parameter init, decode tie-breaks.
    pub seed: u64,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// Feature dimension of the synthetic regression task.
    pub features: usize,
    /// Sample count of the synthetic regression task.
    pub samples: usize,
    /// The shard whose sub-master crashes.
    pub crash_shard: usize,
    /// The step whose `Params` broadcast triggers the crash.
    pub crash_at_step: u64,
}

impl TreeChaosConfig {
    /// A small, fast default: FR(8, 2), 2 sub-masters, 6 steps, shard 1
    /// crashing mid-run.
    pub fn new(seed: u64) -> Self {
        TreeChaosConfig {
            n: 8,
            c: 2,
            submasters: 2,
            steps: 6,
            seed,
            batch_size: 8,
            features: 5,
            samples: 192,
            crash_shard: 1,
            crash_at_step: 2,
        }
    }
}

/// Everything a tree chaos run produced.
#[derive(Debug, Clone)]
pub struct TreeChaosOutcome {
    /// Per-step reports from the root, in step order.
    pub reports: Vec<NetReport>,
    /// Times a sub-master was restarted (1 for the scripted crash).
    pub submaster_restarts: usize,
    /// Steps whose arrival set was smaller than the full cluster.
    pub degraded_steps: Vec<u64>,
    /// Invariant violations found; empty means the run passed.
    pub violations: Vec<String>,
    /// FNV-1a over the run's deterministic observables (per-step sorted
    /// arrivals/selected, recovered counts, final parameter bits) —
    /// identical across replays of the same config.
    pub fingerprint: u64,
    /// Final training loss.
    pub final_loss: f64,
}

impl TreeChaosOutcome {
    /// Whether the run satisfied every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validates the tree script against the cluster shape.
fn validate(config: &TreeChaosConfig) -> Result<(), ChaosError> {
    if config.c == 0 || !config.n.is_multiple_of(config.c) {
        return Err(ChaosError::InvalidPlan(format!(
            "tree harness needs c | n, got n={}, c={}",
            config.n, config.c
        )));
    }
    if config.submasters == 0 || !config.submasters.is_power_of_two() {
        return Err(ChaosError::InvalidPlan(format!(
            "sub-master count must be a positive power of two, got {}",
            config.submasters
        )));
    }
    if config.crash_shard >= config.submasters {
        return Err(ChaosError::InvalidPlan(format!(
            "crash shard {} outside {} shards",
            config.crash_shard, config.submasters
        )));
    }
    if config.crash_at_step >= config.steps as u64 {
        return Err(ChaosError::InvalidPlan(format!(
            "crash at step {} beyond the run's {} steps",
            config.crash_at_step, config.steps
        )));
    }
    if config.submasters >= config.n {
        return Err(ChaosError::InvalidPlan(format!(
            "{} shards leave no worker diversity in a cluster of {}",
            config.submasters, config.n
        )));
    }
    Ok(())
}

/// The dataset every peer rebuilds identically from the shared seed.
fn shared_dataset(config: &TreeChaosConfig) -> Dataset {
    Dataset::synthetic_regression(config.samples, config.features, 0.05, config.seed)
}

/// Runs the `submaster-crash` scenario and checks every invariant.
///
/// # Errors
///
/// [`ChaosError::InvalidPlan`] for unrunnable shapes; [`ChaosError::Net`]
/// when the cluster fails in a way the script does not cause;
/// [`ChaosError::Harness`] when a thread panics.
pub fn run_tree_chaos(config: &TreeChaosConfig) -> Result<TreeChaosOutcome, ChaosError> {
    validate(config)?;
    let placement = Placement::fractional(config.n, config.c)
        .map_err(|e| ChaosError::InvalidPlan(format!("placement: {e}")))?;

    let mut net_config = NetConfig::new(placement.clone(), WaitPolicy::FirstW(config.n));
    net_config.batch_size = config.batch_size;
    net_config.learning_rate = 0.02;
    // Never stop early: a deterministic step count keeps fingerprints
    // comparable across replays.
    net_config.loss_threshold = -1.0;
    net_config.max_steps = config.steps;
    net_config.seed = config.seed;
    net_config.heartbeat_timeout = Duration::from_secs(30);
    net_config.register_timeout = Duration::from_secs(20);
    // The restarted sub-master's step membership must depend only on the
    // step its crash was scripted at, never on how fast its restart races
    // the next broadcast: exactly one step degrades.
    net_config.rejoin_grace = Duration::from_secs(10);

    let master = Master::bind("127.0.0.1:0")?;
    let root_addr = master.local_addr()?;

    let subs: Vec<Submaster> = (0..config.submasters)
        .map(|_| Submaster::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    let sub_addrs: Vec<_> = subs
        .iter()
        .map(|s| s.local_addr())
        .collect::<Result<Vec<_>, _>>()?;

    let rebind_retry = RetryPolicy {
        base: Duration::from_millis(10),
        factor: 2,
        cap: Duration::from_millis(200),
        max_attempts: 10,
        jitter: 0.0,
    };
    let sub_handles: Vec<_> = subs
        .into_iter()
        .enumerate()
        .map(|(shard, sub)| {
            let addr = sub_addrs[shard];
            let retry = rebind_retry.clone();
            let mut crash_at = (shard == config.crash_shard).then_some(config.crash_at_step);
            thread::Builder::new()
                .name(format!("isgc-chaos-sub-{shard}"))
                .spawn(move || -> Result<usize, ChaosError> {
                    let mut pending = Some(sub);
                    let mut restarts = 0usize;
                    loop {
                        let restarted = pending.is_none();
                        let sub = match pending.take() {
                            Some(s) => s,
                            None => retry.run(0, || Submaster::bind(addr))?,
                        };
                        let options = SubmasterOptions {
                            crash_at_step: crash_at.take(),
                            ..SubmasterOptions::default()
                        };
                        match sub.run(root_addr, shard, &options) {
                            Ok(summary) if summary.crashed => {
                                restarts += 1;
                            }
                            Ok(_) => return Ok(restarts),
                            // A restart that cannot reach the root means the
                            // run already finished (a crash scripted on the
                            // final step); not a harness failure.
                            Err(_) if restarted => return Ok(restarts),
                            Err(e) => return Err(e.into()),
                        }
                    }
                })
                .map_err(isgc_net::NetError::Io)
        })
        .collect::<Result<_, _>>()?;

    let worker_handles: Vec<_> = shard_ranges(config.n, config.submasters)
        .iter()
        .enumerate()
        .flat_map(|(shard, &(lo, hi))| (lo..hi).map(move |w| (w, shard)))
        .map(|(w, shard)| {
            let addr = sub_addrs[shard];
            let cfg = config.clone();
            thread::Builder::new()
                .name(format!("isgc-chaos-tree-worker-{w}"))
                .spawn(move || {
                    run_worker(addr, &WorkerOptions::default(), |_assignment| {
                        (LinearRegression::new(cfg.features), shared_dataset(&cfg))
                    })
                })
                .map_err(isgc_net::NetError::Io)
        })
        .collect::<Result<_, _>>()?;

    let mut session = master.into_tree_session(
        LinearRegression::new(config.features),
        shared_dataset(config),
        &net_config,
        config.submasters,
    )?;
    while session.step()? == SessionStatus::Running {}
    let report = session.finish();

    let mut submaster_restarts = 0usize;
    for handle in sub_handles {
        submaster_restarts += handle
            .join()
            .map_err(|_| ChaosError::Harness("sub-master thread panicked".into()))??;
    }
    for handle in worker_handles {
        let _ = handle
            .join()
            .map_err(|_| ChaosError::Harness("worker thread panicked".into()))?;
    }

    let reports = report.steps.clone();
    let final_params = report.final_params.as_slice().to_vec();
    let degraded_steps: Vec<u64> = reports
        .iter()
        .filter(|r| r.arrivals.len() < config.n)
        .map(|r| r.step)
        .collect();
    // Recovery bounds and decode-oracle equality hold on every step,
    // including the degraded one: the shard-local decodes must compose to
    // exactly what a flat master would have recovered.
    let mut violations = check_reports(&placement, &reports, &[], Some(config.steps));
    violations.extend(check_crash_script(config, &reports, submaster_restarts));
    let final_loss = reports.last().map_or(f64::INFINITY, |r| r.loss);
    let fingerprint = fingerprint(&reports, &final_params);
    Ok(TreeChaosOutcome {
        reports,
        submaster_restarts,
        degraded_steps,
        violations,
        fingerprint,
        final_loss,
    })
}

/// The tree script's own checks, beside the shared report invariants: the
/// one scripted sub-master crash was restarted once, exactly the scripted
/// step degrades, losing exactly the crashed shard, and every other step
/// sees the full cluster.
fn check_crash_script(
    config: &TreeChaosConfig,
    reports: &[NetReport],
    submaster_restarts: usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    let n = config.n;
    let (crash_lo, crash_hi) = shard_ranges(n, config.submasters)[config.crash_shard];
    if submaster_restarts != 1 {
        violations.push(format!(
            "scripted 1 sub-master crash, harness restarted {submaster_restarts} times"
        ));
    }
    for r in reports {
        let mut arrivals = r.arrivals.clone();
        arrivals.sort_unstable();
        if r.step == config.crash_at_step {
            let expected: Vec<usize> = (0..n).filter(|&w| w < crash_lo || w >= crash_hi).collect();
            if arrivals != expected {
                violations.push(format!(
                    "crash step {} arrivals {arrivals:?}, expected the surviving shards \
                     {expected:?}",
                    r.step
                ));
            }
        } else if arrivals != (0..n).collect::<Vec<_>>() {
            violations.push(format!(
                "step {} arrivals {arrivals:?}, expected the full cluster",
                r.step
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut c = TreeChaosConfig::new(1);
        c.n = 9;
        assert!(matches!(
            run_tree_chaos(&c),
            Err(ChaosError::InvalidPlan(_))
        ));
        let mut c = TreeChaosConfig::new(1);
        c.submasters = 3;
        assert!(matches!(
            run_tree_chaos(&c),
            Err(ChaosError::InvalidPlan(_))
        ));
        let mut c = TreeChaosConfig::new(1);
        c.crash_shard = 5;
        assert!(matches!(
            run_tree_chaos(&c),
            Err(ChaosError::InvalidPlan(_))
        ));
        let mut c = TreeChaosConfig::new(1);
        c.crash_at_step = 99;
        assert!(matches!(
            run_tree_chaos(&c),
            Err(ChaosError::InvalidPlan(_))
        ));
        let mut c = TreeChaosConfig::new(1);
        c.submasters = 8;
        c.n = 8;
        assert!(matches!(
            run_tree_chaos(&c),
            Err(ChaosError::InvalidPlan(_))
        ));
    }
}
