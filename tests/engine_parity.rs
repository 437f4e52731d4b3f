//! Cross-backend determinism: the TCP loopback cluster and the simulator
//! drive the *same* `isgc_engine::StepEngine`, so given the same seed and
//! the same straggler schedule they must produce identical per-step
//! recovered-partition fingerprints and bitwise-identical loss curves —
//! real sockets and thread scheduling contribute timing, never math.
//!
//! The TCP side is hosted two ways — six `run_worker` threads, and one
//! `run_swarm` serving all six members from a single thread — because both
//! are the same session loop and must ignore the same stragglers.
//!
//! The straggler set is static (the shared worker session loop holds one
//! reply per member and jumps to the newest `Params` once it is released,
//! so a worker that straggles *sometimes* can skip steps in
//! wall-clock-dependent ways; one that straggles *always* is simply ignored
//! every step by both backends).

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use isgc_core::{HrParams, Placement};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{
    run_swarm, run_worker, Master, NetConfig, NetTrainReport, SwarmOptions, WaitPolicy,
    WorkerOptions,
};
use isgc_simnet::policy::WaitPolicy as SimWaitPolicy;
use isgc_simnet::trace::{StragglerTrace, TraceClusterSim};
use isgc_simnet::trainer::{train_on_trace, CodingScheme, TrainReport, TrainingConfig};

const FEATURES: usize = 5;
const SAMPLES: usize = 240;
const SEED: u64 = 9090;
const STEPS: usize = 4;
const BATCH: usize = 8;
const LR: f64 = 0.02;

/// Workers that always straggle; everyone else is fast. `|S| = 2` of 6.
const STRAGGLERS: [usize; 2] = [1, 4];
const N: usize = 6;
const C: usize = 2;
const W: usize = 4;

fn shared_dataset() -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, SEED)
}

/// How the six TCP workers are hosted.
#[derive(Debug, Clone, Copy)]
enum Workers {
    /// One `run_worker` thread each.
    Threads,
    /// One `run_swarm` on one thread serving all six.
    Swarm,
}

/// Runs a real loopback TCP cluster where the stragglers hold their replies
/// far longer than the fast workers take, so `FirstW(4)` ignores exactly
/// them.
fn run_net(placement: &Placement, workers: Workers) -> NetTrainReport {
    let mut config = NetConfig::new(placement.clone(), WaitPolicy::FirstW(W));
    config.batch_size = BATCH;
    config.learning_rate = LR;
    config.loss_threshold = 0.0;
    config.max_steps = STEPS;
    config.seed = SEED;
    // Keep stragglers "alive" whatever the host does to their heartbeats:
    // the schedule, not the heartbeat sweep, decides who is ignored.
    config.heartbeat_timeout = Duration::from_secs(5);
    config.register_timeout = Duration::from_secs(10);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    let options = WorkerOptions::with_delay(Arc::new(|w, _step| {
        if STRAGGLERS.contains(&w) {
            Duration::from_millis(400)
        } else {
            Duration::ZERO
        }
    }));
    let build = |_: &_| (LinearRegression::new(FEATURES), shared_dataset());
    let hosts: Vec<_> = match workers {
        Workers::Threads => (0..N)
            .map(|_| {
                let options = options.clone();
                thread::spawn(move || {
                    run_worker(addr, &options, build).expect("worker run");
                })
            })
            .collect(),
        Workers::Swarm => {
            let options = SwarmOptions {
                workers: N,
                worker: options,
            };
            vec![thread::spawn(move || {
                run_swarm(addr, &options, build).expect("swarm run");
            })]
        }
    };

    let report = master_handle.join().expect("master thread");
    for host in hosts {
        host.join().expect("worker host thread");
    }
    report
}

/// Replays the identical straggler schedule through the simulator: the
/// stragglers' upload delay dwarfs everyone else's, so `WaitForCount(4)`
/// collects exactly the fast four each step.
fn run_sim(placement: &Placement) -> TrainReport {
    let rows: Vec<Vec<f64>> = (0..STEPS)
        .map(|_| {
            (0..N)
                .map(|w| {
                    if STRAGGLERS.contains(&w) {
                        5.0
                    } else {
                        0.001 * (w + 1) as f64
                    }
                })
                .collect()
        })
        .collect();
    let sim = TraceClusterSim::new(StragglerTrace::new(rows), 0.001, 0.001);
    let config = TrainingConfig {
        batch_size: BATCH,
        learning_rate: LR,
        loss_threshold: 0.0,
        max_steps: STEPS,
        seed: SEED,
        ..TrainingConfig::default()
    };
    train_on_trace(
        &LinearRegression::new(FEATURES),
        &shared_dataset(),
        &CodingScheme::IsGc(placement.clone()),
        &SimWaitPolicy::WaitForCount(W),
        sim,
        &config,
    )
}

fn assert_backends_agree(placement: &Placement, workers: Workers) {
    let net = run_net(placement, workers);
    let sim = run_sim(placement);

    assert_eq!(net.step_count(), STEPS);
    assert_eq!(sim.step_count(), STEPS);
    assert_eq!(
        net.recovery_fingerprint(),
        sim.recovery_fingerprint(),
        "recovery fingerprints diverge for {} ({workers:?}): net {:?} vs sim {:?}",
        placement.scheme(),
        net.steps
            .iter()
            .map(|s| (s.step, s.arrivals.clone(), s.recovered))
            .collect::<Vec<_>>(),
        sim.steps
            .iter()
            .map(|s| (s.step, s.arrivals.clone(), s.recovered))
            .collect::<Vec<_>>(),
    );
    // Same engine, same seed, same arrivals ⇒ the update math is identical
    // down to the last bit, not merely close.
    assert_eq!(
        net.loss_curve(),
        sim.loss_curve(),
        "loss curves diverge for {} ({workers:?})",
        placement.scheme()
    );
    assert_eq!(net.final_params, sim.final_params);

    // Sanity: the schedule did what it was built to do — the stragglers
    // never made a step's cut on either backend.
    for report in [&net, &sim] {
        for step in &report.steps {
            for s in STRAGGLERS {
                assert!(
                    !step.arrivals.contains(&s),
                    "straggler {s} arrived in step {} ({:?}, {workers:?})",
                    step.step,
                    step.arrivals
                );
            }
        }
    }
}

fn fr() -> Placement {
    Placement::fractional(N, C).expect("valid FR placement")
}

fn cr() -> Placement {
    Placement::cyclic(N, C).expect("valid CR placement")
}

/// g = 3 groups of n₀ = 2, one within-group row and one global row.
fn hr() -> Placement {
    Placement::hybrid(HrParams::new(N, 3, 1, 1)).expect("valid HR placement")
}

#[test]
fn fr_cluster_matches_simulator_exactly() {
    assert_backends_agree(&fr(), Workers::Threads);
}

#[test]
fn cr_cluster_matches_simulator_exactly() {
    assert_backends_agree(&cr(), Workers::Threads);
}

#[test]
fn hr_cluster_matches_simulator_exactly() {
    assert_backends_agree(&hr(), Workers::Threads);
}

#[test]
fn fr_swarm_matches_simulator_exactly() {
    assert_backends_agree(&fr(), Workers::Swarm);
}

#[test]
fn cr_swarm_matches_simulator_exactly() {
    assert_backends_agree(&cr(), Workers::Swarm);
}

#[test]
fn hr_swarm_matches_simulator_exactly() {
    assert_backends_agree(&hr(), Workers::Swarm);
}
