//! End-to-end loopback tests of the TCP master/worker runtime: a real
//! cluster on 127.0.0.1 with injected straggler delays, checked against the
//! exact decoder as a recovery oracle, plus a mid-run worker kill and the
//! drain of a broadcast a threshold stop leaves behind.

use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use isgc_core::decode::{Decoder, ExactDecoder};
use isgc_core::{Placement, WorkerSet};
use isgc_mc::{run_chaos_worker, Fault, FaultKind, FaultPlan};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::{LinearRegression, Model, SoftmaxRegression};
use isgc_net::{
    run_swarm, run_worker, DelayFn, Master, NetConfig, NetTrainReport, RetryPolicy, SwarmOptions,
    SwarmSummary, WaitPolicy, WorkerOptions, WorkerSummary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 8;
const C: usize = 2;
const FEATURES: usize = 5;
const SAMPLES: usize = 256;
const DATA_SEED: u64 = 4242;

/// The dataset every peer rebuilds identically from the shared seed.
fn shared_dataset() -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, DATA_SEED)
}

fn regression() -> (LinearRegression, Dataset) {
    (LinearRegression::new(FEATURES), shared_dataset())
}

/// `count` standalone workers on threads, each rebuilding the model and
/// dataset with `build` and straggling per `delay`.
fn spawn_workers<M: Model + 'static>(
    addr: SocketAddr,
    count: usize,
    delay: DelayFn,
    build: fn() -> (M, Dataset),
) -> Vec<thread::JoinHandle<WorkerSummary>> {
    (0..count)
        .map(|_| {
            let options = WorkerOptions::with_delay(Arc::clone(&delay));
            thread::spawn(move || {
                run_worker(addr, &options, |_assignment| build()).expect("worker run")
            })
        })
        .collect()
}

fn cluster_config(placement: Placement, wait: WaitPolicy, steps: usize) -> NetConfig {
    let mut config = NetConfig::new(placement, wait);
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = steps;
    config.seed = DATA_SEED;
    config.heartbeat_timeout = Duration::from_millis(600);
    config.register_timeout = Duration::from_secs(10);
    config
}

/// Replays each step's surviving `WorkerSet` through the exact
/// branch-and-bound decoder and checks the runtime recovered exactly the
/// maximum-independent-set worth of partitions the paper promises.
fn assert_matches_exact_oracle(report: &NetTrainReport, placement: &Placement) {
    let oracle = ExactDecoder::new(placement);
    let mut rng = StdRng::seed_from_u64(1);
    for step in &report.steps {
        let available = WorkerSet::from_indices(placement.n(), step.arrivals.iter().copied());
        let best = oracle.decode(&available, &mut rng).recovered_count();
        assert_eq!(
            step.recovered, best,
            "step {}: runtime recovered {} partitions, exact decoder finds {} \
             for arrivals {:?}",
            step.step, step.recovered, best, step.arrivals
        );
    }
}

#[test]
fn eight_workers_with_stragglers_match_decoder_oracle() {
    let placement = Placement::fractional(N, C).expect("valid FR placement");
    let config = cluster_config(placement.clone(), WaitPolicy::FirstW(6), 10);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    // Two persistent stragglers: always slower than the rest, so FirstW(6)
    // routinely ignores them — the paper's arbitrary-ignorance regime.
    let slow_pair: DelayFn =
        Arc::new(|w, _step| Duration::from_millis(if w >= 6 { 80 } else { 0 }));
    let workers = spawn_workers(addr, N, slow_pair, regression);

    let report = master_handle.join().expect("master thread");
    for w in workers {
        let summary = w.join().expect("worker thread");
        assert_eq!(summary.cause, isgc_net::ShutdownCause::MasterShutdown);
    }

    assert_eq!(report.step_count(), 10);
    assert_matches_exact_oracle(&report, &placement);

    // Each step waited for 6 codewords, so at least 6 arrivals per step.
    for step in &report.steps {
        assert!(
            step.arrivals.len() >= 6,
            "step {} closed with only {:?}",
            step.step,
            step.arrivals
        );
        assert!(step.recovered > 0, "step {} recovered nothing", step.step);
    }

    // Training made progress on the real sockets.
    let losses = report.loss_curve();
    assert!(
        report.final_loss() < losses[0],
        "loss did not decrease: {losses:?}"
    );
}

#[test]
fn killed_worker_degrades_recovery_instead_of_hanging() {
    let placement = Placement::fractional(N, C).expect("valid FR placement");
    // FirstW(8) = wait for everyone: without dead-worker detection this
    // deadlocks the moment the defector leaves.
    let config = cluster_config(placement.clone(), WaitPolicy::FirstW(N), 8);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    // Worker 0 serves two steps, then drops its connection without a word
    // at the third broadcast — a mid-run crash.
    let (claimed_tx, claimed_rx) = mpsc::channel();
    let defector = thread::spawn(move || {
        let mut plan = FaultPlan::quiet("defector");
        plan.faults.push(Fault {
            worker: 0,
            step: 2,
            kind: FaultKind::Die,
        });
        run_chaos_worker(addr, 0, &plan, &RetryPolicy::default(), |_n, _batch| {
            claimed_tx.send(()).expect("test thread waits");
            (LinearRegression::new(FEATURES), shared_dataset())
        })
        .expect("defector run")
    });
    // The defector's builder runs after its handshake, so slot 0 is taken
    // before anyone else asks for a free one.
    claimed_rx.recv().expect("defector registered");
    let workers = spawn_workers(addr, N - 1, isgc_net::no_delay(), regression);

    let report = master_handle.join().expect("master thread");
    assert!(defector.join().expect("defector thread").died);
    for w in workers {
        w.join().expect("worker thread");
    }

    // The run finished every step — the kill degraded it, didn't hang it.
    assert_eq!(report.step_count(), 8);
    assert_matches_exact_oracle(&report, &placement);

    let full_steps = report
        .steps
        .iter()
        .filter(|s| s.arrivals.len() == N)
        .count();
    let degraded_steps = report
        .steps
        .iter()
        .filter(|s| s.arrivals.len() == N - 1)
        .count();
    assert!(full_steps >= 1, "defector never participated");
    assert!(
        degraded_steps >= 1,
        "no step ran with exactly the survivors: {:?}",
        report
            .steps
            .iter()
            .map(|s| s.arrivals.len())
            .collect::<Vec<_>>()
    );
    // Per Theorems 10–11, FR(8, 2) still recovers from 7 of 8 workers; the
    // surviving cluster keeps making progress every step.
    for step in &report.steps {
        assert!(step.recovered > 0, "step {} recovered nothing", step.step);
    }
}

#[test]
fn deadline_policy_closes_steps_without_stragglers() {
    let placement = Placement::cyclic(N, C).expect("valid CR placement");
    let config = cluster_config(
        placement.clone(),
        WaitPolicy::Deadline(Duration::from_millis(150)),
        6,
    );

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    // One worker far slower than the deadline: its codewords arrive a step
    // late and must be discarded as stale, never merged.
    let one_late: DelayFn =
        Arc::new(|w, _step| Duration::from_millis(if w == 7 { 400 } else { 0 }));
    let workers = spawn_workers(addr, N, one_late, regression);

    let report = master_handle.join().expect("master thread");
    for w in workers {
        w.join().expect("worker thread");
    }

    assert_eq!(report.step_count(), 6);
    assert_matches_exact_oracle(&report, &placement);
    // The slow worker's late codewords were counted as stale somewhere.
    let stale_total: usize = report.steps.iter().map(|s| s.stale).sum();
    assert!(stale_total > 0, "expected discarded late codewords");
    // And it never contaminated a step it missed: every step's arrivals are
    // within the cluster and unique.
    for step in &report.steps {
        let mut seen = std::collections::HashSet::new();
        for &w in &step.arrivals {
            assert!(w < N && seen.insert(w), "bad arrivals {:?}", step.arrivals);
        }
    }
}

#[test]
fn jittery_stragglers_never_push_recovery_below_the_theorem_10_floor() {
    // CR(6, 2) waiting for 3: Theorem 10 guarantees ⌈3/2⌉ = 2 non-conflicting
    // workers, i.e. at least 4 of 6 partitions, whichever three arrive first.
    let placement = Placement::cyclic(6, 2).expect("valid CR placement");
    let mut config = NetConfig::new(placement.clone(), WaitPolicy::FirstW(3));
    config.batch_size = 16;
    config.learning_rate = 0.1;
    config.loss_threshold = 0.0;
    config.max_steps = 30;
    config.seed = 4;
    config.register_timeout = Duration::from_secs(10);
    fn classification() -> (SoftmaxRegression, Dataset) {
        let dataset = Dataset::gaussian_classification(192, 5, 3, 4.0, 3);
        (SoftmaxRegression::new(5, 3), dataset)
    }

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let master_handle = thread::spawn(move || {
        let (model, dataset) = classification();
        master.run(&model, &dataset, &config).expect("master run")
    });

    // Small delays that rotate over workers and steps: who makes the cut
    // varies from step to step and with thread scheduling.
    let jitter: DelayFn = Arc::new(|w, step| Duration::from_micros(((w as u64 + step) % 5) * 300));
    let workers = spawn_workers(addr, 6, jitter, classification);

    let report = master_handle.join().expect("master thread");
    for w in workers {
        w.join().expect("worker thread");
    }

    assert_eq!(report.step_count(), 30);
    assert_matches_exact_oracle(&report, &placement);
    for step in &report.steps {
        assert!(
            step.recovered >= 4,
            "step {} recovered {} of 6 from {:?}",
            step.step,
            step.recovered,
            step.arrivals
        );
    }
    assert!(report.final_loss() < report.loss_curve()[0]);
}

/// Swarm members in the drain test, as many as `wide-d65k` has.
const SWARM: usize = 16;

/// A model whose uploads are 131 KB (16,400 values), over a dataset small
/// enough that the master's loss is cheap next to the swarm's step.
fn wide() -> (SoftmaxRegression, Dataset) {
    let dataset = Dataset::gaussian_classification(128, 1024, 16, 4.0, DATA_SEED);
    (SoftmaxRegression::new(1024, 16), dataset)
}

/// One swarm session of FR(16, 2) waiting for everyone, stopping on
/// `loss_threshold` or after `max_steps`.
fn swarm_run(loss_threshold: f64, max_steps: usize) -> (NetTrainReport, SwarmSummary) {
    let placement = Placement::fractional(SWARM, C).expect("valid FR placement");
    let mut config = cluster_config(placement, WaitPolicy::FirstW(SWARM), max_steps);
    config.loss_threshold = loss_threshold;
    config.learning_rate = 0.002;
    config.heartbeat_timeout = Duration::from_secs(10);
    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let swarm = thread::spawn(move || {
        run_swarm(addr, &SwarmOptions::new(SWARM), |_| wide()).expect("swarm run")
    });
    let (model, dataset) = wide();
    let report = master.run(&model, &dataset, &config).expect("master run");
    (report, swarm.join().expect("swarm thread"))
}

#[test]
fn a_threshold_stop_drains_the_broadcast_it_left_before_shutting_down() {
    // Bounded by max_steps: one broadcast per step, nothing left over.
    let (full, summary) = swarm_run(-1.0, 6);
    assert_eq!(full.step_count(), 6);
    assert_eq!((summary.lost, summary.steps_served), (0, SWARM * 6));

    // The lowest of the first three losses stops a longer run at its step
    // `stop`, decided after step `stop + 1` went out. Every member answers
    // that broadcast too, and the master reads those uploads before it says
    // Shutdown: without the drain, Shutdown overtakes members still
    // computing, and a member whose upload sits unread has its connection
    // reset.
    let losses = full.loss_curve();
    let threshold = losses[..3].iter().copied().fold(f64::INFINITY, f64::min);
    let stop = losses
        .iter()
        .position(|&l| l <= threshold)
        .expect("a minimum");
    let (stopped, summary) = swarm_run(threshold, 50);
    assert!(stopped.reached_threshold);
    assert_eq!(stopped.step_count(), stop + 1);
    assert_eq!(stopped.loss_curve(), losses[..=stop]);
    assert_eq!(summary.lost, 0, "{summary:?}");
    assert_eq!(summary.clean_shutdowns, SWARM);
    assert_eq!(summary.steps_served, SWARM * (stopped.step_count() + 1));
}
