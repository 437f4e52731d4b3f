//! End-to-end 2-level aggregation over real sockets: a root master, two
//! sub-masters, and their workers on 127.0.0.1. The acceptance bar is
//! exact: the tree run's recovery fingerprint, loss curve, and final
//! parameters are *bitwise* identical to a flat run of the same
//! configuration — hierarchical aggregation is an implementation detail,
//! never a numerics change — with and without a misbehaving worker.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use isgc_chaos::{run_chaos_worker, Fault, FaultKind, FaultPlan};
use isgc_core::Placement;
use isgc_engine::{shard_ranges, SessionStatus};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{
    run_worker, Master, NetConfig, NetTrainReport, RetryPolicy, Submaster, SubmasterOptions,
    WaitPolicy, WorkerOptions,
};

const N: usize = 16;
const C: usize = 2;
const SUBMASTERS: usize = 2;
const FEATURES: usize = 4;
const SAMPLES: usize = 192;
const SEED: u64 = 2023;
const STEPS: usize = 5;

fn shared_dataset() -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, SEED)
}

fn config(n: usize) -> NetConfig {
    let placement = Placement::fractional(n, C).expect("valid FR placement");
    // Wait for everyone and inject no delays: both topologies then see the
    // full arrival set every step, so any divergence is an aggregation bug,
    // not a timing artifact.
    let mut config = NetConfig::new(placement, WaitPolicy::FirstW(n));
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = STEPS;
    config.seed = SEED;
    config.register_timeout = Duration::from_secs(20);
    config
}

fn spawn_worker(addr: std::net::SocketAddr) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let options = WorkerOptions::default();
        let summary = run_worker(addr, &options, |_assignment| {
            (LinearRegression::new(FEATURES), shared_dataset())
        })
        .expect("worker run");
        assert_eq!(summary.cause, isgc_net::ShutdownCause::MasterShutdown);
    })
}

/// The step the scripted decliner refuses.
const DECLINED_STEP: u64 = 1;

/// Workers `ids` of one tier, dialing `addr`; joins them all. The
/// `decliner` among them (if any) claims its slot before the honest,
/// id-less ones are started, serves every step but [`DECLINED_STEP`], and
/// declines that one.
fn run_tier(addr: std::net::SocketAddr, ids: std::ops::Range<usize>, decliner: Option<usize>) {
    let mut handles = Vec::new();
    let mut honest = ids.len();
    if let Some(worker) = decliner.filter(|w| ids.contains(w)) {
        honest -= 1;
        let (claimed_tx, claimed_rx) = mpsc::channel();
        handles.push(thread::spawn(move || {
            let mut plan = FaultPlan::quiet("decliner");
            plan.faults.push(Fault {
                worker,
                step: DECLINED_STEP,
                kind: FaultKind::Decline,
            });
            let retry = RetryPolicy::default();
            let summary = run_chaos_worker(addr, worker, &plan, &retry, |_n, _batch| {
                claimed_tx.send(()).expect("test thread waits");
                (LinearRegression::new(FEATURES), shared_dataset())
            })
            .expect("decliner run");
            assert_eq!(summary.faults_applied, 1);
        }));
        // The builder runs after the handshake, so the slot is taken before
        // anyone else asks for a free one.
        claimed_rx.recv().expect("decliner registered");
    }
    handles.extend((0..honest).map(|_| spawn_worker(addr)));
    for handle in handles {
        handle.join().expect("worker thread");
    }
}

fn flat_run(n: usize, decliner: Option<usize>) -> NetTrainReport {
    let master = Master::bind("127.0.0.1:0").expect("bind master");
    let addr = master.local_addr().expect("local addr");
    let workers = thread::spawn(move || run_tier(addr, 0..n, decliner));

    let mut session = master
        .into_session(
            LinearRegression::new(FEATURES),
            shared_dataset(),
            &config(n),
        )
        .expect("flat session");
    while session.step().expect("flat step") == SessionStatus::Running {}
    let report = session.finish();
    workers.join().expect("worker tier");
    report
}

fn tree_run(n: usize, decliner: Option<usize>, options: SubmasterOptions) -> NetTrainReport {
    let master = Master::bind("127.0.0.1:0").expect("bind root");
    let root_addr = master.local_addr().expect("root addr");

    // Bind the sub-masters before starting them so the workers can be
    // pointed at their shard's address immediately.
    let subs: Vec<Submaster> = (0..SUBMASTERS)
        .map(|_| Submaster::bind("127.0.0.1:0").expect("bind sub-master"))
        .collect();
    let sub_addrs: Vec<_> = subs
        .iter()
        .map(|s| s.local_addr().expect("sub addr"))
        .collect();
    let sub_handles: Vec<_> = subs
        .into_iter()
        .enumerate()
        .map(|(shard, sub)| {
            let options = options.clone();
            thread::spawn(move || sub.run(root_addr, shard, &options).expect("sub-master run"))
        })
        .collect();

    let tiers: Vec<_> = shard_ranges(n, SUBMASTERS)
        .into_iter()
        .zip(sub_addrs)
        .map(|((lo, hi), addr)| thread::spawn(move || run_tier(addr, lo..hi, decliner)))
        .collect();

    let mut session = master
        .into_tree_session(
            LinearRegression::new(FEATURES),
            shared_dataset(),
            &config(n),
            SUBMASTERS,
        )
        .expect("tree session");
    while session.step().expect("tree step") == SessionStatus::Running {}
    let report = session.finish();

    for handle in sub_handles {
        let summary = handle.join().expect("sub-master thread");
        assert!(summary.clean_shutdown, "sub-master saw no Shutdown");
        assert_eq!(summary.steps_served, STEPS);
        assert!(!summary.crashed);
    }
    for tier in tiers {
        tier.join().expect("worker tier");
    }
    report
}

fn param_bits(report: &NetTrainReport) -> Vec<u64> {
    let params = report.final_params.as_slice();
    params.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn two_level_tree_matches_flat_bitwise_over_tcp() {
    let flat = flat_run(N, None);
    let tree = tree_run(N, None, SubmasterOptions::default());

    assert_eq!(flat.step_count(), STEPS);
    assert_eq!(tree.step_count(), STEPS);
    assert_eq!(
        flat.recovery_fingerprint(),
        tree.recovery_fingerprint(),
        "tree recovery diverged from flat"
    );
    // Bitwise, not approximately: the canonical pairwise reduction makes
    // the merge order identical in both topologies.
    let flat_losses: Vec<u64> = flat.loss_curve().iter().map(|l| l.to_bits()).collect();
    let tree_losses: Vec<u64> = tree.loss_curve().iter().map(|l| l.to_bits()).collect();
    assert_eq!(flat_losses, tree_losses);
    assert_eq!(param_bits(&flat), param_bits(&tree));

    // Every step saw the full cluster in both runs. The flat master records
    // arrivals in network-arrival order (nondeterministic), so compare as
    // sets — the fingerprint above already hashed them sorted.
    for (a, b) in flat.steps.iter().zip(tree.steps.iter()) {
        assert_eq!(a.arrivals.len(), N, "flat step {} missed arrivals", a.step);
        let mut flat_arrivals = a.arrivals.clone();
        flat_arrivals.sort_unstable();
        assert_eq!(flat_arrivals, b.arrivals, "step {}", a.step);
        assert_eq!(a.selected, b.selected, "step {}", a.step);
        assert_eq!(a.recovered, b.recovered, "step {}", a.step);
    }
}

/// The flat ≡ tree contract under a fault: a shard worker that declines a
/// step ends its shard's wait exactly as it ends a flat master's — the step
/// closes without it, its FR partner covers the group, and the run is
/// bit-identical to the flat run with the same decliner.
#[test]
fn a_shard_workers_decline_ends_the_wait_as_at_a_flat_master() {
    const SMALL: usize = 8;
    const DECLINER: usize = 1;
    // A heartbeat timeout far beyond the test: if the shard kept waiting on
    // the decliner, nothing but the decline itself could end the step.
    let patient = SubmasterOptions {
        heartbeat_timeout: Duration::from_secs(60),
        ..SubmasterOptions::default()
    };
    let flat = flat_run(SMALL, Some(DECLINER));
    let tree = tree_run(SMALL, Some(DECLINER), patient);

    for report in [&flat, &tree] {
        assert_eq!(report.step_count(), STEPS);
        for step in &report.steps {
            assert_eq!(
                step.arrivals.contains(&DECLINER),
                step.step != DECLINED_STEP,
                "step {} arrivals {:?}",
                step.step,
                step.arrivals
            );
            assert_eq!(step.recovered, SMALL, "step {}", step.step);
        }
    }
    assert_eq!(flat.recovery_fingerprint(), tree.recovery_fingerprint());
    assert_eq!(param_bits(&flat), param_bits(&tree));
}
