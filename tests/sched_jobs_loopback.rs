//! Multi-tenant serving over real TCP: one scheduler round-robins J = 4
//! concurrent jobs, each its own master, with all 32 workers connected at
//! once.
//!
//! The acceptance bar is the determinism contract from the design doc:
//! every job's recovery fingerprint, loss curve, and final parameters are
//! **bitwise** identical to that job's solo run — co-tenancy, job-id frame
//! tagging and scheduling interleaving are all observationally invisible.

use std::thread;
use std::time::Duration;

use isgc::cli::NetJob;
use isgc_core::Placement;
use isgc_engine::TrainReport;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{run_worker, Master, NetConfig, WaitPolicy, WorkerOptions};
use isgc_sched::{DriverError, JobDriver, Scheduler, SchedulerConfig};

const N: usize = 8;
const C: usize = 2;
const FEATURES: usize = 4;
const SAMPLES: usize = 192;
const STEPS: usize = 4;

fn dataset(seed: u64) -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, seed)
}

fn job_config(job: u64, seed: u64) -> NetConfig {
    let placement = Placement::fractional(N, C).expect("FR placement");
    let mut config = NetConfig::new(placement, WaitPolicy::FirstW(N));
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = STEPS;
    config.seed = seed;
    config.job = job;
    config.job_name = Some(format!("tenant-{job}"));
    config.register_timeout = Duration::from_secs(20);
    config
}

fn spawn_worker(addr: std::net::SocketAddr, job: u64, seed: u64) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let options = WorkerOptions {
            job,
            ..WorkerOptions::default()
        };
        run_worker(addr, &options, move |_assignment| {
            (LinearRegression::new(FEATURES), dataset(seed))
        })
        .expect("worker run");
    })
}

/// Runs one job per seed concurrently under one fair-round-robin scheduler
/// and returns their reports in job order.
fn run_cluster(seeds: &[u64]) -> Vec<TrainReport> {
    let mut sched = Scheduler::new(SchedulerConfig::new(seeds.len(), 0));
    let mut workers = Vec::new();

    for (j, &seed) in seeds.iter().enumerate() {
        let job = j as u64;
        let master = Master::bind("127.0.0.1:0").expect("bind master");
        let addr = master.local_addr().expect("master addr");
        for _ in 0..N {
            workers.push(spawn_worker(addr, job, seed));
        }
        let config = job_config(job, seed);
        sched
            .submit_driver(
                format!("tenant-{job}"),
                Box::new(move || {
                    let model = LinearRegression::new(FEATURES);
                    master
                        .into_session(model, dataset(seed), &config)
                        .map(|s| Box::new(NetJob(s)) as Box<dyn JobDriver>)
                        .map_err(|e| Box::new(e) as DriverError)
                }),
            )
            .expect("submit job");
    }

    let outcomes = sched.run_to_completion();
    for w in workers {
        w.join().expect("worker thread");
    }
    outcomes
        .into_iter()
        .map(|o| o.result.expect("job trained"))
        .collect()
}

fn signature(report: &TrainReport) -> (u64, Vec<u64>, Vec<u64>) {
    (
        report.recovery_fingerprint(),
        report.loss_curve().iter().map(|l| l.to_bits()).collect(),
        report
            .final_params
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
    )
}

#[test]
fn four_cotenant_jobs_match_their_solo_flat_runs_bitwise() {
    let seeds = [11, 22, 33, 44];
    let cotenant = run_cluster(&seeds);
    assert_eq!(cotenant.len(), seeds.len());

    for (j, &seed) in seeds.iter().enumerate() {
        let solo = run_cluster(&[seed]);
        assert_eq!(cotenant[j].step_count(), STEPS);
        assert_eq!(
            signature(&cotenant[j]),
            signature(&solo[0]),
            "tenant {j} (seed {seed}) diverged from its solo run"
        );
    }
}
