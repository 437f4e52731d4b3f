//! The rules of the worker session loop (`isgc_net::swarm`) that no
//! cluster-level test pins: a member is a sequential worker with one reply
//! in flight that jumps to the newest `Params`; a member whose reply is held
//! for its injected delay silences nobody — not itself, not the rest of its
//! swarm; and `run_worker`, the loop with one member, redials around it.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use isgc_core::Placement;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::wire::{read_message, write_message, Message};
use isgc_net::{
    run_swarm, run_worker, Master, NetConfig, RetryPolicy, ShutdownCause, SwarmOptions, WaitPolicy,
    WorkerOptions,
};

const FEATURES: usize = 3;

fn regression() -> (LinearRegression, Dataset) {
    let dataset = Dataset::synthetic_regression(64, FEATURES, 0.05, 11);
    (LinearRegression::new(FEATURES), dataset)
}

/// The scripted master's side of the handshake: expects `Hello` with the
/// given preference and assigns slot 0 of a two-worker cluster.
fn accept_worker(listener: &TcpListener, preferred: Option<u64>) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("the worker dials in");
    let hello = read_message(&mut stream).expect("hello");
    assert_eq!(hello, Message::Hello { preferred });
    let assign = Message::Assign {
        worker: 0,
        n: 2,
        c: 1,
        batch_size: 4,
        seed: 7,
        partitions: vec![0],
    };
    write_message(&mut stream, &assign).expect("assign");
    stream
}

fn params(step: u64) -> Message {
    Message::Params {
        step,
        values: vec![0.0; FEATURES + 1],
    }
}

/// A scripted master on a plain listener: `Params(1)`, then `Params(2)` and
/// `Params(3)` while reply 1 is still held. Everything asserted is an order
/// or a lower bound; no upper bound is tighter than the test's own delays.
#[test]
fn one_reply_in_flight_and_the_newest_params_wins() {
    const DELAY: Duration = Duration::from_millis(200);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let options = WorkerOptions {
        heartbeat_interval: Duration::from_millis(20),
        ..WorkerOptions::with_delay(Arc::new(|_w, _step| DELAY))
    };
    let worker = thread::spawn(move || run_worker(addr, &options, |_assignment| regression()));

    let mut stream = accept_worker(&listener, None);
    let asked = Instant::now();
    write_message(&mut stream, &params(1)).expect("params 1");
    for step in [2, 3] {
        thread::sleep(Duration::from_millis(20));
        write_message(&mut stream, &params(step)).expect("params while reply 1 is held");
    }

    let mut replies = Vec::new();
    let mut heartbeats_before_first_reply = 0;
    let mut first_reply_after = Duration::ZERO;
    while replies.len() < 2 {
        match read_message(&mut stream).expect("a frame from the worker") {
            Message::Heartbeat { worker: 0 } => {
                heartbeats_before_first_reply += usize::from(replies.is_empty());
            }
            Message::Codeword {
                worker: 0, step, ..
            } => {
                if replies.is_empty() {
                    first_reply_after = asked.elapsed();
                }
                replies.push(step);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    write_message(&mut stream, &Message::Shutdown).expect("shutdown");

    assert_eq!(
        replies,
        [1, 3],
        "step 2 was superseded while reply 1 was held"
    );
    assert!(
        first_reply_after >= DELAY,
        "reply 1 arrived after {first_reply_after:?}, before its {DELAY:?} delay"
    );
    assert!(
        heartbeats_before_first_reply >= 3,
        "{heartbeats_before_first_reply} heartbeats while reply 1 was held"
    );
    let summary = worker.join().expect("worker thread").expect("worker run");
    assert_eq!(summary.cause, ShutdownCause::MasterShutdown);
    assert_eq!((summary.steps_served, summary.reconnects), (2, 0));
}

/// The redial around the loop: a dropped connection comes back asking for
/// the slot it held and keeps serving; once nobody listens and the retry
/// schedule is spent, the worker reports the master unreachable.
#[test]
fn a_lost_connection_redials_for_its_slot_until_the_retries_run_out() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let options = WorkerOptions {
        retry: RetryPolicy {
            base: Duration::from_millis(1),
            max_attempts: 2,
            ..RetryPolicy::default()
        },
        ..WorkerOptions::default()
    };
    let worker = thread::spawn(move || run_worker(addr, &options, |_assignment| regression()));

    let mut preferred = None;
    for step in [1, 2] {
        let mut stream = accept_worker(&listener, preferred);
        write_message(&mut stream, &params(step)).expect("params");
        let reply = read_message(&mut stream).expect("the codeword");
        assert!(
            matches!(reply, Message::Codeword { worker: 0, step: s, .. } if s == step),
            "step {step} answered with {reply:?}"
        );
        // Dropping the stream is the lost connection.
        preferred = Some(0);
    }
    drop(listener);

    let summary = worker.join().expect("worker thread").expect("worker run");
    assert_eq!(summary.cause, ShutdownCause::MasterUnreachable);
    assert_eq!((summary.steps_served, summary.reconnects), (2, 1));
}

/// A real master that gives up on silence after 300 ms against a swarm whose
/// member 0 straggles by 600 ms: the master ignores member 0 every step and
/// hears the other seven (and member 0's heartbeats) throughout.
#[test]
fn a_straggler_does_not_silence_its_swarm() {
    const STEPS: usize = 4;
    const DELAY: Duration = Duration::from_millis(600);
    let placement = Placement::fractional(8, 2).expect("valid FR placement");
    let mut config = NetConfig::new(placement, WaitPolicy::FirstW(7));
    config.batch_size = 4;
    config.loss_threshold = 0.0;
    config.max_steps = STEPS;
    config.heartbeat_timeout = Duration::from_millis(300);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let mut options = SwarmOptions::new(8);
    options.worker.delay = Arc::new(|w, _step| if w == 0 { DELAY } else { Duration::ZERO });
    let swarm = thread::spawn(move || run_swarm(addr, &options, |_assignment| regression()));

    let (model, dataset) = regression();
    let started = Instant::now();
    let report = master
        .run(&model, &dataset, &config)
        .expect("a straggling member must not take the swarm down");
    let elapsed = started.elapsed();

    assert_eq!(report.step_count(), STEPS);
    for step in &report.steps {
        assert!(
            step.dead.is_empty(),
            "step {}: dead {:?}",
            step.step,
            step.dead
        );
        assert!(
            !step.arrivals.contains(&0),
            "step {}: the straggler made the cut ({:?})",
            step.step,
            step.arrivals
        );
    }
    assert!(
        elapsed < DELAY * 2,
        "{STEPS} steps took {elapsed:?}: the straggler was waited for, not ignored"
    );
    let summary = swarm.join().expect("swarm thread").expect("swarm run");
    assert_eq!(summary.workers, 8);
    assert_eq!(summary.clean_shutdowns + summary.lost, 8);
}
