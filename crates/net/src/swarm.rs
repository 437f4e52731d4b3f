//! A worker *swarm*: one process, one thread, `n` worker connections.
//!
//! The thread-per-worker client in [`crate::worker`] is the right shape for
//! real deployments (one process per machine), but a loopback scale test
//! with 1000 workers would need 1000 processes × 3 threads. The swarm
//! multiplexes every member over the same listener-less `Reactor` the
//! master uses: serial `Hello`/`Assign` handshakes up front, then a single
//! event loop that answers each member's `Params` and proves liveness with
//! batched heartbeats. Every member is a [`WorkerCore`] — the same protocol
//! reaction a standalone worker runs — over one shared `WorkerStep`, minus
//! reconnection: a lost member stays lost, which is fine for the scale runs
//! this exists for.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;

use crate::reactor::{NetEvent, Reactor, Token};
use crate::retry::RetryPolicy;
use crate::seam::Transport;
use crate::wire::Message;
use crate::worker::{Assignment, Request, WorkerCore, WorkerOptions};
use crate::{DelayFn, NetError};

/// Event-loop granularity of the swarm (mirrors the master's).
const POLL: Duration = Duration::from_millis(20);

/// Tunables of a worker swarm.
#[derive(Clone)]
pub struct SwarmOptions {
    /// How many worker connections to open.
    pub workers: usize,
    /// Injected straggler delay applied after each member's computation.
    pub delay: DelayFn,
    /// How often every member proves liveness to the master.
    pub heartbeat_interval: Duration,
    /// Backoff schedule for the initial handshakes.
    pub retry: RetryPolicy,
    /// Tenant id stamped on every outbound frame.
    pub job: u64,
}

impl SwarmOptions {
    /// Default options for a swarm of `workers` members.
    pub fn new(workers: usize) -> SwarmOptions {
        let base = WorkerOptions::default();
        SwarmOptions {
            workers,
            delay: base.delay,
            heartbeat_interval: base.heartbeat_interval,
            retry: base.retry,
            job: base.job,
        }
    }

    fn worker_options(&self) -> WorkerOptions {
        WorkerOptions {
            delay: Arc::clone(&self.delay),
            heartbeat_interval: self.heartbeat_interval,
            retry: self.retry.clone(),
            job: self.job,
        }
    }
}

/// What a swarm did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarmSummary {
    /// Members that completed the initial handshake.
    pub workers: usize,
    /// Codewords computed and sent, summed over all members.
    pub steps_served: usize,
    /// Members that ended with the master's `Shutdown`.
    pub clean_shutdowns: usize,
    /// Members whose connection dropped mid-run (never reconnected).
    pub lost: usize,
}

/// Runs `options.workers` worker connections to `addr` on one thread until
/// every member saw `Shutdown` (or lost its connection).
///
/// `build` receives the first member's [`Assignment`] and returns the model
/// and the **full** dataset, exactly as [`crate::run_worker`]'s builder
/// does; all members share them (and the deterministic partitioning), so a
/// swarm computes bit-identical codewords to `n` standalone workers.
///
/// # Errors
///
/// [`NetError`] when any initial handshake fails — the swarm is all-or-
/// nothing at startup; after that, losses are absorbed into the summary.
pub fn run_swarm<M, F>(
    addr: impl ToSocketAddrs,
    options: &SwarmOptions,
    build: F,
) -> Result<SwarmSummary, NetError>
where
    M: Model,
    F: FnOnce(&Assignment) -> (M, Dataset),
{
    if options.workers == 0 {
        return Err(NetError::InvalidConfig(
            "swarm needs at least 1 worker".into(),
        ));
    }
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::InvalidConfig("address resolved to nothing".into()))?;
    let worker_options = options.worker_options();

    let mut reactor = Reactor::new(None, options.job, None)?;
    // Members still in the run; one leaves on `Shutdown` or a lost
    // connection, and the loop ends when none is left.
    let mut members: HashMap<Token, WorkerCore> = HashMap::new();
    let mut first_assignment: Option<Assignment> = None;
    for _ in 0..options.workers {
        // Serial blocking handshakes: at most one in flight, so the
        // master's pending-connection set never balloons.
        let (stream, assignment) = crate::worker::connect(addr, None, &worker_options)?;
        // No idle deadline on the member side: liveness pressure is the
        // master's job; the swarm just answers what arrives.
        let token = reactor.register_adopted(stream, None)?;
        first_assignment.get_or_insert_with(|| assignment.clone());
        members.insert(token, WorkerCore::new(assignment));
    }
    let first = first_assignment.expect("workers >= 1");
    let (model, dataset) = build(&first);
    // The codeword recipe and its gradient scratch, shared by every member.
    let mut work = first.work(&model, &dataset);

    let mut summary = SwarmSummary {
        workers: members.len(),
        steps_served: 0,
        clean_shutdowns: 0,
        lost: 0,
    };
    // The broadcast parameters are identical across members; decode them
    // once per step instead of once per member.
    let mut cached_params: Option<(u64, Vector)> = None;
    let mut last_heartbeat = Instant::now();

    while !members.is_empty() {
        if last_heartbeat.elapsed() >= options.heartbeat_interval {
            last_heartbeat = Instant::now();
            for (&token, member) in &members {
                let frame: Arc<[u8]> = Message::Heartbeat {
                    worker: member.worker() as u64,
                }
                .encode_for_job(options.job)
                .into();
                reactor.send(token, frame);
            }
        }
        let Some(event) = reactor.next_event(POLL)? else {
            continue;
        };
        match event {
            NetEvent::Gone { token } => {
                summary.lost += usize::from(members.remove(&token).is_some());
            }
            NetEvent::Msg { token, message, .. } => {
                let Some(member) = members.get_mut(&token) else {
                    continue;
                };
                match member.handle(message) {
                    Request::Shutdown => {
                        members.remove(&token);
                        summary.clean_shutdowns += 1;
                        reactor.reject(token);
                    }
                    Request::Params { step, values } => {
                        if !matches!(&cached_params, Some((s, _)) if *s == step) {
                            cached_params = Some((step, Vector::from(values)));
                        }
                        let (_, params) = cached_params.as_ref().expect("cached above");
                        let reply = member.answer(&mut work, &model, &dataset, step, params);
                        let pause = (options.delay)(member.worker(), step);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        let frame: Arc<[u8]> = reply.encode_for_job(options.job).into();
                        reactor.send(token, frame);
                        summary.steps_served += 1;
                    }
                    Request::Idle => {}
                }
            }
            // The master never sends codewords, and members carry no idle
            // deadline; pending-handshake events cannot occur without a
            // listener.
            _ => {}
        }
    }
    reactor.flush_all(Duration::from_secs(1));
    Ok(summary)
}
