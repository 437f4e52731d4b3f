//! The worker session loop, and the *swarm* that runs `n` of them in one
//! process on one thread.
//!
//! `serve` is the one place a worker connection's session is written:
//! heartbeats on an interval, each inbound frame through
//! [`WorkerCore::handle`], each `Params` answered by [`WorkerCore::answer`],
//! leave on `Shutdown` or a lost connection. It multiplexes any number of
//! members over the same listener-less `Reactor` the master uses.
//! [`crate::run_worker`] — one process per machine, the deployment story —
//! is this loop with one member and a redial around it; [`run_swarm`] is
//! the `Hello`/`Assign` handshakes, a window of them in flight at a time,
//! and then this loop over all of them, sharing one `WorkerStep`, without
//! reconnection: a lost member stays lost, which is fine for the scale runs
//! it exists for (a loopback test with 1000 workers would otherwise need
//! 1000 processes).
//!
//! Registration goes window by window: the swarm dials every member of a
//! window (connect, send `Hello`) and only then reads each one's `Assign`,
//! so the master seats a whole window per pass over its sockets instead of
//! one member per round trip. A window is `WINDOW` (32) members: std's
//! `TcpListener::bind` listens with a backlog of 128, and a connect past a
//! full backlog waits out a 1 s SYN retransmit; four concurrent swarms
//! (`launch --swarm 4`) of one window each stay inside it. The members then
//! serve in slot order, sorted by their assigned worker index, whatever
//! order their handshakes completed in.
//!
//! A loop that owes every member's heartbeats cannot sleep, so an injected
//! straggler delay is a *send deadline*: the reply is computed at once and
//! held until the delay has passed. Members straggle independently — the
//! master's first `w` are whoever is fast, not whoever the loop served
//! first — and a straggler silences nobody's heartbeat, its own included.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use isgc_engine::WorkerStep;
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;

use crate::reactor::{NetEvent, Reactor, Token};
use crate::seam::Transport;
use crate::wire::Message;
use crate::worker::{connect, dial, finish, Assignment, Request, WorkerCore, WorkerOptions};
use crate::NetError;

/// Handshakes a swarm keeps in flight at once; see the module docs for why
/// 32 (16, 32 and 64 measured alike).
const WINDOW: usize = 32;

/// Tunables of a worker swarm.
#[derive(Clone)]
pub struct SwarmOptions {
    /// How many worker connections to open.
    pub workers: usize,
    /// What every member runs with. The delay is keyed by the
    /// master-assigned worker index; the retry schedule covers the initial
    /// handshakes only, and applies to a member once its windowed
    /// handshake failed.
    pub worker: WorkerOptions,
}

impl SwarmOptions {
    /// Default options for a swarm of `workers` members.
    pub fn new(workers: usize) -> SwarmOptions {
        SwarmOptions {
            workers,
            worker: WorkerOptions::default(),
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
/// [`NetError`] when any initial handshake fails, its retries included —
/// the swarm is all-or-nothing at startup; after that, losses are absorbed
/// into the summary.
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

    let mut members = Vec::with_capacity(options.workers);
    for start in (0..options.workers).step_by(WINDOW) {
        // Every `Hello` of the window goes out before any `Assign` is read,
        // in dial order; a member whose first attempt fails anywhere
        // re-runs the whole handshake under the retry schedule.
        let window = (start..options.workers.min(start + WINDOW))
            .map(|_| dial(addr, None, &options.worker))
            .collect::<Vec<_>>();
        for dialed in window {
            let (stream, assignment) = match dialed.and_then(|s| finish(s, &options.worker)) {
                Ok(handshake) => handshake,
                Err(_) => connect(addr, None, &options.worker)?,
            };
            members.push((stream, WorkerCore::new(assignment)));
        }
    }
    // `serve` answers a broadcast in the order its members are listed, and
    // the master counts arrivals in the order replies come in: listed by
    // slot, and with no delay injected, the first w to answer are the
    // lowest w slots, as when handshakes completed one at a time.
    members.sort_by_key(|(_, core)| core.worker());
    let first = members[0].1.assignment();
    let (model, dataset) = build(first);
    // The codeword recipe and its gradient scratch, shared by every member.
    let mut work = first.work(&model, &dataset);

    let (steps_served, lost) = serve(members, &mut work, &model, &dataset, &options.worker)?;
    Ok(SwarmSummary {
        workers: options.workers,
        steps_served,
        clean_shutdowns: options.workers - lost.len(),
        lost: lost.len(),
    })
}

/// One connection of the session loop: a sequential worker with at most one
/// reply in flight.
struct Member {
    core: WorkerCore,
    /// The newest `Params` not answered yet. An older one it replaces is
    /// never answered: the master has already given up waiting for it.
    asked: Option<(u64, Vec<f64>)>,
    /// Whether a computed reply is being held for its injected delay.
    holding: bool,
}

/// The worker session, written once: serves every `(stream, core)` until
/// each saw `Shutdown` or lost its connection, and returns the replies sent
/// plus the cores of the members that ended lost.
///
/// Each turn waits for the reactor (no longer than until the next heartbeat
/// or held reply is due), drains every event that one poll queued, sends
/// what came due, and only then answers — in the order the `Params`
/// arrived, each member's newest only. A reply with a nonzero injected
/// delay is held until `now + delay`; its member's later `Params` wait for
/// the release, and `Shutdown` or a lost connection drops it. A turn with
/// nothing due costs O(events), never a scan over the members.
///
/// # Errors
///
/// [`NetError::Io`] when a stream cannot be made nonblocking or `poll(2)`
/// itself fails.
pub(crate) fn serve<M: Model>(
    members: Vec<(TcpStream, WorkerCore)>,
    work: &mut WorkerStep,
    model: &M,
    dataset: &Dataset,
    options: &WorkerOptions,
) -> Result<(usize, Vec<WorkerCore>), NetError> {
    let mut reactor = Reactor::new(None, options.job, None)?;
    let mut session: HashMap<Token, Member> = HashMap::with_capacity(members.len());
    for (stream, core) in members {
        // No idle deadline on the member side: liveness pressure is the
        // master's job; a member just answers what arrives.
        let token = reactor.register_adopted(stream, None)?;
        let member = Member {
            core,
            asked: None,
            holding: false,
        };
        session.insert(token, member);
    }
    let (mut steps_served, mut lost) = (0, Vec::new());
    // Held replies by release time on the reactor's clock. An entry outlives
    // a member that left meanwhile; releasing it then finds nobody and sends
    // nothing.
    let mut held: BTreeMap<(Duration, Token), Arc<[u8]>> = BTreeMap::new();
    // Members with an unanswered `Params` and nothing held, in arrival order.
    let mut ready: Vec<Token> = Vec::new();
    let mut next_heartbeat = reactor.now() + options.heartbeat_interval;

    while !session.is_empty() {
        let wake = held
            .first_key_value()
            .map_or(next_heartbeat, |(&(at, _), _)| at.min(next_heartbeat));
        let mut next = reactor.next_event(wake.saturating_sub(reactor.now()))?;
        while let Some(event) = next {
            // Only what that one poll queued: no second poll before answering.
            next = reactor.queued_event();
            match event {
                NetEvent::Gone { token } => lost.extend(session.remove(&token).map(|m| m.core)),
                NetEvent::Msg { token, message, .. } => {
                    let Some(member) = session.get_mut(&token) else {
                        continue;
                    };
                    match member.core.handle(message) {
                        Request::Shutdown => {
                            session.remove(&token);
                            reactor.reject(token);
                        }
                        Request::Params { step, values } => {
                            if member.asked.replace((step, values)).is_none() && !member.holding {
                                ready.push(token);
                            }
                        }
                        Request::Idle => {}
                    }
                }
                // The master never sends codewords, and members carry no
                // idle deadline; pending-handshake events cannot occur
                // without a listener.
                _ => {}
            }
        }

        let now = reactor.now();
        if now >= next_heartbeat {
            next_heartbeat = now + options.heartbeat_interval;
            for (&token, member) in &session {
                let worker = member.core.worker() as u64;
                let beat = Message::Heartbeat { worker }.encode_for_job(options.job);
                reactor.send(token, beat.into());
            }
        }
        while let Some(due) = held.first_entry().filter(|entry| entry.key().0 <= now) {
            let ((_, token), frame) = due.remove_entry();
            if let Some(member) = session.get_mut(&token) {
                reactor.send(token, frame);
                steps_served += 1;
                member.holding = false;
                if member.asked.is_some() {
                    ready.push(token);
                }
            }
        }
        for token in ready.drain(..) {
            let Some(member) = session.get_mut(&token) else {
                continue;
            };
            let (step, values) = member.asked.take().expect("ready only while asked");
            let reply = member
                .core
                .answer(work, model, dataset, step, &Vector::from(values));
            let frame: Arc<[u8]> = reply.encode_for_job(options.job).into();
            let pause = (options.delay)(member.core.worker(), step);
            if pause.is_zero() {
                reactor.send(token, frame);
                steps_served += 1;
            } else {
                member.holding = true;
                held.insert((reactor.now() + pause, token), frame);
            }
        }
    }
    Ok((steps_served, lost))
}
