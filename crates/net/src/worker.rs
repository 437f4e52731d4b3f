//! The IS-GC worker: [`WorkerCore`], the one implementation of a worker's
//! reaction to the protocol (`Assign`, `Params`, `Shutdown`, the rejoin
//! sit-out) that every client drives — the session loop in [`crate::swarm`]
//! (so [`run_worker`] and every swarm member), the chaos client and the
//! model checker's peer — plus `run_worker` itself: one process per worker
//! is still the deployment story, and its session is that loop with one
//! member, wrapped in a redial under a shared [`RetryPolicy`] for when the
//! connection drops.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use isgc_engine::WorkerStep;
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;

use crate::reactor::HANDSHAKE_TIMEOUT;
use crate::retry::RetryPolicy;
use crate::swarm::serve;
use crate::wire::{read_message_tagged, write_message_for_job, Message};
use crate::{DelayFn, NetError};

/// Tunables of the worker loop.
#[derive(Clone)]
pub struct WorkerOptions {
    /// Injected straggler delay: the reply is held this long after it is
    /// computed; heartbeats continue.
    pub delay: DelayFn,
    /// How often the worker proves liveness to the master.
    pub heartbeat_interval: Duration,
    /// Backoff schedule shared by the initial connect and reconnects after
    /// a dropped connection. Jitter is salted by the worker id, so a cluster
    /// reconnecting at once still fans out deterministically instead of
    /// thundering back in lockstep.
    pub retry: RetryPolicy,
    /// Tenant id stamped on every outbound frame; inbound frames tagged
    /// with a different job are ignored. Job 0 is the single-tenant
    /// default.
    pub job: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            delay: crate::no_delay(),
            heartbeat_interval: Duration::from_millis(200),
            retry: RetryPolicy::default(),
            job: 0,
        }
    }
}

impl WorkerOptions {
    /// Default options with the given delay function.
    pub fn with_delay(delay: DelayFn) -> Self {
        WorkerOptions {
            delay,
            ..WorkerOptions::default()
        }
    }
}

/// What the master assigned this worker during registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// This worker's slot id in `0..n`.
    pub worker: usize,
    /// Cluster size (also the number of data partitions).
    pub n: usize,
    /// Partitions per worker *in the configured placement* (placement
    /// repair may later grow this worker's actual list past `c`).
    pub c: usize,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// Shared seed for deterministic mini-batch sampling.
    pub seed: u64,
    /// The partitions this worker computes each step; updated in place
    /// when the master re-issues `Assign` after placement repair.
    pub partitions: Vec<usize>,
}

impl Assignment {
    /// Reads an `Assign` frame — the single place the wire's `u64` ids
    /// become indices. Any other message is handed back.
    ///
    /// # Errors
    ///
    /// The message itself when it is not an `Assign`.
    pub fn from_message(message: Message) -> Result<Assignment, Message> {
        match message {
            Message::Assign {
                worker,
                n,
                c,
                batch_size,
                seed,
                partitions,
            } => Ok(Assignment {
                worker: worker as usize,
                n: n as usize,
                c: c as usize,
                batch_size: batch_size as usize,
                seed,
                partitions: partitions.into_iter().map(|j| j as usize).collect(),
            }),
            other => Err(other),
        }
    }

    /// The codeword recipe every peer of this assignment's cluster shares.
    pub fn work<M: Model>(&self, model: &M, dataset: &Dataset) -> WorkerStep {
        WorkerStep::new(model, dataset, self.n, self.batch_size, self.seed)
    }
}

/// What one inbound message asks of a worker, after [`WorkerCore::handle`]
/// applied whatever it could on its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Nothing to answer: an `Assign` (already applied) or a frame the
    /// master never sends a worker mid-session.
    Idle,
    /// Fresh parameters: reply with [`WorkerCore::answer`].
    Params {
        /// The step the parameters belong to (tags the reply).
        step: u64,
        /// The flat parameter vector.
        values: Vec<f64>,
    },
    /// The run completed.
    Shutdown,
}

/// One worker's protocol state, transport-free: its assignment and the
/// rejoin sit-out. Clients own the socket, the liveness signal and the
/// straggler delay; what a worker *says* comes from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCore {
    assignment: Assignment,
    decline_until: u64,
}

impl WorkerCore {
    /// A worker serving `assignment`, sitting out nothing.
    pub fn new(assignment: Assignment) -> WorkerCore {
        WorkerCore {
            assignment,
            decline_until: 0,
        }
    }

    /// The current assignment (partition list as last re-issued).
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// This worker's slot id.
    pub fn worker(&self) -> usize {
        self.assignment.worker
    }

    /// Adopts a re-issued assignment — mid-session after placement repair,
    /// or the handshake reply of a reconnect, which reflects any repair run
    /// while the worker was away. Only the partition list changes: slot,
    /// cluster shape and batch recipe are fixed for the run.
    pub fn reassign(&mut self, fresh: Assignment) {
        self.assignment.partitions = fresh.partitions;
    }

    /// Steps strictly below this are declined.
    pub fn decline_until(&self) -> u64 {
        self.decline_until
    }

    /// Sits out every step below `step`: the rejoin rule of a worker that
    /// reconnects mid-run, which pins the steps it misses independent of
    /// whether the next broadcast catches the fresh connection.
    pub fn sit_out_until(&mut self, step: u64) {
        self.decline_until = step;
    }

    /// Whether `step` falls inside the sit-out window.
    pub fn sits_out(&self, step: u64) -> bool {
        step < self.decline_until
    }

    /// Consumes one decoded message from the master.
    pub fn handle(&mut self, message: Message) -> Request {
        match message {
            Message::Shutdown => Request::Shutdown,
            Message::Params { step, values } => Request::Params { step, values },
            other => {
                if let Ok(fresh) = Assignment::from_message(other) {
                    self.reassign(fresh);
                }
                Request::Idle
            }
        }
    }

    /// The reply to `Params` for `step`: a `Decline` inside the sit-out
    /// window, the honest codeword otherwise.
    pub fn answer<M: Model>(
        &self,
        work: &mut WorkerStep,
        model: &M,
        dataset: &Dataset,
        step: u64,
        params: &Vector,
    ) -> Message {
        if self.sits_out(step) {
            self.decline(step)
        } else {
            self.honest(work, model, dataset, step, params)
        }
    }

    /// The `Codeword` frame for `step` (tag and mini-batch) at `params`,
    /// over the current partition list.
    pub fn honest<M: Model>(
        &self,
        work: &mut WorkerStep,
        model: &M,
        dataset: &Dataset,
        step: u64,
        params: &Vector,
    ) -> Message {
        let codeword = work.codeword(model, dataset, &self.assignment.partitions, step, params);
        Message::Codeword {
            worker: self.assignment.worker as u64,
            step,
            values: codeword.into_vec(),
        }
    }

    /// The `Decline` frame for `step`.
    pub fn decline(&self, step: u64) -> Message {
        Message::Decline {
            worker: self.assignment.worker as u64,
            step,
        }
    }
}

/// Why a worker's main loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownCause {
    /// The master sent `Shutdown`: the run completed.
    MasterShutdown,
    /// The connection dropped and every reconnect attempt failed.
    MasterUnreachable,
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The slot id this worker served as.
    pub worker: usize,
    /// Codewords computed and sent.
    pub steps_served: usize,
    /// Successful reconnections after a dropped connection.
    pub reconnects: usize,
    /// Why the loop ended.
    pub cause: ShutdownCause,
}

/// Runs a worker until the master shuts the run down (or becomes
/// unreachable).
///
/// `build` receives the master's [`Assignment`] and returns the model and
/// the **full** dataset; the worker partitions it into `n` parts itself so
/// every peer slices identically. Each `Params` message triggers one
/// codeword: per assigned partition, a deterministic mini-batch is drawn
/// (`partition`, `batch_size`, `step`, `seed` — identical on any peer that
/// would recompute it), gradient sums are accumulated, and the codeword,
/// tagged with the step, is sent back once the injected delay has passed.
/// The worker is sequential — one reply in flight — and jumps to the newest
/// `Params` when several arrived while it straggled (the session loop is
/// the one every [`crate::swarm`] member runs, on this thread alone).
///
/// A mid-session `Assign` (issued by placement repair when a peer is
/// declared permanently dead) replaces this worker's partition list on the
/// fly; subsequent steps compute the adopted partitions too.
///
/// # Errors
///
/// [`NetError::Io`] when the initial connection cannot be established at
/// all, or `poll(2)` itself fails; after a successful registration,
/// connection loss is handled by reconnecting and ultimately reported via
/// [`ShutdownCause::MasterUnreachable`] instead of an error.
pub fn run_worker<M, F>(
    addr: impl ToSocketAddrs,
    options: &WorkerOptions,
    build: F,
) -> Result<WorkerSummary, NetError>
where
    M: Model,
    F: FnOnce(&Assignment) -> (M, Dataset),
{
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::InvalidConfig("address resolved to nothing".into()))?;

    let (mut stream, assignment) = connect(addr, None, options)?;
    let (model, dataset) = build(&assignment);
    let mut work = assignment.work(&model, &dataset);
    let mut core = WorkerCore::new(assignment);

    let mut summary = WorkerSummary {
        worker: core.worker(),
        steps_served: 0,
        reconnects: 0,
        cause: ShutdownCause::MasterShutdown,
    };
    loop {
        let (served, mut lost) = serve(vec![(stream, core)], &mut work, &model, &dataset, options)?;
        summary.steps_served += served;
        // The one member either saw `Shutdown` or comes back lost.
        let Some(back) = lost.pop() else {
            return Ok(summary);
        };
        core = back;
        match connect(addr, Some(core.worker() as u64), options) {
            Ok((fresh, reassign)) => {
                summary.reconnects += 1;
                core.reassign(reassign);
                stream = fresh;
            }
            Err(_) => {
                summary.cause = ShutdownCause::MasterUnreachable;
                return Ok(summary);
            }
        }
    }
}

/// Dials the master under the shared [`RetryPolicy`] and completes the
/// `Hello`/`Assign` handshake: each attempt is `dial`, then `finish`.
/// Also the chaos client's handshake, and the fallback of a swarm member
/// whose windowed handshake failed (see [`crate::swarm`]).
///
/// # Errors
///
/// The last attempt's failure: [`NetError::Io`] dialing, [`NetError::Wire`]
/// on the handshake frames or when the master stays silent past the
/// handshake timeout (5 s), [`NetError::Protocol`] when the master answers
/// for another job or with anything but `Assign`.
pub fn connect(
    addr: std::net::SocketAddr,
    preferred: Option<u64>,
    options: &WorkerOptions,
) -> Result<(TcpStream, Assignment), NetError> {
    let salt = preferred.unwrap_or(u64::MAX);
    options
        .retry
        .run(salt, || finish(dial(addr, preferred, options)?, options))
}

/// The first half of one handshake attempt: connects to the master and
/// sends `Hello { preferred }`, without waiting for the answer.
pub(crate) fn dial(
    addr: std::net::SocketAddr,
    preferred: Option<u64>,
    options: &WorkerOptions,
) -> Result<TcpStream, NetError> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    write_message_for_job(&mut stream, options.job, &Message::Hello { preferred })?;
    Ok(stream)
}

/// The second half of one handshake attempt: reads the master's `Assign`
/// on a [`dial`]ed stream and checks its job tag. The read waits no longer
/// than the master gives a silent pending connection; the bound is cleared
/// again before the stream is handed on (the session loop makes it
/// nonblocking).
pub(crate) fn finish(
    mut stream: TcpStream,
    options: &WorkerOptions,
) -> Result<(TcpStream, Assignment), NetError> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let (frame_job, message, _) = read_message_tagged(&mut stream)?;
    stream.set_read_timeout(None)?;
    if frame_job != options.job {
        return Err(NetError::Protocol(format!(
            "master answered for job {frame_job}, expected {}",
            options.job
        )));
    }
    match Assignment::from_message(message) {
        Ok(assignment) => Ok((stream, assignment)),
        Err(other) => Err(NetError::Protocol(format!(
            "expected Assign after Hello, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let opts = WorkerOptions::default();
        assert!(opts.retry.max_attempts >= 1);
        assert!(opts.heartbeat_interval > Duration::ZERO);
        assert_eq!((opts.delay)(3, 9), Duration::ZERO);
    }

    #[test]
    fn connect_fails_fast_against_closed_port() {
        // Bind-then-drop gives a port nothing listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let options = WorkerOptions {
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..WorkerOptions::default()
        };
        let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        assert!(connect(addr, None, &options).is_err());
    }

    #[test]
    fn connect_gives_up_on_a_master_that_accepts_and_stays_silent() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts, swallows the Hello, and never answers; ends when the
        // worker hangs up.
        let silent = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        });
        let options = WorkerOptions {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..WorkerOptions::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(connect(addr, None, &options).map(|_| ()));
        });
        let outcome = rx
            .recv_timeout(HANDSHAKE_TIMEOUT * 4)
            .expect("connect hung on a silent master");
        assert!(matches!(outcome, Err(NetError::Wire(_))), "{outcome:?}");
        worker.join().unwrap();
        silent.join().unwrap();
    }

    #[test]
    fn assign_frame_reaches_the_core_intact_and_reassign_keeps_the_rest() {
        let assign = |partitions: Vec<u64>, seed: u64| Message::Assign {
            worker: 3,
            n: 8,
            c: 2,
            batch_size: 4,
            seed,
            partitions,
        };
        let over_the_wire = |message: &Message| {
            let frame = message.encode_for_job(5);
            let (job, decoded, used) = Message::decode_tagged(&frame).expect("decodes");
            assert_eq!((job, used), (5, frame.len()));
            decoded
        };
        let first = Assignment::from_message(over_the_wire(&assign(vec![3, 4], 99)))
            .expect("an Assign frame");
        let mut core = WorkerCore::new(first);
        let expected = Assignment {
            worker: 3,
            n: 8,
            c: 2,
            batch_size: 4,
            seed: 99,
            partitions: vec![3, 4],
        };
        assert_eq!(core.assignment(), &expected);

        // Placement repair re-issues Assign mid-session: the partition list
        // is adopted, every other field of the frame is ignored.
        let mut repaired = assign(vec![3, 4, 7], 1234);
        if let Message::Assign { worker, n, .. } = &mut repaired {
            (*worker, *n) = (0, 16);
        }
        assert_eq!(core.handle(over_the_wire(&repaired)), Request::Idle);
        assert_eq!(
            core.assignment(),
            &Assignment {
                partitions: vec![3, 4, 7],
                ..expected
            }
        );
        assert_eq!(
            Assignment::from_message(Message::Shutdown),
            Err(Message::Shutdown)
        );
    }

    #[test]
    fn core_answers_params_unless_it_sits_the_step_out() {
        let model = isgc_ml::model::LinearRegression::new(3);
        let dataset = Dataset::synthetic_regression(64, 3, 0.1, 2);
        let assignment = Assignment {
            worker: 1,
            n: 4,
            c: 2,
            batch_size: 8,
            seed: 9,
            partitions: vec![1, 2],
        };
        let mut work = assignment.work(&model, &dataset);
        let mut core = WorkerCore::new(assignment);
        let params = model.zero_params();

        let values = params.as_slice().to_vec();
        let request = core.handle(Message::Params { step: 5, values });
        assert!(matches!(request, Request::Params { step: 5, .. }));
        core.sit_out_until(7);
        for (step, declined) in [(5, true), (6, true), (7, false)] {
            let reply = core.answer(&mut work, &model, &dataset, step, &params);
            assert_eq!(reply == core.decline(step), declined, "step {step}");
            let honest = core.honest(&mut work, &model, &dataset, step, &params);
            assert_eq!(reply == honest, !declined, "step {step}");
        }
        assert_eq!(core.handle(Message::Shutdown), Request::Shutdown);
        assert_eq!(core.handle(Message::Heartbeat { worker: 1 }), Request::Idle);
    }
}
