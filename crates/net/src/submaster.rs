//! Two-level hierarchical aggregation over TCP: sub-masters and the tree
//! root loop.
//!
//! For large clusters a single master serializes `n` codeword uploads per
//! step. In tree mode the cluster is cut into group-aligned shards (at
//! [`isgc_engine::shard_ranges`], so each shard is a subtree of the
//! canonical pairwise reduction): a **sub-master** owns each shard, relays
//! the root's `Params` broadcast to its workers, collects their codewords,
//! runs the shard-local slice of the conflict-graph decode, and uploads only
//! `(arrivals, selection, partial sum)` — the raw codewords never leave the
//! shard. The **root** (`TreeRootLoop`) merges the partials with
//! [`isgc_engine::pairwise_sum`] and hands the engine a pre-decoded
//! [`Collected`], so bound checks, normalization, and SGD run exactly as in
//! flat mode.
//!
//! Both tiers run on the nonblocking `crate::reactor`: the root's
//! listener, every sub-master link, a sub-master's own worker listener,
//! *and* its upstream root link are all descriptors in one poll set, so a
//! sub-master process spends zero threads on I/O. Root messages that land
//! while a shard step is collecting (and worker events that land between
//! steps) are buffered and replayed in order, preserving the exact
//! interleaving the old blocking transport produced.
//!
//! Determinism: the FR decoder's per-group representative choice is a pure
//! hash of `(step_rng(seed, step), group)`, so a shard decoding only its own
//! groups picks exactly the representatives a flat master would, and the
//! fixed merge order makes the aggregate bitwise identical to flat
//! aggregation (see `isgc-engine::merge`).

use std::collections::{HashMap, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use isgc_core::decode::{decoder_for, Decoder};
use isgc_core::{Placement, Scheme, WorkerSet};
use isgc_engine::{
    pairwise_sum, shard_ranges, step_rng, Collected, Collector, EngineError, ShardedDecode,
    StepContext,
};
use isgc_linalg::Vector;

use crate::master::{backend, Awaited, NetConfig, Slot};
use crate::reactor::{NetEvent, Reactor, Token};
use crate::retry::RetryPolicy;
use crate::seam::Transport;
use crate::wire::{encode_params_frame, read_message_tagged, write_message_for_job, Message};
use crate::{NetError, WaitPolicy};

/// Poll granularity while waiting on shard uploads or worker codewords.
const POLL: Duration = Duration::from_millis(20);

/// How long an upload or shutdown flush may pump before giving up on the
/// peer (loopback drains in microseconds; this only bounds a wedged link).
const FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// The connection an event came from.
fn event_token(event: &NetEvent) -> Token {
    match event {
        NetEvent::Hello { token, .. }
        | NetEvent::SubHello { token, .. }
        | NetEvent::Msg { token, .. }
        | NetEvent::Codeword { token, .. }
        | NetEvent::HeartbeatTimeout { token }
        | NetEvent::Gone { token } => *token,
    }
}

/// The root's collector in tree mode: one slot per sub-master, each
/// delivering a shard's `(arrivals, selection, partial sum)` per step.
pub(crate) struct TreeRootLoop {
    slots: Vec<Slot>,
    shards: Vec<(usize, usize)>,
    /// Which slot each adopted sub-master connection feeds.
    owner: HashMap<Token, usize>,
    reactor: Box<dyn Transport>,
    config: NetConfig,
}

/// One shard's upload for the step being collected.
struct ShardReport {
    arrivals: Vec<usize>,
    selected: Vec<usize>,
    recovered: usize,
    partial: Option<Vector>,
}

impl TreeRootLoop {
    /// Validates the tree geometry and builds the (not yet registered)
    /// root loop around its reactor.
    pub(crate) fn new(
        config: NetConfig,
        reactor: Box<dyn Transport>,
        submasters: usize,
    ) -> Result<TreeRootLoop, NetError> {
        let n = config.placement.n();
        let c = config.placement.c();
        if submasters == 0 || !submasters.is_power_of_two() {
            return Err(NetError::InvalidConfig(format!(
                "sub-master count must be a positive power of two, got {submasters}"
            )));
        }
        if submasters > n {
            return Err(NetError::InvalidConfig(format!(
                "cannot cut n={n} workers into {submasters} shards"
            )));
        }
        if config.placement.scheme() != Scheme::Fractional {
            return Err(NetError::InvalidConfig(format!(
                "tree aggregation requires an FR placement (shard-local decode \
                 decomposes over FR groups), got {}",
                config.placement.scheme()
            )));
        }
        let shards = shard_ranges(n, submasters);
        for &(lo, hi) in &shards {
            if lo % c != 0 || hi % c != 0 {
                return Err(NetError::InvalidConfig(format!(
                    "shard boundary [{lo}, {hi}) cuts through an FR group (c={c})"
                )));
            }
        }
        Ok(TreeRootLoop {
            slots: (0..submasters).map(|_| Slot::empty()).collect(),
            shards,
            owner: HashMap::new(),
            reactor,
            config,
        })
    }

    /// Blocks until every shard's sub-master registered (or the
    /// registration deadline passes).
    pub(crate) fn await_registration(&mut self) -> Result<(), NetError> {
        let deadline = Instant::now() + self.config.register_timeout;
        loop {
            if self.slots.iter().all(|s| s.registered) {
                return Ok(());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                let registered = self.slots.iter().filter(|s| s.registered).count();
                return Err(NetError::Protocol(format!(
                    "tree registration timed out with {registered} of {} sub-masters",
                    self.slots.len()
                )));
            };
            if let Some(event) = self.reactor.next_event(remaining.min(POLL))? {
                self.dispatch_control(event);
            }
        }
    }

    /// The slot an adopted sub-master connection currently owns, or `None`
    /// for events from a replaced connection.
    fn slot_of(&self, token: Token) -> Option<usize> {
        let id = *self.owner.get(&token)?;
        (self.slots[id].conn == Some(token)).then_some(id)
    }

    /// Handles registration/liveness events (everything but uploads).
    fn dispatch_control(&mut self, event: NetEvent) {
        match event {
            NetEvent::SubHello { token, shard } => self.register_shard(token, shard),
            // A worker dialing the root directly: wrong tier, drop it.
            NetEvent::Hello { token, .. } => self.reactor.reject(token),
            NetEvent::Gone { token } => {
                if let Some(shard) = self.slot_of(token) {
                    self.slots[shard].alive = false;
                    self.slots[shard].conn = None;
                }
                self.owner.remove(&token);
            }
            NetEvent::Msg { token, .. } | NetEvent::Codeword { token, .. } => {
                if let Some(shard) = self.slot_of(token) {
                    self.slots[shard].alive = true;
                }
            }
            // Sub-master links carry no idle deadline (shards answer at
            // step cadence, not heartbeat cadence), so this never fires.
            NetEvent::HeartbeatTimeout { .. } => {}
        }
    }

    /// Registers (or re-registers, after a crash) a shard's sub-master.
    fn register_shard(&mut self, token: Token, shard: u64) {
        let Some(&(lo, hi)) = self.shards.get(shard as usize) else {
            // Claims a shard outside the tree: reject.
            self.reactor.reject(token);
            return;
        };
        let assign: Arc<[u8]> = Message::ShardAssign {
            shard,
            lo: lo as u64,
            hi: hi as u64,
            n: self.config.placement.n() as u64,
            c: self.config.placement.c() as u64,
            batch_size: self.config.batch_size as u64,
            seed: self.config.seed,
        }
        .encode_for_job(self.config.job)
        .into();
        // No idle deadline: a sub-master is only expected to speak once per
        // step, however long its shard takes.
        if !self.reactor.adopt(token, assign, None) {
            return; // connection died under the ShardAssign write
        }
        if let Some(old) = self.slots[shard as usize].conn.take() {
            self.owner.remove(&old);
            self.reactor.reject(old);
        }
        let slot = &mut self.slots[shard as usize];
        slot.conn = Some(token);
        slot.registered = true;
        slot.alive = true;
        self.owner.insert(token, shard as usize);
    }

    /// Sends one pre-encoded frame to every alive sub-master (serialize
    /// once, `Arc`-shared bytes written `S` times). A shard whose link
    /// fails surfaces as a queued `Gone` event and is demoted when it is
    /// dispatched.
    fn broadcast_frame(&mut self, frame: &Arc<[u8]>) {
        let targets: Vec<Token> = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .filter_map(|s| s.conn)
            .collect();
        self.reactor.broadcast(frame, &targets);
    }

    /// Waits up to [`NetConfig::rejoin_grace`] at step start for every
    /// previously-registered but currently disconnected sub-master to
    /// re-register, so a restarted shard's step membership depends only on
    /// the step its crash was scripted at, never on how fast its restart
    /// races the next broadcast.
    fn await_rejoins(&mut self) {
        let grace = self.config.rejoin_grace;
        if grace.is_zero() {
            return;
        }
        let deadline = Instant::now() + grace;
        while self.slots.iter().any(|s| s.registered && !s.alive) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.reactor.next_event(remaining.min(POLL)) {
                Ok(Some(event)) => self.dispatch_control(event),
                Ok(None) => {}
                Err(_) => break,
            }
        }
    }

    /// Notifies sub-masters the run is over (they relay to their workers),
    /// or emulates a killed root by hard-closing every socket.
    pub(crate) fn close_peers(&mut self, crashed: bool) {
        if !crashed {
            let frame: Arc<[u8]> = Message::Shutdown.encode_for_job(self.config.job).into();
            self.broadcast_frame(&frame);
            self.reactor.flush_all(Duration::from_secs(1));
        } else {
            self.reactor.hard_close_all();
        }
    }
}

impl Collector for TreeRootLoop {
    fn n(&self) -> usize {
        self.config.placement.n()
    }

    /// Liveness at worker granularity: a shard's workers are alive iff the
    /// shard's sub-master connection is. (The Theorem 10/11 bound the
    /// engine checks per step is computed from what actually arrived, so
    /// this coarse view only affects wait targets, never correctness.)
    fn alive(&self) -> Vec<bool> {
        let mut alive = vec![false; self.n()];
        for (slot, &(lo, hi)) in self.slots.iter().zip(&self.shards) {
            if slot.alive {
                alive[lo..hi].fill(true);
            }
        }
        alive
    }

    fn collect(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        self.await_rejoins();
        let step_start = Instant::now();
        let frame: Arc<[u8]> =
            encode_params_frame(self.config.job, ctx.step, ctx.params.as_slice()).into();
        self.broadcast_frame(&frame);
        // A deadline wait policy caps how long present shards are held up by
        // an absent one. Under FirstW the root waits for every shard that
        // received the broadcast — a crashed shard's EOF unblocks the step
        // immediately.
        let cutoff = match self.config.wait {
            WaitPolicy::FirstW(_) => None,
            WaitPolicy::Deadline(d) => Some(step_start + d),
        };
        let submasters = self.slots.len();
        // A shard is eligible for this step only through the connection that
        // received the Params broadcast; one that re-registers mid-step (a
        // restarted sub-master, with a new connection) never saw this step
        // and must not be waited on — its first step is the next one.
        let eligible: Vec<Option<Token>> = self
            .slots
            .iter()
            .map(|s| if s.alive { s.conn } else { None })
            .collect();
        let mut reports: Vec<Option<ShardReport>> = (0..submasters).map(|_| None).collect();
        let mut stale = 0usize;
        loop {
            let pending = (0..submasters)
                .filter(|&s| {
                    self.slots[s].alive
                        && eligible[s].is_some()
                        && eligible[s] == self.slots[s].conn
                        && reports[s].is_none()
                })
                .count();
            let expired = cutoff.is_some_and(|c| Instant::now() >= c);
            let uploaded = reports.iter().filter(|r| r.is_some()).count();
            if pending == 0 || (expired && uploaded > 0) {
                if uploaded == 0 && self.slots.iter().all(|s| !s.alive) {
                    return Err(backend(NetError::AllWorkersLost));
                }
                if pending == 0 || expired {
                    break;
                }
            }
            let event = match self.reactor.next_event(POLL) {
                Ok(Some(event)) => event,
                Ok(None) => continue,
                Err(e) => return Err(backend(e)),
            };
            match event {
                NetEvent::Msg {
                    token,
                    message,
                    bytes: _,
                } => {
                    let Some(shard) = self.slot_of(token) else {
                        continue; // from a replaced connection
                    };
                    self.slots[shard].alive = true;
                    if let Message::ShardUpload {
                        shard: claimed,
                        step,
                        arrivals,
                        selected,
                        recovered,
                        partial,
                    } = message
                    {
                        // Like codewords, the slot is authoritative over
                        // the claimed id, and stale steps are counted,
                        // never mixed in.
                        let _ = claimed;
                        if step == ctx.step && reports[shard].is_none() {
                            reports[shard] = Some(ShardReport {
                                arrivals: arrivals.iter().map(|&w| w as usize).collect(),
                                selected: selected.iter().map(|&w| w as usize).collect(),
                                recovered: recovered as usize,
                                partial: (!partial.is_empty())
                                    .then(|| Vector::from_slice(&partial)),
                            });
                        } else {
                            stale += 1;
                        }
                    }
                }
                other => self.dispatch_control(other),
            }
        }

        let n = self.n();
        let mut arrivals = Vec::new();
        let mut selected = Vec::new();
        let mut recovered = 0usize;
        let mut partials: Vec<Option<Vector>> = Vec::with_capacity(submasters);
        for report in &mut reports {
            match report.take() {
                Some(report) => {
                    arrivals.extend_from_slice(&report.arrivals);
                    selected.extend_from_slice(&report.selected);
                    recovered += report.recovered;
                    partials.push(report.partial);
                }
                None => partials.push(None),
            }
        }
        arrivals.sort_unstable();
        let waited = step_start.elapsed();
        Ok(Collected {
            arrivals,
            codewords: vec![None; n],
            declined: Vec::new(),
            stale,
            waited_ms: waited.as_secs_f64() * 1e3,
            duration: waited.as_secs_f64(),
            sharded: Some(ShardedDecode {
                selected,
                recovered,
                partials,
            }),
        })
    }
}

/// Tunables of a sub-master.
#[derive(Debug, Clone)]
pub struct SubmasterOptions {
    /// Backoff for dialing (and re-dialing) the root.
    pub retry: RetryPolicy,
    /// A shard worker silent for longer than this while a step is
    /// collecting is presumed dead for that step.
    pub heartbeat_timeout: Duration,
    /// How long to wait for the shard's workers to register before the
    /// first step.
    pub register_timeout: Duration,
    /// Tenant id stamped on every frame (both toward the root and toward
    /// the shard workers); foreign frames are dropped.
    pub job: u64,
    /// Chaos hook: crash (hard-close every socket, return) upon *receiving*
    /// the `Params` broadcast of this step — mid-step, after the root
    /// committed to this shard's liveness but before any upload.
    pub crash_at_step: Option<u64>,
}

impl Default for SubmasterOptions {
    fn default() -> Self {
        SubmasterOptions {
            retry: RetryPolicy::default(),
            heartbeat_timeout: Duration::from_secs(2),
            register_timeout: Duration::from_secs(30),
            job: 0,
            crash_at_step: None,
        }
    }
}

/// What a sub-master did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmasterSummary {
    /// The shard this sub-master served.
    pub shard: usize,
    /// Steps decoded and uploaded.
    pub steps_served: usize,
    /// Whether a scripted [`SubmasterOptions::crash_at_step`] fired.
    pub crashed: bool,
    /// Whether the root ended the run with a clean `Shutdown` (false when
    /// the root became unreachable or the sub-master crashed).
    pub clean_shutdown: bool,
}

/// A bound sub-master, listening for its shard's workers. Bind first (so
/// the harness can hand workers the address), then [`Submaster::run`].
pub struct Submaster {
    listener: std::net::TcpListener,
}

impl Submaster {
    /// Binds the sub-master's worker-facing listening socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Submaster, NetError> {
        Ok(Submaster {
            listener: std::net::TcpListener::bind(addr)?,
        })
    }

    /// Binds with retries — the restart path after a scripted crash, when
    /// the old socket may still be draining.
    ///
    /// # Errors
    ///
    /// The final bind error once the policy's attempts are exhausted.
    pub fn bind_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: &RetryPolicy,
    ) -> Result<Submaster, NetError> {
        policy.run(0, || Submaster::bind(addr))
    }

    /// The bound worker-facing address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the sub-master for `shard`: registers with the root (SubHello /
    /// ShardAssign), registers its shard's workers, then per step relays
    /// `Params`, collects the shard's codewords, runs the shard-local
    /// decode, and uploads the partial sum. Returns when the root sends
    /// `Shutdown`, becomes unreachable past the retry budget, or a scripted
    /// crash fires.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the root handshake fails outright or the shard's
    /// workers never register.
    pub fn run(
        self,
        root: impl ToSocketAddrs,
        shard: usize,
        options: &SubmasterOptions,
    ) -> Result<SubmasterSummary, NetError> {
        let root_addr = root
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::InvalidConfig("root address resolved to nothing".into()))?;
        let mut root_stream = dial_root(root_addr, shard, options)?;
        let geometry = read_shard_assign(&mut root_stream, shard, options.job)?;
        let placement = Placement::fractional(geometry.n, geometry.c)
            .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        let decoder =
            decoder_for(&placement).map_err(|e| NetError::InvalidConfig(e.to_string()))?;

        // One reactor carries both tiers: the worker-facing listener and
        // the upstream root link share the poll set, so the whole
        // sub-master is a single thread.
        let mut reactor = Reactor::new(Some(self.listener), options.job, None)?;
        let root_token = reactor.register_adopted(root_stream, None)?;

        let mut shard_loop = ShardLoop {
            geometry,
            placement,
            decoder,
            slots: (0..geometry.hi - geometry.lo)
                .map(|_| Slot::empty())
                .collect(),
            owner: HashMap::new(),
            reactor: Box::new(reactor),
            root: root_token,
            root_backlog: VecDeque::new(),
            worker_backlog: VecDeque::new(),
            options: options.clone(),
        };

        let mut summary = SubmasterSummary {
            shard,
            steps_served: 0,
            crashed: false,
            clean_shutdown: false,
        };
        let outcome = shard_loop.serve(root_addr, &mut summary);

        // Teardown: notify the workers, or emulate a killed process (which
        // also hard-closes the root link). The listener dies with the
        // reactor when the loop drops.
        shard_loop.close_workers(summary.crashed);
        outcome.map(|()| summary)
    }
}

/// The geometry the root assigned this sub-master.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardGeometry {
    pub(crate) shard: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) batch_size: usize,
    pub(crate) seed: u64,
}

/// Dials the root and sends `SubHello` under the retry policy.
fn dial_root(
    addr: std::net::SocketAddr,
    shard: usize,
    options: &SubmasterOptions,
) -> Result<TcpStream, NetError> {
    let mut last_err: Option<NetError> = None;
    for attempt in 0..options.retry.max_attempts.max(1) {
        thread::sleep(options.retry.delay(attempt, shard as u64));
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                last_err = Some(NetError::Io(e));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        match write_message_for_job(
            &mut stream,
            options.job,
            &Message::SubHello {
                shard: shard as u64,
            },
        ) {
            Ok(_) => return Ok(stream),
            Err(e) => last_err = Some(NetError::Wire(e)),
        }
    }
    Err(last_err.unwrap_or_else(|| NetError::Protocol("no connect attempts made".into())))
}

/// Reads the `ShardAssign` reply of a `SubHello`.
fn read_shard_assign(
    stream: &mut TcpStream,
    expected_shard: usize,
    job: u64,
) -> Result<ShardGeometry, NetError> {
    match read_message_tagged(stream)? {
        (frame_job, _, _) if frame_job != job => Err(NetError::Protocol(format!(
            "root answered for job {frame_job}, expected {job}"
        ))),
        (
            _,
            Message::ShardAssign {
                shard,
                lo,
                hi,
                n,
                c,
                batch_size,
                seed,
            },
            _,
        ) => {
            if shard as usize != expected_shard {
                return Err(NetError::Protocol(format!(
                    "root assigned shard {shard}, asked for {expected_shard}"
                )));
            }
            Ok(ShardGeometry {
                shard: shard as usize,
                lo: lo as usize,
                hi: hi as usize,
                n: n as usize,
                c: c as usize,
                batch_size: batch_size as usize,
                seed,
            })
        }
        (_, other, _) => Err(NetError::Protocol(format!(
            "expected ShardAssign after SubHello, got {other:?}"
        ))),
    }
}

/// The sub-master's worker-facing state machine: slot `i` holds global
/// worker `lo + i`.
pub(crate) struct ShardLoop {
    geometry: ShardGeometry,
    placement: Placement,
    decoder: Box<dyn Decoder>,
    slots: Vec<Slot>,
    /// Which slot each adopted worker connection feeds.
    owner: HashMap<Token, usize>,
    reactor: Box<dyn Transport>,
    /// The upstream root link's token (replaced on reconnect).
    root: Token,
    /// Root events that landed while a shard step was collecting; replayed
    /// by the serve loop in order — the reactor interleaves both tiers on
    /// one event stream, the old transport kept them on separate sockets.
    root_backlog: VecDeque<NetEvent>,
    /// Worker events that landed between steps; replayed by the next
    /// step's collection loop, exactly when the old per-connection reader
    /// threads' channel would have delivered them.
    worker_backlog: VecDeque<NetEvent>,
    options: SubmasterOptions,
}

impl ShardLoop {
    /// Builds a shard loop with a *virtual* root for the model checker:
    /// the given transport carries only the shard's workers, and the root
    /// link is the never-issued sentinel token `u64::MAX` — the caller
    /// drives [`ShardLoop::serve_step`] directly instead of
    /// [`ShardLoop::serve`], so the upload is returned, not written.
    pub(crate) fn modeled(
        geometry: ShardGeometry,
        options: SubmasterOptions,
        transport: Box<dyn Transport>,
    ) -> Result<ShardLoop, NetError> {
        if geometry.lo >= geometry.hi || geometry.hi > geometry.n {
            return Err(NetError::InvalidConfig(format!(
                "shard range [{}, {}) outside cluster of {}",
                geometry.lo, geometry.hi, geometry.n
            )));
        }
        let placement = Placement::fractional(geometry.n, geometry.c)
            .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        let decoder =
            decoder_for(&placement).map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        Ok(ShardLoop {
            geometry,
            placement,
            decoder,
            slots: (0..geometry.hi - geometry.lo)
                .map(|_| Slot::empty())
                .collect(),
            owner: HashMap::new(),
            reactor: transport,
            root: u64::MAX,
            root_backlog: VecDeque::new(),
            worker_backlog: VecDeque::new(),
            options,
        })
    }

    /// The root-facing loop: serve `Params` steps until shutdown or loss.
    fn serve(
        &mut self,
        root_addr: std::net::SocketAddr,
        summary: &mut SubmasterSummary,
    ) -> Result<(), NetError> {
        self.await_worker_registration()?;
        loop {
            let event = match self.root_backlog.pop_front() {
                Some(event) => event,
                None => match self.reactor.next_event(POLL)? {
                    Some(event) => event,
                    None => continue,
                },
            };
            if event_token(&event) != self.root {
                // A worker (or stale-root) event between steps: buffer it
                // for the next step's collection loop.
                self.worker_backlog.push_back(event);
                continue;
            }
            match event {
                // Root gone: reconnect (it may have restarted) or give up.
                NetEvent::Gone { .. } => match self.reconnect_root(root_addr) {
                    Ok(()) => {}
                    Err(_) => return Ok(()),
                },
                NetEvent::Msg { message, .. } => match message {
                    Message::Shutdown => {
                        summary.clean_shutdown = true;
                        return Ok(());
                    }
                    Message::Params { step, values } => {
                        if self.options.crash_at_step == Some(step) {
                            summary.crashed = true;
                            return Ok(());
                        }
                        let upload = self.serve_step(step, &values);
                        let frame: Arc<[u8]> = upload.encode_for_job(self.options.job).into();
                        self.reactor.send(self.root, frame);
                        if self.reactor.flush_conn(self.root, FLUSH_LIMIT) {
                            summary.steps_served += 1;
                        }
                    }
                    // The root sends nothing else mid-run.
                    _ => {}
                },
                // The root link never carries codewords or idle deadlines.
                _ => {}
            }
        }
    }

    /// Re-dials the root after a lost connection, re-claiming the shard,
    /// and swaps the fresh link into the reactor.
    fn reconnect_root(&mut self, addr: std::net::SocketAddr) -> Result<(), NetError> {
        let mut stream = dial_root(addr, self.geometry.shard, &self.options)?;
        let _ = read_shard_assign(&mut stream, self.geometry.shard, self.options.job)?;
        self.root = self.reactor.register_adopted(stream, None)?;
        Ok(())
    }

    /// Blocks until every shard worker registered.
    pub(crate) fn await_worker_registration(&mut self) -> Result<(), NetError> {
        let deadline = Instant::now() + self.options.register_timeout;
        loop {
            if self.slots.iter().all(|s| s.registered) {
                return Ok(());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                let registered = self.slots.iter().filter(|s| s.registered).count();
                return Err(NetError::Protocol(format!(
                    "shard {} registration timed out with {registered} of {} workers",
                    self.geometry.shard,
                    self.slots.len()
                )));
            };
            if let Some(event) = self.reactor.next_event(remaining.min(POLL))? {
                if event_token(&event) == self.root {
                    self.root_backlog.push_back(event);
                } else {
                    let _ = self.dispatch(event);
                }
            }
        }
    }

    /// The slot an adopted worker connection currently owns.
    fn slot_of(&self, token: Token) -> Option<usize> {
        let id = *self.owner.get(&token)?;
        (self.slots[id].conn == Some(token)).then_some(id)
    }

    /// Handles one worker-tier event; returns `Some((slot, step, values))`
    /// for a codeword (already decoded in place by the reactor).
    fn dispatch(&mut self, event: NetEvent) -> Option<(usize, u64, Vector)> {
        match event {
            NetEvent::Hello { token, preferred } => {
                self.register_worker(token, preferred);
                None
            }
            // A sub-master dialing a sub-master: wrong tier, drop it.
            NetEvent::SubHello { token, .. } => {
                self.reactor.reject(token);
                None
            }
            NetEvent::Gone { token } => {
                if let Some(idx) = self.slot_of(token) {
                    self.slots[idx].alive = false;
                    self.slots[idx].conn = None;
                }
                self.owner.remove(&token);
                None
            }
            NetEvent::HeartbeatTimeout { token } => {
                // Heartbeat silence off the reactor's timer wheel
                // (collection-time liveness); a late message revives.
                if let Some(idx) = self.slot_of(token) {
                    self.slots[idx].alive = false;
                }
                None
            }
            NetEvent::Codeword {
                token,
                step,
                values,
                ..
            } => {
                let idx = self.slot_of(token)?;
                self.slots[idx].alive = true;
                Some((idx, step, values))
            }
            NetEvent::Msg { token, .. } => {
                if let Some(idx) = self.slot_of(token) {
                    self.slots[idx].alive = true;
                }
                None
            }
        }
    }

    /// Registers a shard worker. Global ids are the contract: a worker
    /// claiming id `g` must satisfy `lo <= g < hi`; an id-less worker gets
    /// the first free slot's global id.
    fn register_worker(&mut self, token: Token, preferred: Option<u64>) {
        let (lo, hi) = (self.geometry.lo, self.geometry.hi);
        let slot_idx = match preferred {
            Some(g) if (g as usize) >= lo && (g as usize) < hi => g as usize - lo,
            Some(_) => {
                // Outside this shard: reject.
                self.reactor.reject(token);
                return;
            }
            None => match self.slots.iter().position(|s| !s.registered) {
                Some(free) => free,
                None => match self.slots.iter().position(|s| !s.alive) {
                    Some(dead) => dead,
                    None => {
                        self.reactor.reject(token);
                        return;
                    }
                },
            },
        };
        let global = lo + slot_idx;
        let assign: Arc<[u8]> = Message::Assign {
            worker: global as u64,
            n: self.geometry.n as u64,
            c: self.geometry.c as u64,
            batch_size: self.geometry.batch_size as u64,
            seed: self.geometry.seed,
            partitions: self
                .placement
                .partitions_of(global)
                .iter()
                .map(|&j| j as u64)
                .collect(),
        }
        .encode_for_job(self.options.job)
        .into();
        if !self
            .reactor
            .adopt(token, assign, Some(self.options.heartbeat_timeout))
        {
            return;
        }
        if let Some(old) = self.slots[slot_idx].conn.take() {
            self.owner.remove(&old);
            self.reactor.reject(old);
        }
        let slot = &mut self.slots[slot_idx];
        slot.conn = Some(token);
        slot.registered = true;
        slot.alive = true;
        self.owner.insert(token, slot_idx);
    }

    /// One step: relay `Params`, collect the shard's codewords, decode the
    /// shard's slice of the conflict graph, and build the upload.
    pub(crate) fn serve_step(&mut self, step: u64, values: &[f64]) -> Message {
        let frame: Arc<[u8]> = encode_params_frame(self.options.job, step, values).into();
        let targets: Vec<Token> = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .filter_map(|s| s.conn)
            .collect();
        self.reactor.broadcast(&frame, &targets);

        // Collect until every alive worker that saw the broadcast answered.
        let mut awaited = Awaited::at_broadcast(&self.slots);
        let shard_len = self.slots.len();
        let mut codewords: Vec<Option<Vector>> = vec![None; shard_len];
        while awaited.count() > 0 {
            let event = match self.worker_backlog.pop_front() {
                Some(event) => event,
                None => match self.reactor.next_event(POLL) {
                    Ok(Some(event)) => event,
                    Ok(None) => continue,
                    Err(_) => break,
                },
            };
            if event_token(&event) == self.root {
                // The next Params (or Shutdown) racing this step's tail:
                // the serve loop handles it once this step uploads.
                self.root_backlog.push_back(event);
                continue;
            }
            // A codeword touches its sender's slot only; every other event
            // may have changed liveness anywhere.
            match self.dispatch(event) {
                Some((slot_idx, tagged_step, values)) => {
                    if tagged_step == step && codewords[slot_idx].is_none() {
                        codewords[slot_idx] = Some(values);
                    }
                    let answered = codewords[slot_idx].is_some();
                    awaited.update(slot_idx, &self.slots[slot_idx], answered);
                }
                None => awaited.rescan(&self.slots, |i| codewords[i].is_some()),
            }
        }

        // The shard-local decode: availability over the full worker
        // universe restricted to this shard's arrivals, with the same
        // (seed, step)-derived RNG a flat master uses — the FR decoder's
        // per-group hash then picks exactly the flat representatives.
        let (lo, n) = (self.geometry.lo, self.geometry.n);
        let arrivals: Vec<usize> = (0..shard_len)
            .filter(|&i| codewords[i].is_some())
            .map(|i| lo + i)
            .collect();
        let available = WorkerSet::from_indices(n, arrivals.iter().copied());
        let result = self
            .decoder
            .decode(&available, &mut step_rng(self.geometry.seed, step));
        let mut selected_slots: Vec<Option<Vector>> = vec![None; shard_len];
        for &w in result.selected() {
            selected_slots[w - lo] = codewords[w - lo].take();
        }
        let partial = pairwise_sum(&selected_slots);
        Message::ShardUpload {
            shard: self.geometry.shard as u64,
            step,
            arrivals: arrivals.iter().map(|&w| w as u64).collect(),
            selected: result.selected().iter().map(|&w| w as u64).collect(),
            recovered: result.recovered_count() as u64,
            partial: partial.map(Vector::into_vec).unwrap_or_default(),
        }
    }

    /// Relays shutdown to the shard's workers, or emulates a crash (which
    /// hard-closes every socket, the root link included).
    pub(crate) fn close_workers(&mut self, crashed: bool) {
        if !crashed {
            let frame: Arc<[u8]> = Message::Shutdown.encode_for_job(self.options.job).into();
            let targets: Vec<Token> = self.slots.iter().filter_map(|s| s.conn).collect();
            self.reactor.broadcast(&frame, &targets);
            self.reactor.flush_all(FLUSH_LIMIT);
        } else {
            self.reactor.hard_close_all();
        }
    }
}
