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
//! steps) are set aside and replayed in order.
//!
//! Both loops are instances of the shared `crate::tier`: the root seats
//! sub-masters and collects their uploads; a sub-master's worker side *is*
//! the flat master's worker tier over `[lo, hi)`, waiting for the whole
//! shard — so a shard worker's departure, silence, `Decline` or stale
//! codeword means exactly what it means at a flat master.
//!
//! Determinism: the FR decoder's per-group representative choice is a pure
//! hash of `(step_rng(seed, step), group)`, so a shard decoding only its own
//! groups picks exactly the representatives a flat master would, and the
//! fixed merge order makes the aggregate bitwise identical to flat
//! aggregation (see `isgc-engine::merge`).

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use isgc_core::decode::{decoder_for, Decoder};
use isgc_core::{Placement, Scheme};
use isgc_engine::{
    decode_shard, shard_ranges, Collected, Collector, EngineError, ShardedDecode, StepContext,
};
use isgc_linalg::Vector;

use crate::master::{backend, NetConfig};
use crate::reactor::{NetEvent, Reactor, Token, HANDSHAKE_TIMEOUT};
use crate::retry::RetryPolicy;
use crate::seam::Transport;
use crate::tier::{worker_reply, Frame, Host, Peers, Reply, Tier, POLL};
use crate::wire::{read_message_tagged, write_message_for_job, Message};
use crate::{NetError, WaitPolicy};

/// How long an upload or shutdown flush may pump before giving up on the
/// peer (loopback drains in microseconds; this only bounds a wedged link).
const FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// The root's collector in tree mode: a `Tier` with one slot per
/// sub-master, each delivering a shard's `(arrivals, selection, partial
/// sum)` per step.
pub struct TreeRootLoop {
    tier: Tier,
    host: RootHost,
}

/// What the tree root supplies to its sub-master tier.
struct RootHost {
    config: NetConfig,
    shards: Vec<(usize, usize)>,
}

/// One shard's upload for the step being collected.
struct ShardReport {
    arrivals: Vec<usize>,
    selected: Vec<usize>,
    recovered: usize,
    partial: Option<Vector>,
}

impl Host for RootHost {
    type Answer = ShardReport;

    /// The `ShardAssign` frame for `shard`'s sub-master.
    fn welcome(&self, shard: usize) -> Arc<[u8]> {
        let (lo, hi) = self.shards[shard];
        Message::ShardAssign {
            shard: shard as u64,
            lo: lo as u64,
            hi: hi as u64,
            n: self.config.placement.n() as u64,
            c: self.config.placement.c() as u64,
            batch_size: self.config.batch_size as u64,
            seed: self.config.seed,
        }
        .encode_for_job(self.config.job)
        .into()
    }

    /// Like codewords, the slot is authoritative over the claimed shard
    /// id.
    fn read(&mut self, shard: usize, frame: Frame) -> Reply<ShardReport> {
        match frame {
            Frame::Msg(Message::ShardUpload {
                step,
                arrivals,
                selected,
                recovered,
                partial,
                ..
            }) => Reply::Answer(
                shard,
                step,
                ShardReport {
                    arrivals: arrivals.iter().map(|&w| w as usize).collect(),
                    selected: selected.iter().map(|&w| w as usize).collect(),
                    recovered: recovered as usize,
                    partial: (!partial.is_empty()).then(|| Vector::from_slice(&partial)),
                },
            ),
            _ => Reply::Nothing,
        }
    }
}

impl TreeRootLoop {
    /// Validates the tree geometry and builds the (not yet registered)
    /// root loop over `transport`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad tree geometry (non-power-of-two
    /// shard count, non-FR placement, shard boundary cutting an FR group).
    pub fn new(
        config: NetConfig,
        transport: Box<dyn Transport>,
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
            // No idle deadline: a sub-master is only expected to speak once
            // per step, however long its shard takes.
            tier: Tier::new(Peers::Submasters, 0, submasters, None, transport),
            host: RootHost { config, shards },
        })
    }

    /// Blocks until every shard's sub-master registered (or the
    /// registration deadline passes).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout.
    pub fn await_registration(&mut self) -> Result<(), NetError> {
        let timeout = self.host.config.register_timeout;
        self.tier
            .await_registered(&mut self.host, timeout, "tree registration")
    }

    /// Notifies sub-masters the run is over (they relay to their workers),
    /// or emulates a killed root by hard-closing every socket. A normal
    /// close first drains a step that was broadcast and never gathered.
    pub fn close_peers(&mut self, crashed: bool) {
        let job = self.host.config.job;
        self.tier
            .close(&mut self.host, crashed, job, Duration::from_secs(1));
    }
}

impl Collector for TreeRootLoop {
    fn n(&self) -> usize {
        self.host.config.placement.n()
    }

    /// Liveness at worker granularity: a shard's workers are alive iff the
    /// shard's sub-master connection is. (The Theorem 10/11 bound the
    /// engine checks per step is computed from what actually arrived, so
    /// this coarse view only affects wait targets, never correctness.)
    fn alive(&self) -> Vec<bool> {
        let mut alive = vec![false; self.n()];
        for (shard_alive, &(lo, hi)) in self.tier.alive().zip(&self.host.shards) {
            if shard_alive {
                alive[lo..hi].fill(true);
            }
        }
        alive
    }

    fn broadcast(&mut self, step: u64, params: &Vector) {
        let TreeRootLoop { tier, host } = self;
        // A restarted shard's step membership must depend only on the step
        // its crash was scripted at, never on how fast its restart races
        // the next broadcast. Uploads swallowed meanwhile are not counted.
        let (grace, job) = (host.config.rejoin_grace, host.config.job);
        tier.broadcast_step(host, grace, job, step, params.as_slice());
    }

    fn gather(&mut self, _ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let TreeRootLoop { tier, host } = self;
        // A deadline wait policy caps how long present shards are held up by
        // an absent one. Under FirstW the root waits for every shard that
        // received the broadcast — a crashed shard's EOF unblocks the step
        // immediately.
        let wait = match host.config.wait {
            WaitPolicy::FirstW(_) => WaitPolicy::FirstW(tier.len()),
            deadline @ WaitPolicy::Deadline(_) => deadline,
        };
        let collected = tier.collect(host, wait).map_err(backend)?;
        if collected.arrivals.is_empty() && !tier.alive().any(|alive| alive) {
            return Err(backend(NetError::AllWorkersLost));
        }

        let mut arrivals = Vec::new();
        let mut selected = Vec::new();
        let mut recovered = 0usize;
        let mut partials: Vec<Option<Vector>> = Vec::with_capacity(tier.len());
        for report in collected.answers {
            partials.push(report.and_then(|report| {
                arrivals.extend_from_slice(&report.arrivals);
                selected.extend_from_slice(&report.selected);
                recovered += report.recovered;
                report.partial
            }));
        }
        arrivals.sort_unstable();
        Ok(Collected {
            arrivals,
            codewords: vec![None; host.config.placement.n()],
            declined: Vec::new(),
            stale: collected.stale,
            waited_ms: collected.waited.as_secs_f64() * 1e3,
            duration: collected.waited.as_secs_f64(),
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

        // One reactor carries both tiers: the worker-facing listener and
        // the upstream root link share the poll set, so the whole
        // sub-master is a single thread.
        let reactor = Reactor::new(Some(self.listener), options.job, None)?;
        let mut shard_loop = ShardLoop::new(geometry, options.clone(), Box::new(reactor))?;
        shard_loop.adopt_root(root_stream)?;

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

/// The geometry the root assigns a sub-master (its `ShardAssign`).
#[derive(Debug, Clone, Copy)]
pub struct ShardGeometry {
    /// Shard index in the tree.
    pub shard: usize,
    /// First global worker id owned by the shard (inclusive).
    pub lo: usize,
    /// One past the last global worker id owned by the shard.
    pub hi: usize,
    /// Cluster size.
    pub n: usize,
    /// Copies per worker (FR group size).
    pub c: usize,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// The run's shared seed.
    pub seed: u64,
}

/// Dials the root and sends `SubHello` under the retry policy.
fn dial_root(
    addr: std::net::SocketAddr,
    shard: usize,
    options: &SubmasterOptions,
) -> Result<TcpStream, NetError> {
    options.retry.run(shard as u64, || {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let hello = Message::SubHello {
            shard: shard as u64,
        };
        write_message_for_job(&mut stream, options.job, &hello)?;
        Ok(stream)
    })
}

/// Reads the `ShardAssign` reply of a `SubHello`, waiting no longer than
/// the root gives a silent pending connection. The bound is cleared again
/// before the stream becomes the reactor's (nonblocking) root link.
fn read_shard_assign(
    stream: &mut TcpStream,
    expected_shard: usize,
    job: u64,
) -> Result<ShardGeometry, NetError> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let reply = read_message_tagged(stream)?;
    stream.set_read_timeout(None)?;
    match reply {
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

/// The sub-master's state machine: the flat master's worker `Tier` over
/// `[lo, hi)` — slot `i` holds global worker `lo + i` — plus what is the
/// sub-master's alone: the root link, shard-local decode, and the upload.
pub struct ShardLoop {
    tier: Tier,
    host: ShardHost,
    decoder: Box<dyn Decoder>,
}

/// What a sub-master supplies to its worker tier, and keeps beside it.
struct ShardHost {
    geometry: ShardGeometry,
    placement: Placement,
    options: SubmasterOptions,
    /// The upstream root link's token (replaced on reconnect).
    root: Token,
    /// Root events that landed while a shard step was collecting; replayed
    /// by the serve loop in order — the reactor interleaves both tiers on
    /// one event stream.
    root_backlog: VecDeque<NetEvent>,
    /// Worker events that landed between steps; replayed by the next
    /// step's collection, after its broadcast.
    worker_backlog: VecDeque<NetEvent>,
}

impl Host for ShardHost {
    type Answer = Vector;

    /// Worker events set aside between steps come first; the root's (the
    /// next `Params` or `Shutdown` racing this step's tail) are kept for
    /// the serve loop, which handles them once this step uploads.
    fn next_event(
        &mut self,
        transport: &mut dyn Transport,
        timeout: Duration,
    ) -> Result<Option<NetEvent>, NetError> {
        let event = match self.worker_backlog.pop_front() {
            Some(event) => Some(event),
            None => transport.next_event(timeout)?,
        };
        match event {
            Some(event) if event.token() == self.root => {
                self.root_backlog.push_back(event);
                Ok(None)
            }
            event => Ok(event),
        }
    }

    /// The `Assign` frame for the shard's `slot`. Global ids are the
    /// contract: the worker is told (and partitions are looked up by)
    /// `lo + slot`.
    fn welcome(&self, slot: usize) -> Arc<[u8]> {
        let global = self.geometry.lo + slot;
        Message::Assign {
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
        .into()
    }

    fn read(&mut self, slot: usize, frame: Frame) -> Reply<Vector> {
        worker_reply(slot, frame)
    }
}

impl ShardLoop {
    /// Builds the (not yet registered) shard loop over `transport`, which
    /// carries the shard's workers. Until a root link is adopted the root
    /// is *virtual* — the never-issued token `u64::MAX`: the model checker
    /// adopts none and drives [`ShardLoop::serve_step`] directly instead of
    /// the root-facing serve loop, so the upload is returned, not written.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] when the geometry does not form a valid
    /// FR placement.
    pub fn new(
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
            tier: Tier::new(
                Peers::Workers,
                geometry.lo,
                geometry.hi - geometry.lo,
                Some(options.heartbeat_timeout),
                transport,
            ),
            host: ShardHost {
                geometry,
                placement,
                options,
                root: u64::MAX,
                root_backlog: VecDeque::new(),
                worker_backlog: VecDeque::new(),
            },
            decoder,
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
            let event = match self.host.root_backlog.pop_front() {
                Some(event) => event,
                None => match self.tier.transport().next_event(POLL)? {
                    Some(event) => event,
                    None => continue,
                },
            };
            if event.token() != self.host.root {
                // A worker (or stale-root) event between steps: set it
                // aside for the next step's collection.
                self.host.worker_backlog.push_back(event);
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
                        if self.host.options.crash_at_step == Some(step) {
                            summary.crashed = true;
                            return Ok(());
                        }
                        let upload = self.serve_step(step, &values)?;
                        let frame: Arc<[u8]> = upload.encode_for_job(self.host.options.job).into();
                        let root = self.host.root;
                        self.tier.transport().send(root, frame);
                        if self.tier.transport().flush_conn(root, FLUSH_LIMIT) {
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

    /// Makes the handshaked `stream` the root link, in the same reactor
    /// that carries the workers.
    fn adopt_root(&mut self, stream: TcpStream) -> Result<(), NetError> {
        self.host.root = self.tier.transport().register_adopted(stream, None)?;
        Ok(())
    }

    /// Re-dials the root after a lost connection, re-claiming the shard,
    /// and swaps the fresh link into the reactor.
    fn reconnect_root(&mut self, addr: std::net::SocketAddr) -> Result<(), NetError> {
        let (shard, options) = (self.host.geometry.shard, &self.host.options);
        let mut stream = dial_root(addr, shard, options)?;
        let _ = read_shard_assign(&mut stream, shard, options.job)?;
        self.adopt_root(stream)
    }

    /// Blocks until every shard worker registered.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout.
    pub fn await_worker_registration(&mut self) -> Result<(), NetError> {
        let timeout = self.host.options.register_timeout;
        let what = format!("shard {} registration", self.host.geometry.shard);
        self.tier.await_registered(&mut self.host, timeout, &what)
    }

    /// One step: relay `Params`, collect from every shard worker that saw
    /// the relay until each has answered, declined, or been lost, decode
    /// the shard's slice of the conflict graph, and build the
    /// [`Message::ShardUpload`] a sub-master writes to the root.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn serve_step(&mut self, step: u64, values: &[f64]) -> Result<Message, NetError> {
        let ShardLoop {
            tier,
            host,
            decoder,
        } = self;
        // A shard grants no rejoin grace: a worker that left between steps
        // is not waited for.
        tier.broadcast_step(host, Duration::ZERO, host.options.job, step, values);
        let mut collected = tier.collect(host, WaitPolicy::FirstW(tier.len()))?;

        let ShardGeometry { lo, hi, .. } = host.geometry;
        let arrivals: Vec<usize> = (lo..hi)
            .filter(|&w| collected.answers[w - lo].is_some())
            .collect();
        let seed_step = (host.geometry.seed, step);
        let decoded = decode_shard(
            decoder.as_ref(),
            host.geometry.n,
            (lo, hi),
            &arrivals,
            seed_step,
            |w| {
                collected.answers[w - lo]
                    .take()
                    .expect("the decoder selects among arrivals")
            },
        );
        Ok(Message::ShardUpload {
            shard: host.geometry.shard as u64,
            step,
            arrivals: arrivals.iter().map(|&w| w as u64).collect(),
            selected: decoded.selected.iter().map(|&w| w as u64).collect(),
            recovered: decoded.recovered as u64,
            partial: decoded.partial.map(Vector::into_vec).unwrap_or_default(),
        })
    }

    /// Relays shutdown to the shard's workers, or emulates a crash (which
    /// hard-closes every socket, the root link included).
    pub fn close_workers(&mut self, crashed: bool) {
        let job = self.host.options.job;
        self.tier.close(&mut self.host, crashed, job, FLUSH_LIMIT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_root_that_accepts_and_stays_silent_fails_the_handshake() {
        let root = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = root.local_addr().expect("local addr");
        // Accepts, swallows the SubHello, and never answers; ends when the
        // sub-master hangs up.
        let silent = std::thread::spawn(move || {
            let (mut stream, _) = root.accept().expect("the sub-master dials in");
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        });
        let options = SubmasterOptions {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..SubmasterOptions::default()
        };
        let submaster = Submaster::bind("127.0.0.1:0").expect("bind loopback");
        let (tx, rx) = std::sync::mpsc::channel();
        let dialer = std::thread::spawn(move || {
            let _ = tx.send(submaster.run(addr, 0, &options).map(|_| ()));
        });
        let outcome = rx
            .recv_timeout(HANDSHAKE_TIMEOUT * 4)
            .expect("the sub-master hung on a silent root");
        assert!(matches!(outcome, Err(NetError::Wire(_))), "{outcome:?}");
        dialer.join().expect("dialer thread");
        silent.join().expect("silent root thread");
    }
}
