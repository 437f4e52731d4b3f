//! A hand-rolled nonblocking reactor: one thread multiplexing readiness
//! over every master-side socket.
//!
//! The previous transport spawned two threads per connection (a handshake
//! thread plus a long-lived reader), capping a master at tens of workers
//! before context-switch and stack overhead dominate. This module replaces all of
//! it with a single event loop in the style of DSLab's event-driven
//! executor: sockets are switched to nonblocking mode, `poll(2)` reports
//! readiness, and the reactor owns
//!
//! - **registration**: the listener is just another pollable; fresh
//!   connections sit in a `Pending` phase until their `Hello` arrives (job-tag-checked at the door), then the owning state machine
//!   adopts or rejects them;
//! - **read interest + reassembly**: each connection keeps a
//!   [`FrameAssembler`] so a frame split across arbitrarily many readiness
//!   events decodes byte-identically; a read costs the bytes that arrived
//!   (the assembler's tail is zero-filled when it grows, not per call, and
//!   an idle connection holds 4 KiB of it); a `Codeword` payload is parsed
//!   in that buffer and its values decoded in one bulk pass into the
//!   [`isgc_linalg::Vector`] the engine sums — no `Message` is built for it;
//! - **write interest + pooled broadcast**: outbound frames are
//!   reference-counted `Arc<[u8]>` slices shared across per-connection
//!   write queues, with partial writes resumed on the next `POLLOUT`;
//! - **timers**: a bucketed tick-based [`TimerWheel`] drives per-connection
//!   heartbeat deadlines and handshake timeouts, so liveness is a logical
//!   clock decision instead of a race between wall-clock thread sleeps; a
//!   read only moves the connection's deadline, and its single wheel entry
//!   is re-filed when it comes due early;
//! - **a drained event queue**: readiness is translated into [`NetEvent`]s
//!   consumed one at a time by the single-threaded master state machine
//!   ([`crate::master::MasterLoop`](crate::master)).
//!
//! Liveness decisions, slot assignment, and step semantics stay in the
//! owning loop; the reactor only moves bytes and fires deadlines. All
//! `net.reactor.*` metric series are [`isgc_obs::Class::Timing`], so golden
//! logical snapshots are untouched by the transport swap.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;
use isgc_obs::Registry;

use crate::seam::Transport;
use crate::wire::{CodewordView, FrameAssembler, Message};
use crate::NetError;

/// Identity of one connection for its whole life. Tokens are never reused,
/// so an event from a replaced connection can always be told apart from the
/// current one (the role epochs played under the thread-per-connection
/// transport).
pub type Token = u64;

/// Logical timer granularity. Deadlines are quantized to ticks of this
/// size; anything finer would be noise next to the masters' 20 ms poll
/// cadence.
const TICK: Duration = Duration::from_millis(5);

/// Slots in the timer wheel; deadlines further out than one rotation just
/// survive extra sweeps (hashed-wheel style).
const WHEEL_SLOTS: usize = 512;

/// How long a pending connection may sit without completing its handshake
/// before the reactor drops it (the old handshake threads' read timeout),
/// and how long a dialing worker waits for the answer to its introduction.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the transport tells the owning state machine. Public because the
/// model checker's virtual network (`isgc-mc`) synthesizes these events
/// directly through the [`crate::seam::Transport`] seam.
#[derive(Debug)]
pub enum NetEvent {
    /// A pending connection introduced itself as a worker.
    Hello {
        /// The introducing connection.
        token: Token,
        /// The worker slot the peer claims, if it has one.
        preferred: Option<u64>,
    },
    /// An adopted connection produced a message of `bytes` wire bytes.
    Msg {
        /// The connection that produced the frame.
        token: Token,
        /// The decoded message.
        message: Message,
        /// Wire bytes consumed by the frame (for byte counters).
        bytes: usize,
    },
    /// An adopted connection produced a codeword, decoded in one pass from
    /// the reassembly buffer through a `CodewordView` — `Message::Codeword`
    /// never materializes.
    Codeword {
        /// The connection that produced the codeword.
        token: Token,
        /// The step the codeword is tagged for.
        step: u64,
        /// The codeword payload.
        values: Vector,
        /// Wire bytes consumed by the frame (for byte counters).
        bytes: usize,
    },
    /// An adopted connection passed its idle deadline on the logical timer
    /// wheel without producing a byte. The connection stays open — the
    /// owner decides what silence means — and the deadline re-arms.
    HeartbeatTimeout {
        /// The silent connection.
        token: Token,
    },
    /// An adopted connection is gone (EOF, reset, write failure, or a
    /// malformed frame) and has been deregistered.
    Gone {
        /// The departed connection.
        token: Token,
    },
}

impl NetEvent {
    /// The connection the event came from.
    pub fn token(&self) -> Token {
        match self {
            NetEvent::Hello { token, .. }
            | NetEvent::Msg { token, .. }
            | NetEvent::Codeword { token, .. }
            | NetEvent::HeartbeatTimeout { token }
            | NetEvent::Gone { token } => *token,
        }
    }
}

/// Connection lifecycle phase.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Phase {
    /// Accepted, but the introduction frame has not been processed yet.
    Pending,
    /// Owned by a slot of the state machine; full message flow.
    Adopted,
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Partial-frame reassembly across readiness events.
    assembler: FrameAssembler,
    /// Outbound frames (shared broadcast buffers) with a resume offset
    /// into the front frame.
    out: VecDeque<(Arc<[u8]>, usize)>,
    /// Idle timeout re-armed on every inbound byte; `None` disables
    /// silence detection (a swarm member's link).
    idle: Option<Duration>,
    /// The handshake or idle deadline and its one wheel entry.
    deadline: Deadline,
    /// A pending connection that already emitted its introduction stops
    /// parsing until adopted.
    introduced: bool,
}

/// What parsing a connection's buffered bytes concluded.
enum Parsed {
    /// Keep the connection.
    Keep,
    /// Drop it (malformed frame, wrong introduction, foreign handshake).
    Fatal,
}

/// A bucketed logical-time wheel: `schedule` files `(token, deadline)`
/// entries under `deadline % slots`, `advance_to` sweeps the ticks since
/// the last advance and yields every entry now due. Entries are never
/// removed early; a connection's [`Deadline`] decides what a fired entry
/// means, and keeps the wheel to one live entry per connection. Pure tick
/// arithmetic, no clocks: unit tests drive it deterministically (see
/// below), production maps wall time to ticks once per poll.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(Token, u64)>>,
    now: u64,
}

impl TimerWheel {
    pub(crate) fn new(slots: usize) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            now: 0,
        }
    }

    /// The last tick `advance_to` reached.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Files an entry due at `deadline` (clamped to the future: entries at
    /// or before the current tick fire on the next advance).
    pub(crate) fn schedule(&mut self, token: Token, deadline: u64) {
        let deadline = deadline.max(self.now + 1);
        let slot = (deadline % self.slots.len() as u64) as usize;
        self.slots[slot].push((token, deadline));
    }

    /// Advances logical time to `tick`, returning every `(token, deadline)`
    /// entry that came due. A jump of a full rotation or more sweeps each
    /// bucket exactly once.
    pub(crate) fn advance_to(&mut self, tick: u64) -> Vec<(Token, u64)> {
        let mut due = Vec::new();
        if tick <= self.now {
            return due;
        }
        let len = self.slots.len() as u64;
        if tick - self.now >= len {
            for bucket in &mut self.slots {
                bucket.retain(|&(token, deadline)| {
                    if deadline <= tick {
                        due.push((token, deadline));
                        false
                    } else {
                        true
                    }
                });
            }
        } else {
            for t in self.now + 1..=tick {
                let slot = (t % len) as usize;
                self.slots[slot].retain(|&(token, deadline)| {
                    if deadline <= tick {
                        due.push((token, deadline));
                        false
                    } else {
                        true
                    }
                });
            }
        }
        self.now = tick;
        due
    }
}

/// One connection's deadline, re-armed lazily: activity only moves `at`,
/// and the wheel holds a single entry per connection (at `filed`) that is
/// re-filed at `at` if it comes due early. Re-arming on every read would
/// instead leave one dead entry per frame in the wheel until its tick —
/// at 300 workers and 370 steps/s, 220 k of them inside a 2 s timeout.
#[derive(Debug, Default)]
struct Deadline {
    /// The tick the connection times out at.
    at: u64,
    /// The tick of the live wheel entry, if one is filed.
    filed: Option<u64>,
}

impl Deadline {
    /// Moves the deadline to `at`, filing a wheel entry only when none is
    /// live or the live one would fire too late (adopting a connection
    /// whose handshake deadline lies beyond its first idle deadline).
    fn arm(&mut self, wheel: &mut TimerWheel, token: Token, at: u64) {
        self.at = at;
        if self.filed.is_none_or(|filed| at < filed) {
            wheel.schedule(token, at);
            self.filed = Some(at);
        }
    }

    /// Whether the entry `fired` (as `advance_to(now)` returned it) means
    /// the deadline has passed. It does not when an earlier entry replaced
    /// it, or when activity moved the deadline past `now` — then the entry
    /// is re-filed there. After `true` nothing is filed until the next
    /// [`Deadline::arm`].
    fn expired(&mut self, wheel: &mut TimerWheel, token: Token, fired: u64, now: u64) -> bool {
        if self.filed != Some(fired) {
            return false;
        }
        if self.at > now {
            wheel.schedule(token, self.at);
            self.filed = Some(self.at);
            return false;
        }
        self.filed = None;
        true
    }
}

/// The readiness syscall, gated per platform. On Linux this is a direct
/// `poll(2)` binding — std already links libc, so no new dependency — and
/// the only `unsafe` in the crate. Elsewhere a portable fallback marks
/// every descriptor ready and lets the nonblocking reads/writes sort out
/// who actually had data (correct, just busier).
#[cfg(target_os = "linux")]
mod sys {
    #![allow(unsafe_code)]

    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// Mirror of `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until a descriptor is ready or `timeout` passes; returns how
    /// many descriptors have nonzero `revents`. `EINTR` reads as a timeout.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        if fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(0);
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // pollfd structs and `nfds` is exactly its length; the kernel
        // writes only the `revents` fields within the slice.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// Fallback stand-in for `struct pollfd`; `fd` is unused because the
    /// sweep never enters the kernel.
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Portable readiness sweep: report everything as ready after a short
    /// sleep; the nonblocking I/O attempts that follow are the real test.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;

/// Raw descriptor for the poll set; a constant placeholder on platforms
/// using the readiness sweep (which never dereferences it).
#[cfg(target_os = "linux")]
fn raw_fd(stream: &impl AsRawFd) -> i32 {
    stream.as_raw_fd()
}

#[cfg(not(target_os = "linux"))]
fn raw_fd<T>(_stream: &T) -> i32 {
    -1
}

/// The master-side event loop. One instance per master; the worker session
/// loop (`crate::swarm`) reuses it listener-less for its outbound
/// connections.
pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    conns: BTreeMap<Token, Conn>,
    next_token: Token,
    events: VecDeque<NetEvent>,
    wheel: TimerWheel,
    base: Instant,
    job: u64,
    metrics: Option<Registry>,
}

impl Reactor {
    /// Builds a reactor around an (optional) listening socket, switching it
    /// to nonblocking mode.
    pub(crate) fn new(
        listener: Option<TcpListener>,
        job: u64,
        metrics: Option<Registry>,
    ) -> Result<Reactor, NetError> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        Ok(Reactor {
            listener,
            conns: BTreeMap::new(),
            next_token: 1,
            events: VecDeque::new(),
            wheel: TimerWheel::new(WHEEL_SLOTS),
            base: Instant::now(),
            job,
            metrics,
        })
    }

    /// Registers an already-handshaked outbound stream as an adopted
    /// connection: a swarm member.
    ///
    /// # Errors
    ///
    /// Propagates the switch to nonblocking mode.
    pub(crate) fn register_adopted(
        &mut self,
        stream: TcpStream,
        idle: Option<Duration>,
    ) -> Result<Token, NetError> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        let token = self.insert(stream, Phase::Adopted, idle);
        self.arm_idle(token);
        Ok(token)
    }
}

/// The production [`Transport`]: real nonblocking sockets.
impl Transport for Reactor {
    /// Pumps the poll loop for up to `timeout` when the queue is empty.
    fn next_event(&mut self, timeout: Duration) -> Result<Option<NetEvent>, NetError> {
        if let Some(event) = self.events.pop_front() {
            return Ok(Some(event));
        }
        self.pump(timeout)?;
        Ok(self.events.pop_front())
    }

    /// Also parses any frames the peer optimistically sent after its
    /// introduction.
    fn adopt(&mut self, token: Token, first: Arc<[u8]>, idle: Option<Duration>) -> bool {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            conn.phase = Phase::Adopted;
            conn.idle = idle;
            conn.introduced = true;
        }
        self.arm_idle(token);
        self.send(token, first);
        if !self.conns.contains_key(&token) {
            return false;
        }
        self.parse_conn(token);
        self.conns.contains_key(&token)
    }

    fn reject(&mut self, token: Token) {
        self.remove(token);
    }

    /// Flushes as much as the socket accepts right now; the remainder rides
    /// on write readiness.
    fn send(&mut self, token: Token, frame: Arc<[u8]>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.push_back((frame, 0));
        if flush_out(conn, &self.metrics).is_err() {
            self.drop_conn(token);
        }
    }

    /// The pooled broadcast path: a single encode, `Arc` clones instead of
    /// buffer copies, per-peer resume offsets.
    fn broadcast(&mut self, frame: &Arc<[u8]>, targets: &[Token]) {
        for &token in targets {
            self.send(token, Arc::clone(frame));
        }
    }

    /// The graceful-teardown flush behind a `Shutdown` broadcast.
    fn flush_all(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.conns.values().any(|c| !c.out.is_empty()) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            if self.pump(remaining.min(TICK)).is_err() {
                return;
            }
        }
    }

    /// Hard-closes every socket (pending and adopted), drops unsent frames,
    /// and closes the listener.
    fn hard_close_all(&mut self) {
        for conn in self.conns.values() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.conns.clear();
        self.listener = None;
        self.gauge_conns();
    }
}

impl Reactor {
    /// Pops an event an earlier poll already queued, never polling itself:
    /// the worker session loop drains these before it answers any of them.
    pub(crate) fn queued_event(&mut self) -> Option<NetEvent> {
        self.events.pop_front()
    }

    /// One poll cycle: wait for readiness (or `timeout`), fire due timers,
    /// then drain every ready descriptor into the event queue.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        let has_listener = self.listener.is_some();
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        let mut tokens = Vec::with_capacity(self.conns.len());
        if let Some(listener) = &self.listener {
            fds.push(sys::PollFd {
                fd: raw_fd(listener),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        for (&token, conn) in &self.conns {
            let mut interest = sys::POLLIN;
            if !conn.out.is_empty() {
                interest |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: raw_fd(&conn.stream),
                events: interest,
                revents: 0,
            });
            tokens.push(token);
        }
        let ready = sys::wait(&mut fds, timeout)?;
        self.count(crate::metrics::REACTOR_WAKEUPS_TOTAL, 1);
        // Readiness is handled *before* timers fire: a read re-arms the
        // connection's idle deadline, so a peer whose heartbeats sat in
        // the kernel buffer while the owning loop was busy elsewhere is
        // not "silent" — exactly the judgment the per-connection reader
        // threads used to make. Only a peer with nothing to read when its
        // deadline passes times out.
        if ready > 0 {
            self.count(crate::metrics::REACTOR_READY_EVENTS_TOTAL, ready as u64);
            let base = usize::from(has_listener);
            if has_listener && fds[0].revents != 0 {
                self.accept_ready();
            }
            for (i, token) in tokens.into_iter().enumerate() {
                let revents = fds[base + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                    self.read_ready(token);
                }
                if revents & sys::POLLOUT != 0 {
                    self.write_ready(token);
                }
            }
        }
        self.fire_timers();
        Ok(())
    }

    /// Accepts every connection the listener has queued.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.insert(stream, Phase::Pending, None);
                    let at = self.wheel.now() + ticks(HANDSHAKE_TIMEOUT);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.deadline.arm(&mut self.wheel, token, at);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads a connection to exhaustion, parsing frames as they complete.
    fn read_ready(&mut self, token: Token) {
        let mut read_any = false;
        let mut eof = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // A pending peer that already introduced itself stays buffered
            // until the state machine adopts (or rejects) it.
            if conn.phase == Phase::Pending && conn.introduced {
                return;
            }
            match conn.assembler.fill_from(&mut conn.stream) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(_) => {
                    read_any = true;
                    self.parse_conn(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if read_any {
            self.arm_idle(token);
        }
        if eof {
            self.drop_conn(token);
        }
    }

    /// Parses whatever complete frames `token`'s assembler holds.
    fn parse_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match parse_frames(token, conn, &mut self.events, self.job) {
            Parsed::Keep => {}
            Parsed::Fatal => self.drop_conn(token),
        }
    }

    /// Drains a connection's write queue after write readiness.
    fn write_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if flush_out(conn, &self.metrics).is_err() {
            self.drop_conn(token);
        }
    }

    /// Advances the wheel to the current logical tick and translates due
    /// entries: pending connections past their handshake deadline are
    /// dropped, silent adopted ones get a [`NetEvent::HeartbeatTimeout`]
    /// and a re-armed deadline; an entry that activity overtook is re-filed
    /// at the connection's current deadline.
    fn fire_timers(&mut self) {
        let now = self.tick_now();
        let due = self.wheel.advance_to(now);
        let mut fired = 0u64;
        let mut handshake_expired: Vec<Token> = Vec::new();
        for (token, deadline) in due {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if !conn.deadline.expired(&mut self.wheel, token, deadline, now) {
                continue;
            }
            fired += 1;
            match conn.phase {
                // Handshake too slow: not one of ours; drop silently.
                Phase::Pending => handshake_expired.push(token),
                Phase::Adopted => {
                    if let Some(idle) = conn.idle {
                        conn.deadline.arm(&mut self.wheel, token, now + ticks(idle));
                        self.events.push_back(NetEvent::HeartbeatTimeout { token });
                    }
                }
            }
        }
        for token in handshake_expired {
            self.remove(token);
        }
        if fired > 0 {
            self.count(crate::metrics::REACTOR_TIMER_FIRES_TOTAL, fired);
        }
    }

    /// Moves `token`'s idle deadline off the logical clock (called after
    /// every readiness event that delivered bytes).
    fn arm_idle(&mut self, token: Token) {
        let now = self.wheel.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some(idle) = conn.idle else {
            return;
        };
        conn.deadline.arm(&mut self.wheel, token, now + ticks(idle));
    }

    /// The current logical tick (wall clock quantized once per poll).
    fn tick_now(&self) -> u64 {
        (self.base.elapsed().as_millis() / TICK.as_millis()) as u64
    }

    fn insert(&mut self, stream: TcpStream, phase: Phase, idle: Option<Duration>) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn {
                stream,
                phase,
                assembler: FrameAssembler::new(),
                out: VecDeque::new(),
                idle,
                deadline: Deadline::default(),
                introduced: false,
            },
        );
        self.gauge_conns();
        token
    }

    /// Deregisters a connection, emitting `Gone` when the owner had it.
    fn drop_conn(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.phase == Phase::Adopted {
                self.events.push_back(NetEvent::Gone { token });
            }
            self.gauge_conns();
        }
    }

    /// Silently deregisters (replaced connections, rejections).
    fn remove(&mut self, token: Token) {
        self.conns.remove(&token);
        self.gauge_conns();
    }

    fn count(&self, name: &str, by: u64) {
        if let Some(registry) = &self.metrics {
            registry.inc_by(name, &[], isgc_obs::Class::Timing, by);
        }
    }

    fn gauge_conns(&self) {
        if let Some(registry) = &self.metrics {
            registry.set_gauge(
                crate::metrics::REACTOR_CONNECTIONS,
                &[],
                isgc_obs::Class::Timing,
                self.conns.len() as f64,
            );
        }
    }
}

/// Duration → whole ticks, at least one.
fn ticks(d: Duration) -> u64 {
    (d.as_millis().div_ceil(TICK.as_millis())).max(1) as u64
}

/// Writes as much of `conn`'s queue as the socket accepts. `Err` means the
/// connection is dead.
fn flush_out(conn: &mut Conn, metrics: &Option<Registry>) -> Result<(), ()> {
    while let Some((frame, offset)) = conn.out.front_mut() {
        match conn.stream.write(&frame[*offset..]) {
            Ok(0) => return Err(()),
            Ok(k) => {
                *offset += k;
                if *offset == frame.len() {
                    let bytes = frame.len() as u64;
                    conn.out.pop_front();
                    if let Some(registry) = metrics {
                        use isgc_obs::Class::Timing;
                        registry.inc(crate::metrics::FRAMES_SENT_TOTAL, &[], Timing);
                        registry.inc_by(crate::metrics::BYTES_SENT_TOTAL, &[], Timing, bytes);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(registry) = metrics {
                    registry.inc(
                        crate::metrics::REACTOR_PARTIAL_WRITES_TOTAL,
                        &[],
                        isgc_obs::Class::Timing,
                    );
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// Turns `conn`'s buffered bytes into events. Pending connections yield
/// exactly one introduction (job-checked at the door); adopted ones yield
/// the full message flow with codewords decoded in place.
fn parse_frames(
    token: Token,
    conn: &mut Conn,
    events: &mut VecDeque<NetEvent>,
    job: u64,
) -> Parsed {
    loop {
        if conn.phase == Phase::Pending && conn.introduced {
            return Parsed::Keep;
        }
        let phase = conn.phase;
        let frame = match conn.assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Parsed::Keep,
            Err(_) => return Parsed::Fatal,
        };
        match phase {
            Phase::Pending => {
                if frame.job != job {
                    // Tagged for a foreign tenant: not one of ours.
                    return Parsed::Fatal;
                }
                match frame.message() {
                    Ok(Message::Hello { preferred }) => {
                        conn.introduced = true;
                        events.push_back(NetEvent::Hello { token, preferred });
                    }
                    _ => return Parsed::Fatal,
                }
            }
            Phase::Adopted => {
                if frame.job != job {
                    continue; // foreign tenant frame: discard, keep reading
                }
                let bytes = frame.wire_len;
                match CodewordView::parse(frame.payload) {
                    Some(Ok(view)) => {
                        let values = Vector::from(view.to_vec());
                        events.push_back(NetEvent::Codeword {
                            token,
                            step: view.step,
                            values,
                            bytes,
                        });
                    }
                    Some(Err(_)) => return Parsed::Fatal,
                    None => match frame.message() {
                        Ok(message) => events.push_back(NetEvent::Msg {
                            token,
                            message,
                            bytes,
                        }),
                        Err(_) => return Parsed::Fatal,
                    },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TimerWheel {
        /// Entries filed and not yet due.
        fn len(&self) -> usize {
            self.slots.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn wheel_fires_exactly_at_the_deadline_tick() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(1, 5);
        assert!(wheel.advance_to(4).is_empty());
        assert_eq!(wheel.advance_to(5), vec![(1, 5)]);
        assert!(wheel.advance_to(100).is_empty());
    }

    #[test]
    fn wheel_survives_rotation_wraparound() {
        // Deadline more than one rotation out must not fire early when its
        // bucket is swept on an earlier pass.
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(7, 9); // bucket 1, more than two rotations of 4
        assert!(wheel.advance_to(5).is_empty()); // sweeps bucket 1 at t=5
        assert_eq!(wheel.advance_to(9), vec![(7, 9)]);
    }

    #[test]
    fn wheel_handles_large_jumps_and_reentry() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(1, 2);
        wheel.schedule(2, 1000);
        // A jump far past both deadlines (≥ one rotation) fires both.
        let mut due = wheel.advance_to(5000);
        due.sort_unstable();
        assert_eq!(due, vec![(1, 2), (2, 1000)]);
        // Re-arming after the jump still works.
        wheel.schedule(3, 5002);
        assert_eq!(wheel.advance_to(5002), vec![(3, 5002)]);
        assert_eq!(wheel.now(), 5002);
    }

    #[test]
    fn wheel_lazy_cancellation_is_the_callers_contract() {
        // Two entries for one token: the reactor keeps only the newest
        // deadline and ignores the stale firing — both entries surface.
        let mut wheel = TimerWheel::new(16);
        wheel.schedule(1, 3);
        wheel.schedule(1, 6); // re-armed
        assert_eq!(wheel.advance_to(3), vec![(1, 3)]); // stale, caller skips
        assert_eq!(wheel.advance_to(6), vec![(1, 6)]);
    }

    #[test]
    fn rearming_keeps_one_wheel_entry_and_times_out_on_the_same_tick() {
        // A peer that sends 10,000 frames over ticks 0..100 and then goes
        // silent, 400-tick idle timeout: one entry in the wheel throughout,
        // and the timeout lands on last read + 400, where an entry filed by
        // that last read would have fired.
        let (token, idle) = (7, 400);
        let mut wheel = TimerWheel::new(WHEEL_SLOTS);
        let mut deadline = Deadline::default();
        for read in 0..10_000u64 {
            let now = read / 100;
            assert!(wheel.advance_to(now).is_empty());
            deadline.arm(&mut wheel, token, now + idle);
            assert_eq!(wheel.len(), 1, "after read {read}");
        }
        let expected = 99 + idle;
        let mut timed_out_at = Vec::new();
        for now in 100..=expected + 5 {
            for (t, fired) in wheel.advance_to(now) {
                if deadline.expired(&mut wheel, t, fired, now) {
                    timed_out_at.push(now);
                } else {
                    assert_eq!(wheel.len(), 1, "the early entry is re-filed");
                }
            }
        }
        assert_eq!(timed_out_at, vec![expected]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn adoption_moves_the_deadline_either_side_of_the_handshake_entry() {
        // Idle deadline before the handshake entry: a second entry is filed
        // so the timeout is not late, and the handshake entry goes stale.
        let mut wheel = TimerWheel::new(WHEEL_SLOTS);
        let mut deadline = Deadline::default();
        deadline.arm(&mut wheel, 1, 1000);
        deadline.arm(&mut wheel, 1, 410);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.advance_to(410), vec![(1, 410)]);
        assert!(deadline.expired(&mut wheel, 1, 410, 410));
        deadline.arm(&mut wheel, 1, 810);
        assert_eq!(wheel.advance_to(1000), vec![(1, 810), (1, 1000)]);
        assert!(deadline.expired(&mut wheel, 1, 810, 1000));
        assert!(!deadline.expired(&mut wheel, 1, 1000, 1000));
        assert_eq!(wheel.len(), 0, "a stale entry is not re-filed");

        // Idle deadline after it: the handshake entry is reused.
        let mut wheel = TimerWheel::new(WHEEL_SLOTS);
        let mut deadline = Deadline::default();
        deadline.arm(&mut wheel, 2, 1000);
        deadline.arm(&mut wheel, 2, 2010);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.advance_to(1000), vec![(2, 1000)]);
        assert!(!deadline.expired(&mut wheel, 2, 1000, 1000));
        assert_eq!(wheel.advance_to(2010), vec![(2, 2010)]);
        assert!(deadline.expired(&mut wheel, 2, 2010, 2010));
    }

    /// Pumps `reactor` until an event arrives (or two seconds pass).
    fn wait_event(reactor: &mut Reactor) -> NetEvent {
        let give_up = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(event) = reactor.next_event(TICK).expect("poll") {
                return event;
            }
            assert!(Instant::now() < give_up, "no event within 2 s");
        }
    }

    #[test]
    fn codeword_then_close_delivers_codeword_before_gone() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut reactor = Reactor::new(Some(listener), 3, None).expect("reactor");

        // The peer introduces itself, uploads one codeword and is gone
        // before the reactor has read a byte of either frame.
        let codeword = Message::Codeword {
            worker: 0,
            step: 5,
            values: vec![1.5, -2.0, 0.25],
        };
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&Message::Hello { preferred: None }.encode_for_job(3))
            .expect("hello");
        peer.write_all(&codeword.encode_for_job(3))
            .expect("codeword");
        drop(peer);

        let NetEvent::Hello { token, .. } = wait_event(&mut reactor) else {
            panic!("expected Hello first");
        };
        let first: Arc<[u8]> = Message::Shutdown.encode_for_job(3).into();
        // The peer's close may already have been read, in which case the
        // connection is gone by the time `adopt` returns; either way the
        // codeword is queued ahead of the departure.
        let _ = reactor.adopt(token, first, Some(Duration::from_secs(2)));
        match wait_event(&mut reactor) {
            NetEvent::Codeword {
                token: t,
                step,
                values,
                bytes,
            } => {
                assert_eq!((t, step), (token, 5));
                assert_eq!(values.as_slice(), &[1.5, -2.0, 0.25]);
                assert_eq!(bytes, codeword.encode_for_job(3).len());
            }
            other => panic!("expected Codeword, got {other:?}"),
        }
        assert!(matches!(
            wait_event(&mut reactor),
            NetEvent::Gone { token: t } if t == token
        ));
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_the_next_tick() {
        let mut wheel = TimerWheel::new(8);
        wheel.advance_to(10);
        wheel.schedule(1, 4); // already past: fires on the next advance
        assert_eq!(wheel.advance_to(11), vec![(1, 11)]);
    }

    #[test]
    fn ticks_rounds_up_and_never_returns_zero() {
        assert_eq!(ticks(Duration::from_millis(1)), 1);
        assert_eq!(ticks(TICK), 1);
        assert_eq!(ticks(Duration::from_millis(6)), 2);
        assert_eq!(ticks(Duration::ZERO), 1);
        assert_eq!(ticks(Duration::from_secs(2)), 400);
    }
}
