//! A hand-rolled nonblocking reactor: one thread multiplexing readiness
//! over every master-side socket, in the style of DSLab's event-driven
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
//!   an idle connection holds 4 KiB of it, never more than 64 KiB); a frame
//!   larger than that is read into a frame-size buffer the reactor lends
//!   and takes back once the frame is read, so reassembly memory follows
//!   the frames in flight, not the connections; a connection that has not
//!   introduced itself is clamped to a `Hello`'s size; a `Codeword` payload
//!   is parsed in the buffer and its values decoded in one bulk pass into
//!   the [`isgc_linalg::Vector`] the engine sums — no `Message` is built
//!   for it;
//! - **write interest + pooled broadcast**: outbound frames are
//!   reference-counted `Arc<[u8]>` slices shared across per-connection
//!   write queues, with partial writes resumed on the next `POLLOUT`;
//! - **the clock and its deadlines**: [`Transport::now`] is the time since
//!   the reactor was built, and one time-ordered set holds every
//!   connection's heartbeat or handshake deadline, exactly, at most one
//!   entry per connection: a read only moves the connection's deadline, and
//!   its entry is re-filed when it comes due early. A poll never blocks past
//!   the earliest entry, so a caller may wait without a timeout of its own
//!   and still see silence and handshake expiry on time;
//! - **a drained event queue**: readiness is translated into [`NetEvent`]s
//!   consumed one at a time by the single-threaded master state machine
//!   ([`crate::master::MasterLoop`](crate::master)).
//!
//! Liveness decisions, slot assignment, and step semantics stay in the
//! owning loop; the reactor only moves bytes and fires deadlines. All
//! `net.reactor.*` metric series are [`isgc_obs::Class::Timing`], so golden
//! logical snapshots are untouched by the transport swap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;
use isgc_obs::Registry;

use crate::seam::Transport;
use crate::wire::{max_hello_len, CodewordView, FrameAssembler, Message, Spares, MAX_PAYLOAD};
use crate::NetError;

/// Identity of one connection for its whole life. Tokens are never reused,
/// so an event from a replaced connection can always be told apart from the
/// current one (the role epochs played under the thread-per-connection
/// transport).
pub type Token = u64;

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
    /// An adopted connection passed its idle deadline without producing a
    /// byte. The connection stays open — the owner decides what silence
    /// means — and the deadline re-arms.
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
    /// The handshake or idle deadline and its one queue entry.
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

/// Every connection's filed deadline, in time order: `(at, token)`.
type Deadlines = BTreeSet<(Duration, Token)>;

/// One connection's deadline, re-armed lazily: activity only moves `at`,
/// and the queue holds a single entry per connection (at `filed`) that is
/// re-filed at `at` if it comes due early. Re-filing on every read would
/// instead cost two tree updates per frame — at 300 workers and 370
/// steps/s, 220 k of them a second — for an entry that almost never fires.
#[derive(Debug, Default)]
struct Deadline {
    /// When the connection times out.
    at: Duration,
    /// When its queue entry comes due, if one is filed.
    filed: Option<Duration>,
}

impl Deadline {
    /// Moves the deadline to `at`, filing an entry only when none is filed
    /// or the filed one would come due too late (adopting a connection whose
    /// handshake deadline lies beyond its first idle deadline); the later
    /// entry it replaces leaves the queue.
    fn arm(&mut self, queue: &mut Deadlines, token: Token, at: Duration) {
        self.at = at;
        if self.filed.is_none_or(|filed| at < filed) {
            self.cancel(queue, token);
            queue.insert((at, token));
            self.filed = Some(at);
        }
    }

    /// Whether the deadline has passed at `now`, once its entry came due and
    /// left the queue. It has not when activity moved it past `now`; the
    /// entry is then re-filed there. After `true` nothing is filed until the
    /// next [`Deadline::arm`].
    fn expired(&mut self, queue: &mut Deadlines, token: Token, now: Duration) -> bool {
        self.filed = None;
        if self.at > now {
            self.arm(queue, token, self.at);
            return false;
        }
        true
    }

    /// Takes the connection's entry, if any, out of the queue.
    fn cancel(&mut self, queue: &mut Deadlines, token: Token) {
        if let Some(filed) = self.filed.take() {
            queue.remove(&(filed, token));
        }
    }
}

/// Removes every entry due at `now` from the queue, returning their
/// connections in deadline order.
fn take_due(queue: &mut Deadlines, now: Duration) -> Vec<Token> {
    let mut due = Vec::new();
    while let Some(&(_, token)) = queue.first().filter(|&&(at, _)| at <= now) {
        queue.pop_first();
        due.push(token);
    }
    due
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
    /// The timeout is rounded *up* to the milliseconds `poll(2)` takes, so
    /// a sub-millisecond remainder blocks once instead of spinning on a zero
    /// timeout until it has passed.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        if fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(0);
        }
        let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
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
    deadlines: Deadlines,
    /// When the reactor was built: [`Transport::now`] counts from here.
    base: Instant,
    job: u64,
    metrics: Option<Registry>,
    /// Frame-size buffers lent to connections reading a large frame.
    spares: Spares,
    /// The poll set and its tokens, rebuilt on every wakeup into the same
    /// two allocations.
    poll_fds: Vec<sys::PollFd>,
    poll_tokens: Vec<Token>,
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
            deadlines: Deadlines::new(),
            base: Instant::now(),
            job,
            metrics,
            spares: Spares::default(),
            poll_fds: Vec::new(),
            poll_tokens: Vec::new(),
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
    fn now(&self) -> Duration {
        self.base.elapsed()
    }

    /// Pumps the poll loop for up to `timeout` when the queue is empty, and
    /// never past the earliest connection deadline.
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
            conn.assembler.set_max_frame(MAX_PAYLOAD);
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
        let deadline = self.now().saturating_add(limit);
        while self.conns.values().any(|c| !c.out.is_empty()) {
            let remaining = deadline.saturating_sub(self.now());
            if remaining.is_zero() || self.pump(remaining).is_err() {
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
        self.deadlines.clear();
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

    /// One poll cycle: wait for readiness (or `timeout`, or the earliest
    /// deadline), drain every ready descriptor into the event queue, then
    /// fire the deadlines that came due.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        let timeout = match self.deadlines.first() {
            Some(&(at, _)) => timeout.min(at.saturating_sub(self.now())),
            None => timeout,
        };
        let has_listener = self.listener.is_some();
        let mut fds = std::mem::take(&mut self.poll_fds);
        let mut tokens = std::mem::take(&mut self.poll_tokens);
        fds.clear();
        tokens.clear();
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
        // Readiness is handled *before* deadlines fire: a read re-arms the
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
            for (&token, fd) in tokens.iter().zip(&fds[base..]) {
                let revents = fd.revents;
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
        self.poll_fds = fds;
        self.poll_tokens = tokens;
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
                    let at = self.now() + HANDSHAKE_TIMEOUT;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.deadline.arm(&mut self.deadlines, token, at);
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
            match conn
                .assembler
                .fill_lending(&mut conn.stream, &mut self.spares)
            {
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

    /// Parses whatever complete frames `token`'s assembler holds, and takes
    /// back a lent buffer once they leave nothing buffered.
    fn parse_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match parse_frames(token, conn, &mut self.events, self.job) {
            Parsed::Keep => conn.assembler.repay(&mut self.spares),
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

    /// Takes the due entries off the deadline queue and translates them:
    /// pending connections past their handshake deadline are dropped,
    /// silent adopted ones get a [`NetEvent::HeartbeatTimeout`] and a
    /// re-armed deadline; an entry that activity overtook is re-filed at the
    /// connection's current deadline.
    fn fire_timers(&mut self) {
        let now = self.now();
        let mut fired = 0u64;
        let mut handshake_expired: Vec<Token> = Vec::new();
        for token in take_due(&mut self.deadlines, now) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if !conn.deadline.expired(&mut self.deadlines, token, now) {
                continue;
            }
            fired += 1;
            match conn.phase {
                // Handshake too slow: not one of ours; drop silently.
                Phase::Pending => handshake_expired.push(token),
                Phase::Adopted => {
                    if let Some(idle) = conn.idle {
                        let at = now.saturating_add(idle);
                        conn.deadline.arm(&mut self.deadlines, token, at);
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

    /// Moves `token`'s idle deadline to `idle` from now (called after every
    /// readiness event that delivered bytes); a connection without an idle
    /// deadline keeps no entry.
    fn arm_idle(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.idle {
            Some(idle) => {
                let at = self.base.elapsed().saturating_add(idle);
                conn.deadline.arm(&mut self.deadlines, token, at);
            }
            None => conn.deadline.cancel(&mut self.deadlines, token),
        }
    }

    fn insert(&mut self, stream: TcpStream, phase: Phase, idle: Option<Duration>) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        // Until it introduces itself, a peer may send a `Hello` and nothing
        // larger: its header cannot reserve more than that.
        let max_frame = match phase {
            Phase::Pending => max_hello_len(),
            Phase::Adopted => MAX_PAYLOAD,
        };
        self.conns.insert(
            token,
            Conn {
                stream,
                phase,
                assembler: FrameAssembler::with_max_frame(max_frame),
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
        if let Some(mut conn) = self.conns.remove(&token) {
            conn.deadline.cancel(&mut self.deadlines, token);
            if conn.phase == Phase::Adopted {
                self.events.push_back(NetEvent::Gone { token });
            }
            conn.assembler.release(&mut self.spares);
            self.gauge_conns();
        }
    }

    /// Silently deregisters (replaced connections, rejections).
    fn remove(&mut self, token: Token) {
        if let Some(mut conn) = self.conns.remove(&token) {
            conn.deadline.cancel(&mut self.deadlines, token);
            conn.assembler.release(&mut self.spares);
        }
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

    fn ms(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn entries(queue: &Deadlines) -> Vec<(Duration, Token)> {
        queue.iter().copied().collect()
    }

    #[test]
    fn rearming_keeps_one_entry_and_times_out_exactly_at_last_read_plus_idle() {
        // A peer that sends 10,000 frames over 0..100 ms and then goes
        // silent, 2 s idle timeout: one entry in the queue throughout, and
        // waking at each entry as it comes due, the timeout lands exactly on
        // last read + idle.
        let (token, idle) = (7, ms(2000));
        let mut queue = Deadlines::new();
        let mut deadline = Deadline::default();
        for read in 0..10_000u64 {
            let now = ms(read / 100);
            assert!(take_due(&mut queue, now).is_empty());
            deadline.arm(&mut queue, token, now + idle);
            assert_eq!(queue.len(), 1, "after read {read}");
        }
        let mut timed_out_at = Vec::new();
        let mut wakeups = 0;
        while let Some(&(now, _)) = queue.first() {
            wakeups += 1;
            for t in take_due(&mut queue, now) {
                if deadline.expired(&mut queue, t, now) {
                    timed_out_at.push(now);
                } else {
                    assert_eq!(queue.len(), 1, "the early entry is re-filed");
                }
            }
        }
        assert_eq!(timed_out_at, vec![ms(99) + idle]);
        assert_eq!(wakeups, 2, "the first entry is re-filed once");
    }

    #[test]
    fn adoption_moves_the_deadline_either_side_of_the_handshake_entry() {
        // Idle deadline before the handshake entry: it replaces that entry,
        // so the timeout is not late and nothing stale is left.
        let mut queue = Deadlines::new();
        let mut deadline = Deadline::default();
        deadline.arm(&mut queue, 1, ms(5000));
        deadline.arm(&mut queue, 1, ms(2050));
        assert_eq!(entries(&queue), vec![(ms(2050), 1)]);
        assert_eq!(take_due(&mut queue, ms(2050)), vec![1]);
        assert!(deadline.expired(&mut queue, 1, ms(2050)));
        assert!(queue.is_empty());

        // Idle deadline after it: the handshake entry is kept, and re-filed
        // at the idle deadline when it comes due.
        let mut queue = Deadlines::new();
        let mut deadline = Deadline::default();
        deadline.arm(&mut queue, 2, ms(5000));
        deadline.arm(&mut queue, 2, ms(6010));
        assert_eq!(entries(&queue), vec![(ms(5000), 2)]);
        assert_eq!(take_due(&mut queue, ms(5000)), vec![2]);
        assert!(!deadline.expired(&mut queue, 2, ms(5000)));
        assert_eq!(entries(&queue), vec![(ms(6010), 2)]);
        assert!(take_due(&mut queue, ms(6009)).is_empty());
        assert_eq!(take_due(&mut queue, ms(6010)), vec![2]);
        assert!(deadline.expired(&mut queue, 2, ms(6010)));
        assert!(queue.is_empty());
    }

    /// Pumps `reactor` until an event arrives (or two seconds pass).
    fn wait_event(reactor: &mut Reactor) -> NetEvent {
        let give_up = Instant::now() + Duration::from_secs(2);
        loop {
            let left = give_up.saturating_duration_since(Instant::now());
            if let Some(event) = reactor.next_event(left).expect("poll") {
                return event;
            }
            assert!(!left.is_zero(), "no event within 2 s");
        }
    }

    #[test]
    fn one_long_wait_sees_a_silent_peer_time_out_on_its_deadline() {
        // The caller waits up to 10 s; the peer's 100 ms idle deadline
        // bounds the poll, so the timeout is not late by the caller's wait.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(None, 0, None).expect("reactor");
        let start = Instant::now();
        let (token, peer) = adopted_pair(&mut reactor, &listener, Some(ms(100)));
        let event = reactor.next_event(Duration::from_secs(10)).expect("poll");
        let took = start.elapsed();
        assert!(
            matches!(event, Some(NetEvent::HeartbeatTimeout { token: t }) if t == token),
            "{event:?}"
        );
        assert!(took >= ms(100), "{took:?}");
        assert!(took < Duration::from_secs(1), "{took:?}");
        drop(peer);
    }

    #[test]
    fn a_sub_millisecond_wait_blocks_instead_of_returning_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(Some(listener), 0, None).expect("reactor");
        let start = Instant::now();
        let event = reactor
            .next_event(Duration::from_micros(500))
            .expect("poll");
        assert!(event.is_none());
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn a_dropped_connection_leaves_no_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(None, 0, None).expect("reactor");
        let (token, peer) = adopted_pair(&mut reactor, &listener, Some(ms(2000)));
        assert_eq!(reactor.deadlines.len(), 1);
        drop(peer);
        assert!(matches!(
            wait_event(&mut reactor),
            NetEvent::Gone { token: t } if t == token
        ));
        assert!(reactor.deadlines.is_empty());
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
    fn a_pending_peer_cannot_reserve_more_than_a_hello() {
        // A peer that connects and sends only a header claiming the largest
        // legal payload, then waits: it is dropped off that header, long
        // before the handshake timeout, and its buffer never grows past the
        // 4 KiB a first read takes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut reactor = Reactor::new(Some(listener), 3, None).expect("reactor");
        let mut header = Message::Hello { preferred: None }.encode_for_job(3);
        header.truncate(crate::wire::HEADER_LEN);
        header[13..17].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&header).expect("header");

        let give_up = Instant::now() + Duration::from_secs(2);
        let mut accepted = false;
        loop {
            assert!(reactor.next_event(ms(5)).expect("poll").is_none());
            for conn in reactor.conns.values() {
                assert!(
                    conn.assembler.capacity() <= 4 * 1024,
                    "a pending peer reserved {} bytes",
                    conn.assembler.capacity()
                );
            }
            accepted |= !reactor.conns.is_empty();
            if accepted && reactor.conns.is_empty() {
                break;
            }
            assert!(Instant::now() < give_up, "the pending peer was not dropped");
        }
        assert!(
            reactor.deadlines.is_empty(),
            "its handshake deadline is left"
        );
        drop(peer);
    }

    /// A codeword whose frame (≈ 524 KB) is far larger than `READ_MAX`.
    fn large_codeword(worker: u64) -> Message {
        Message::Codeword {
            worker,
            step: 1,
            values: (0..65_552).map(|i| f64::from(i) + worker as f64).collect(),
        }
    }

    /// Serves `bytes` at most `max` at a time, then reports EOF.
    struct Pieces<'a> {
        bytes: &'a [u8],
        max: usize,
    }

    impl io::Read for Pieces<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let k = out.len().min(self.max).min(self.bytes.len());
            out[..k].copy_from_slice(&self.bytes[..k]);
            self.bytes = &self.bytes[k..];
            Ok(k)
        }
    }

    /// Reads `stream` as the reactor does — fill, parse, repay — returning
    /// every frame as `(job, payload bytes)`.
    fn read_lending(
        asm: &mut FrameAssembler,
        spares: &mut Spares,
        stream: &[u8],
        max: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut source = Pieces { bytes: stream, max };
        let mut frames = Vec::new();
        while asm
            .fill_lending(&mut source, spares)
            .expect("in-memory read")
            > 0
        {
            while let Some(frame) = asm.next_frame().expect("well-formed") {
                frames.push((frame.job, frame.payload.to_vec()));
            }
            asm.repay(spares);
        }
        frames
    }

    #[test]
    fn large_frames_decode_as_push_does_and_the_loan_comes_back() {
        // Two large frames back to back in one stream, delivered whole and
        // in 64 KiB pieces, and each frame alone in 64 KiB pieces.
        let (a, b) = (large_codeword(1), large_codeword(2));
        let mut stream = a.encode_for_job(4);
        stream.extend_from_slice(&b.encode_for_job(4));
        let mut pushed = FrameAssembler::new();
        pushed.push(&stream);
        let mut expected = Vec::new();
        while let Some(frame) = pushed.next_frame().expect("well-formed") {
            expected.push((frame.job, frame.payload.to_vec()));
        }
        assert_eq!(expected.len(), 2);

        let half = a.encode_for_job(4).len();
        for (bytes, want) in [
            (&stream[..], &expected[..]),
            (&stream[..half], &expected[..1]),
        ] {
            for max in [usize::MAX, 64 * 1024] {
                let (mut asm, mut spares) = (FrameAssembler::new(), Spares::default());
                assert_eq!(read_lending(&mut asm, &mut spares, bytes, max), want);
                assert!(asm.capacity() <= 64 * 1024, "kept {}", asm.capacity());
                assert_eq!(spares.held().len(), 1, "the one loan is back");
            }
        }
    }

    #[test]
    fn a_second_large_frame_borrows_the_first_ones_buffer() {
        let (mut asm, mut spares) = (FrameAssembler::new(), Spares::default());
        let first = large_codeword(1).encode();
        assert_eq!(
            read_lending(&mut asm, &mut spares, &first, 64 * 1024).len(),
            1
        );
        assert_eq!(spares.held().len(), 1);
        let (loan, len) = (spares.held()[0].as_ptr(), spares.held()[0].len());
        let second = large_codeword(2).encode();
        assert_eq!(
            read_lending(&mut asm, &mut spares, &second, 64 * 1024).len(),
            1
        );
        assert_eq!(spares.held().len(), 1);
        assert_eq!(
            (spares.held()[0].as_ptr(), spares.held()[0].len()),
            (loan, len)
        );
    }

    /// A reactor's end of a loopback connection, registered as an adopted
    /// one with deadline `idle` (`None`: a swarm member's), and the peer's
    /// end.
    fn adopted_pair(
        reactor: &mut Reactor,
        listener: &TcpListener,
        idle: Option<Duration>,
    ) -> (Token, TcpStream) {
        let ours = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        (
            reactor.register_adopted(ours, idle).expect("register"),
            peer,
        )
    }

    #[test]
    fn sixteen_connections_reading_in_turn_share_one_loan() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(None, 0, None).expect("reactor");
        let pairs: Vec<_> = (0..16)
            .map(|_| adopted_pair(&mut reactor, &listener, None))
            .collect();
        for (i, (token, peer)) in pairs.iter().enumerate() {
            let message = large_codeword(i as u64);
            let mut peer = peer.try_clone().expect("clone");
            let frame = message.encode();
            std::thread::scope(|s| {
                s.spawn(move || peer.write_all(&frame).expect("write"));
                let NetEvent::Codeword {
                    token: t, values, ..
                } = wait_event(&mut reactor)
                else {
                    panic!("expected a codeword");
                };
                let Message::Codeword { values: sent, .. } = &message else {
                    unreachable!()
                };
                assert_eq!((t, values.as_slice()), (*token, &sent[..]));
            });
            assert!(reactor.spares.held().len() <= 1);
            for conn in reactor.conns.values() {
                assert!(conn.assembler.capacity() <= 64 * 1024);
            }
        }
        assert_eq!(reactor.spares.held().len(), 1);
    }

    #[test]
    fn a_connection_dropped_mid_frame_returns_its_loan() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut reactor = Reactor::new(None, 0, None).expect("reactor");
        let (token, mut peer) = adopted_pair(&mut reactor, &listener, None);
        let frame = large_codeword(0).encode();
        peer.write_all(&frame[..frame.len() / 4]).expect("write");
        drop(peer);
        assert!(matches!(
            wait_event(&mut reactor),
            NetEvent::Gone { token: t } if t == token
        ));
        assert!(reactor.conns.is_empty());
        assert_eq!(reactor.spares.held().len(), 1, "the loan is back");
        assert!(reactor.spares.held()[0].len() >= frame.len());
    }
}
