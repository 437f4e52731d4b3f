//! Transport-level metric names the TCP master feeds into an
//! [`isgc_obs::Registry`].
//!
//! All series here are [`isgc_obs::Class::Timing`]: they measure what this
//! particular transport put on the wire, which no other backend reproduces,
//! so they are excluded from logical snapshots and cross-backend comparisons.
//! The *logical* per-step series (recovery counts, bounds, repair events)
//! come from [`isgc_engine::metrics`] and are identical across backends.
//!
//! Counters cover frames on *registered* connections — the short-lived
//! `Hello` handshake read happens before a connection owns a slot and is not
//! metered.

/// Total bytes written to workers (headers + payloads), across `Assign`,
/// `Params`, `Shutdown`, and repair re-assignments.
pub const BYTES_SENT_TOTAL: &str = "net.bytes.sent.total";

/// Total bytes read from registered workers (codewords, heartbeats,
/// declines).
pub const BYTES_RECEIVED_TOTAL: &str = "net.bytes.received.total";

/// Total frames written to workers.
pub const FRAMES_SENT_TOTAL: &str = "net.frames.sent.total";

/// Total frames read from registered workers.
pub const FRAMES_RECEIVED_TOTAL: &str = "net.frames.received.total";

/// Reactor poll-loop iterations (one per `poll(2)` return, ready or not).
pub const REACTOR_WAKEUPS_TOTAL: &str = "net.reactor.wakeups.total";

/// Descriptors reported ready across all reactor wakeups.
pub const REACTOR_READY_EVENTS_TOTAL: &str = "net.reactor.ready.events.total";

/// Connections currently registered with the reactor (gauge: pending
/// handshakes plus adopted peers).
pub const REACTOR_CONNECTIONS: &str = "net.reactor.connections.registered";

/// Writes that filled the socket buffer and parked a partial frame for
/// resumption on the next write-readiness event.
pub const REACTOR_PARTIAL_WRITES_TOTAL: &str = "net.reactor.partial.writes.total";

/// Deadlines fired by the reactor's deadline queue (handshake and
/// heartbeat timeouts).
pub const REACTOR_TIMER_FIRES_TOTAL: &str = "net.reactor.timer.fires.total";
