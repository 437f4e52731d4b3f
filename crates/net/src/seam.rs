//! The transport seam: the abstract network surface the collector state
//! machines actually require.
//!
//! The master loop ([`MasterLoop`](crate::master::MasterLoop)) never
//! touches sockets directly — it consumes [`NetEvent`]s and emits encoded
//! frames through the [`Transport`] trait. In production the
//! implementation is the nonblocking reactor; under `isgc-mc` it is a
//! deterministic virtual network that enumerates message interleavings.
//! Because both sides run the *same* state-machine code, a property the
//! model checker proves over the virtual transport is a property of the
//! production collector, not of a parallel re-implementation. The loop is
//! public for exactly that: construction over any transport, registration,
//! step collection, and teardown — nothing else.

use std::sync::Arc;
use std::time::Duration;

pub use crate::reactor::{NetEvent, Token};
use crate::NetError;

/// The network surface a collector state machine consumes: an event queue
/// to drain and per-connection byte sinks. The reactor implements it over
/// real nonblocking sockets; the model checker implements it over an
/// in-memory virtual network with scheduled delivery.
pub trait Transport {
    /// Pops the next event, waiting up to `timeout` when none is queued.
    /// `Ok(None)` means the timeout passed quietly.
    ///
    /// # Errors
    ///
    /// Transport failure; the owning loop aborts the run.
    fn next_event(&mut self, timeout: Duration) -> Result<Option<NetEvent>, NetError>;

    /// Promotes a pending connection to an adopted peer, sending `first`
    /// (the registration reply) and arming the `idle` deadline. Returns
    /// false when the connection died in the process.
    fn adopt(&mut self, token: Token, first: Arc<[u8]>, idle: Option<Duration>) -> bool;

    /// Drops a pending connection the state machine refused.
    fn reject(&mut self, token: Token);

    /// Queues one frame on a connection. Failures surface later as a
    /// [`NetEvent::Gone`], exactly like a failure discovered mid-broadcast.
    fn send(&mut self, token: Token, frame: Arc<[u8]>);

    /// Sends one shared frame to every listed connection (a single encode,
    /// shared bytes).
    fn broadcast(&mut self, frame: &Arc<[u8]>, targets: &[Token]);

    /// Pumps until every write queue drained or `limit` passed.
    fn flush_all(&mut self, limit: Duration);

    /// Emulates a killed process: hard-closes every connection.
    fn hard_close_all(&mut self);
}
