//! The peer table and collection loop every master-side tier shares.
//!
//! A *tier* is one listening side of the protocol: a table of peer slots,
//! the connections that currently own them, and the loop that — after a
//! step's broadcast — stops on an arbitrary arrival set and ignores the
//! rest. The flat master seats `n` workers; a sub-master seats its shard's
//! workers `[lo, hi)`; the tree root seats sub-masters. They differ only in
//! what a [`Host`] supplies — the registration reply, where events come
//! from, what a peer's answer carries. Everything else is written once,
//! here: which slot a newcomer gets, what `Gone`, heartbeat silence and a
//! late frame do to a slot, who is still awaited, and how a step's answers
//! are told apart from stale ones and declines.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;

use crate::reactor::{NetEvent, Token};
use crate::seam::Transport;
use crate::wire::{encode_params_frame, Message};
use crate::{NetError, WaitPolicy};

/// Poll granularity of every master-side loop: how often liveness and
/// deadlines are re-checked while waiting on peers.
pub(crate) const POLL: Duration = Duration::from_millis(20);

/// One peer slot as its tier sees it; unregistered and unconnected to
/// begin with.
#[derive(Default)]
struct Slot {
    /// The connection currently owning this slot, if any. Tokens are never
    /// reused, so an event from a replaced connection can always be told
    /// apart from the current one.
    conn: Option<Token>,
    /// Whether the current connection is believed usable.
    alive: bool,
    /// Whether this slot was ever assigned to a connection.
    registered: bool,
}

/// The peers a step still waits on: alive, on the connection that received
/// the step's broadcast, and not yet heard from. Kept as a flag per peer
/// and their count, so an upload costs O(1), not a scan of every slot.
struct Awaited {
    /// A peer is eligible for the step only through the connection that
    /// received the broadcast; one that reconnects mid-step cannot produce
    /// this step's answer, so it must not be waited on.
    eligible: Vec<Option<Token>>,
    waiting: Vec<bool>,
    count: usize,
}

impl Awaited {
    /// Snapshots eligibility as the broadcast goes out; nobody has answered.
    fn at_broadcast(slots: &[Slot]) -> Awaited {
        let mut awaited = Awaited {
            eligible: slots
                .iter()
                .map(|s| if s.alive { s.conn } else { None })
                .collect(),
            waiting: vec![false; slots.len()],
            count: 0,
        };
        awaited.rescan(slots, |_| false);
        awaited
    }

    /// How many peers the step still waits on.
    fn count(&self) -> usize {
        self.count
    }

    /// Re-derives peer `w`'s flag after an event that touched only `w`.
    fn update(&mut self, w: usize, slot: &Slot, answered: bool) {
        let waiting =
            slot.alive && self.eligible[w].is_some() && self.eligible[w] == slot.conn && !answered;
        self.count = self.count + usize::from(waiting) - usize::from(self.waiting[w]);
        self.waiting[w] = waiting;
    }

    /// Re-derives every flag, after an event that can change liveness or
    /// connection ownership of any slot.
    fn rescan(&mut self, slots: &[Slot], answered: impl Fn(usize) -> bool) {
        for (w, slot) in slots.iter().enumerate() {
            self.update(w, slot, answered(w));
        }
    }
}

/// A step whose `Params` went out and whose answers are not collected yet.
struct Outstanding {
    step: u64,
    /// When the broadcast went out: a deadline counts from here, however
    /// late the collection starts.
    at: Instant,
    /// Who is to answer, as of the broadcast.
    awaited: Awaited,
}

/// Which peers a tier seats, hence which introduction it accepts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Peers {
    /// Workers, introduced by `Hello`.
    Workers,
    /// Sub-masters, introduced by `SubHello`.
    Submasters,
}

/// A frame from a slot's current connection.
pub(crate) enum Frame {
    /// A codeword `(step, values)` — already decoded in place by the
    /// reactor, no intermediate copy.
    Codeword(u64, Vector),
    /// Any other message.
    Msg(Message),
}

/// What a frame says about a step, as its tier's [`Host`] reads it.
pub(crate) enum Reply<T> {
    /// `(slot, step, answer)`: the slot's answer to the step it is tagged
    /// for.
    Answer(usize, u64, T),
    /// `(slot, step)`: a fast-fail straggler signal — the slot will not
    /// answer that step.
    Decline(usize, u64),
    /// Nothing about any step; liveness may have changed anywhere.
    Nothing,
}

/// How a worker tier reads its peers' frames: codewords answer, `Decline`
/// declines, and anything else (heartbeats; a confused peer must not kill
/// the run) only proved its sender alive.
pub(crate) fn worker_reply(slot: usize, frame: Frame) -> Reply<Vector> {
    match frame {
        Frame::Codeword(step, values) => Reply::Answer(slot, step, values),
        Frame::Msg(Message::Decline { step, .. }) => Reply::Decline(slot, step),
        Frame::Msg(_) => Reply::Nothing,
    }
}

/// What a tier cannot know about its owner.
pub(crate) trait Host {
    /// What a peer's answer to a step carries: a worker's codeword, a
    /// sub-master's shard report.
    type Answer;

    /// Pulls the next event. A host overrides this to count frames, to
    /// replay events it set aside between steps, or to keep the ones that
    /// belong to another link (returning `Ok(None)` for those).
    fn next_event(
        &mut self,
        transport: &mut dyn Transport,
        timeout: Duration,
    ) -> Result<Option<NetEvent>, NetError> {
        transport.next_event(timeout)
    }

    /// The registration reply for the peer taking `slot`.
    fn welcome(&self, slot: usize) -> Arc<[u8]>;

    /// Reads what a frame from `slot`'s current connection says about a
    /// step.
    fn read(&mut self, slot: usize, frame: Frame) -> Reply<Self::Answer>;

    /// Whether a step start should wait out the rejoin grace for `slot`'s
    /// disconnected peer.
    fn awaits_rejoin(&self, _slot: usize) -> bool {
        true
    }
}

/// What one step's collection phase produced, indexed by slot.
pub(crate) struct CollectedStep<T> {
    /// Slots that answered, in arrival order.
    pub(crate) arrivals: Vec<usize>,
    /// Each slot's answer, if it gave one.
    pub(crate) answers: Vec<Option<T>>,
    /// How long the collection waited.
    pub(crate) waited: Duration,
    /// Answers discarded by step tag (late, or duplicates).
    pub(crate) stale: usize,
    /// Slots that declined the step, ascending.
    pub(crate) declined: Vec<usize>,
}

/// One tier's peer table over its transport (the
/// [`Reactor`](crate::reactor::Reactor) in production, a virtual network
/// under the model checker). Polled inline: no tier spends a thread on I/O.
pub(crate) struct Tier {
    peers: Peers,
    /// Global id of slot 0: peers claim slots by global id, and a shard's
    /// tier seats `[base, base + len)`.
    base: usize,
    slots: Vec<Slot>,
    /// Which slot each adopted connection feeds. A token missing here (or
    /// disagreeing with `Slot::conn`) belongs to a replaced connection and
    /// its events are ignored.
    owner: HashMap<Token, usize>,
    transport: Box<dyn Transport>,
    /// The silence deadline armed on every seated connection.
    idle: Option<Duration>,
    /// The step broadcast and not yet collected, if any.
    outstanding: Option<Outstanding>,
}

impl Tier {
    /// A tier of `len` unregistered slots for global ids
    /// `[base, base + len)`.
    pub(crate) fn new(
        peers: Peers,
        base: usize,
        len: usize,
        idle: Option<Duration>,
        transport: Box<dyn Transport>,
    ) -> Tier {
        Tier {
            peers,
            base,
            slots: (0..len).map(|_| Slot::default()).collect(),
            owner: HashMap::new(),
            transport,
            idle,
            outstanding: None,
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Per-slot liveness.
    pub(crate) fn alive(&self) -> impl Iterator<Item = bool> + '_ {
        self.slots.iter().map(|s| s.alive)
    }

    /// The transport, for the links a tier's owner runs beside the table
    /// (a sub-master's upstream root link).
    pub(crate) fn transport(&mut self) -> &mut dyn Transport {
        &mut *self.transport
    }

    /// The slot an adopted connection currently owns, or `None` when the
    /// event came from a replaced (or never-registered) connection.
    fn slot_of(&self, token: Token) -> Option<usize> {
        let slot = *self.owner.get(&token)?;
        (self.slots[slot].conn == Some(token)).then_some(slot)
    }

    /// The slot a newcomer gets: the one it claims by global id when that
    /// is this tier's; for an id-less one the first never-registered slot,
    /// else — the tier is full, so this is a peer that lost its id and
    /// reconnected fresh — the first dead one.
    fn claim(&self, preferred: Option<u64>) -> Option<usize> {
        match preferred {
            Some(id) => (id as usize)
                .checked_sub(self.base)
                .filter(|&slot| slot < self.slots.len()),
            None => self
                .slots
                .iter()
                .position(|s| !s.registered)
                .or_else(|| self.slots.iter().position(|s| !s.alive)),
        }
    }

    /// Seats a pending connection in the slot it claims — adopting it into
    /// the transport, which sends the host's welcome and arms the idle
    /// deadline — or rejects it when no slot is to be had.
    fn seat<H: Host>(&mut self, host: &H, token: Token, preferred: Option<u64>) {
        let Some(slot) = self.claim(preferred) else {
            self.transport.reject(token);
            return;
        };
        if !self.transport.adopt(token, host.welcome(slot), self.idle) {
            return; // connection died under the welcome write
        }
        // The replaced connection (if any) is closed; its token can never
        // be adopted again, so late events from it fall through slot_of.
        if let Some(old) = self.slots[slot].conn.take() {
            self.owner.remove(&old);
            self.transport.reject(old);
        }
        self.slots[slot] = Slot {
            conn: Some(token),
            alive: true,
            registered: true,
        };
        self.owner.insert(token, slot);
    }

    /// Folds one event into the table — the only place that maps a
    /// connection to its slot and decides what departure, silence and a
    /// late frame mean — and has the host read what a frame says.
    fn note<H: Host>(&mut self, host: &mut H, event: NetEvent) -> Reply<H::Answer> {
        let (token, frame) = match event {
            NetEvent::Hello { token, preferred } if self.peers == Peers::Workers => {
                self.seat(host, token, preferred);
                return Reply::Nothing;
            }
            NetEvent::SubHello { token, shard } if self.peers == Peers::Submasters => {
                self.seat(host, token, Some(shard));
                return Reply::Nothing;
            }
            // An introduction meant for another tier (a sub-master dialing
            // a worker tier, a worker dialing the tree root): drop it.
            NetEvent::Hello { token, .. } | NetEvent::SubHello { token, .. } => {
                self.transport.reject(token);
                return Reply::Nothing;
            }
            NetEvent::Gone { token } => {
                if let Some(slot) = self.slot_of(token) {
                    self.slots[slot].alive = false;
                    self.slots[slot].conn = None;
                }
                self.owner.remove(&token);
                return Reply::Nothing;
            }
            NetEvent::HeartbeatTimeout { token } => {
                // The transport's timer wheel says this connection has been
                // silent past its idle deadline: presumed dead. The socket
                // stays open — a late frame revives the slot.
                if let Some(slot) = self.slot_of(token) {
                    self.slots[slot].alive = false;
                }
                return Reply::Nothing;
            }
            NetEvent::Codeword {
                token,
                step,
                values,
                ..
            } => (token, Frame::Codeword(step, values)),
            NetEvent::Msg { token, message, .. } => (token, Frame::Msg(message)),
        };
        let Some(slot) = self.slot_of(token) else {
            return Reply::Nothing; // from a replaced connection
        };
        self.slots[slot].alive = true;
        host.read(slot, frame)
    }

    /// Pulls one event through the host and the table; `None` when the
    /// timeout passed quietly or the host kept the event.
    fn hear<H: Host>(
        &mut self,
        host: &mut H,
        timeout: Duration,
    ) -> Result<Option<Reply<H::Answer>>, NetError> {
        let event = host.next_event(&mut *self.transport, timeout)?;
        Ok(event.map(|event| self.note(host, event)))
    }

    /// Queues one frame for `slot`'s peer; a slot nobody is connected to is
    /// marked dead instead.
    pub(crate) fn send_to(&mut self, slot: usize, frame: Arc<[u8]>) {
        match self.slots[slot].conn {
            Some(token) => self.transport.send(token, frame),
            None => self.slots[slot].alive = false,
        }
    }

    /// Sends one pre-encoded frame to every alive peer. The bytes are
    /// shared (`Arc` clones, not copies) across every peer's write queue; a
    /// peer that fails mid-write surfaces as a queued `Gone` event and is
    /// demoted when it is noted.
    fn broadcast_alive(&mut self, frame: &Arc<[u8]>) {
        let targets: Vec<Token> = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .filter_map(|s| s.conn)
            .collect();
        self.transport.broadcast(frame, &targets);
    }

    /// Blocks until every slot registered (or `timeout` passes); `what`
    /// names the registration in the timeout error.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on timeout; transport failures.
    pub(crate) fn await_registered<H: Host>(
        &mut self,
        host: &mut H,
        timeout: Duration,
        what: &str,
    ) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let registered = self.slots.iter().filter(|s| s.registered).count();
            if registered == self.len() {
                return Ok(());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                let peers = match self.peers {
                    Peers::Workers => "workers",
                    Peers::Submasters => "sub-masters",
                };
                return Err(NetError::Protocol(format!(
                    "{what} timed out with {registered} of {} {peers}",
                    self.len()
                )));
            };
            self.hear(host, remaining.min(POLL))?;
        }
    }

    /// Waits up to `grace` for every previously-registered but disconnected
    /// peer (that the host [still awaits](Host::awaits_rejoin)) to
    /// re-register, so a flapping peer's step membership is decided by what
    /// it *sends*, never by whether its reconnect handshake beat the
    /// broadcast. Returns the number of answers swallowed while waiting —
    /// necessarily stale, since the step has not been broadcast yet.
    fn await_rejoins<H: Host>(&mut self, host: &mut H, grace: Duration) -> usize {
        let mut stale = 0usize;
        if grace.is_zero() {
            return stale;
        }
        let deadline = Instant::now() + grace;
        while (0..self.len()).any(|w| {
            let slot = &self.slots[w];
            slot.registered && !slot.alive && host.awaits_rejoin(w)
        }) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.hear(host, remaining.min(POLL)) {
                Ok(Some(Reply::Answer(..))) => stale += 1,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        stale
    }

    /// Starts `step`: waits out the rejoin `grace`, sends `params` to every
    /// alive peer as one shared `Params` frame of job `job`, and notes who
    /// is to answer. Returns the answers swallowed while waiting out the
    /// grace, necessarily stale.
    pub(crate) fn broadcast_step<H: Host>(
        &mut self,
        host: &mut H,
        grace: Duration,
        job: u64,
        step: u64,
        params: &[f64],
    ) -> usize {
        let stale = self.await_rejoins(host, grace);
        // One encode, shared bytes to every peer — the fast path skips the
        // `Vec<f64>` clone a `Message::Params` round-trip would cost.
        let frame: Arc<[u8]> = encode_params_frame(job, step, params).into();
        self.broadcast_alive(&frame);
        self.outstanding = Some(Outstanding {
            step,
            at: Instant::now(),
            awaited: Awaited::at_broadcast(&self.slots),
        });
        stale
    }

    /// Collects the answers to the step [broadcast](Tier::broadcast_step)
    /// last, until `wait` is satisfied or nobody that saw the broadcast is
    /// left to answer. A `Deadline` counts from the broadcast; `waited` from
    /// this call. A step may close with zero arrivals; what that means is
    /// the owner's call.
    ///
    /// # Errors
    ///
    /// Transport failure; [`NetError::Protocol`] when no step is
    /// outstanding.
    pub(crate) fn collect<H: Host>(
        &mut self,
        host: &mut H,
        wait: WaitPolicy,
    ) -> Result<CollectedStep<H::Answer>, NetError> {
        let outstanding = self.outstanding.take().ok_or_else(|| {
            NetError::Protocol("collecting a step that was never broadcast".into())
        })?;
        self.collect_until(host, outstanding, wait, None)
    }

    /// [`Tier::collect`] for `outstanding`, which also stops at `limit`.
    fn collect_until<H: Host>(
        &mut self,
        host: &mut H,
        outstanding: Outstanding,
        wait: WaitPolicy,
        limit: Option<Instant>,
    ) -> Result<CollectedStep<H::Answer>, NetError> {
        let Outstanding {
            step,
            at,
            mut awaited,
        } = outstanding;
        let gather_start = Instant::now();
        let cutoff = match wait {
            WaitPolicy::FirstW(_) => None,
            WaitPolicy::Deadline(d) => Some(at + d),
        };
        let n = self.len();
        let mut answers: Vec<Option<H::Answer>> = (0..n).map(|_| None).collect();
        // Sized once: the list is kept in the step's report for the whole
        // run, and growing it by doubling would retain up to 2n slots.
        let mut arrivals: Vec<usize> = Vec::with_capacity(n);
        let mut declined: Vec<bool> = vec![false; n];
        let mut stale = 0usize;

        loop {
            // Heartbeat silence arrives as HeartbeatTimeout events off the
            // transport's timer wheel (noted below); no wall-clock sweep.
            let alive_pending = awaited.count();
            let done = match wait {
                WaitPolicy::FirstW(w) => arrivals.len() >= w || alive_pending == 0,
                WaitPolicy::Deadline(_) => {
                    let expired = cutoff.is_some_and(|c| Instant::now() >= c);
                    (expired && !arrivals.is_empty()) || alive_pending == 0
                }
            } || limit.is_some_and(|l| Instant::now() >= l);
            if done {
                return Ok(CollectedStep {
                    arrivals,
                    answers,
                    waited: gather_start.elapsed(),
                    stale,
                    declined: (0..n).filter(|&w| declined[w]).collect(),
                });
            }

            let timeout = limit.map_or(POLL, |l| l.saturating_duration_since(Instant::now()));
            let Some(reply) = self.hear(host, timeout.min(POLL))? else {
                continue;
            };
            // An answer or decline touches its sender's slot only; every
            // other event may have changed liveness anywhere.
            let touched = match reply {
                Reply::Answer(slot, tagged_step, answer) => {
                    // `mc-mutation` deliberately breaks the stale guard —
                    // the answer to the *previous* round is accepted as
                    // this step's — so the model checker's seeded-bug path
                    // (and its chaos replay) has a real violation to find.
                    // Never enabled in production builds.
                    #[cfg(feature = "mc-mutation")]
                    let fresh =
                        (tagged_step == step || tagged_step + 1 == step) && answers[slot].is_none();
                    #[cfg(not(feature = "mc-mutation"))]
                    let fresh = tagged_step == step && answers[slot].is_none();
                    if fresh {
                        answers[slot] = Some(answer);
                        arrivals.push(slot);
                        declined[slot] = false;
                    } else {
                        // Stale: a straggler finishing an earlier round (or
                        // a duplicate); count it, never mix it into this
                        // step.
                        stale += 1;
                    }
                    Some(slot)
                }
                Reply::Decline(slot, tagged_step) => {
                    if tagged_step == step && answers[slot].is_none() {
                        declined[slot] = true;
                    }
                    Some(slot)
                }
                Reply::Nothing => None,
            };
            let answered = |w: usize| declined[w] || answers[w].is_some();
            match touched {
                Some(w) => awaited.update(w, &self.slots[w], answered(w)),
                None => awaited.rescan(&self.slots, answered),
            }
        }
    }

    /// Ends the session toward the peers: job `job`'s `Shutdown` to every
    /// alive one, flushed for up to `flush_limit` — or, when `crashed`, a
    /// hard close of every socket, emulating a killed process (whose fds
    /// all close, having sent nothing).
    ///
    /// A step broadcast and never collected (the session ended after the
    /// next step went out: a loss-threshold stop, or a caller that stopped
    /// stepping) is drained first, for up to `flush_limit`: until every peer
    /// that saw it has answered, declined or been lost. Otherwise the
    /// sockets would close with those uploads unread, and the kernel would
    /// reset the connections under them.
    pub(crate) fn close<H: Host>(
        &mut self,
        host: &mut H,
        crashed: bool,
        job: u64,
        flush_limit: Duration,
    ) {
        if crashed {
            self.transport.hard_close_all();
        } else {
            if let Some(outstanding) = self.outstanding.take() {
                let limit = Instant::now() + flush_limit;
                let everyone = WaitPolicy::FirstW(self.len());
                // A transport failure ends the drain; the peers are being
                // let go either way.
                let _ = self.collect_until(host, outstanding, everyone, Some(limit));
            }
            let frame: Arc<[u8]> = Message::Shutdown.encode_for_job(job).into();
            self.broadcast_alive(&frame);
            self.transport.flush_all(flush_limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awaited_counts_only_workers_that_can_still_answer_this_step() {
        let slot = |conn, alive| Slot {
            conn,
            alive,
            registered: true,
        };
        // Worker 2 is dead at the broadcast, worker 3 never connected.
        let mut slots = vec![
            slot(Some(10), true),
            slot(Some(11), true),
            slot(Some(12), false),
            slot(None, false),
        ];
        let mut awaited = Awaited::at_broadcast(&slots);
        assert_eq!(awaited.count(), 2);

        // An answer takes its sender off the list, once.
        awaited.update(0, &slots[0], true);
        awaited.update(0, &slots[0], true);
        assert_eq!(awaited.count(), 1);

        // Silence past the heartbeat deadline stops the wait; a late frame
        // on the same connection resumes it.
        slots[1].alive = false;
        awaited.rescan(&slots, |w| w == 0);
        assert_eq!(awaited.count(), 0);
        slots[1].alive = true;
        awaited.update(1, &slots[1], false);
        assert_eq!(awaited.count(), 1);

        // A reconnect mid-step is a different connection: it never saw the
        // broadcast. Nor did worker 2, revived after it went out.
        slots[1].conn = Some(20);
        slots[2].alive = true;
        awaited.rescan(&slots, |w| w == 0);
        assert_eq!(awaited.count(), 0);
    }

    /// Events a test queues for the tier; each `next_event` pops one, or
    /// sleeps out its timeout when none is queued.
    type Queue = std::rc::Rc<std::cell::RefCell<std::collections::VecDeque<NetEvent>>>;

    /// A transport that plays back a test's queue and sends nowhere.
    struct Scripted(Queue);

    impl Transport for Scripted {
        fn next_event(&mut self, timeout: Duration) -> Result<Option<NetEvent>, NetError> {
            let event = self.0.borrow_mut().pop_front();
            if event.is_none() {
                std::thread::sleep(timeout);
            }
            Ok(event)
        }
        fn adopt(&mut self, _: Token, _: Arc<[u8]>, _: Option<Duration>) -> bool {
            true
        }
        fn reject(&mut self, _: Token) {}
        fn send(&mut self, _: Token, _: Arc<[u8]>) {}
        fn broadcast(&mut self, _: &Arc<[u8]>, _: &[Token]) {}
        fn flush_all(&mut self, _: Duration) {}
        fn flush_conn(&mut self, _: Token, _: Duration) -> bool {
            true
        }
        fn hard_close_all(&mut self) {}
    }

    struct Workers;

    impl Host for Workers {
        type Answer = Vector;
        fn welcome(&self, _: usize) -> Arc<[u8]> {
            Arc::from(Vec::new())
        }
        fn read(&mut self, slot: usize, frame: Frame) -> Reply<Vector> {
            worker_reply(slot, frame)
        }
    }

    /// A tier with workers 0 and 1 seated on tokens 10 and 11.
    fn seated_pair() -> (Tier, Queue) {
        let queue = Queue::default();
        let mut tier = Tier::new(
            Peers::Workers,
            0,
            2,
            None,
            Box::new(Scripted(queue.clone())),
        );
        for (token, worker) in [(10, 0), (11, 1)] {
            let preferred = Some(worker);
            queue
                .borrow_mut()
                .push_back(NetEvent::Hello { token, preferred });
        }
        tier.await_registered(&mut Workers, Duration::from_secs(1), "test")
            .unwrap();
        (tier, queue)
    }

    fn codeword(token: Token, step: u64) -> NetEvent {
        let values = Vector::from_slice(&[1.0]);
        NetEvent::Codeword {
            token,
            step,
            values,
            bytes: 0,
        }
    }

    #[test]
    fn a_deadline_counts_from_the_broadcast_however_late_the_gather_starts() {
        let (mut tier, queue) = seated_pair();
        let (d, late) = (Duration::from_millis(200), Duration::from_millis(120));
        let before = Instant::now();
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 0, &[0.5]);
        // Worker 0 answers; worker 1 never does, so only the deadline ends
        // the step. The gather starts `late`, as after a loss evaluation.
        queue.borrow_mut().push_back(codeword(10, 0));
        std::thread::sleep(late);
        let gather = Instant::now();
        let collected = tier.collect(&mut Workers, WaitPolicy::Deadline(d)).unwrap();
        let closed = Instant::now();
        assert_eq!(collected.arrivals, vec![0]);
        assert!(closed >= before + d, "closed before broadcast + d");
        assert!(
            closed < gather + d,
            "closed {:?} after the gather started: the deadline moved",
            closed - gather
        );
        // The wait is what the gather blocked, not the time since broadcast.
        assert!(collected.waited <= closed - gather);
        assert!(collected.waited < d);
        // A second gather has nothing broadcast to collect.
        assert!(tier.collect(&mut Workers, WaitPolicy::Deadline(d)).is_err());
    }

    #[test]
    fn close_drains_the_outstanding_step_within_the_limit() {
        // Everyone that saw the broadcast answers or declines: the drain
        // reads both and stops without waiting out the limit.
        let (mut tier, queue) = seated_pair();
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 4, &[0.5]);
        let decline = Message::Decline { worker: 1, step: 4 };
        queue.borrow_mut().extend([
            codeword(10, 3), // stale: read, not counted as an answer
            codeword(10, 4),
            NetEvent::Msg {
                token: 11,
                message: decline,
                bytes: 0,
            },
        ]);
        let start = Instant::now();
        tier.close(&mut Workers, false, 0, Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(queue.borrow().is_empty(), "the drain left answers unread");

        // Worker 1 never answers: the drain gives up at the limit.
        let (mut tier, queue) = seated_pair();
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 0, &[0.5]);
        queue.borrow_mut().push_back(codeword(10, 0));
        let start = Instant::now();
        tier.close(&mut Workers, false, 0, Duration::from_millis(100));
        let took = start.elapsed();
        assert!(took >= Duration::from_millis(100), "{took:?}");
        assert!(took < Duration::from_secs(1), "{took:?}");

        // With nothing outstanding, close reads nothing.
        let (mut tier, queue) = seated_pair();
        queue.borrow_mut().push_back(codeword(10, 0));
        tier.close(&mut Workers, false, 0, Duration::from_secs(5));
        assert_eq!(queue.borrow().len(), 1);
    }
}
