//! The master's peer table and collection loop.
//!
//! A *tier* is the listening side of the protocol: a table of worker slots,
//! the connections that currently own them, and the loop that — after a
//! step's broadcast — stops on an arbitrary arrival set and ignores the
//! rest. What the master supplies — the registration reply, where events
//! come from, whose rejoin to wait for — is its [`Host`]. Everything else
//! is written once, here: which slot a newcomer gets, what `Gone`,
//! heartbeat silence and a late frame do to a slot, who is still awaited,
//! and how a step's answers are told apart from stale ones and declines.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use isgc_linalg::Vector;

use crate::reactor::{NetEvent, Token};
use crate::seam::Transport;
use crate::wire::{encode_params_frame, Message};
use crate::{NetError, WaitPolicy};

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
    /// When the broadcast went out, on the transport's clock: a deadline
    /// counts from here, however late the collection starts.
    at: Duration,
    /// Who is to answer, as of the broadcast.
    awaited: Awaited,
}

/// What a frame says about a step.
enum Reply {
    /// `(slot, step, codeword)`: the slot's answer to the step it is tagged
    /// for.
    Answer(usize, u64, Vector),
    /// `(slot, step)`: a fast-fail straggler signal — the slot will not
    /// answer that step.
    Decline(usize, u64),
    /// Nothing about any step; liveness may have changed anywhere.
    Nothing,
}

/// What a tier cannot know about its owner.
pub(crate) trait Host {
    /// Pulls the next event. A host overrides this to count frames.
    fn next_event(
        &mut self,
        transport: &mut dyn Transport,
        timeout: Duration,
    ) -> Result<Option<NetEvent>, NetError> {
        transport.next_event(timeout)
    }

    /// The registration reply for the peer taking `slot`.
    fn welcome(&self, slot: usize) -> Arc<[u8]>;

    /// Whether a step start should wait out the rejoin grace for `slot`'s
    /// disconnected peer.
    fn awaits_rejoin(&self, _slot: usize) -> bool {
        true
    }
}

/// What one step's collection phase produced, indexed by slot.
pub(crate) struct CollectedStep {
    /// Slots that answered, in arrival order.
    pub(crate) arrivals: Vec<usize>,
    /// Each slot's codeword, if it gave one.
    pub(crate) answers: Vec<Option<Vector>>,
    /// How long the collection waited.
    pub(crate) waited: Duration,
    /// Answers discarded by step tag (late, or duplicates).
    pub(crate) stale: usize,
    /// Slots that declined the step, ascending.
    pub(crate) declined: Vec<usize>,
}

/// The peer table over its transport (the
/// [`Reactor`](crate::reactor::Reactor) in production, a virtual network
/// under the model checker). Polled inline: no tier spends a thread on I/O.
pub(crate) struct Tier {
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
    /// A tier of `len` unregistered slots.
    pub(crate) fn new(len: usize, idle: Option<Duration>, transport: Box<dyn Transport>) -> Tier {
        Tier {
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

    /// The slot an adopted connection currently owns, or `None` when the
    /// event came from a replaced (or never-registered) connection.
    fn slot_of(&self, token: Token) -> Option<usize> {
        let slot = *self.owner.get(&token)?;
        (self.slots[slot].conn == Some(token)).then_some(slot)
    }

    /// The slot a newcomer gets: the one it claims by id when that is in
    /// range; for an id-less one the first never-registered slot, else —
    /// the tier is full, so this is a peer that lost its id and reconnected
    /// fresh — the first dead one.
    fn claim(&self, preferred: Option<u64>) -> Option<usize> {
        match preferred {
            Some(id) => Some(id as usize).filter(|&slot| slot < self.slots.len()),
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
    /// late frame mean — and reads what a frame says about a step:
    /// codewords answer, `Decline` declines, and anything else (heartbeats;
    /// a confused peer must not kill the run) only proves its sender alive.
    fn note<H: Host>(&mut self, host: &mut H, event: NetEvent) -> Reply {
        let token = match &event {
            &NetEvent::Hello { token, preferred } => {
                self.seat(host, token, preferred);
                return Reply::Nothing;
            }
            &NetEvent::Gone { token } => {
                if let Some(slot) = self.slot_of(token) {
                    self.slots[slot].alive = false;
                    self.slots[slot].conn = None;
                }
                self.owner.remove(&token);
                return Reply::Nothing;
            }
            &NetEvent::HeartbeatTimeout { token } => {
                // The transport says this connection has been silent past
                // its idle deadline: presumed dead. The socket stays open —
                // a late frame revives the slot.
                if let Some(slot) = self.slot_of(token) {
                    self.slots[slot].alive = false;
                }
                return Reply::Nothing;
            }
            NetEvent::Codeword { token, .. } | NetEvent::Msg { token, .. } => *token,
        };
        let Some(slot) = self.slot_of(token) else {
            return Reply::Nothing; // from a replaced connection
        };
        self.slots[slot].alive = true;
        match event {
            NetEvent::Codeword { step, values, .. } => Reply::Answer(slot, step, values),
            NetEvent::Msg {
                message: Message::Decline { step, .. },
                ..
            } => Reply::Decline(slot, step),
            _ => Reply::Nothing,
        }
    }

    /// Pulls one event through the host and the table, waiting up to
    /// `timeout`; `None` when the wait ended without one.
    fn hear<H: Host>(
        &mut self,
        host: &mut H,
        timeout: Duration,
    ) -> Result<Option<Reply>, NetError> {
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

    /// Blocks until every slot registered (or `timeout` passes).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on timeout; transport failures.
    pub(crate) fn await_registered<H: Host>(
        &mut self,
        host: &mut H,
        timeout: Duration,
    ) -> Result<(), NetError> {
        let deadline = self.transport.now().saturating_add(timeout);
        loop {
            let registered = self.slots.iter().filter(|s| s.registered).count();
            if registered == self.len() {
                return Ok(());
            }
            let now = self.transport.now();
            if now >= deadline {
                return Err(NetError::Protocol(format!(
                    "registration timed out with {registered} of {} workers",
                    self.len()
                )));
            }
            self.hear(host, deadline - now)?;
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
        let deadline = self.transport.now().saturating_add(grace);
        while (0..self.len()).any(|w| {
            let slot = &self.slots[w];
            slot.registered && !slot.alive && host.awaits_rejoin(w)
        }) {
            let now = self.transport.now();
            if now >= deadline {
                break;
            }
            match self.hear(host, deadline - now) {
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
            at: self.transport.now(),
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
    ) -> Result<CollectedStep, NetError> {
        let outstanding = self.outstanding.take().ok_or_else(|| {
            NetError::Protocol("collecting a step that was never broadcast".into())
        })?;
        self.collect_until(host, outstanding, wait, None)
    }

    /// [`Tier::collect`] for `outstanding`, which also stops at `limit`.
    /// Each wait runs until the next event, the cutoff if it is still ahead,
    /// or `limit`, whichever comes first.
    fn collect_until<H: Host>(
        &mut self,
        host: &mut H,
        outstanding: Outstanding,
        wait: WaitPolicy,
        limit: Option<Duration>,
    ) -> Result<CollectedStep, NetError> {
        let Outstanding {
            step,
            at,
            mut awaited,
        } = outstanding;
        let gather_start = self.transport.now();
        let cutoff = match wait {
            WaitPolicy::FirstW(_) => None,
            WaitPolicy::Deadline(d) => Some(at.saturating_add(d)),
        };
        let n = self.len();
        let mut answers: Vec<Option<Vector>> = (0..n).map(|_| None).collect();
        // Sized once: the list is kept in the step's report for the whole
        // run, and growing it by doubling would retain up to 2n slots.
        let mut arrivals: Vec<usize> = Vec::with_capacity(n);
        let mut declined: Vec<bool> = vec![false; n];
        let mut stale = 0usize;
        // Whether the last wait found nothing queued.
        let mut quiet = false;

        loop {
            // Heartbeat silence arrives as HeartbeatTimeout events off the
            // transport's deadlines (noted below); no wall-clock sweep.
            let now = self.transport.now();
            let alive_pending = awaited.count();
            let expired = cutoff.is_some_and(|c| now >= c);
            let done = match wait {
                WaitPolicy::FirstW(w) => arrivals.len() >= w || alive_pending == 0,
                WaitPolicy::Deadline(_) => {
                    (expired && quiet && !arrivals.is_empty()) || alive_pending == 0
                }
            } || limit.is_some_and(|l| now >= l);
            if done {
                return Ok(CollectedStep {
                    arrivals,
                    answers,
                    waited: now - gather_start,
                    stale,
                    declined: (0..n).filter(|&w| declined[w]).collect(),
                });
            }

            // A passed cutoff still reads what has already arrived, without
            // waiting; with nothing arrived it waits for the first codeword,
            // however long it takes.
            let until = match (expired, arrivals.is_empty()) {
                (false, _) => cutoff,
                (true, false) => Some(now),
                (true, true) => None,
            };
            let until = until.into_iter().chain(limit).min();
            let timeout = until.map_or(Duration::MAX, |u| u - now);
            let Some(reply) = self.hear(host, timeout)? else {
                quiet = true;
                continue;
            };
            quiet = false;
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
                let limit = self.transport.now().saturating_add(flush_limit);
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

    /// What a test scripts for the tier: the events to play back, a virtual
    /// clock, and the timeout of every `next_event` call that found nothing
    /// queued.
    #[derive(Default)]
    struct Script {
        events: std::collections::VecDeque<NetEvent>,
        now: Duration,
        quiet: Vec<Duration>,
    }

    type Shared = std::rc::Rc<std::cell::RefCell<Script>>;

    /// A transport that plays back a test's script and sends nowhere. A
    /// `next_event` with nothing queued waits out its whole timeout on the
    /// virtual clock, at once; one without a timeout fails, since nothing
    /// would ever end it.
    struct Scripted(Shared);

    impl Transport for Scripted {
        fn now(&self) -> Duration {
            self.0.borrow().now
        }
        fn next_event(&mut self, timeout: Duration) -> Result<Option<NetEvent>, NetError> {
            let mut script = self.0.borrow_mut();
            let event = script.events.pop_front();
            if event.is_none() {
                if timeout == Duration::MAX {
                    return Err(NetError::Protocol("waits forever".into()));
                }
                script.now += timeout;
                script.quiet.push(timeout);
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
        fn hard_close_all(&mut self) {}
    }

    struct Workers;

    impl Host for Workers {
        fn welcome(&self, _: usize) -> Arc<[u8]> {
            Arc::from(Vec::new())
        }
    }

    /// A tier with workers 0 and 1 seated on tokens 10 and 11.
    fn seated_pair() -> (Tier, Shared) {
        let script = Shared::default();
        let mut tier = Tier::new(2, None, Box::new(Scripted(script.clone())));
        for (token, worker) in [(10, 0), (11, 1)] {
            let preferred = Some(worker);
            script
                .borrow_mut()
                .events
                .push_back(NetEvent::Hello { token, preferred });
        }
        tier.await_registered(&mut Workers, Duration::from_secs(1))
            .unwrap();
        assert!(script.borrow().quiet.is_empty());
        (tier, script)
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
        let (mut tier, script) = seated_pair();
        let (d, late) = (Duration::from_millis(200), Duration::from_millis(120));
        let broadcast = Duration::from_millis(7);
        script.borrow_mut().now = broadcast;
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 0, &[0.5]);
        // Worker 0 answers; worker 1 never does, so only the deadline ends
        // the step. The gather starts `late`, as after a loss evaluation.
        script.borrow_mut().events.push_back(codeword(10, 0));
        script.borrow_mut().now += late;
        let collected = tier.collect(&mut Workers, WaitPolicy::Deadline(d)).unwrap();
        assert_eq!(collected.arrivals, vec![0]);
        // It closes exactly at broadcast + d, after one quiet wait that ran
        // to the cutoff. The wait is what the gather blocked, not the time
        // since the broadcast.
        assert_eq!(script.borrow().now, broadcast + d);
        assert_eq!(script.borrow().quiet, vec![d - late]);
        assert_eq!(collected.waited, d - late);
        // A second gather has nothing broadcast to collect.
        assert!(tier.collect(&mut Workers, WaitPolicy::Deadline(d)).is_err());
    }

    #[test]
    fn a_deadline_past_with_nothing_arrived_waits_for_the_first_codeword() {
        let (mut tier, script) = seated_pair();
        let d = Duration::from_millis(30);
        // The cutoff passes before anything arrives: the step stays open
        // through a heartbeat and closes on the first codeword.
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 3, &[0.5]);
        script.borrow_mut().now += 2 * d;
        let heartbeat = NetEvent::Msg {
            token: 10,
            message: Message::Heartbeat { worker: 0 },
            bytes: 0,
        };
        script
            .borrow_mut()
            .events
            .extend([heartbeat, codeword(11, 3)]);
        let collected = tier.collect(&mut Workers, WaitPolicy::Deadline(d)).unwrap();
        assert_eq!(collected.arrivals, vec![1]);
        // With nothing to come, the wait has no timeout at all: it neither
        // closes an empty step nor spins on a zero timeout.
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 4, &[0.5]);
        script.borrow_mut().now += 2 * d;
        let err = tier.collect(&mut Workers, WaitPolicy::Deadline(d));
        assert!(matches!(err, Err(NetError::Protocol(why)) if why == "waits forever"));
        // The first step read its queue dry once, without waiting.
        assert_eq!(script.borrow().quiet, vec![Duration::ZERO]);
    }

    #[test]
    fn a_deadline_past_reads_every_codeword_already_arrived() {
        // The gather starts after its cutoff (a co-tenant job held the
        // thread) with both workers' codewords queued: the step counts both,
        // leaving none to be discarded as stale at the next step.
        let (mut tier, script) = seated_pair();
        let d = Duration::from_millis(30);
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 0, &[0.5]);
        script.borrow_mut().now += 2 * d;
        script
            .borrow_mut()
            .events
            .extend([codeword(10, 0), codeword(11, 0)]);
        let collected = tier.collect(&mut Workers, WaitPolicy::Deadline(d)).unwrap();
        assert_eq!(collected.arrivals, vec![0, 1]);
        assert_eq!(collected.stale, 0);
        assert_eq!(script.borrow().now, 2 * d);
    }

    #[test]
    fn close_drains_the_outstanding_step_within_the_limit() {
        // Everyone that saw the broadcast answers or declines: the drain
        // reads both and stops without waiting at all.
        let (mut tier, script) = seated_pair();
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 4, &[0.5]);
        let decline = Message::Decline { worker: 1, step: 4 };
        script.borrow_mut().events.extend([
            codeword(10, 3), // stale: read, not counted as an answer
            codeword(10, 4),
            NetEvent::Msg {
                token: 11,
                message: decline,
                bytes: 0,
            },
        ]);
        tier.close(&mut Workers, false, 0, Duration::from_secs(5));
        let drained = script.borrow();
        assert!(drained.events.is_empty(), "the drain left answers unread");
        assert!(drained.quiet.is_empty());
        assert_eq!(drained.now, Duration::ZERO);
        drop(drained);

        // Worker 1 never answers: the drain gives up exactly at the limit,
        // after one quiet wait that ran to it.
        let (mut tier, script) = seated_pair();
        tier.broadcast_step(&mut Workers, Duration::ZERO, 0, 0, &[0.5]);
        script.borrow_mut().events.push_back(codeword(10, 0));
        let limit = Duration::from_millis(100);
        tier.close(&mut Workers, false, 0, limit);
        assert_eq!(script.borrow().now, limit);
        assert_eq!(script.borrow().quiet, vec![limit]);

        // With nothing outstanding, close reads nothing.
        let (mut tier, script) = seated_pair();
        script.borrow_mut().events.push_back(codeword(10, 0));
        tier.close(&mut Workers, false, 0, Duration::from_secs(5));
        assert_eq!(script.borrow().events.len(), 1);
    }
}
