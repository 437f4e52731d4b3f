//! The virtual network: per-connection FIFO queues, modeled workers, and a
//! [`Transport`] implementation that turns every nondeterministic delivery
//! or fault decision into a schedule choice point.
//!
//! A [`World`] models the peer side of the master: its workers. The world
//! records its choice points in the run's [`Ctx`], one decision vector per
//! run. Tokens are creation indices — connection `k` is always token `k`,
//! which keeps runs replayable.
//!
//! A modeled worker is the shipped one: an `isgc_net` [`WorkerCore`] answers
//! every `Params`, and a fault is [`FaultKind::script`] — the table the
//! chaos client performs as bytes — performed here as queued events. The
//! checker therefore verifies the peer it later replays against, and any
//! recovery discrepancy it finds is the collector's fault, never the
//! model's.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use isgc_core::hash::{fnv1a, FNV_BASIS};
use isgc_engine::WorkerStep;
use isgc_linalg::Vector;
use isgc_ml::{Dataset, LinearRegression};
use isgc_net::seam::{NetEvent, Token, Transport};
use isgc_net::wire::Message;
use isgc_net::{Assignment, NetError, WorkerCore};

use crate::harness::ChaosConfig;
use crate::plan::{Action, Fault, FaultKind};
use crate::sched::{fnv_u64, Ctx, Poison, PRUNE, STUCK};

/// A modeled peer process bound to one connection.
#[derive(Debug, Clone)]
pub(crate) struct Sim {
    /// Global worker id.
    pub worker: usize,
    /// The worker's protocol state, from its first adopted `Assign` on; it
    /// moves to the fresh connection when the worker flaps.
    pub core: Option<WorkerCore>,
    /// Whether the collector adopted the connection.
    pub registered: bool,
}

impl Sim {
    fn unregistered(worker: usize) -> Sim {
        Sim {
            worker,
            core: None,
            registered: false,
        }
    }

    /// The adopted `Assign`, fed to the core as any client would: the first
    /// creates it, a later one (rejoin, placement repair) re-assigns it.
    fn assign(&mut self, message: Message) {
        match &mut self.core {
            Some(core) => {
                core.handle(message);
            }
            None => self.core = Assignment::from_message(message).ok().map(WorkerCore::new),
        }
    }
}

/// One virtual connection: FIFO queue toward the collector plus the rolling
/// hash of everything already delivered on it.
pub(crate) struct Conn {
    open: bool,
    queue: VecDeque<(NetEvent, u64)>,
    delivered: u64,
    sim: Option<Sim>,
}

/// The peer side of the master: connections, modeled workers, and the
/// shared training recipe used to compute honest codewords.
pub(crate) struct World {
    pub(crate) ctx: Rc<RefCell<Ctx>>,
    conns: Vec<Conn>,
    /// `Some(step)` once the collector broadcast that step's `Params`;
    /// delivery order only branches inside a collection window
    /// (registration order is immaterial under preferred-slot adoption).
    collecting: Option<u64>,
    model: LinearRegression,
    dataset: Dataset,
    work: WorkerStep,
}

impl World {
    /// A world whose workers train `chaos`'s task, as the chaos harness's
    /// workers do.
    pub(crate) fn new(ctx: Rc<RefCell<Ctx>>, chaos: &ChaosConfig) -> Rc<RefCell<World>> {
        let (model, dataset) = chaos.task();
        let work = WorkerStep::new(&model, &dataset, chaos.n, chaos.batch_size, chaos.seed);
        Rc::new(RefCell::new(World {
            ctx,
            conns: Vec::new(),
            collecting: None,
            model,
            dataset,
            work,
        }))
    }

    fn push_conn(&mut self, sim: Option<Sim>) -> Token {
        let token = self.conns.len() as Token;
        self.conns.push(Conn {
            open: true,
            queue: VecDeque::new(),
            delivered: FNV_BASIS,
            sim,
        });
        token
    }

    /// Creates a modeled worker and queues its registration `Hello`.
    pub(crate) fn spawn_worker(&mut self, worker: usize) {
        let token = self.push_conn(Some(Sim::unregistered(worker)));
        self.enqueue(
            token,
            NetEvent::Hello {
                token,
                preferred: Some(worker as u64),
            },
        );
    }

    fn enqueue(&mut self, token: Token, event: NetEvent) {
        let hash = event_hash(&event);
        let conn = &mut self.conns[token as usize];
        if conn.open {
            conn.queue.push_back((event, hash));
        }
    }

    /// Queues `message` as the event the reactor would deliver for its
    /// frame: codewords take the `CodewordView` path, everything else is a
    /// `Msg`.
    fn enqueue_msg(&mut self, token: Token, message: Message) {
        let bytes = message.encode().len();
        let event = match message {
            Message::Codeword { step, values, .. } => NetEvent::Codeword {
                token,
                step,
                values: Vector::from(values),
                bytes,
            },
            message => NetEvent::Msg {
                token,
                message,
                bytes,
            },
        };
        self.enqueue(token, event);
    }

    /// A modeled worker reacts to one `Params` broadcast: answer as the
    /// shipped worker does, or take one scripted/explored fault.
    fn worker_params(&mut self, token: Token, step: u64, values: &[f64]) {
        let idx = token as usize;
        let Some((worker, core)) = self.conns.get(idx).and_then(|c| {
            let sim = c.sim.as_ref()?;
            Some((sim.worker, sim.core.clone()?))
        }) else {
            return;
        };
        let params = Vector::from_slice(values);
        // A sat-out step is declined whatever the schedule says.
        let fault = if core.sits_out(step) {
            None
        } else {
            match self.choose_fault(worker, step) {
                Some(fault) => fault,
                None => return,
            }
        };
        let Some(kind) = fault else {
            let reply = core.answer(&mut self.work, &self.model, &self.dataset, step, &params);
            self.enqueue_msg(token, reply);
            return;
        };
        for action in kind.script(step) {
            match action {
                Action::Honest { step } => {
                    let frame =
                        core.honest(&mut self.work, &self.model, &self.dataset, step, &params);
                    self.enqueue_msg(token, frame);
                }
                Action::Decline { step } => self.enqueue_msg(token, core.decline(step)),
                Action::Rejoin { decline_until } => {
                    self.enqueue(token, NetEvent::Gone { token });
                    let mut peer = self.conns[idx].sim.take().expect("checked above");
                    peer.registered = false;
                    if let Some(core) = peer.core.as_mut() {
                        core.sit_out_until(decline_until);
                    }
                    let fresh = self.push_conn(Some(peer));
                    self.enqueue(
                        fresh,
                        NetEvent::Hello {
                            token: fresh,
                            preferred: Some(worker as u64),
                        },
                    );
                    return;
                }
                Action::Exit => {
                    self.enqueue(token, NetEvent::Gone { token });
                    self.conns[idx].sim = None;
                    return;
                }
                Action::Sleep(_) | Action::Mangled { .. } => {
                    debug_assert!(false, "fault kind {kind:?} is not modeled by the checker");
                }
            }
        }
    }

    /// The fault `worker` takes at `step`: the scripted one in directed
    /// mode, a schedule choice point in free exploration. The outer `None`
    /// means the run is poisoned and the worker must not react at all.
    fn choose_fault(&mut self, worker: usize, step: u64) -> Option<Option<FaultKind>> {
        let ctx_rc = Rc::clone(&self.ctx);
        let mut ctx = ctx_rc.borrow_mut();
        if ctx.forced.is_some() {
            return Some(ctx.forced_fault(worker, step).map(|f| f.kind));
        }
        let mut kinds: Vec<FaultKind> = Vec::new();
        if ctx.faults.len() < ctx.max_faults {
            kinds.push(FaultKind::Decline);
            if step >= 1 {
                kinds.push(FaultKind::Stale);
            }
            if step + 1 < ctx.steps {
                // A duplicate at the final step is unobservable: the second
                // copy would never be delivered.
                kinds.push(FaultKind::Duplicate);
            }
            kinds.push(FaultKind::Drop);
        }
        let state = self.state_hash(&ctx);
        let choice = ctx.choose(1 + kinds.len(), state)?;
        Some(choice.checked_sub(1).map(|i| {
            let kind = kinds[i];
            ctx.faults.push(Fault { worker, step, kind });
            kind
        }))
    }

    /// Pops the next event toward the collector. Single non-empty queue (or
    /// registration phase): deterministic. Several during collection: a
    /// schedule choice point. Nothing queued: the collector is deadlocked.
    pub(crate) fn pop_next(&mut self) -> Result<Option<NetEvent>, NetError> {
        let ctx_rc = Rc::clone(&self.ctx);
        if let Some(poison) = ctx_rc.borrow().poison {
            return Err(poison_error(poison));
        }
        let candidates: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.open && !c.queue.is_empty())
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            ctx_rc.borrow_mut().poison = Some(Poison::Stuck);
            return Err(poison_error(Poison::Stuck));
        }
        let pick = if candidates.len() == 1 || self.collecting.is_none() {
            candidates[0]
        } else {
            let mut ctx = ctx_rc.borrow_mut();
            let state = self.state_hash(&ctx);
            match ctx.choose(candidates.len(), state) {
                Some(i) => candidates[i],
                None => {
                    let poison = ctx.poison.unwrap_or(Poison::Prune);
                    return Err(poison_error(poison));
                }
            }
        };
        let (event, hash) = self.conns[pick]
            .queue
            .pop_front()
            .expect("candidate non-empty");
        self.conns[pick].delivered = fnv_u64(self.conns[pick].delivered, hash);
        let phase = self.collecting.map_or(0, |s| s as usize + 1);
        // The multiset key must identify the *source* connection, not just
        // the frame: under FR replication two workers of one group emit
        // byte-identical codewords, and their absences must not alias.
        let keyed = fnv_u64(fnv_u64(FNV_BASIS, pick as u64), hash);
        ctx_rc.borrow_mut().record_delivery(phase, keyed);
        Ok(Some(event))
    }

    fn adopt(&mut self, token: Token, first: &[u8]) -> bool {
        let Some(conn) = self.conns.get_mut(token as usize) else {
            return false;
        };
        if !conn.open {
            return false;
        }
        let Ok((_, message, _)) = Message::decode_tagged(first) else {
            return true;
        };
        if let (Message::Assign { worker, .. }, Some(sim)) = (&message, conn.sim.as_mut()) {
            debug_assert_eq!(sim.worker as u64, *worker, "adopted into a foreign slot");
            sim.assign(message);
            sim.registered = true;
        }
        true
    }

    fn reject(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(token as usize) {
            conn.open = false;
            conn.queue.clear();
            conn.sim = None;
        }
    }

    fn send(&mut self, token: Token, frame: &[u8]) {
        // Mid-run repair re-assignment is the only unicast the modeled
        // peers care about.
        if let Ok((_, message @ Message::Assign { .. }, _)) = Message::decode_tagged(frame) {
            if let Some(sim) = self
                .conns
                .get_mut(token as usize)
                .and_then(|c| c.sim.as_mut())
            {
                sim.assign(message);
            }
        }
    }

    fn hard_close_all(&mut self) {
        for conn in &mut self.conns {
            conn.open = false;
            conn.queue.clear();
        }
    }

    /// Canonical hash of this world plus the fault schedule so far. Sound
    /// as a pruning key: the master's state is a function of
    /// each connection's delivered *sequence* (captured by the rolling
    /// hashes), the pending queues, and the modeled-worker states.
    fn state_hash(&self, ctx: &Ctx) -> u64 {
        let mut h = FNV_BASIS;
        h = fnv_u64(h, self.collecting.map_or(u64::MAX, |s| s));
        for conn in &self.conns {
            h = fnv_u64(h, u64::from(conn.open));
            h = fnv_u64(h, conn.delivered);
            for &(_, event) in &conn.queue {
                h = fnv_u64(h, event);
            }
            h = fnv_u64(h, 0x5EED);
            match &conn.sim {
                None => h = fnv_u64(h, u64::MAX),
                Some(sim) => {
                    h = fnv_u64(h, sim.worker as u64);
                    h = fnv_u64(h, sim.core.as_ref().map_or(0, WorkerCore::decline_until));
                    h = fnv_u64(h, u64::from(sim.registered));
                }
            }
        }
        for fault in &ctx.faults {
            h = fnv_u64(h, fault.worker as u64);
            h = fnv_u64(h, fault.step);
            h = fnv1a(h, format!("{:?}", fault.kind).as_bytes());
        }
        h
    }
}

/// Order-insensitive identity of one event, used both for the rolling
/// per-connection delivery hashes and for the per-phase delivered-multiset
/// key.
fn event_hash(event: &NetEvent) -> u64 {
    let mut h = FNV_BASIS;
    match event {
        NetEvent::Hello { preferred, .. } => {
            h = fnv_u64(h, 1);
            h = fnv_u64(h, preferred.map_or(u64::MAX, |p| p));
        }
        NetEvent::Msg { message, .. } => {
            h = fnv_u64(h, 3);
            h = fnv1a(h, &message.encode());
        }
        NetEvent::Codeword { step, values, .. } => {
            h = fnv_u64(h, 4);
            h = fnv_u64(h, *step);
            for v in values.iter() {
                h = fnv_u64(h, v.to_bits());
            }
        }
        NetEvent::HeartbeatTimeout { .. } => h = fnv_u64(h, 5),
        NetEvent::Gone { .. } => h = fnv_u64(h, 6),
    }
    h
}

fn poison_error(poison: Poison) -> NetError {
    NetError::Protocol(match poison {
        Poison::Prune => PRUNE.into(),
        Poison::Stuck => STUCK.into(),
    })
}

/// The [`Transport`] handed to a collector loop: every call is forwarded to
/// the shared [`World`].
pub(crate) struct VirtualTransport {
    world: Rc<RefCell<World>>,
}

impl VirtualTransport {
    pub(crate) fn new(world: Rc<RefCell<World>>) -> VirtualTransport {
        VirtualTransport { world }
    }
}

impl Transport for VirtualTransport {
    fn next_event(&mut self, _timeout: Duration) -> Result<Option<NetEvent>, NetError> {
        self.world.borrow_mut().pop_next()
    }

    fn adopt(&mut self, token: Token, first: Arc<[u8]>, _idle: Option<Duration>) -> bool {
        self.world.borrow_mut().adopt(token, &first)
    }

    fn reject(&mut self, token: Token) {
        self.world.borrow_mut().reject(token);
    }

    fn send(&mut self, token: Token, frame: Arc<[u8]>) {
        self.world.borrow_mut().send(token, &frame);
    }

    fn broadcast(&mut self, frame: &Arc<[u8]>, targets: &[Token]) {
        let Ok((_, message, _)) = Message::decode_tagged(frame) else {
            return;
        };
        let Message::Params { step, values } = message else {
            // Shutdown and friends carry no peer reaction worth modeling.
            return;
        };
        // A `Params` broadcast opens a collection window: deliveries start
        // branching and the modeled peers react per target, in target order
        // (the real reactor writes frames in exactly this order too).
        let mut world = self.world.borrow_mut();
        world.collecting = Some(step);
        for &t in targets {
            world.worker_params(t, step, &values);
        }
    }

    fn flush_all(&mut self, _limit: Duration) {}

    fn hard_close_all(&mut self) {
        self.world.borrow_mut().hard_close_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{perform, Flow};

    const WORKER: usize = 2;
    const STEP: u64 = 1;
    const SEED: u64 = 7;

    /// For every fault the checker models, the events the modeled worker
    /// queues are the frames the chaos client writes — the property that
    /// lets a shrunk counterexample replay fingerprint-exactly on a real
    /// cluster.
    #[test]
    fn modeled_faults_queue_what_the_chaos_client_writes() {
        let mut chaos = ChaosConfig::new(SEED);
        chaos.n = 4;
        let (batch, features) = (chaos.batch_size, chaos.features);
        let assign = Message::Assign {
            worker: WORKER as u64,
            n: 4,
            c: 2,
            batch_size: batch as u64,
            seed: SEED,
            partitions: vec![2, 3],
        };
        let params: Vec<f64> = (0..=features).map(|i| 0.25 * i as f64 - 0.5).collect();

        for kind in [
            FaultKind::Decline,
            FaultKind::Stale,
            FaultKind::Duplicate,
            FaultKind::Drop,
            FaultKind::Die,
        ] {
            // The model's side: one registered worker takes the fault.
            let ctx = Rc::new(RefCell::new(Ctx::new(8, 0, 2, false)));
            ctx.borrow_mut().forced = Some(vec![Fault {
                worker: WORKER,
                step: STEP,
                kind,
            }]);
            let world = World::new(ctx, &chaos);
            let mut world = world.borrow_mut();
            world.spawn_worker(WORKER);
            assert!(world.adopt(0, &assign.encode()));
            world.conns[0].queue.clear(); // the registration Hello
            world.worker_params(0, STEP, &params);
            // Frames back out of the queued events, as the reactor reads
            // them in; a closed socket is `Gone`, a handshake `Hello`.
            let mut modeled = Vec::new();
            let mut control = Vec::new();
            for (event, _) in world.conns.iter().flat_map(|c| &c.queue) {
                let (frame, bytes) = match event {
                    NetEvent::Codeword {
                        step,
                        values,
                        bytes,
                        ..
                    } => {
                        let message = Message::Codeword {
                            worker: WORKER as u64,
                            step: *step,
                            values: values.as_slice().to_vec(),
                        };
                        (message.encode(), bytes)
                    }
                    NetEvent::Msg { message, bytes, .. } => (message.encode(), bytes),
                    other => {
                        control.push(format!("{other:?}"));
                        continue;
                    }
                };
                assert_eq!(*bytes, frame.len(), "{kind:?}");
                modeled.extend(frame);
            }

            // The chaos client's side: same assignment, same recipe.
            let (model, dataset) = chaos.task();
            let mut core = WorkerCore::new(Assignment::from_message(assign.clone()).unwrap());
            let mut work = core.assignment().work(&model, &dataset);
            let mut written = Vec::new();
            let flow = perform(
                &kind.script(STEP),
                &mut core,
                &mut work,
                &model,
                &dataset,
                &Vector::from_slice(&params),
                &mut written,
            );

            assert_eq!(modeled, written, "{kind:?}");
            let gone = format!("{:?}", NetEvent::Gone { token: 0 });
            let hello = format!(
                "{:?}",
                NetEvent::Hello {
                    token: 1,
                    preferred: Some(WORKER as u64),
                }
            );
            let expected = match flow {
                Flow::Continue => vec![],
                Flow::Exit => vec![gone],
                Flow::Rejoin => vec![gone, hello],
            };
            assert_eq!(control, expected, "{kind:?}");
            let rejoined = world.conns.last().and_then(|c| c.sim.as_ref());
            assert_eq!(
                rejoined.map(|s| s.core.as_ref().map(WorkerCore::decline_until)),
                (flow != Flow::Exit).then_some(Some(core.decline_until())),
                "{kind:?}"
            );
        }
    }
}
