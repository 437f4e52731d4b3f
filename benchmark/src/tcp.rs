//! One closed-loop TCP session, driven from outside: `Master::bind` →
//! `into_session` → `MasterSession::step()` on this thread, all `n` workers
//! from `isgc_net::run_swarm` on a second one. Step `t + 1` is broadcast
//! only after step `t` closed.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use isgc_engine::SessionStatus;
use isgc_ml::model::SoftmaxRegression;
use isgc_net::{
    Master, MasterSession, NetConfig, NetError, SwarmOptions, SwarmSummary, WaitPolicy,
};
use isgc_obs::Registry;

use crate::alloc::{self, Role};
use crate::host;
use crate::session::{Gate, LayerCounts, SessionStats};
use crate::stats::Window;
use crate::trace::Tracer;
use crate::workloads::{Plan, Shape};

/// Registry counters read at the edges of the measured region.
const COUNTERS: [&str; 7] = [
    isgc_net::metrics::FRAMES_RECEIVED_TOTAL,
    isgc_net::metrics::FRAMES_SENT_TOTAL,
    isgc_net::metrics::BYTES_RECEIVED_TOTAL,
    isgc_net::metrics::BYTES_SENT_TOTAL,
    isgc_net::metrics::REACTOR_WAKEUPS_TOTAL,
    isgc_net::metrics::REACTOR_READY_EVENTS_TOTAL,
    isgc_net::metrics::REACTOR_PARTIAL_WRITES_TOTAL,
];

fn read_counters(registry: Option<&Registry>) -> [u64; 7] {
    COUNTERS.map(|name| registry.and_then(|r| r.counter(name, &[])).unwrap_or(0))
}

/// Thread CPU, allocation and registry counters at one instant.
struct Snapshot {
    master_cpu_ns: u64,
    swarm_cpu_ns: u64,
    master_allocs: u64,
    swarm_allocs: u64,
    counters: [u64; 7],
}

impl Snapshot {
    fn take(master_tid: Option<u64>, swarm_tid: Option<u64>, registry: Option<&Registry>) -> Self {
        let cpu = |tid: Option<u64>| tid.and_then(host::thread_cpu_ns).unwrap_or(0);
        Snapshot {
            master_cpu_ns: cpu(master_tid),
            swarm_cpu_ns: cpu(swarm_tid),
            master_allocs: alloc::count(Role::Stepper),
            swarm_allocs: alloc::count(Role::Swarm),
            counters: read_counters(registry),
        }
    }
}

/// Steps `session` until `length` has passed; the step that crosses the
/// deadline completes, and the window's wall time is what actually elapsed.
fn step_for(
    session: &mut MasterSession<SoftmaxRegression>,
    length: Duration,
    mut step_ms: Option<&mut Vec<f64>>,
    next_step: &mut u64,
    tracer: &mut Tracer,
) -> Result<Window, NetError> {
    let start = Instant::now();
    let mut steps = 0u64;
    loop {
        let before = Instant::now();
        let status = session.step()?;
        let after = Instant::now();
        steps += 1;
        if let Some(samples) = step_ms.as_deref_mut() {
            samples.push((after - before).as_secs_f64() * 1e3);
        }
        tracer.leaf("engine.step", before, after, Some(*next_step));
        *next_step += 1;
        if status == SessionStatus::Done {
            return Err(NetError::Protocol(
                "session ended before the window closed".into(),
            ));
        }
        if after - start >= length {
            return Ok(Window {
                steps,
                seconds: (after - start).as_secs_f64(),
            });
        }
    }
}

/// Runs one full session of `shape` under `plan` and returns what it
/// measured. `registry` switches the program's own metrics on (the traced
/// run); spans go to `tracer` when it is enabled.
///
/// # Errors
///
/// Set-up failures only (bind, handshake, registration): the run cannot
/// measure anything. Failures after set-up are counted by the gate.
pub fn run_session(
    shape: &Shape,
    seed: u64,
    plan: &Plan,
    registry: Option<Registry>,
    tracer: &mut Tracer,
) -> Result<SessionStats, String> {
    let shape = *shape;
    let placement = shape.placement();
    let session_span = tracer.open("session");

    // ---- set-up: everything between "nothing" and "ready to step" ----
    let setup_span = tracer.open("setup");
    let setup_start = Instant::now();
    let mut config = NetConfig::new(placement.clone(), WaitPolicy::FirstW(shape.w));
    config.batch_size = shape.batch;
    config.learning_rate = shape.learning_rate;
    // Negative, so a loss of exactly 0.0 cannot end a time-bounded run.
    config.loss_threshold = -1.0;
    config.max_steps = usize::MAX;
    config.seed = seed;
    config.metrics = registry.clone();
    let dataset = shape.dataset(seed);
    let master = Master::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = master
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;

    let (tid_tx, tid_rx) = mpsc::channel();
    let swarm = std::thread::Builder::new()
        .name("swarm".into())
        .spawn(move || -> Result<SwarmSummary, NetError> {
            alloc::set_role(Role::Swarm);
            // The receiver only disappears if set-up already failed.
            let _ = tid_tx.send(host::thread_id());
            isgc_net::run_swarm(addr, &SwarmOptions::new(shape.n), |_| {
                (shape.model(), shape.dataset(seed))
            })
        })
        .map_err(|e| format!("spawn swarm: {e}"))?;

    let register_start = Instant::now();
    let mut session = match master.into_session(shape.model(), dataset, &config) {
        Ok(session) => session,
        Err(e) => {
            // The listener is gone, so the swarm's handshakes fail and it ends.
            let _ = swarm.join();
            return Err(format!("registration: {e}"));
        }
    };
    let register_end = Instant::now();
    tracer.leaf(
        "net.master.into_session",
        register_start,
        register_end,
        None,
    );
    let setup_s = setup_start.elapsed().as_secs_f64();
    tracer.close(setup_span);
    let swarm_tid = tid_rx.recv().ok().flatten();
    let master_tid = host::thread_id();

    // ---- warm-up, then the measured windows ----
    let mut gate = Gate::default();
    let mut windows = Vec::with_capacity(plan.windows);
    let mut step_ms = Vec::new();
    let mut warmup_steps = 0u64;
    let mut next_step = 0u64;
    let mut edges: Option<(Snapshot, Snapshot)> = None;
    let stepping = (|| -> Result<(), NetError> {
        let span = tracer.open("warmup");
        let warm = step_for(&mut session, plan.warmup, None, &mut next_step, tracer);
        tracer.close(span);
        warmup_steps = warm?.steps;
        let before = Snapshot::take(master_tid, swarm_tid, registry.as_ref());
        for _ in 0..plan.windows {
            let span = tracer.open("window");
            let window = step_for(
                &mut session,
                plan.window,
                Some(&mut step_ms),
                &mut next_step,
                tracer,
            );
            tracer.close(span);
            windows.push(window?);
        }
        let after = Snapshot::take(master_tid, swarm_tid, registry.as_ref());
        edges = Some((before, after));
        Ok(())
    })();
    if let Err(e) = stepping {
        gate.attempted += 1;
        gate.fail(format!("{}: step() returned Err: {e}", shape.name));
    }

    // ---- teardown ----
    let teardown_span = tracer.open("teardown");
    let report = session.finish();
    let summary = swarm.join();
    tracer.close(teardown_span);
    tracer.close(session_span);

    for step in &report.steps {
        gate.check_step(&shape, &placement, step);
    }
    // A worker the final step ignored may still be uploading when the master
    // shuts down; the master then closes a socket with unread data, the
    // kernel resets the connection, and the swarm counts that member as lost
    // (README, "known artefacts"). So up to n - w members may end that way. A
    // worker lost *during* training is caught per step, by `StepReport.dead`.
    let in_flight = shape.n - shape.w;
    match summary {
        Ok(Ok(s))
            if s.workers == shape.n
                && s.clean_shutdowns + s.lost == shape.n
                && s.lost <= in_flight => {}
        Ok(Ok(s)) => gate.fail_session(format!("{}: swarm ended unclean: {s:?}", shape.name)),
        Ok(Err(e)) => gate.fail_session(format!("{}: swarm failed: {e}", shape.name)),
        Err(_) => gate.fail_session(format!("{}: swarm thread panicked", shape.name)),
    }
    gate.check_final_loss(
        &shape,
        report.steps.last().map(|s| s.loss),
        shape.initial_loss(seed, &shape.dataset(seed)),
    );

    let measured_count: u64 = windows.iter().map(|w: &Window| w.steps).sum();
    let measured = report
        .steps
        .iter()
        .skip(warmup_steps as usize)
        .take(measured_count as usize);
    let (mut recovered, mut stale, mut waited_ms) = (0u64, 0u64, 0.0f64);
    for step in measured {
        recovered += step.recovered as u64;
        stale += step.stale as u64;
        waited_ms += step.waited_ms;
    }
    let layer = edges.map(|(before, after)| {
        let delta = |i: usize| after.counters[i] - before.counters[i];
        LayerCounts {
            master_cpu_ns: after.master_cpu_ns - before.master_cpu_ns,
            swarm_cpu_ns: after.swarm_cpu_ns - before.swarm_cpu_ns,
            master_allocs: after.master_allocs - before.master_allocs,
            swarm_allocs: after.swarm_allocs - before.swarm_allocs,
            waited_ms,
            stale,
            register_us: (register_end - register_start).as_secs_f64() * 1e6,
            frames_in: delta(0),
            frames_out: delta(1),
            bytes_in: delta(2),
            bytes_out: delta(3),
            wakeups: delta(4),
            ready: delta(5),
            partial_writes: delta(6),
        }
    });

    Ok(SessionStats {
        setup_s: vec![setup_s],
        windows,
        step_ms,
        recovered,
        gate,
        layer,
    })
}
