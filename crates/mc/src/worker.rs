//! A scriptable protocol client: the shipped worker, except where a
//! [`FaultPlan`] tells it to misbehave.
//!
//! Honest behavior is `isgc_net`'s [`WorkerCore`] — the same protocol
//! reaction `run_worker` and the swarm run. A fault replaces the reply to
//! one `Params` broadcast with [`crate::FaultKind::script`]'s short list of
//! [`Action`]s, which this client performs as bytes on its socket and the
//! model checker ([`crate::explore`]) performs as events on its virtual
//! network, so a schedule the checker shrinks replays here frame for frame.
//!
//! Determinism needs precise control of *which steps* a flapping worker
//! misses. The rule that provides it: after any connection-killing fault at
//! step `s`, the worker reconnects immediately but sits out every step below
//! `s + 2`. Whether the master's next broadcast catches the fresh connection
//! or not, the worker's codeword is absent from steps `s` and `s + 1` and
//! present from `s + 2` — independent of thread timing.

use std::io::Write;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use isgc_engine::WorkerStep;
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;
use isgc_net::wire::{read_message, write_message};
use isgc_net::worker::connect;
use isgc_net::{Request, RetryPolicy, WorkerCore, WorkerOptions};

use crate::plan::{Action, FaultPlan, Mangle};
use crate::ChaosError;

/// What one chaos worker did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosWorkerSummary {
    /// The slot this worker served.
    pub worker: usize,
    /// Faults applied, in step order.
    pub(crate) faults_applied: usize,
    /// Reconnections performed (scripted flaps and master restarts alike).
    pub reconnects: usize,
    /// Whether the worker exited via a scripted permanent death.
    pub died: bool,
}

/// Runs one chaos worker against the master at `addr` until the master
/// shuts down, the plan kills the worker permanently, or the master stays
/// unreachable past the retry budget.
///
/// `build` receives `(n, batch_size)` from the master's assignment and
/// returns the model and full dataset (identical on every peer, by shared
/// seed).
///
/// # Errors
///
/// [`ChaosError::Net`] when the initial connection fails outright.
pub fn run_chaos_worker<M, F>(
    addr: SocketAddr,
    preferred: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    build: F,
) -> Result<ChaosWorkerSummary, ChaosError>
where
    M: Model,
    F: FnOnce(usize, usize) -> (M, Dataset),
{
    let options = WorkerOptions {
        retry: retry.clone(),
        ..WorkerOptions::default()
    };
    let slot = Some(preferred as u64);
    let (mut stream, assignment) = connect(addr, slot, &options)?;
    let (model, dataset) = build(assignment.n, assignment.batch_size);
    let mut work = assignment.work(&model, &dataset);
    let mut core = WorkerCore::new(assignment);

    let mut summary = ChaosWorkerSummary {
        worker: preferred,
        faults_applied: 0,
        reconnects: 0,
        died: false,
    };

    loop {
        // An unscripted read failure means the master crashed or shut down
        // hard: reconnect and serve whatever step it resumes at — the
        // resumed master re-awaits full registration, so there is no
        // mid-step rejoin race to sit out.
        let flow = match read_message(&mut stream).map(|message| core.handle(message)) {
            Err(_) => Flow::Rejoin,
            Ok(Request::Shutdown) => return Ok(summary),
            Ok(Request::Idle) => Flow::Continue,
            Ok(Request::Params { step, values }) => {
                let params = Vector::from(values);
                // A sat-out step is declined whatever the plan says.
                let fault = if core.sits_out(step) {
                    None
                } else {
                    plan.fault_for(preferred, step)
                };
                match fault {
                    None => {
                        let reply = core.answer(&mut work, &model, &dataset, step, &params);
                        let _ = write_message(&mut stream, &reply);
                        Flow::Continue
                    }
                    Some(kind) => {
                        summary.faults_applied += 1;
                        perform(
                            &kind.script(step),
                            &mut core,
                            &mut work,
                            &model,
                            &dataset,
                            &params,
                            &mut stream,
                        )
                    }
                }
            }
        };
        match flow {
            Flow::Continue => {}
            Flow::Exit => {
                summary.died = true;
                return Ok(summary);
            }
            Flow::Rejoin => {
                // Close first: the master must see the old connection end
                // before the slot's next `Hello`.
                drop(stream);
                match connect(addr, slot, &options) {
                    Ok((fresh, reassign)) => {
                        summary.reconnects += 1;
                        stream = fresh;
                        core.reassign(reassign);
                    }
                    Err(_) => return Ok(summary),
                }
            }
        }
    }
}

/// What the connection does after a script ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Keep serving on the same connection.
    Continue,
    /// Close the connection and handshake again.
    Rejoin,
    /// Close the connection for good.
    Exit,
}

/// Performs a fault script as bytes: every frame-producing [`Action`] is
/// written to `out` in order (write errors are the master's hang-up and are
/// ignored, as a real peer would find out on its next read), `Sleep`
/// sleeps, and the first connection-ending action stops the script and is
/// returned — a `Rejoin` also arms `core`'s sit-out window.
pub(crate) fn perform<M: Model>(
    script: &[Action],
    core: &mut WorkerCore,
    work: &mut WorkerStep,
    model: &M,
    dataset: &Dataset,
    params: &Vector,
    out: &mut impl Write,
) -> Flow {
    for &action in script {
        let frame = match action {
            Action::Sleep(ms) => {
                thread::sleep(Duration::from_millis(ms));
                continue;
            }
            Action::Honest { step } => core.honest(work, model, dataset, step, params).encode(),
            Action::Decline { step } => core.decline(step).encode(),
            Action::Mangled { step, how } => {
                let mut frame = core.honest(work, model, dataset, step, params).encode();
                match how {
                    // The magic clobbered: the master must reject the frame
                    // and drop the connection, never misparse it.
                    Mangle::FlippedMagic => frame[0] ^= 0xFF,
                    Mangle::Halved => frame.truncate(frame.len() / 2),
                }
                frame
            }
            Action::Rejoin { decline_until } => {
                core.sit_out_until(decline_until);
                return Flow::Rejoin;
            }
            Action::Exit => return Flow::Exit,
        };
        let _ = out.write_all(&frame);
    }
    Flow::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use isgc_ml::model::LinearRegression;
    use isgc_net::Assignment;

    #[test]
    fn scripts_perform_as_the_frames_each_fault_documents() {
        let dataset = Dataset::synthetic_regression(64, 3, 0.1, 2);
        let model = LinearRegression::new(3);
        let assignment = Assignment {
            worker: 2,
            n: 4,
            c: 2,
            batch_size: 8,
            seed: 9,
            partitions: vec![2, 3],
        };
        let mut work = assignment.work(&model, &dataset);
        let mut core = WorkerCore::new(assignment);
        let params = Vector::from_slice(&[0.5, -0.25, 0.125, 1.0]);

        let now = core
            .honest(&mut work, &model, &dataset, 3, &params)
            .encode();
        let before = core
            .honest(&mut work, &model, &dataset, 2, &params)
            .encode();
        let decline = core.decline(3).encode();
        let mut frames = |kind: FaultKind, core: &mut WorkerCore| {
            let mut out = Vec::new();
            let script = kind.script(3);
            let flow = perform(
                &script, core, &mut work, &model, &dataset, &params, &mut out,
            );
            (out, flow)
        };

        assert_eq!(
            frames(FaultKind::Delay(1), &mut core),
            (now.clone(), Flow::Continue)
        );
        assert_eq!(
            frames(FaultKind::Duplicate, &mut core),
            ([now.clone(), now.clone()].concat(), Flow::Continue)
        );
        assert_eq!(
            frames(FaultKind::Stale, &mut core),
            ([before, decline.clone()].concat(), Flow::Continue)
        );
        assert_eq!(
            frames(FaultKind::Decline, &mut core),
            (decline, Flow::Continue)
        );
        assert_eq!(frames(FaultKind::Die, &mut core), (Vec::new(), Flow::Exit));
        assert_eq!(core.decline_until(), 0);

        // Connection killers write their mangled frame (if any), then
        // rejoin sitting out this step and the next.
        let mut corrupt = now.clone();
        corrupt[0] ^= 0xFF;
        for (kind, written) in [
            (FaultKind::Corrupt, corrupt),
            (FaultKind::Truncate, now[..now.len() / 2].to_vec()),
            (FaultKind::Drop, Vec::new()),
        ] {
            core.sit_out_until(0);
            assert_eq!(frames(kind, &mut core), (written, Flow::Rejoin));
            assert_eq!(core.decline_until(), 5);
        }
    }
}
