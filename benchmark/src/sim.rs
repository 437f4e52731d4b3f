//! The simulator workload: `isgc_simnet::trainer::train_observed`, one
//! thread, no sockets. A window is as many whole 5,000-step training calls
//! as it takes to fill it, which bounds `StepReport` memory; a step's wall
//! time is the gap between consecutive `Observer::on_step` calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use isgc_core::Placement;
use isgc_engine::{Observer, StepControl, StepReport, TrainReport};
use isgc_simnet::policy::WaitPolicy;
use isgc_simnet::trainer::{train_observed, CodingScheme, TrainingConfig};

use crate::alloc::{self, Role};
use crate::session::{Gate, LayerCounts, SessionStats};
use crate::stats::Window;
use crate::trace::Tracer;
use crate::workloads::{Plan, Shape};

/// Steps per `train` call.
pub const STEPS_PER_CALL: usize = 5_000;

/// Set-up (dataset + scheme + policy + cluster + config construction) is
/// tens of microseconds, so each session repeats it this many times.
const SETUP_REPEATS: usize = 201;

/// The seed `run.sh` uses when none is given, and the logical outputs the
/// simulator must reproduce bit for bit under it.
pub const DEFAULT_SEED: u64 = 2023;
/// `TrainReport::recovery_fingerprint()` of one call under [`DEFAULT_SEED`].
pub const PINNED_FINGERPRINT: u64 = 6_517_818_886_553_430_122;
/// `final_loss().to_bits()` of one call under [`DEFAULT_SEED`].
pub const PINNED_FINAL_LOSS_BITS: u64 = 4_592_429_927_101_727_935;

/// The logical outputs of one training call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Logical {
    /// `TrainReport::recovery_fingerprint()`.
    pub fingerprint: u64,
    /// `TrainReport::final_loss().to_bits()`.
    pub final_loss_bits: u64,
}

/// Times the gap between consecutive `on_step` calls.
struct GapObserver<'a> {
    last: Instant,
    gaps_ms: Option<&'a mut Vec<f64>>,
    tracer: &'a mut Tracer,
}

impl Observer for GapObserver<'_> {
    fn on_step(&mut self, report: &StepReport) -> StepControl {
        let now = Instant::now();
        if let Some(gaps) = self.gaps_ms.as_deref_mut() {
            gaps.push((now - self.last).as_secs_f64() * 1e3);
        }
        self.tracer
            .leaf("engine.step", self.last, now, Some(report.step));
        self.last = now;
        StepControl::Continue
    }
}

/// The inputs of a training call, built from the shape and the seed alone.
struct Inputs {
    dataset: isgc_ml::dataset::Dataset,
    scheme: CodingScheme,
    policy: WaitPolicy,
    config: TrainingConfig,
}

fn build_inputs(shape: &Shape, seed: u64) -> Inputs {
    Inputs {
        dataset: shape.dataset(seed),
        scheme: CodingScheme::IsGc(shape.placement()),
        policy: WaitPolicy::WaitForCount(shape.w),
        config: TrainingConfig {
            batch_size: shape.batch,
            learning_rate: shape.learning_rate,
            // Negative, so the call always runs its full step count.
            loss_threshold: -1.0,
            max_steps: STEPS_PER_CALL,
            seed,
            ..TrainingConfig::default()
        },
    }
}

/// One session's training calls: the inputs they share and what the gate
/// has seen so far.
struct Calls<'a> {
    shape: &'a Shape,
    inputs: Inputs,
    placement: Placement,
    /// Full-dataset loss at the initial parameters.
    initial_loss: f64,
    /// The first call's logical outputs; every later call must match them.
    reference: Option<Logical>,
    gate: Gate,
}

impl Calls<'_> {
    /// Runs whole training calls until `length` has passed; returns the
    /// window and Σ `StepReport.recovered` over its steps.
    fn train_for(
        &mut self,
        length: Duration,
        mut gaps_ms: Option<&mut Vec<f64>>,
        tracer: &mut Tracer,
    ) -> (Window, u64) {
        let model = self.shape.model();
        let start = Instant::now();
        let (mut steps, mut recovered) = (0u64, 0u64);
        loop {
            let span = tracer.open("simnet.train");
            let mut observer = GapObserver {
                last: Instant::now(),
                gaps_ms: gaps_ms.as_deref_mut(),
                tracer,
            };
            let report = train_observed(
                &model,
                &self.inputs.dataset,
                &self.inputs.scheme,
                &self.inputs.policy,
                self.shape.fig11_cluster(),
                &self.inputs.config,
                &mut observer,
            );
            tracer.close(span);
            let elapsed = start.elapsed();
            steps += report.steps.len() as u64;
            recovered += report.steps.iter().map(|s| s.recovered as u64).sum::<u64>();
            self.check(&report);
            if elapsed >= length {
                let window = Window {
                    steps,
                    seconds: elapsed.as_secs_f64(),
                };
                return (window, recovered);
            }
        }
    }

    /// Holds one call's report against the correctness gate.
    fn check(&mut self, report: &TrainReport) {
        let (name, gate) = (self.shape.name, &mut self.gate);
        for step in &report.steps {
            gate.check_step(self.shape, &self.placement, step);
        }
        if report.steps.len() != STEPS_PER_CALL {
            gate.fail_session(format!("{name}: call ran {} steps", report.steps.len()));
        }
        let last = report.final_loss();
        gate.check_final_loss(self.shape, Some(last), self.initial_loss);
        // Same seed, same inputs: every call must reproduce the first one's
        // logical outputs exactly.
        let logical = Logical {
            fingerprint: report.recovery_fingerprint(),
            final_loss_bits: last.to_bits(),
        };
        match self.reference {
            None => self.reference = Some(logical),
            Some(expected) if expected != logical => gate.fail_session(format!(
                "{name}: same-seed calls disagree: {expected:?} vs {logical:?}"
            )),
            Some(_) => {}
        }
    }
}

/// Runs one simulator session under `plan`.
pub fn run_session(shape: &Shape, seed: u64, plan: &Plan, tracer: &mut Tracer) -> SessionStats {
    alloc::set_role(Role::Stepper);
    let session_span = tracer.open("session");

    let setup_span = tracer.open("setup");
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = build_inputs(shape, seed);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        inputs = black_box(build_inputs(shape, seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    tracer.close(setup_span);

    let mut calls = Calls {
        shape,
        initial_loss: shape.initial_loss(seed, &inputs.dataset),
        inputs,
        placement: shape.placement(),
        reference: None,
        gate: Gate::default(),
    };
    let span = tracer.open("warmup");
    calls.train_for(plan.warmup, None, tracer);
    tracer.close(span);

    let allocs_before = alloc::count(Role::Stepper);
    let mut windows = Vec::with_capacity(plan.windows);
    let mut step_ms = Vec::new();
    let mut recovered = 0u64;
    for _ in 0..plan.windows {
        let span = tracer.open("window");
        let (window, window_recovered) = calls.train_for(plan.window, Some(&mut step_ms), tracer);
        tracer.close(span);
        windows.push(window);
        recovered += window_recovered;
    }
    let layer = LayerCounts {
        master_allocs: alloc::count(Role::Stepper) - allocs_before,
        ..LayerCounts::default()
    };
    tracer.close(session_span);

    let mut gate = calls.gate;
    if seed == DEFAULT_SEED {
        let pinned = Logical {
            fingerprint: PINNED_FINGERPRINT,
            final_loss_bits: PINNED_FINAL_LOSS_BITS,
        };
        if calls.reference != Some(pinned) {
            gate.fail_session(format!(
                "{}: default-seed outputs {:?} differ from the pinned {pinned:?}",
                shape.name, calls.reference
            ));
        }
    }
    SessionStats {
        setup_s,
        windows,
        step_ms,
        recovered,
        gate,
        layer: Some(layer),
    }
}
