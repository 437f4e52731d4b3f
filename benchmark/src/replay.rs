//! The replayed step: each layer's public function timed in isolation on a
//! workload's exact shapes (n, w, c, dim, placement, seeded arrival
//! subsets), and the probes for in-process layers no workload reaches.
//!
//! One `replay.step` span per iteration, one child span per layer function.
//! Functions faster than the timer resolves are called back-to-back inside
//! their child span; the span's `calls` field says how often, and the
//! reported time is the median over iterations of span ÷ calls.

use std::hint::black_box;
use std::time::{Duration, Instant};

use isgc_core::decode::decoder_for;
use isgc_core::{Placement, WorkerSet};
use isgc_engine::merge::pairwise_sum_of;
use isgc_engine::step_rng;
use isgc_linalg::{kernels, Vector};
use isgc_ml::model::Model;
use isgc_ml::optimizer::Sgd;
use isgc_net::wire::{encode_params_frame, CodewordView, FrameAssembler, Message};
use isgc_sched::{JobSpec, Scheduler, SchedulerConfig};
use isgc_simnet::cluster::ClusterSim;
use isgc_simnet::policy::WaitPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Backend, Shape};

/// Full replayed steps per run ("median of ≥ 200 calls").
pub const ITERATIONS: usize = 200;

/// A child span shorter than this is below what `Instant` resolves well, so
/// its function is repeated until the span is at least this long.
const MIN_SPAN: Duration = Duration::from_micros(20);

/// Median time per call of every replayed layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    /// `encode_params_frame`, µs.
    pub params_encode_us: f64,
    /// `Message::Codeword::encode_for_job`, µs.
    pub codeword_encode_us: f64,
    /// `FrameAssembler::push` → `next_frame` → `CodewordView::parse` → `Vector`, µs.
    pub codeword_ingest_us: f64,
    /// `decoder_for(placement).decode(subset, rng)`, µs.
    pub decode_us: f64,
    /// Mean partitions recovered per replayed decode.
    pub decode_recovered: f64,
    /// `merge::pairwise_sum_of` over the selected slots, µs.
    pub aggregate_us: f64,
    /// One worker's codeword: c × (minibatch + gradient_sum_into + axpy), µs.
    pub worker_grad_us: f64,
    /// `Model::loss_mean` on the full dataset, µs.
    pub loss_eval_us: f64,
    /// `Sgd::step_prescaled`, µs.
    pub update_us: f64,
    /// `kernels::axpy`, ns per element.
    pub axpy_ns_per_elem: f64,
    /// `kernels::sum_into`, ns per source element.
    pub sum_into_ns_per_elem: f64,
    /// `kernels::dot`, ns per element.
    pub dot_ns_per_elem: f64,
    /// `ClusterSim::run_step`, µs.
    pub run_step_us: f64,
}

/// One replayed function: its span name, how many back-to-back calls make a
/// span, and the per-call samples gathered so far.
struct Part {
    name: &'static str,
    calls: u32,
    ns_per_call: Vec<f64>,
}

impl Part {
    fn new(name: &'static str) -> Part {
        Part {
            name,
            calls: 0,
            ns_per_call: Vec::with_capacity(ITERATIONS),
        }
    }

    /// Runs `f` as one child span. The first invocation also calibrates how
    /// many calls a span needs to reach [`MIN_SPAN`].
    fn run(&mut self, tracer: &mut Tracer, mut f: impl FnMut()) {
        if self.calls == 0 {
            let start = Instant::now();
            f();
            let one = start.elapsed().max(Duration::from_nanos(1));
            self.calls = (MIN_SPAN.as_nanos() / one.as_nanos()).clamp(1, 100_000) as u32;
        }
        let start = Instant::now();
        for _ in 0..self.calls {
            f();
        }
        let end = Instant::now();
        tracer.leaf_calls(self.name, start, end, self.calls);
        self.ns_per_call
            .push((end - start).as_nanos() as f64 / f64::from(self.calls));
    }

    /// Median over iterations; 0 for a part the workload's backend skips.
    fn median_ns(self) -> f64 {
        if self.ns_per_call.is_empty() {
            return 0.0;
        }
        stats::median(&stats::sorted(self.ns_per_call))
    }
}

/// Replays [`ITERATIONS`] steps of `shape` and returns the medians. Only the
/// layers the workload's backend enters are replayed: the wire functions on
/// TCP, `ClusterSim::run_step` on the simulator.
pub fn replay(shape: &Shape, seed: u64, tracer: &mut Tracer) -> Replayed {
    let placement: Placement = shape.placement();
    let model = shape.model();
    let dataset = shape.dataset(seed);
    let partitioned = dataset.partition(shape.n);
    let all_indices: Vec<usize> = (0..dataset.len()).collect();
    let dim = shape.dim();
    let tcp = shape.backend == Backend::Tcp;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_504C_4159);

    // Inputs shaped like a real step: seeded parameters, one genuine
    // codeword, seeded arrival subsets of size w.
    let params = Vector::random_normal(dim, 0.0, 0.1, &mut rng);
    let codeword = {
        let mut cw = model.zero_params();
        for &p in placement.partitions_of(0) {
            let batch = partitioned.minibatch(p, shape.batch, 0, seed);
            model.gradient_sum_into(&params, &dataset, &batch, &mut cw);
        }
        cw
    };
    let subsets: Vec<WorkerSet> = (0..ITERATIONS)
        .map(|_| WorkerSet::random_subset(shape.n, shape.w, &mut rng))
        .collect();
    let decoder = decoder_for(&placement).expect("workload placements have decoders");
    let codewords: Vec<Vector> = (0..shape.n).map(|_| codeword.clone()).collect();
    let selected = decoder
        .decode(&subsets[0], &mut step_rng(seed, 0))
        .selected()
        .to_vec();
    let mut slots: Vec<Option<&Vector>> = vec![None; shape.n];
    for &w in &selected {
        slots[w] = Some(&codewords[w]);
    }
    let sources: Vec<&[f64]> = selected.iter().map(|&w| codewords[w].as_slice()).collect();
    let message = Message::Codeword {
        worker: 0,
        step: 1,
        values: codeword.as_slice().to_vec(),
    };
    let frame = message.encode_for_job(0);
    let mut assembler = FrameAssembler::new();
    let mut sgd = Sgd::new(shape.learning_rate);
    let mut updated = params.clone();
    let mut scratch = model.zero_params();
    let mut out = vec![0.0; dim];
    let mut sim = ClusterSim::new(shape.fig11_cluster(), seed);
    let policy = WaitPolicy::WaitForCount(shape.w);
    let mut recovered_total = 0usize;

    let mut params_encode = Part::new("replay.net.wire.params_encode");
    let mut codeword_encode = Part::new("replay.net.wire.codeword_encode");
    let mut codeword_ingest = Part::new("replay.net.wire.codeword_ingest");
    let mut decode = Part::new("replay.core.decode");
    let mut aggregate = Part::new("replay.engine.aggregate");
    let mut worker_grad = Part::new("replay.ml.worker_grad");
    let mut loss_eval = Part::new("replay.ml.loss_eval");
    let mut update = Part::new("replay.ml.update");
    let mut axpy = Part::new("replay.linalg.axpy");
    let mut sum_into = Part::new("replay.linalg.sum_into");
    let mut dot = Part::new("replay.linalg.dot");
    let mut run_step = Part::new("replay.simnet.run_step");

    for (i, subset) in subsets.iter().enumerate() {
        let step = i as u64;
        let span = tracer.open("replay.step");
        if tcp {
            params_encode.run(tracer, || {
                black_box(encode_params_frame(0, step, black_box(params.as_slice())));
            });
        } else {
            run_step.run(tracer, || {
                black_box(sim.run_step(shape.c, &policy, i));
            });
        }
        worker_grad.run(tracer, || {
            // Mirrors `isgc_net::swarm`'s per-member computation.
            let mut cw = model.zero_params();
            for &p in placement.partitions_of(0) {
                let batch = partitioned.minibatch(p, shape.batch, step, seed);
                scratch.fill_zero();
                model.gradient_sum_into(&params, &dataset, &batch, &mut scratch);
                cw.axpy(1.0, &scratch);
            }
            black_box(cw);
        });
        if tcp {
            codeword_encode.run(tracer, || {
                black_box(black_box(&message).encode_for_job(0));
            });
            codeword_ingest.run(tracer, || {
                // Mirrors the reactor's adopted-connection read path.
                assembler.push(black_box(&frame));
                let complete = assembler
                    .next_frame()
                    .expect("well-formed frame")
                    .expect("complete frame");
                let view = CodewordView::parse(complete.payload)
                    .expect("codeword payload")
                    .expect("consistent codeword");
                black_box(Vector::from_fn(view.len(), |k| view.value(k)));
            });
        }
        decode.run(tracer, || {
            let result = decoder.decode(black_box(subset), &mut step_rng(seed, step));
            recovered_total += result.recovered_count();
            black_box(result);
        });
        aggregate.run(tracer, || {
            black_box(pairwise_sum_of(black_box(&slots)));
        });
        update.run(tracer, || {
            sgd.step_prescaled(
                &mut updated,
                black_box(&codeword),
                1.0 / shape.batch as f64,
                None,
            );
        });
        loss_eval.run(tracer, || {
            black_box(model.loss_mean(black_box(&params), &dataset, &all_indices));
        });
        axpy.run(tracer, || {
            kernels::axpy(&mut out, 1e-9, black_box(codeword.as_slice()));
        });
        sum_into.run(tracer, || {
            kernels::sum_into(&mut out, black_box(&sources));
        });
        dot.run(tracer, || {
            black_box(kernels::dot(
                black_box(params.as_slice()),
                codeword.as_slice(),
            ));
        });
        tracer.close(span);
    }

    let decode_calls = decode.ns_per_call.len() as f64 * f64::from(decode.calls) + 1.0;
    let us = |part: Part| part.median_ns() / 1e3;
    Replayed {
        params_encode_us: us(params_encode),
        codeword_encode_us: us(codeword_encode),
        codeword_ingest_us: us(codeword_ingest),
        decode_us: us(decode),
        decode_recovered: recovered_total as f64 / decode_calls,
        aggregate_us: us(aggregate),
        worker_grad_us: us(worker_grad),
        loss_eval_us: us(loss_eval),
        update_us: us(update),
        axpy_ns_per_elem: axpy.median_ns() / dim as f64,
        sum_into_ns_per_elem: sum_into.median_ns() / (dim * sources.len().max(1)) as f64,
        dot_ns_per_elem: dot.median_ns() / dim as f64,
        run_step_us: us(run_step),
    }
}

/// `sched.steps_per_s_j4`: `Scheduler::run_to_completion` over 4 concurrent
/// FR(8, 2) jobs of 2,000 steps each; median of five runs.
pub fn sched_steps_per_s(seed: u64, tracer: &mut Tracer) -> Result<f64, String> {
    const JOBS: usize = 4;
    const STEPS: u64 = 2_000;
    let placement = Placement::fractional(8, 2).expect("FR(8, 2)");
    let mut rates = Vec::new();
    for _ in 0..5 {
        let mut scheduler = Scheduler::new(SchedulerConfig::new(JOBS, 0));
        for j in 0..JOBS {
            let mut spec = JobSpec::new(format!("probe-{j}"), placement.clone(), seed + j as u64);
            spec.max_steps = STEPS;
            spec.stragglers = 1;
            scheduler
                .submit(spec)
                .map_err(|e| format!("sched probe: submit: {e}"))?;
        }
        let span = tracer.open("probe.sched.run_to_completion");
        let start = Instant::now();
        let outcomes = scheduler.run_to_completion();
        let seconds = start.elapsed().as_secs_f64();
        tracer.close(span);
        for outcome in &outcomes {
            match &outcome.result {
                Ok(report) if report.step_count() as u64 == STEPS => {}
                Ok(report) => {
                    return Err(format!(
                        "sched probe: job ran {} steps",
                        report.step_count()
                    ))
                }
                Err(e) => return Err(format!("sched probe: job failed: {e}")),
            }
        }
        rates.push(JOBS as f64 * STEPS as f64 / seconds);
    }
    Ok(stats::median(&stats::sorted(rates)))
}

/// `mc.states_per_s_flat3`: `isgc_mc::explore(&McConfig::flat3())`, states
/// explored per second of wall time; median of three explorations.
pub fn mc_states_per_s(tracer: &mut Tracer) -> Result<f64, String> {
    let mut rates = Vec::new();
    for _ in 0..3 {
        let span = tracer.open("probe.mc.explore");
        let start = Instant::now();
        let exploration = isgc_mc::explore(&isgc_mc::McConfig::flat3());
        let seconds = start.elapsed().as_secs_f64();
        tracer.close(span);
        if !exploration.passed() {
            return Err(format!(
                "mc probe: flat3 found {} violations",
                exploration.violations.len()
            ));
        }
        rates.push(exploration.states() as f64 / seconds);
    }
    Ok(stats::median(&stats::sorted(rates)))
}
