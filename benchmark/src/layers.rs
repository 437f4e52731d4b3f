//! The metric catalogue, and the arithmetic that turns a traced session, a
//! reference session and a replayed step into the per-layer metrics.
//! Layer names are crate names; every metric is emitted on every workload,
//! and reads 0 where the workload never enters the layer (all `net.*` on
//! the simulator, the in-process probes everywhere but the simulator).

use crate::replay::Replayed;
use crate::session::{pooled_rate, pooled_steps, LayerCounts, SessionStats};
use crate::stats;
use crate::workloads::{Backend, Shape, FANIN_PROBE};
use crate::Metric;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("steps_per_s", "steps/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("recovered_frac", "ratio"),
    ("ok_step_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("net.master.cpu_ms_per_step", "ms"),
    ("net.swarm.cpu_ms_per_step", "ms"),
    ("net.master.wait_ms_per_step", "ms"),
    ("net.master.self_ms_per_step", "ms"),
    ("net.master.register_us_per_conn", "us"),
    ("net.reactor.wakeups_per_step", "count"),
    ("net.reactor.ready_per_wakeup", "count"),
    ("net.reactor.partial_writes_per_step", "count"),
    ("net.frames_in_per_step", "count"),
    ("net.frames_out_per_step", "count"),
    ("net.bytes_in_per_step", "count"),
    ("net.bytes_out_per_step", "count"),
    ("net.stale_per_step", "count"),
    ("net.fanin_efficiency", "ratio"),
    ("net.wire.params_encode_us", "us"),
    ("net.wire.codeword_encode_us", "us"),
    ("net.wire.codeword_ingest_us", "us"),
    ("core.decode_us", "us"),
    ("core.decode_recovered_per_call", "count"),
    ("engine.aggregate_us", "us"),
    ("engine.allocs_per_step", "count"),
    ("net.swarm.allocs_per_step", "count"),
    ("engine.step_ms_p99", "ms"),
    ("ml.worker_grad_us", "us"),
    ("ml.loss_eval_us", "us"),
    ("ml.update_us", "us"),
    ("linalg.axpy_ns_per_elem", "ns"),
    ("linalg.sum_into_ns_per_elem", "ns"),
    ("linalg.dot_ns_per_elem", "ns"),
    ("simnet.run_step_us", "us"),
    ("replay.accounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.steps_per_s_untraced", "steps/s"),
    ("trace.steps_per_s_traced", "steps/s"),
    ("sched.steps_per_s_j4", "steps/s"),
    ("mc.states_per_s_flat3", "1/s"),
];

/// Builds every per-layer metric. `reference` are the untraced sessions of
/// the traced run, `traced` the ones with registry and spans on; `probe_rate`
/// is the n = 16 fan-in probe's steps/s and `probes` the scheduler and
/// model-checker rates, where the workload measures them.
///
/// # Errors
///
/// When either kind of session completed no measured step.
pub fn per_layer(
    shape: &Shape,
    reference: &[SessionStats],
    traced: &[SessionStats],
    replayed: &Replayed,
    probe_rate: Option<f64>,
    probes: Option<(f64, f64)>,
) -> Result<Vec<Metric>, String> {
    let steps = pooled_steps(traced);
    if steps == 0 || pooled_steps(reference) == 0 {
        return Err("the traced run completed no measured step".into());
    }
    let per_step = |total: f64| total / steps as f64;
    let mut layer = LayerCounts::default();
    for counts in traced.iter().filter_map(|s| s.layer.as_ref()) {
        layer.add(counts);
    }
    let tcp = shape.backend == Backend::Tcp;
    let step_ms = stats::sorted(
        traced
            .iter()
            .flat_map(|s| s.step_ms.iter().copied())
            .collect(),
    );
    let mean_step_ms = per_step(step_ms.iter().sum());
    let (p99, p99_used) = stats::tail(&step_ms, 0.99);

    // What a step consists of, as far as it can be rebuilt from outside.
    // TCP: the master thread's blocking path (worker compute overlaps the
    // wait on the swarm thread; codeword ingest happens inside the wait).
    // Simulator: everything runs on one thread, gradients for the n
    // partitions included.
    let wait_ms = per_step(layer.waited_ms);
    let master_parts_us =
        replayed.decode_us + replayed.aggregate_us + replayed.update_us + replayed.loss_eval_us;
    let accounted_ms = if tcp {
        wait_ms + (replayed.params_encode_us + master_parts_us) / 1e3
    } else {
        let gradients = (shape.n / shape.c) as f64 * replayed.worker_grad_us;
        (replayed.run_step_us + gradients + master_parts_us) / 1e3
    };

    let (untraced_rate, traced_rate) = (pooled_rate(reference), pooled_rate(traced));
    let fanin = probe_rate.map_or(0.0, |probe| {
        untraced_rate * shape.n as f64 / (probe * FANIN_PROBE.n as f64)
    });
    let (sched, mc) = probes.unwrap_or((0.0, 0.0));
    let ready_per_wakeup = if layer.wakeups == 0 {
        0.0
    } else {
        layer.ready as f64 / layer.wakeups as f64
    };

    let values = [
        per_step(layer.master_cpu_ns as f64 / 1e6),
        per_step(layer.swarm_cpu_ns as f64 / 1e6),
        wait_ms,
        if tcp { mean_step_ms - wait_ms } else { 0.0 },
        layer.register_us / (traced.len() * shape.n) as f64,
        per_step(layer.wakeups as f64),
        ready_per_wakeup,
        per_step(layer.partial_writes as f64),
        per_step(layer.frames_in as f64),
        per_step(layer.frames_out as f64),
        per_step(layer.bytes_in as f64),
        per_step(layer.bytes_out as f64),
        per_step(layer.stale as f64),
        fanin,
        replayed.params_encode_us,
        replayed.codeword_encode_us,
        replayed.codeword_ingest_us,
        replayed.decode_us,
        replayed.decode_recovered,
        replayed.aggregate_us,
        per_step(layer.master_allocs as f64),
        per_step(layer.swarm_allocs as f64),
        p99,
        replayed.worker_grad_us,
        replayed.loss_eval_us,
        replayed.update_us,
        replayed.axpy_ns_per_elem,
        replayed.sum_into_ns_per_elem,
        replayed.dot_ns_per_elem,
        replayed.run_step_us,
        accounted_ms / mean_step_ms,
        1.0 - traced_rate / untraced_rate,
        untraced_rate,
        traced_rate,
        sched,
        mc,
    ];
    Ok(PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| {
            let note = match name {
                "engine.step_ms_p99" => {
                    format!("p{:.1} of {} traced steps", p99_used * 100.0, steps)
                }
                "net.fanin_efficiency" if probe_rate.is_some() => {
                    format!("n=16 probe at {:.1} steps/s", probe_rate.unwrap_or(0.0))
                }
                _ if value == 0.0 => "layer not entered by this workload".to_string(),
                _ => String::new(),
            };
            Metric::new(name, unit, value, note)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Window;
    use crate::workloads::WORKLOADS;

    fn session(steps: u64, step_ms: f64, layer: LayerCounts) -> SessionStats {
        SessionStats {
            windows: vec![Window {
                steps,
                seconds: steps as f64 * step_ms / 1e3,
            }],
            step_ms: vec![step_ms; steps as usize],
            layer: Some(layer),
            ..SessionStats::default()
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn tcp_layers_divide_by_steps_and_account_for_the_wait() {
        let layer = LayerCounts {
            waited_ms: 800.0,
            frames_in: 6_400,
            wakeups: 200,
            ready: 1_000,
            stale: 1_600,
            register_us: 6_400.0,
            ..LayerCounts::default()
        };
        let shape = WORKLOADS[2];
        let traced = session(100, 10.0, layer);
        let reference = session(125, 8.0, LayerCounts::default());
        let replayed = Replayed {
            decode_us: 500.0,
            aggregate_us: 250.0,
            update_us: 125.0,
            loss_eval_us: 100.0,
            params_encode_us: 25.0,
            ..Replayed::default()
        };
        let m = per_layer(&shape, &[reference], &[traced], &replayed, None, None).unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(value(&m, "net.master.wait_ms_per_step"), 8.0);
        assert_eq!(value(&m, "net.master.self_ms_per_step"), 2.0);
        assert_eq!(value(&m, "net.frames_in_per_step"), 64.0);
        assert_eq!(value(&m, "net.reactor.ready_per_wakeup"), 5.0);
        assert_eq!(value(&m, "net.stale_per_step"), 16.0);
        assert_eq!(value(&m, "net.master.register_us_per_conn"), 100.0);
        // (8 ms wait + 1 ms replayed parts) of a 10 ms step.
        assert!((value(&m, "replay.accounted_share") - 0.9).abs() < 1e-12);
        // 100 steps/s traced against 125 untraced.
        assert!((value(&m, "trace.overhead_share") - 0.2).abs() < 1e-12);
        assert_eq!(value(&m, "net.fanin_efficiency"), 0.0);
    }

    #[test]
    fn simulator_reports_no_net_layer() {
        let shape = WORKLOADS[3];
        let layer = LayerCounts {
            master_allocs: 5_000,
            ..LayerCounts::default()
        };
        let traced = session(100, 0.04, layer);
        let replayed = Replayed {
            run_step_us: 4.0,
            worker_grad_us: 2.0,
            decode_us: 1.0,
            ..Replayed::default()
        };
        let sessions = [traced];
        let m = per_layer(
            &shape,
            &sessions,
            &sessions,
            &replayed,
            None,
            Some((9.0, 7.0)),
        )
        .unwrap();
        for metric in m.iter().filter(|m| m.name.starts_with("net.")) {
            assert_eq!(metric.value, 0.0, "{}", metric.name);
        }
        assert_eq!(value(&m, "engine.allocs_per_step"), 50.0);
        // run_step 4 + 6 worker-gradients x 2 + decode 1 = 17 us of a 40 us step.
        assert!((value(&m, "replay.accounted_share") - 0.425).abs() < 1e-12);
        assert_eq!(value(&m, "sched.steps_per_s_j4"), 9.0);
        assert_eq!(value(&m, "mc.states_per_s_flat3"), 7.0);
    }
}
