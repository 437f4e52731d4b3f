//! The repo's single benchmark. `benchmark/run.sh` builds and runs this
//! binary; `benchmark/README.md` documents workloads, metrics and output.
//!
//! With `--workload W` it measures one workload in this process and prints,
//! as its last line, the result object `BENCHMARK.json`'s contract asks for
//! (`--trace 0`: the end-to-end metrics from an untraced run; `--trace 1`:
//! the per-layer metrics from a traced run). Without `--workload` it runs
//! every workload, each in a child process, untraced and traced, and prints
//! every metric; `--selfcheck` runs the untraced set twice and compares.

mod alloc;
mod host;
mod json;
mod layers;
mod replay;
mod session;
mod sim;
mod stats;
mod suite;
mod tcp;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use isgc_obs::Registry;

use crate::session::{end_to_end, Gate, SessionStats};
use crate::trace::Tracer;
use crate::workloads::{Backend, Plan, Shape, FANIN_PROBE};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` in `BENCHMARK.json`; the default when `--seconds` is absent.
pub const DEFAULT_SECONDS: f64 = 28.0;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How it was obtained (sample counts, spread), for the human table.
    pub note: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
        Metric {
            name,
            unit,
            value,
            note: note.into(),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--workload`; `None` runs the whole suite.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: measuring time of one run.
    pub seconds: f64,
    /// `--trace 1` / `--traced`.
    pub traced: bool,
    /// `--smoke`: 1 session × 1 window × 1 s.
    pub smoke: bool,
    /// `--selfcheck`: run the untraced set twice and compare.
    pub selfcheck: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: sim::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        selfcheck: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=600.0).contains(s))
                    .ok_or_else(|| "--seconds needs a number from 1 to 600".to_string())?;
            }
            "--trace" => {
                options.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => options.traced = true,
            "--smoke" => options.smoke = true,
            "--selfcheck" => options.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// The directory the benchmark lives in (`run.sh` exports it), so traces
/// land in `benchmark/out/` wherever the command is started from.
fn bench_dir() -> PathBuf {
    std::env::var_os("ISGC_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// What measuring one workload produced.
struct Outcome {
    gate: Gate,
    metrics: Vec<Metric>,
    /// Lines for the human-readable report, printed before the result line.
    report: String,
}

fn run_session(
    shape: &Shape,
    seed: u64,
    plan: &Plan,
    registry: Option<Registry>,
    tracer: &mut Tracer,
) -> Result<SessionStats, String> {
    match shape.backend {
        Backend::Tcp => tcp::run_session(shape, seed, plan, registry, tracer),
        Backend::Sim => Ok(sim::run_session(shape, seed, plan, tracer)),
    }
}

/// The untraced run: the seven end-to-end metrics.
fn run_untraced(shape: &Shape, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let sessions = (0..plan.sessions)
        .map(|_| run_session(shape, seed, plan, None, &mut Tracer::new(false)))
        .collect::<Result<Vec<_>, _>>()?;
    let e2e = end_to_end(&sessions, shape.n)?;
    let mut gate = Gate::default();
    for session in &sessions {
        gate.absorb(session.gate.clone());
    }
    let ok_share = 1.0 - gate.failed as f64 / gate.attempted.max(1) as f64;
    let rss = host::peak_rss_mb().ok_or("VmHWM is not readable on this host")?;
    let readings = [
        (
            e2e.steps_per_s,
            format!(
                "midmean of {} windows, min {:.1}, max {:.1}: {:.1?}",
                e2e.windows,
                e2e.steps_per_s_min,
                e2e.steps_per_s_max,
                sessions
                    .iter()
                    .flat_map(|s| s.windows.iter().map(stats::Window::rate))
                    .collect::<Vec<_>>()
            ),
        ),
        (
            e2e.step_ms_p50,
            format!(
                "midmean of {} window medians, {} steps; all steps pooled: {:.4}",
                e2e.windows, e2e.samples, e2e.pooled_p50_p90.0
            ),
        ),
        (
            e2e.step_ms_p90,
            format!(
                "midmean of {} window p90s (lowest percentile used p{:.1}); all steps pooled: {:.4}",
                e2e.windows,
                e2e.p90_used * 100.0,
                e2e.pooled_p50_p90.1
            ),
        ),
        (e2e.recovered_frac, "Σ recovered ÷ (steps · n)".to_string()),
        (
            ok_share,
            format!(
                "failed_step_share {} = {} of {} attempts",
                1.0 - ok_share,
                gate.failed,
                gate.attempted
            ),
        ),
        (e2e.setup_s, format!("median of {} set-ups", e2e.setups)),
        (rss, "VmHWM at exit".to_string()),
    ];
    let metrics = layers::END_TO_END
        .iter()
        .zip(readings)
        .map(|(&(name, unit), (value, note))| Metric::new(name, unit, value, note))
        .collect();
    Ok(Outcome {
        gate,
        metrics,
        report: String::new(),
    })
}

/// The traced run: reference sessions without tracing alternating with
/// sessions that have the program's registry and the harness spans on, then
/// the replayed step and (where they apply) the fan-in probe and the
/// in-process probes.
fn run_traced(shape: &Shape, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let root = tracer.open("run");
    let mut gate = Gate::default();

    let (mut reference, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..plan.sessions {
        reference.push(run_session(
            shape,
            seed,
            plan,
            None,
            &mut Tracer::new(false),
        )?);
        let registry = (shape.backend == Backend::Tcp).then(Registry::new);
        traced.push(run_session(shape, seed, plan, registry, &mut tracer)?);
    }
    let probe_rate = if shape.fanin_probe {
        let probe = run_session(&FANIN_PROBE, seed, plan, None, &mut Tracer::new(false))?;
        let rate = session::pooled_rate(std::slice::from_ref(&probe));
        gate.absorb(probe.gate);
        Some(rate)
    } else {
        None
    };
    let replayed = replay::replay(shape, seed, &mut tracer);
    let probes = if shape.backend == Backend::Sim {
        Some((
            replay::sched_steps_per_s(seed, &mut tracer)?,
            replay::mc_states_per_s(&mut tracer)?,
        ))
    } else {
        None
    };
    tracer.close(root);

    let metrics = layers::per_layer(shape, &reference, &traced, &replayed, probe_rate, probes)?;
    for session in reference.into_iter().chain(traced) {
        gate.absorb(session.gate);
    }

    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}.jsonl", shape.name));
    std::fs::write(&trace_path, tracer.to_jsonl())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "trace: {} spans -> {}",
        tracer.spans().len(),
        trace_path.display()
    );
    let _ = writeln!(
        report,
        "  {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, total) in trace::totals_by_name(tracer.spans()) {
        let _ = writeln!(
            report,
            "  {:<34} {:>8} {:>12.3} {:>12.3}",
            name,
            total.count,
            total.total_us as f64 / 1e3,
            total.self_us as f64 / 1e3
        );
    }
    Ok(Outcome {
        gate,
        metrics,
        report,
    })
}

/// The contract's result object, one line.
fn result_line(correct: bool, gate: &Gate, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.attempted.max(1),
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        // JSON has no NaN; a non-finite reading already made the run incorrect.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// Measures one workload in this process; returns whether it was correct.
fn run_workload(shape: &Shape, options: &Options) -> Result<bool, String> {
    host::preflight(if shape.backend == Backend::Tcp {
        shape.n
    } else {
        0
    })?;
    let plan = match (options.smoke, options.traced) {
        (true, _) => Plan::smoke(),
        (false, true) => Plan::traced(options.seconds),
        (false, false) => Plan::untraced(options.seconds),
    };
    let mode = format!(
        "{}{}",
        if options.traced { "traced" } else { "untraced" },
        if options.smoke { ", smoke" } else { "" }
    );
    let plan_note = format!(
        "{mode}: {} session(s) x {} window(s) x {:.3} s, warm-up {:.1} s",
        plan.sessions,
        plan.windows,
        plan.window.as_secs_f64(),
        plan.warmup.as_secs_f64()
    );
    let transport = match shape.backend {
        Backend::Tcp => "loopback TCP, single host",
        Backend::Sim => "in-process simulator, no sockets",
    };
    let provenance = host::provenance(options.seed, &plan_note, transport);
    println!("== {} ==", shape.name);
    for (key, value) in &provenance {
        println!("  {key}: {value}");
    }

    let outcome = if options.traced {
        run_traced(shape, options.seed, &plan)?
    } else {
        run_untraced(shape, options.seed, &plan)?
    };
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = outcome.gate.failed == 0 && finite;

    print!("{}", outcome.report);
    for m in &outcome.metrics {
        println!(
            "  {:<36} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for problem in &outcome.gate.problems {
        println!("  FAILED CHECK: {problem}");
    }
    if !finite {
        println!("  FAILED CHECK: a metric is not a finite number");
    }
    let line = result_line(correct, &outcome.gate, &outcome.metrics);

    // The same numbers, stored beside their provenance.
    let out_dir = bench_dir().join("out");
    let stored = format!(
        "{{\"workload\": \"{}\", \"provenance\": {{{}}}, \"result\": {line}}}\n",
        shape.name,
        host::provenance_json(&provenance)
    );
    let path = out_dir.join(format!(
        "result-{}-{}.json",
        shape.name,
        if options.traced { "traced" } else { "untraced" }
    ));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, stored))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1 | --traced] \
                 [--smoke] [--selfcheck]"
            );
            return ExitCode::from(2);
        }
    };
    let verdict = match &options.workload {
        Some(name) => match Shape::by_name(name) {
            Some(shape) => run_workload(&shape, &options),
            None => Err(format!(
                "unknown workload `{name}`; known: {}",
                workloads::WORKLOADS
                    .iter()
                    .chain(&workloads::EXTRA)
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        },
        None if options.selfcheck => suite::selfcheck(&options),
        None => suite::run_all(&options),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args(&[
            "--workload",
            "wide-d65k",
            "--seed",
            "7",
            "--seconds",
            "24",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("wide-d65k"));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 24.0, true));
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.seed, sim::DEFAULT_SEED);
        assert!(!defaults.traced && !defaults.smoke && !defaults.selfcheck);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let gate = Gate {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
        };
        let metrics = [Metric::new("setup_s", "s", 0.8127, "")];
        let line = result_line(true, &gate, &metrics);
        let parsed = json::Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("correct").and_then(json::Json::as_bool),
            Some(true)
        );
        assert_eq!(
            parsed.get("attempted").and_then(json::Json::as_f64),
            Some(10.0)
        );
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(
            value.get("value").and_then(json::Json::as_f64),
            Some(0.8127)
        );
    }

    /// `BENCHMARK.json` and the harness must name the same things.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let spec = json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(json::Json::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            workloads::WORKLOADS.map(|s| s.name.to_string())
        );
        assert_eq!(
            spec.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let units = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(json::Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(units("end_to_end"), declared(&layers::END_TO_END));
        assert_eq!(units("per_layer"), declared(&layers::PER_LAYER));
    }
}
