//! The `isgc` command-line tool: inspect placements, decode availability
//! patterns, check recovery bounds, and run quick straggler simulations
//! without writing any code.
//!
//! Command logic lives here as pure functions returning the rendered output,
//! so everything is unit-testable; `main` only does I/O.

use isgc_core::decode::{decoder_for, ExactDecoder, OracleTimeout};
use isgc_core::{bounds, ConflictGraph, HrParams, Placement, Scheme, WorkerSet};
use isgc_engine::{DegradePolicy, MetricsObserver, StepOutcome};
use isgc_mc::{
    counterexample_trace, explore, explore_plan, failure_fingerprint, minimize, run_chaos,
    ChaosConfig, FaultPlan, McConfig, Trace, PLAN_NAMES,
};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::{Model, SoftmaxRegression};
use isgc_net::{
    Master, MasterSession, NetConfig, SwarmOptions, WaitPolicy as NetWaitPolicy, WorkerOptions,
};
use isgc_obs::{Registry, Snapshot};
use isgc_sched::{DriverError, JobDriver, Scheduler, SchedulerConfig, SessionStatus};
use isgc_simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc_simnet::delay::Delay;
use isgc_simnet::policy::WaitPolicy;
use isgc_simnet::trainer::{train, train_observed, CodingScheme, TrainingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Top-level usage text.
pub const USAGE: &str = "\
isgc — ignore-straggler gradient coding (ICDCS 2023 reproduction)

USAGE:
  isgc placement <fr|cr> <n> <c>           show a placement and its conflict graph
  isgc placement hr <n> <g> <c1> <c2>      show a hybrid placement
  isgc decode <fr|cr> <n> <c> <workers>    decode an availability pattern
                                           (workers: comma-separated, e.g. 0,2,5)
  isgc decode hr <n> <g> <c1> <c2> <workers>
  isgc bounds <n> <c>                      Theorem 10/11 recovery bounds for all w
  isgc recommend <n> <c>                   pick the best placement for a budget
  isgc plan <fr|cr> <n> <c>                profile every w and pick the fastest
  isgc trace <n> <steps> [slow-rate]       emit a Markov straggler trace as CSV
  isgc sim <fr|cr> <n> <c> <w> [steps]     quick straggler training simulation
       flags: --metrics-out <path>         collect metrics; append the logical
                                           series to the summary and write a
                                           full dump (.jsonl → JSON lines)
  isgc serve <fr|cr> <n> <c> [flags]       start a TCP master and train over real sockets
  isgc serve hr <n> <g> <c1> <c2> [flags]
       flags: --w <k> | --deadline-ms <d>  wait policy (default --w n)
              --steps <k>                  max training steps (default 20)
              --port <p>                   listen port (default 7070, 0 = ephemeral)
              --batch <b> --lr <r> --seed <s>
              --degrade fail|skip|approx   zero-recovery step posture (default fail)
              --max-consecutive <k>        approx only: degraded-streak cap (default 4)
              --min-coverage <f>           approx only: coverage floor in [0,1] (default 0.5)
              --heartbeat-timeout-ms <d>   declare a silent worker dead after d ms (default 2000)
              --metrics-out <path>         as for sim (adds net byte/frame counters)
  isgc serve-jobs <fr|cr> <n> <c> [flags]  host J concurrent training jobs in one
                                           process (fair round-robin, one TCP
                                           master per job on port, port+1, ...)
       flags: --jobs <J>                   concurrent jobs (default 2)
              --port <p>                   base port (default 7070; job j listens
                                           on p + j)
              --w, --deadline-ms, --steps, --batch, --lr, --seed, --degrade,
              --max-consecutive, --min-coverage, --heartbeat-timeout-ms,
              --metrics-out as for serve (per-job scoped metric series)
  isgc worker <host:port> [--delay-ms <d>] join a cluster as a worker
       [--job <id>]                        (--delay-ms injects a straggler delay;
       [--heartbeat-interval-ms <d>]       --job joins one tenant of serve-jobs;
                                           heartbeats every d ms, default 200)
  isgc swarm <host:port> --workers <n>     join a cluster as n workers multiplexed
       [--slow <k>] [--delay-ms <d>]       on one thread (the reactor-backed scale
       [--job <id>]                        client; workers with index < k straggle
       [--heartbeat-interval-ms <d>]       by d ms)
  isgc launch <fr|cr> <n> <c> [flags]      spawn a master and its n workers as swarm
                                           processes on loopback and train to
                                           completion
       flags: --w, --deadline-ms, --steps, --batch, --lr, --seed, --degrade,
              --max-consecutive, --min-coverage, --heartbeat-timeout-ms,
              --metrics-out as for serve
              --heartbeat-interval-ms <d>  forwarded to every spawned swarm
              --slow <k> --delay-ms <d>    the workers in master-assigned slots
                                           below k straggle by d ms (default 0/100)
              --jobs <J>                   run J co-tenant jobs (round-robin, J*n workers)
              --swarm <P>                  supply each job's n workers from P
                                           swarm processes, 1 <= P <= n
                                           (default n: one process per worker)
  isgc chaos --plan <name> [flags]         run a loopback cluster under a seeded
                                           fault plan; assert Theorem 10/11 bounds,
                                           checkpoint resume, and exact replay
       flags: --seed <s>                   fault + training seed (default 42)
              --n <k> --c <k> --steps <k>  cluster shape (default 6 2 8; c | n)
              --degrade fail|skip|approx   as for serve (default: the plan's
                                           recommended policy), with
                                           --max-consecutive / --min-coverage
              --metrics-out <path>         as for sim (adds chaos fault counters)
       plans: smoke, worker-flap, worker-crash, master-restart, frame-corrupt,
              delay, duplicate-stale, random, blackout, slow-bleed
       --plan may also name a counterexample trace file written by `isgc mc`
              (path ending in .json): the scripted schedule replays on a real
              cluster and the failure fingerprint must match the trace's
  isgc mc [flags]                          exhaustively model-check the collector
                                           protocol: enumerate every delivery
                                           order and fault schedule for a small
                                           cluster, asserting the chaos invariants
                                           at every reachable state
       flags: --shape flat3|flat4          cluster under test (default flat3)
              --steps <k> --seed <s>       run length and data seed (default 2 7)
              --max-faults <k>             faults budget per schedule (default 2)
              --depth <k>                  branching decisions per run (default 64)
              --max-runs <k>               search cutoff (default 200000); a search
                                           it cuts short fails the command
              --trace-out <path>           where to write the minimized
                                           counterexample (default mc_trace.json)

Two-terminal quickstart (an 8-worker FR(8,2) cluster, ignore the 2 slowest):
  terminal 1:  isgc serve fr 8 2 --w 6 --steps 20
  terminal 2:  for i in $(seq 8); do isgc worker 127.0.0.1:7070 & done; wait
Or in one shot (slots 0 and 1 straggle):  isgc launch fr 8 2 --w 6 --steps 20 --slow 2
";

/// Dispatches a full argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands or invalid
/// arguments.
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("placement") => cmd_placement(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("recommend") => cmd_recommend(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("serve-jobs") => cmd_serve_jobs(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("swarm") => cmd_swarm(&args[1..]),
        Some("launch") => cmd_launch(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("mc") => cmd_mc(&args[1..]),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: '{s}'"))
}

fn build_placement(args: &[String]) -> Result<(Placement, usize), String> {
    match args.first().map(String::as_str) {
        Some("fr") | Some("cr") => {
            if args.len() < 3 {
                return Err("expected: <fr|cr> <n> <c>".to_string());
            }
            let n: usize = parse(&args[1], "n")?;
            let c: usize = parse(&args[2], "c")?;
            let p = if args[0] == "fr" {
                Placement::fractional(n, c)
            } else {
                Placement::cyclic(n, c)
            }
            .map_err(|e| e.to_string())?;
            Ok((p, 3))
        }
        Some("hr") => {
            if args.len() < 5 {
                return Err("expected: hr <n> <g> <c1> <c2>".to_string());
            }
            let n: usize = parse(&args[1], "n")?;
            let g: usize = parse(&args[2], "g")?;
            let c1: usize = parse(&args[3], "c1")?;
            let c2: usize = parse(&args[4], "c2")?;
            let p = Placement::hybrid(HrParams::new(n, g, c1, c2)).map_err(|e| e.to_string())?;
            Ok((p, 5))
        }
        _ => Err("expected placement kind: fr, cr, or hr".to_string()),
    }
}

fn cmd_placement(args: &[String]) -> Result<String, String> {
    let (p, _) = build_placement(args)?;
    let graph = ConflictGraph::from_placement(&p);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} placement, n = {}, c = {}",
        p.scheme(),
        p.n(),
        p.c()
    );
    for w in 0..p.n() {
        let _ = writeln!(out, "  worker {w:>3}: partitions {:?}", p.partitions_of(w));
    }
    let _ = writeln!(
        out,
        "conflict graph: {} edges{}",
        graph.edge_count(),
        if p.scheme() == Scheme::Cyclic {
            format!(" (circulant C_n^{{1..{}}})", p.c().saturating_sub(1))
        } else {
            String::new()
        }
    );
    let _ = writeln!(out, "  {:?}", graph.edges());
    Ok(out)
}

fn parse_workers(s: &str, n: usize) -> Result<WorkerSet, String> {
    let mut set = WorkerSet::empty(n);
    for tok in s.split(',').filter(|t| !t.is_empty()) {
        let id: usize = parse(tok, "worker id")?;
        if id >= n {
            return Err(format!("worker {id} outside 0..{n}"));
        }
        set.insert(id);
    }
    Ok(set)
}

fn cmd_decode(args: &[String]) -> Result<String, String> {
    let (p, consumed) = build_placement(args)?;
    let avail_arg = args
        .get(consumed)
        .ok_or_else(|| "missing availability list, e.g. 0,2,5".to_string())?;
    let available = parse_workers(avail_arg, p.n())?;
    let decoder = decoder_for(&p).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(0);
    let result = decoder.decode(&available, &mut rng);
    let mut out = String::new();
    let _ = writeln!(out, "available workers: {:?}", available.to_vec());
    let _ = writeln!(out, "selected (I):      {:?}", result.selected());
    let _ = writeln!(
        out,
        "recovered:         {}/{} partitions {:?}",
        result.recovered_count(),
        p.n(),
        result.partitions()
    );
    let w = available.len();
    let (alpha_lo, alpha_hi) = bounds::alpha_bounds_of(&p, w);
    let _ = writeln!(out, "Theorem 10/11:     {alpha_lo} ≤ |I| ≤ {alpha_hi}");
    Ok(out)
}

fn cmd_bounds(args: &[String]) -> Result<String, String> {
    if args.len() < 2 {
        return Err("expected: bounds <n> <c>".to_string());
    }
    let n: usize = parse(&args[0], "n")?;
    let c: usize = parse(&args[1], "c")?;
    if n == 0 || c == 0 || c > n {
        return Err(format!("need 1 ≤ c ≤ n, got n={n}, c={c}"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recovery bounds for n = {n}, c = {c} (selectable workers)"
    );
    let _ = writeln!(out, "{:>4}  {:>8}  {:>8}", "w", "Thm10 lo", "Thm11 hi");
    for w in 0..=n {
        let _ = writeln!(
            out,
            "{w:>4}  {:>8}  {:>8}",
            bounds::alpha_lower_bound(n, c, w),
            bounds::alpha_upper_bound(n, c, w)
        );
    }
    Ok(out)
}

fn cmd_recommend(args: &[String]) -> Result<String, String> {
    if args.len() < 2 {
        return Err("expected: recommend <n> <c>".to_string());
    }
    let n: usize = parse(&args[0], "n")?;
    let c: usize = parse(&args[1], "c")?;
    let rec = isgc_core::design::recommend(n, c).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recommended placement for n = {n}, c = {c}: {}",
        rec.placement.scheme()
    );
    let _ = match rec.rationale {
        isgc_core::design::Rationale::FrDivides => {
            writeln!(
                out,
                "rationale: c | n, so FR maximizes recovery (Theorem 4)"
            )
        }
        isgc_core::design::Rationale::HrFeasible { g, c1, c2 } => writeln!(
            out,
            "rationale: c ∤ n but HR(n, {c1}, {c2}) with g = {g} groups fits \
             Theorem 6's range and beats CR"
        ),
        isgc_core::design::Rationale::CrFallback => {
            writeln!(out, "rationale: no FR/HR structure fits; CR always works")
        }
    };
    let graph = ConflictGraph::from_placement(&rec.placement);
    let cr_edges =
        ConflictGraph::from_placement(&Placement::cyclic(n, c).map_err(|e| e.to_string())?)
            .edge_count();
    let _ = writeln!(
        out,
        "conflict edges: {} (CR at the same budget would have {cr_edges})",
        graph.edge_count()
    );
    Ok(out)
}

fn cmd_plan(args: &[String]) -> Result<String, String> {
    let (p, _) = build_placement(args)?;
    let n = p.n();
    let decoder = decoder_for(&p).map_err(|e| e.to_string())?;
    let cluster = ClusterConfig {
        n,
        compute_time_per_partition: 0.05,
        comm_time: 0.1,
        jitter: Delay::Exponential { mean: 0.4 },
        straggler_delay: Delay::none(),
        stragglers: StragglerSelection::None,
    };
    let plans = isgc_simnet::planner::plan_wait_counts(&p, decoder.as_ref(), cluster, 2000, 7);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "wait-count profile for {} (exponential upload jitter, mean 0.4 s):",
        p.scheme()
    );
    let _ = writeln!(
        out,
        "{:>4}  {:>12}  {:>14}  {:>15}",
        "w", "E[step] (s)", "E[recovered]", "relative total"
    );
    for plan in &plans {
        let _ = writeln!(
            out,
            "{:>4}  {:>12.3}  {:>14.2}  {:>15.3}",
            plan.w, plan.step_time, plan.recovered, plan.relative_total_time
        );
    }
    let _ = writeln!(
        out,
        "best w = {} (minimum relative time-to-threshold)",
        isgc_simnet::planner::best_wait_count(&plans)
    );
    Ok(out)
}

fn cmd_trace(args: &[String]) -> Result<String, String> {
    if args.len() < 2 {
        return Err("expected: trace <n> <steps> [slow-rate]".to_string());
    }
    let n: usize = parse(&args[0], "n")?;
    let steps: usize = parse(&args[1], "steps")?;
    let slow_rate: f64 = match args.get(2) {
        Some(s) => parse(s, "slow-rate")?,
        None => 0.2,
    };
    if n == 0 || steps == 0 {
        return Err("n and steps must be positive".to_string());
    }
    if !(0.0..1.0).contains(&slow_rate) {
        return Err("slow-rate must be in [0, 1)".to_string());
    }
    // Pick transition rates with the requested stationary slow fraction and
    // mean episode length ~10 steps.
    let p_sf = 0.1;
    let p_fs = if slow_rate == 0.0 {
        0.0
    } else {
        p_sf * slow_rate / (1.0 - slow_rate)
    };
    let model = isgc_simnet::trace::MarkovStragglerModel {
        n,
        fast: Delay::Uniform { lo: 0.0, hi: 0.02 },
        slow: Delay::ShiftedExponential {
            shift: 1.0,
            mean: 0.5,
        },
        p_fast_to_slow: p_fs,
        p_slow_to_fast: p_sf,
    };
    Ok(model.generate(steps, 42).to_csv_string())
}

/// Writes a full metrics dump to `path`: JSON lines when the path ends in
/// `.jsonl`, the sorted text snapshot otherwise.
fn write_metrics_dump(path: &str, registry: &Registry) -> Result<(), String> {
    let dump = if path.ends_with(".jsonl") {
        registry.to_jsonl(Snapshot::Full)
    } else {
        registry.to_text(Snapshot::Full)
    };
    std::fs::write(path, dump).map_err(|e| format!("writing metrics to {path}: {e}"))
}

/// Renders the logical (seed-deterministic) series as the summary's
/// "metrics" section.
fn metrics_section(registry: &Registry) -> String {
    let mut out = String::from("metrics (logical series):\n");
    for line in registry.to_text(Snapshot::Logical).lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Appends the metrics dump + summary section when `--metrics-out` was given.
fn finish_metrics(out: &mut String, metrics: Option<&(String, Registry)>) -> Result<(), String> {
    if let Some((path, registry)) = metrics {
        write_metrics_dump(path, registry)?;
        let _ = writeln!(out, "metrics dump:       {path}");
        out.push_str(&metrics_section(registry));
    }
    Ok(())
}

/// Pulls `--metrics-out` from parsed flags as a `(path, fresh registry)`
/// pair for [`finish_metrics`].
fn metrics_from(flags: &HashMap<String, String>) -> Option<(String, Registry)> {
    flags
        .get("metrics-out")
        .map(|path| (path.clone(), Registry::new()))
}

fn cmd_sim(args: &[String]) -> Result<String, String> {
    let (p, consumed) = build_placement(args)?;
    let w: usize = parse(
        args.get(consumed)
            .ok_or("missing w (workers to wait for)")?,
        "w",
    )?;
    if !(1..=p.n()).contains(&w) {
        return Err(format!("w must be within 1..={}", p.n()));
    }
    let mut rest = consumed + 1;
    let max_steps: usize = match args.get(rest) {
        Some(s) if !s.starts_with("--") => {
            rest += 1;
            parse(s, "steps")?
        }
        _ => 200,
    };
    let flags = parse_flags(&args[rest..], &["metrics-out"])?;
    let metrics = metrics_from(&flags);
    let n = p.n();
    let dataset = Dataset::gaussian_classification(64 * n.max(4), 8, 4, 3.0, 777);
    let model = SoftmaxRegression::new(8, 4);
    let cluster = ClusterConfig {
        n,
        compute_time_per_partition: 0.05,
        comm_time: 0.1,
        jitter: Delay::Exponential { mean: 0.4 },
        straggler_delay: Delay::none(),
        stragglers: StragglerSelection::None,
    };
    let config = TrainingConfig {
        loss_threshold: 0.21,
        max_steps,
        ..TrainingConfig::default()
    };
    let scheme = CodingScheme::IsGc(p.clone());
    let policy = WaitPolicy::WaitForCount(w);
    let report = match &metrics {
        Some((_, registry)) => train_observed(
            &model,
            &dataset,
            &scheme,
            &policy,
            cluster,
            &config,
            &mut MetricsObserver::new(registry.clone(), n),
        ),
        None => train(&model, &dataset, &scheme, &policy, cluster, &config),
    };
    let mut out = String::new();
    let _ = writeln!(out, "IS-GC {} n={} c={} w={w}", p.scheme(), n, p.c());
    let _ = writeln!(out, "steps:              {}", report.step_count());
    let _ = writeln!(out, "converged:          {}", report.reached_threshold);
    let _ = writeln!(out, "final loss:         {:.4}", report.final_loss());
    let _ = writeln!(
        out,
        "recovered (mean):   {:.1}%",
        100.0 * report.mean_recovered_fraction()
    );
    let _ = writeln!(out, "sim time:           {:.2} s", report.sim_time());
    let _ = writeln!(
        out,
        "time/step (mean):   {:.3} s",
        report.mean_step_duration()
    );
    finish_metrics(&mut out, metrics.as_ref())?;
    Ok(out)
}

/// Parses `--flag value` pairs, rejecting unknown or duplicated flags.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(token) = it.next() {
        let Some(name) = token.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{token}'"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if map.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(map)
}

/// Builds the wait policy from `--w` / `--deadline-ms` (default: wait for
/// everyone).
fn wait_policy_from(flags: &HashMap<String, String>, n: usize) -> Result<NetWaitPolicy, String> {
    match (flags.get("w"), flags.get("deadline-ms")) {
        (Some(_), Some(_)) => Err("give either --w or --deadline-ms, not both".to_string()),
        (Some(w), None) => {
            let w: usize = parse(w, "w")?;
            if !(1..=n).contains(&w) {
                return Err(format!("w must be within 1..={n}"));
            }
            Ok(NetWaitPolicy::FirstW(w))
        }
        (None, Some(ms)) => {
            let ms: u64 = parse(ms, "deadline-ms")?;
            if ms == 0 {
                return Err("--deadline-ms must be positive".to_string());
            }
            Ok(NetWaitPolicy::Deadline(Duration::from_millis(ms)))
        }
        (None, None) => Ok(NetWaitPolicy::FirstW(n)),
    }
}

/// Builds the degradation policy from `--degrade` / `--max-consecutive` /
/// `--min-coverage`. `None` means no `--degrade` flag was given, so the
/// command keeps its own default.
fn degrade_from(flags: &HashMap<String, String>) -> Result<Option<DegradePolicy>, String> {
    let max = flags.get("max-consecutive");
    let cov = flags.get("min-coverage");
    let name = flags.get("degrade").map(String::as_str);
    if name != Some("approx") && (max.is_some() || cov.is_some()) {
        return Err("--max-consecutive/--min-coverage require --degrade approx".to_string());
    }
    match name {
        None => Ok(None),
        Some("fail") => Ok(Some(DegradePolicy::Fail)),
        Some("skip") => Ok(Some(DegradePolicy::Skip)),
        Some("approx") => {
            let DegradePolicy::Approximate {
                max_consecutive: default_max,
                min_coverage: default_cov,
            } = DegradePolicy::approximate_default()
            else {
                unreachable!("approximate_default returns Approximate");
            };
            let max_consecutive: u64 = match max {
                Some(s) => parse(s, "max-consecutive")?,
                None => default_max,
            };
            if max_consecutive == 0 {
                return Err("--max-consecutive must be at least 1".to_string());
            }
            let min_coverage: f64 = match cov {
                Some(s) => parse(s, "min-coverage")?,
                None => default_cov,
            };
            if !(0.0..=1.0).contains(&min_coverage) {
                return Err(format!(
                    "--min-coverage must lie in [0, 1], got {min_coverage}"
                ));
            }
            Ok(Some(DegradePolicy::Approximate {
                max_consecutive,
                min_coverage,
            }))
        }
        Some(other) => Err(format!(
            "unknown degrade policy '{other}'; use fail, skip, or approx"
        )),
    }
}

/// Renders a policy for summaries: `fail`, `skip`, or `approx` with its knobs.
fn render_policy(policy: &DegradePolicy) -> String {
    match policy {
        DegradePolicy::Approximate {
            max_consecutive,
            min_coverage,
        } => format!("approx (max-consecutive {max_consecutive}, min-coverage {min_coverage})"),
        other => other.label().to_string(),
    }
}

/// Builds a [`NetConfig`] from parsed flags.
fn net_config_from(p: &Placement, flags: &HashMap<String, String>) -> Result<NetConfig, String> {
    let mut config = NetConfig::new(p.clone(), wait_policy_from(flags, p.n())?);
    config.max_steps = match flags.get("steps") {
        Some(s) => parse(s, "steps")?,
        None => 20,
    };
    if let Some(b) = flags.get("batch") {
        config.batch_size = parse(b, "batch")?;
    }
    if let Some(r) = flags.get("lr") {
        config.learning_rate = parse(r, "lr")?;
    }
    if let Some(s) = flags.get("seed") {
        config.seed = parse(s, "seed")?;
    }
    if let Some(policy) = degrade_from(flags)? {
        config.degrade = policy;
    }
    if let Some(s) = flags.get("heartbeat-timeout-ms") {
        let ms: u64 = parse(s, "heartbeat-timeout-ms")?;
        if ms == 0 {
            return Err("--heartbeat-timeout-ms must be positive".to_string());
        }
        config.heartbeat_timeout = Duration::from_millis(ms);
    }
    Ok(config)
}

/// The model/dataset recipe every networked peer rebuilds identically: the
/// worker only needs the cluster size from its `Assign` message.
fn net_model_and_data(n: usize) -> (SoftmaxRegression, Dataset) {
    (
        SoftmaxRegression::new(8, 4),
        Dataset::gaussian_classification(64 * n.max(4), 8, 4, 3.0, 777),
    )
}

/// Renders one master-side per-step progress line. `oracle` is the exact
/// decoder's verdict for the step: absent (not run), a recovered count, or a
/// typed timeout when the budgeted branch-and-bound could not finish.
fn render_step(
    r: &isgc_net::NetReport,
    n: usize,
    oracle: Option<Result<usize, OracleTimeout>>,
) -> String {
    let oracle_note = match oracle {
        Some(Ok(best)) if best == r.recovered => " (oracle ok)".to_string(),
        Some(Ok(best)) => format!(" (ORACLE MISMATCH: exact decoder finds {best})"),
        Some(Err(timeout)) => format!(" (oracle timeout > {:?})", timeout.budget),
        None => String::new(),
    };
    let dead_note = if r.dead.is_empty() {
        String::new()
    } else {
        format!(" dead {:?}", r.dead)
    };
    let repair_note = if r.repairs.is_empty() {
        String::new()
    } else {
        format!(" repaired {}", r.repairs.len())
    };
    let degrade_note = match r.outcome {
        StepOutcome::Exact => String::new(),
        StepOutcome::Approx => format!(
            " APPROX cov {:.0}% x{:.2} streak {}",
            100.0 * r.coverage,
            r.bias_weight,
            r.consecutive_degraded
        ),
        StepOutcome::Skipped => format!(" SKIPPED streak {}", r.consecutive_degraded),
    };
    format!(
        "step {:>3}: arrivals {}/{n} recovered {:>2}/{n}{oracle_note} waited {:>6.1} ms loss {:.4}{dead_note}{repair_note}{degrade_note}",
        r.step,
        r.arrivals.len(),
        r.recovered,
        r.waited_ms,
        r.loss,
    )
}

/// Renders the end-of-run summary shared by `serve` and `launch`.
fn render_net_summary(report: &isgc_net::NetTrainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "steps:              {}", report.step_count());
    let _ = writeln!(out, "final loss:         {:.4}", report.final_loss());
    let _ = writeln!(
        out,
        "recovered (mean):   {:.1}%",
        100.0 * report.mean_recovered_fraction()
    );
    let _ = writeln!(out, "waited/step (mean): {:.1} ms", report.mean_waited_ms());
    if report.degraded_steps() > 0 {
        let _ = writeln!(
            out,
            "degraded steps:     {} ({} approx, {} skipped; worst streak {})",
            report.degraded_steps(),
            report.approx_steps(),
            report.skipped_steps(),
            report.max_consecutive_degraded()
        );
    }
    let _ = writeln!(out, "wall time:          {:.2} s", report.wall_time);
    out
}

const SERVE_FLAGS: &[&str] = &[
    "w",
    "deadline-ms",
    "steps",
    "port",
    "batch",
    "lr",
    "seed",
    "degrade",
    "max-consecutive",
    "min-coverage",
    "heartbeat-timeout-ms",
    "metrics-out",
];

fn cmd_serve(args: &[String]) -> Result<String, String> {
    let (p, consumed) = build_placement(args)?;
    let flags = parse_flags(&args[consumed..], SERVE_FLAGS)?;
    let mut config = net_config_from(&p, &flags)?;
    let metrics = metrics_from(&flags);
    config.metrics = metrics.as_ref().map(|(_, r)| r.clone());
    let port: u16 = match flags.get("port") {
        Some(s) => parse(s, "port")?,
        None => 7070,
    };
    let n = p.n();
    let master = Master::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    let addr = master.local_addr().map_err(|e| e.to_string())?;
    println!("master listening on {addr}; waiting for {n} workers");
    let (model, dataset) = net_model_and_data(n);
    let report = master
        .run_with(&model, &dataset, &config, |r| {
            println!("{}", render_step(r, n, None));
        })
        .map_err(|e| e.to_string())?;
    let mut out = render_net_summary(&report);
    finish_metrics(&mut out, metrics.as_ref())?;
    Ok(out)
}

/// [`isgc_sched::JobDriver`] over a networked [`MasterSession`]: the
/// adapter that lets one scheduler round-robin several TCP masters in one
/// process. Lives here (not in `isgc-sched`) so the scheduler crate stays
/// transport-free. It keeps no state of its own: a session that finished
/// or failed already answers [`MasterSession::step`] with
/// [`SessionStatus::Done`], which is the [`JobDriver`] contract.
pub struct NetJob<M: Model>(pub MasterSession<M>);

impl<M: Model> JobDriver for NetJob<M> {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        self.0.step().map_err(|e| Box::new(e) as DriverError)
    }

    fn finish(self: Box<Self>) -> isgc_engine::TrainReport {
        self.0.finish()
    }
}

const SERVE_JOBS_FLAGS: &[&str] = &[
    "jobs",
    "port",
    "w",
    "deadline-ms",
    "steps",
    "batch",
    "lr",
    "seed",
    "degrade",
    "max-consecutive",
    "min-coverage",
    "heartbeat-timeout-ms",
    "metrics-out",
];

/// Builds job `j`'s config: shared shape, per-job id, name (metrics
/// scope), and seed.
fn job_config(base: &NetConfig, j: u64) -> NetConfig {
    let mut config = base.clone();
    config.job = j;
    config.job_name = Some(format!("job-{j}"));
    config.seed = base.seed.wrapping_add(j);
    config
}

/// Renders one finished job's outcome line.
fn render_job_outcome(outcome: &isgc_sched::JobOutcome) -> String {
    match &outcome.result {
        Ok(report) => format!(
            "job {:>2} ({}): {} steps, final loss {:.4}, fingerprint {:016x}\n",
            outcome.id.0,
            outcome.name,
            report.step_count(),
            report.final_loss(),
            report.recovery_fingerprint(),
        ),
        Err(e) => format!(
            "job {:>2} ({}): FAILED after {} steps: {e}\n",
            outcome.id.0, outcome.name, outcome.steps_run
        ),
    }
}

fn cmd_serve_jobs(args: &[String]) -> Result<String, String> {
    let (p, consumed) = build_placement(args)?;
    let flags = parse_flags(&args[consumed..], SERVE_JOBS_FLAGS)?;
    let jobs: u64 = match flags.get("jobs") {
        Some(s) => parse(s, "jobs")?,
        None => 2,
    };
    if jobs == 0 {
        return Err("--jobs must be positive".to_string());
    }
    let base_port: u16 = match flags.get("port") {
        Some(s) => parse(s, "port")?,
        None => 7070,
    };
    let mut base = net_config_from(&p, &flags)?;
    let metrics = metrics_from(&flags);
    base.metrics = metrics.as_ref().map(|(_, r)| r.clone());
    let n = p.n();

    // Bind every tenant's listener up front so all the join addresses are
    // printable before any job blocks on registration.
    let mut masters = Vec::new();
    for j in 0..jobs {
        let port = if base_port == 0 {
            0
        } else {
            base_port
                .checked_add(u16::try_from(j).map_err(|_| "too many jobs".to_string())?)
                .ok_or_else(|| format!("port {base_port}+{j} overflows"))?
        };
        let master = Master::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        let addr = master.local_addr().map_err(|e| e.to_string())?;
        println!("job {j} listening on {addr}; join with: isgc worker {addr} --job {j}");
        masters.push(master);
    }
    println!("waiting for {n} workers per job (jobs register in submission order)");
    run_jobs(masters, &base, metrics.as_ref(), Vec::new())
}

/// Runs one job per master in one round-robin scheduler, job `j` with
/// [`job_config`]`(base, j)`, then reaps `children` (the workers a launch
/// started; killed instead if a job cannot be submitted) and renders each
/// job's outcome. Any failed job fails the whole run.
fn run_jobs(
    masters: Vec<Master>,
    base: &NetConfig,
    metrics: Option<&(String, Registry)>,
    children: Vec<std::process::Child>,
) -> Result<String, String> {
    let n = base.placement.n();
    let mut sched = Scheduler::new(SchedulerConfig::new(masters.len(), 0));
    for (j, master) in masters.into_iter().enumerate() {
        let config = job_config(base, j as u64);
        let name = config.job_name.clone().unwrap_or_default();
        let submitted = sched.submit_driver(
            name,
            Box::new(move || {
                let (model, dataset) = net_model_and_data(n);
                master
                    .into_session(model, dataset, &config)
                    .map(|session| Box::new(NetJob(session)) as Box<dyn JobDriver>)
                    .map_err(|e| Box::new(e) as DriverError)
            }),
        );
        if let Err(e) = submitted {
            kill_children(children);
            return Err(e.to_string());
        }
    }
    let outcomes = sched.run_to_completion();
    for mut child in children {
        let _ = child.wait();
    }
    let mut out = String::new();
    let mut failed = false;
    for outcome in &outcomes {
        failed |= outcome.result.is_err();
        out.push_str(&render_job_outcome(outcome));
    }
    finish_metrics(&mut out, metrics)?;
    if failed {
        return Err(out);
    }
    Ok(out)
}

/// `--heartbeat-interval-ms`, when given: a positive number of milliseconds.
fn heartbeat_interval_ms_from(flags: &HashMap<String, String>) -> Result<Option<u64>, String> {
    let Some(s) = flags.get("heartbeat-interval-ms") else {
        return Ok(None);
    };
    let ms: u64 = parse(s, "heartbeat-interval-ms")?;
    if ms == 0 {
        return Err("--heartbeat-interval-ms must be positive".to_string());
    }
    Ok(Some(ms))
}

/// The flags `worker` and `swarm` share. A worker whose master-assigned
/// index is below `slow` straggles by `--delay-ms` (`default_delay_ms` when
/// the flag is absent).
fn worker_options_from(
    flags: &HashMap<String, String>,
    slow: usize,
    default_delay_ms: u64,
) -> Result<WorkerOptions, String> {
    let delay_ms: u64 = match flags.get("delay-ms") {
        Some(s) => parse(s, "delay-ms")?,
        None => default_delay_ms,
    };
    let mut options = WorkerOptions::with_delay(Arc::new(move |w, _step| {
        if w < slow {
            Duration::from_millis(delay_ms)
        } else {
            Duration::ZERO
        }
    }));
    if let Some(s) = flags.get("job") {
        options.job = parse(s, "job")?;
    }
    if let Some(ms) = heartbeat_interval_ms_from(flags)? {
        options.heartbeat_interval = Duration::from_millis(ms);
    }
    Ok(options)
}

fn cmd_worker(args: &[String]) -> Result<String, String> {
    let addr = args
        .first()
        .ok_or_else(|| "expected: worker <host:port> [--delay-ms <d>] [--job <id>]".to_string())?
        .clone();
    let flags = parse_flags(&args[1..], &["delay-ms", "job", "heartbeat-interval-ms"])?;
    // A standalone worker straggles whatever index the master assigns it.
    let options = worker_options_from(&flags, usize::MAX, 0)?;
    let summary = isgc_net::run_worker(addr.as_str(), &options, |assignment| {
        net_model_and_data(assignment.n)
    })
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "worker {} served {} steps ({} reconnects), exiting: {:?}\n",
        summary.worker, summary.steps_served, summary.reconnects, summary.cause
    ))
}

fn cmd_swarm(args: &[String]) -> Result<String, String> {
    let addr = args
        .first()
        .ok_or_else(|| "expected: swarm <host:port> --workers <n> [flags]".to_string())?
        .clone();
    let flags = parse_flags(
        &args[1..],
        &[
            "workers",
            "slow",
            "delay-ms",
            "job",
            "heartbeat-interval-ms",
        ],
    )?;
    let workers: usize = match flags.get("workers") {
        Some(s) => parse(s, "workers")?,
        None => return Err("--workers is required".to_string()),
    };
    let slow: usize = match flags.get("slow") {
        Some(s) => parse(s, "slow")?,
        None => 0,
    };
    // Straggling keys on the master-assigned worker index, so the semantics
    // match `launch --slow` no matter which swarm process owns a member.
    let options = SwarmOptions {
        workers,
        worker: worker_options_from(&flags, slow, 100)?,
    };
    let summary = isgc_net::run_swarm(addr.as_str(), &options, |assignment| {
        net_model_and_data(assignment.n)
    })
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "swarm of {} workers served {} steps ({} clean shutdowns, {} lost)\n",
        summary.workers, summary.steps_served, summary.clean_shutdowns, summary.lost
    ))
}

/// This process's thread count as the kernel sees it (Linux only).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

const LAUNCH_FLAGS: &[&str] = &[
    "w",
    "deadline-ms",
    "steps",
    "batch",
    "lr",
    "seed",
    "degrade",
    "max-consecutive",
    "min-coverage",
    "heartbeat-timeout-ms",
    "heartbeat-interval-ms",
    "slow",
    "delay-ms",
    "metrics-out",
    "jobs",
    "swarm",
];

fn cmd_launch(args: &[String]) -> Result<String, String> {
    let (p, consumed) = build_placement(args)?;
    let flags = parse_flags(&args[consumed..], LAUNCH_FLAGS)?;
    let mut config = net_config_from(&p, &flags)?;
    let metrics = metrics_from(&flags);
    config.metrics = metrics.as_ref().map(|(_, r)| r.clone());
    let n = p.n();
    let slow: usize = match flags.get("slow") {
        Some(s) => parse(s, "slow")?,
        None => 0,
    };
    if slow > n {
        return Err(format!("--slow {slow} exceeds the {n} workers"));
    }
    let delay_ms: u64 = match flags.get("delay-ms") {
        Some(s) => parse(s, "delay-ms")?,
        None => 100,
    };
    let heartbeat_interval_ms = heartbeat_interval_ms_from(&flags)?;
    let jobs: u64 = match flags.get("jobs") {
        Some(s) => parse(s, "jobs")?,
        None => 1,
    };
    if jobs == 0 {
        return Err("--jobs must be positive".to_string());
    }
    let swarm: usize = match flags.get("swarm") {
        Some(s) => parse(s, "swarm")?,
        None => n,
    };
    if !(1..=n).contains(&swarm) {
        return Err(format!("--swarm {swarm} must lie in 1..={n}"));
    }

    let mut masters = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..jobs {
        let master = Master::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        addrs.push(master.local_addr().map_err(|e| e.to_string())?);
        masters.push(master);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Process i is swarm i % swarm of job i / swarm. Each job's n workers
    // are spread as evenly as possible over its swarms, and every member
    // straggles by its master-assigned slot, so all get the same --slow.
    let children = spawn_children(jobs as usize * swarm, |i| {
        let (job, s) = (i / swarm, i % swarm);
        let members = n / swarm + usize::from(s < n % swarm);
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("swarm")
            .arg(addrs[job].to_string())
            .arg("--workers")
            .arg(members.to_string())
            .arg("--job")
            .arg(job.to_string())
            .arg("--slow")
            .arg(slow.to_string())
            .arg("--delay-ms")
            .arg(delay_ms.to_string())
            // A launched worker's progress is the master's to report.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(ms) = heartbeat_interval_ms {
            cmd.arg("--heartbeat-interval-ms").arg(ms.to_string());
        }
        cmd.spawn()
    })?;
    println!(
        "launched {jobs} job(s) of {n} workers from {swarm} swarm process(es) each \
         (slots below {slow} straggle by {delay_ms} ms)"
    );
    if jobs > 1 {
        return run_jobs(masters, &config, metrics.as_ref(), children);
    }
    let master = masters.remove(0);

    // Per-step oracle: replay each surviving worker set through the exact
    // decoder and flag any step where the runtime recovered less. The
    // oracle is branch-and-bound MIS — exponential in the worst case (it
    // visibly stalls on near-full availability already at FR(64, 2)) — so
    // it runs under a wall-clock budget: a step whose search exceeds the
    // budget is reported as a typed timeout instead of silently skipping
    // the check (or stalling the master mid-step).
    const ORACLE_BUDGET: Duration = Duration::from_millis(250);
    let oracle = ExactDecoder::with_budget(&p, ORACLE_BUDGET);
    let mut mismatches = 0usize;
    let mut oracle_timeouts = 0usize;
    let mut threads_during_run: Option<usize> = None;
    let (model, dataset) = net_model_and_data(n);
    let outcome = master.run_with(&model, &dataset, &config, |r| {
        threads_during_run = threads_during_run.or_else(process_threads);
        let available = WorkerSet::from_indices(n, r.arrivals.iter().copied());
        let best = oracle
            .decode_within(&available)
            .map(|d| d.recovered_count());
        match best {
            Ok(best) if best != r.recovered => mismatches += 1,
            Err(_) => oracle_timeouts += 1,
            Ok(_) => {}
        }
        println!("{}", render_step(r, n, Some(best)));
    });
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            kill_children(children);
            return Err(e.to_string());
        }
    };
    for mut child in children {
        let _ = child.wait();
    }
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} steps recovered fewer partitions than the exact decoder"
        ));
    }
    let mut out = render_net_summary(&report);
    if oracle_timeouts > 0 {
        let _ = writeln!(
            out,
            "oracle timeouts:    {oracle_timeouts} steps exceeded the {ORACLE_BUDGET:?} \
             exact-MIS budget (maximality unchecked there)"
        );
    }
    if let Some(threads) = threads_during_run {
        let _ = writeln!(out, "master threads during run: {threads}");
    }
    finish_metrics(&mut out, metrics.as_ref())?;
    Ok(out)
}

/// Starts `count` child processes, the `i`th by `spawn(i)`. When one fails
/// to start, the ones already running are killed and reaped before the
/// error returns, so a failed launch leaves no orphan behind.
fn spawn_children(
    count: usize,
    mut spawn: impl FnMut(usize) -> std::io::Result<std::process::Child>,
) -> Result<Vec<std::process::Child>, String> {
    let mut children = Vec::with_capacity(count);
    for i in 0..count {
        match spawn(i) {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_children(children);
                return Err(format!("spawning child process {i}: {e}"));
            }
        }
    }
    Ok(children)
}

/// Kills and reaps every child.
fn kill_children(children: Vec<std::process::Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// `isgc chaos --plan <name> [--seed s] [--n k --c k --steps k]`: run a
/// loopback cluster under a named fault plan and report the per-step record,
/// the determinism fingerprint, and any invariant violations.
/// The `chaos --plan <trace.json>` arm: replays a model-checker
/// counterexample (or any saved trace) on a real loopback cluster and holds
/// the run to the trace's recorded failure fingerprint.
fn cmd_chaos_replay(path: &str, flags: &HashMap<String, String>) -> Result<String, String> {
    for flag in ["n", "c", "steps", "seed"] {
        if flags.contains_key(flag) {
            return Err(format!(
                "--{flag} conflicts with a trace file: the trace records the cluster shape"
            ));
        }
    }
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let trace = Trace::from_json(&json).map_err(|e| format!("invalid trace '{path}': {e}"))?;
    let mut config = ChaosConfig::new(trace.seed);
    config.n = trace.n;
    config.c = trace.c;
    config.steps = trace.steps;
    let metrics = metrics_from(flags);
    config.metrics = metrics.as_ref().map(|(_, r)| r.clone());
    if let Some(policy) = degrade_from(flags)? {
        config.degrade = policy;
    }
    let plan = trace.plan();
    let outcome = run_chaos(&plan, &config).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replaying trace '{}' ({path}) on FR({}, {}), {} steps, seed {}",
        trace.name, config.n, config.c, config.steps, trace.seed
    );
    for r in &outcome.reports {
        let _ = writeln!(out, "{}", render_step(r, config.n, None));
    }
    let _ = writeln!(out, "final loss:         {:.4}", outcome.final_loss);
    let _ = writeln!(out, "run fingerprint:    {:016x}", outcome.fingerprint);
    finish_metrics(&mut out, metrics.as_ref())?;
    for v in &outcome.violations {
        let _ = writeln!(out, "VIOLATION: {v}");
    }
    let observed = failure_fingerprint(&outcome.violations);
    match trace.fingerprint {
        Some(expected) if expected == observed => {
            let _ = writeln!(
                out,
                "failure fingerprint {observed:016x} matches the trace: the modeled \
                 counterexample reproduces on a real cluster"
            );
            Ok(out)
        }
        Some(expected) => {
            let _ = writeln!(
                out,
                "failure fingerprint mismatch: trace recorded {expected:016x}, replay \
                 produced {observed:016x}"
            );
            Err(out)
        }
        None if outcome.passed() => {
            let _ = writeln!(out, "trace records no failure and the replay is clean");
            Ok(out)
        }
        None => {
            let _ = writeln!(
                out,
                "trace records no failure but the replay violated invariants"
            );
            Err(out)
        }
    }
}

/// The `mc` command: exhaustive protocol model checking with counterexample
/// minimization. A violation writes a replayable trace and fails the command;
/// so does a search `--max-runs` cut short, which proves nothing about the
/// runs it never reached.
fn cmd_mc(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(
        args,
        &[
            "shape",
            "steps",
            "seed",
            "max-faults",
            "depth",
            "max-runs",
            "trace-out",
        ],
    )?;
    let shape = flags.get("shape").map_or("flat3", String::as_str);
    let mut cfg = match shape {
        "flat3" => McConfig::flat3(),
        "flat4" => McConfig::flat4(),
        other => return Err(format!("unknown shape '{other}'; available: flat3, flat4")),
    };
    if let Some(s) = flags.get("steps") {
        cfg.steps = parse(s, "steps")?;
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = parse(s, "seed")?;
    }
    if let Some(s) = flags.get("max-faults") {
        cfg.max_faults = parse(s, "max-faults")?;
    }
    if let Some(s) = flags.get("depth") {
        cfg.depth = parse(s, "depth")?;
    }
    if let Some(s) = flags.get("max-runs") {
        cfg.max_runs = parse(s, "max-runs")?;
    }

    let (n, c) = cfg.shape.cluster();
    let result = explore(&cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model checking '{}' — FR({n}, {c}), {} steps, seed {}, ≤{} faults, depth {}",
        cfg.shape.name(),
        cfg.steps,
        cfg.seed,
        cfg.max_faults,
        cfg.depth
    );
    let _ = writeln!(
        out,
        "runs:               {} ({} completed, {} degraded, {} all-lost, {} pruned, {} stuck)",
        result.runs, result.completed, result.degraded, result.lost, result.pruned, result.stuck
    );
    let _ = writeln!(
        out,
        "states:             {} ({} terminal + {} branching)",
        result.states(),
        result.runs,
        result.branch_states
    );
    let _ = writeln!(out, "events delivered:   {}", result.events);
    let _ = writeln!(
        out,
        "recovery outcomes:  {} distinct fingerprints",
        result.distinct_fingerprints
    );
    let _ = writeln!(
        out,
        "search:             {}",
        if result.truncated {
            "TRUNCATED by --max-runs (coverage incomplete)"
        } else if result.passed() {
            "exhausted the bounded state space"
        } else {
            "stopped at the first violation"
        }
    );
    let _ = writeln!(
        out,
        "mc_{}_states_per_sec: {:.0}",
        cfg.shape.name(),
        result.states_per_sec()
    );

    if result.passed() {
        if result.truncated {
            let _ = writeln!(
                out,
                "invariants:         held on the {} runs explored, but the search was \
                 truncated: coverage is incomplete",
                result.runs
            );
            return Err(out);
        }
        let _ = writeln!(
            out,
            "invariants:         recovery bounds, oracle equality, ladder arithmetic, \
             absence/stale accounting, fingerprint determinism, progress — all hold"
        );
        return Ok(out);
    }

    let violation = &result.violations[0];
    let _ = writeln!(out, "\nVIOLATION under faults {:?}:", violation.faults);
    for m in &violation.messages {
        let _ = writeln!(out, "  {m}");
    }
    let minimized = minimize(&cfg, &violation.faults);
    let _ = writeln!(
        out,
        "minimized ({} -> {} faults): {:?}",
        violation.faults.len(),
        minimized.len(),
        minimized
    );
    let final_violation = explore_plan(&cfg, &minimized).unwrap_or_else(|| violation.clone());
    let trace = counterexample_trace(&cfg, &final_violation);
    let trace_path = flags
        .get("trace-out")
        .map_or("mc_trace.json", String::as_str);
    std::fs::write(trace_path, trace.to_json())
        .map_err(|e| format!("cannot write '{trace_path}': {e}"))?;
    let _ = writeln!(
        out,
        "counterexample written to {trace_path}; replay it on a real cluster with:\n  \
         isgc chaos --plan {trace_path}"
    );
    Err(out)
}

fn cmd_chaos(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(
        args,
        &[
            "plan",
            "seed",
            "n",
            "c",
            "steps",
            "degrade",
            "max-consecutive",
            "min-coverage",
            "metrics-out",
        ],
    )?;
    let name = flags.get("plan").map_or("smoke", String::as_str);
    if name.ends_with(".json") || std::path::Path::new(name).is_file() {
        return cmd_chaos_replay(name, &flags);
    }
    let seed: u64 = match flags.get("seed") {
        Some(s) => parse(s, "seed")?,
        None => 42,
    };
    let mut config = ChaosConfig::new(seed);
    let metrics = metrics_from(&flags);
    config.metrics = metrics.as_ref().map(|(_, r)| r.clone());
    if let Some(s) = flags.get("n") {
        config.n = parse(s, "n")?;
    }
    if let Some(s) = flags.get("c") {
        config.c = parse(s, "c")?;
    }
    if let Some(s) = flags.get("steps") {
        config.steps = parse(s, "steps")?;
    }
    let plan = FaultPlan::named(name, seed, config.n, config.steps as u64).ok_or_else(|| {
        format!(
            "unknown plan '{name}'; available: {}",
            PLAN_NAMES.join(", ")
        )
    })?;
    config.degrade = match degrade_from(&flags)? {
        Some(policy) => policy,
        None => plan.recommended_policy(config.n, config.steps as u64),
    };

    let outcome = run_chaos(&plan, &config).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos plan '{}' on FR({}, {}), {} steps, seed {seed}",
        outcome.plan, config.n, config.c, config.steps
    );
    let _ = writeln!(
        out,
        "degrade policy:     {}",
        render_policy(&config.degrade)
    );
    for r in &outcome.reports {
        let _ = writeln!(out, "{}", render_step(r, config.n, None));
    }
    let _ = writeln!(out, "master restarts:    {}", outcome.master_restarts);
    let reconnects: usize = outcome.workers.iter().map(|w| w.reconnects).sum();
    let _ = writeln!(out, "worker reconnects:  {reconnects}");
    if outcome.degraded_steps() > 0 {
        let _ = writeln!(
            out,
            "degraded steps:     {} (worst streak {})",
            outcome.degraded_steps(),
            outcome.max_consecutive_degraded()
        );
    }
    let _ = writeln!(out, "final loss:         {:.4}", outcome.final_loss);
    let _ = writeln!(out, "fingerprint:        {:016x}", outcome.fingerprint);
    finish_metrics(&mut out, metrics.as_ref())?;
    if outcome.passed() {
        let _ = writeln!(
            out,
            "invariants:         all steps within Theorem 10/11 bounds; ladder arithmetic consistent; decode matches oracle"
        );
        Ok(out)
    } else {
        for v in &outcome.violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&args("help")).unwrap().contains("USAGE"));
        assert!(run(&args("frobnicate")).is_err());
    }

    #[test]
    fn placement_command_renders() {
        let out = run(&args("placement cr 4 2")).unwrap();
        assert!(out.contains("CR placement, n = 4, c = 2"));
        assert!(out.contains("worker   0: partitions [0, 1]"));
        assert!(out.contains("4 edges"));
        let out = run(&args("placement hr 8 2 2 2")).unwrap();
        assert!(out.contains("HR placement"));
    }

    #[test]
    fn placement_command_rejects_bad_input() {
        assert!(run(&args("placement fr 4 3")).is_err()); // c ∤ n
        assert!(run(&args("placement cr x 2")).is_err());
        assert!(run(&args("placement cr 4")).is_err());
        assert!(run(&args("placement zz 4 2")).is_err());
    }

    #[test]
    fn decode_command_matches_fig1d() {
        let out = run(&args("decode cr 4 2 0,2")).unwrap();
        assert!(out.contains("selected (I):      [0, 2]"));
        assert!(out.contains("recovered:         4/4"));
    }

    #[test]
    fn decode_command_validates_workers() {
        assert!(run(&args("decode cr 4 2 0,9")).is_err());
        assert!(run(&args("decode cr 4 2")).is_err());
        assert!(run(&args("decode cr 4 2 0,x")).is_err());
    }

    #[test]
    fn decode_empty_availability_is_fine() {
        let out = run(&args("decode cr 4 2 ,")).unwrap();
        assert!(out.contains("recovered:         0/4"));
    }

    #[test]
    fn bounds_command_renders_table() {
        let out = run(&args("bounds 8 2")).unwrap();
        assert!(out.contains("n = 8, c = 2"));
        // w = 8 row: both bounds are 4.
        assert!(out.lines().last().unwrap().contains('4'));
        assert!(run(&args("bounds 4 9")).is_err());
        assert!(run(&args("bounds 4")).is_err());
    }

    #[test]
    fn recommend_command_covers_all_rationales() {
        let fr = run(&args("recommend 8 2")).unwrap();
        assert!(fr.contains("FR"));
        assert!(fr.contains("Theorem 4"));
        let hr = run(&args("recommend 10 4")).unwrap();
        assert!(hr.contains("HR"));
        let cr = run(&args("recommend 7 3")).unwrap();
        assert!(cr.contains("CR always works"));
        assert!(run(&args("recommend 0 1")).is_err());
        assert!(run(&args("recommend 4")).is_err());
    }

    #[test]
    fn plan_command_profiles_wait_counts() {
        let out = run(&args("plan cr 4 2")).unwrap();
        assert!(out.contains("best w ="));
        assert!(out.lines().count() >= 7); // header + 4 rows + pick
        assert!(run(&args("plan cr 4")).is_err());
    }

    #[test]
    fn trace_command_emits_csv() {
        let out = run(&args("trace 3 5 0.5")).unwrap();
        assert_eq!(out.lines().count(), 5);
        assert_eq!(out.lines().next().unwrap().split(',').count(), 3);
        assert!(run(&args("trace 0 5")).is_err());
        assert!(run(&args("trace 3 5 1.5")).is_err());
        // Default slow rate works too.
        assert!(run(&args("trace 2 4")).is_ok());
    }

    #[test]
    fn sim_command_runs_quickly() {
        let out = run(&args("sim cr 4 2 2 30")).unwrap();
        assert!(out.contains("steps:"));
        assert!(out.contains("recovered (mean):"));
        assert!(!out.contains("metrics")); // quiet without --metrics-out
        assert!(run(&args("sim cr 4 2 9")).is_err()); // w > n
    }

    #[test]
    fn sim_command_collects_metrics() {
        let path =
            std::env::temp_dir().join(format!("isgc-cli-metrics-{}.txt", std::process::id()));
        let path_str = path.to_str().unwrap();
        let out = run(&args(&format!("sim cr 4 2 2 5 --metrics-out {path_str}"))).unwrap();
        assert!(out.contains("metrics (logical series):"));
        assert!(out.contains("counter engine.steps.total"));
        assert!(!out.contains("engine.decode.latency_ms")); // timing excluded
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.starts_with("# isgc-obs snapshot v1 (full)"));
        assert!(dump.contains("engine.decode.latency_ms")); // full dump has timing
        let _ = std::fs::remove_file(&path);
        // Steps stays optional when flags follow the positionals.
        assert!(run(&args("sim cr 4 2 9 --metrics-out /dev/null")).is_err()); // w > n still checked
    }

    #[test]
    fn sim_command_writes_jsonl_dumps() {
        let path =
            std::env::temp_dir().join(format!("isgc-cli-metrics-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        run(&args(&format!("sim cr 4 2 4 3 --metrics-out {path_str}"))).unwrap();
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.lines().count() > 3);
        for line in dump.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not JSON: {line}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_command_rejects_unknown_flags() {
        assert!(run(&args("sim cr 4 2 2 5 --bogus x")).is_err());
        assert!(run(&args("sim cr 4 2 2 --metrics-out")).is_err()); // missing value
    }

    #[test]
    fn flag_parser_accepts_known_pairs() {
        let flags = parse_flags(&args("--w 6 --steps 20"), SERVE_FLAGS).unwrap();
        assert_eq!(flags.get("w").map(String::as_str), Some("6"));
        assert_eq!(flags.get("steps").map(String::as_str), Some("20"));
    }

    #[test]
    fn flag_parser_rejects_malformed_input() {
        assert!(parse_flags(&args("w 6"), SERVE_FLAGS).is_err()); // missing --
        assert!(parse_flags(&args("--bogus 1"), SERVE_FLAGS).is_err());
        assert!(parse_flags(&args("--w"), SERVE_FLAGS).is_err()); // no value
        assert!(parse_flags(&args("--w 6 --w 7"), SERVE_FLAGS).is_err());
    }

    #[test]
    fn wait_policy_resolves_and_validates() {
        let flags = parse_flags(&args("--w 6"), SERVE_FLAGS).unwrap();
        assert_eq!(
            wait_policy_from(&flags, 8).unwrap(),
            NetWaitPolicy::FirstW(6)
        );
        let flags = parse_flags(&args("--deadline-ms 250"), SERVE_FLAGS).unwrap();
        assert_eq!(
            wait_policy_from(&flags, 8).unwrap(),
            NetWaitPolicy::Deadline(Duration::from_millis(250))
        );
        let flags = parse_flags(&args(""), SERVE_FLAGS).unwrap();
        assert_eq!(
            wait_policy_from(&flags, 8).unwrap(),
            NetWaitPolicy::FirstW(8)
        );
        // Invalid combinations.
        let both = parse_flags(&args("--w 6 --deadline-ms 250"), SERVE_FLAGS).unwrap();
        assert!(wait_policy_from(&both, 8).is_err());
        let big = parse_flags(&args("--w 9"), SERVE_FLAGS).unwrap();
        assert!(wait_policy_from(&big, 8).is_err());
        let zero = parse_flags(&args("--deadline-ms 0"), SERVE_FLAGS).unwrap();
        assert!(wait_policy_from(&zero, 8).is_err());
    }

    #[test]
    fn net_config_reads_training_flags() {
        let p = Placement::fractional(8, 2).unwrap();
        let flags = parse_flags(
            &args("--w 6 --steps 12 --batch 4 --lr 0.1 --seed 9"),
            SERVE_FLAGS,
        )
        .unwrap();
        let config = net_config_from(&p, &flags).unwrap();
        assert_eq!(config.max_steps, 12);
        assert_eq!(config.batch_size, 4);
        assert!((config.learning_rate - 0.1).abs() < 1e-12);
        assert_eq!(config.seed, 9);
        assert_eq!(config.wait, NetWaitPolicy::FirstW(6));
    }

    #[test]
    fn net_commands_validate_arguments() {
        assert!(run(&args("serve fr 8 3 --w 6")).is_err()); // c ∤ n
        assert!(run(&args("serve fr 8 2 --bogus 1")).is_err());
        assert!(run(&args("worker")).is_err());
        assert!(run(&args("worker 127.0.0.1:7070 --delay-ms x")).is_err());
        assert!(run(&args("launch fr 8 2 --slow 9")).is_err()); // slow > n
        for swarm in [0, 9] {
            let err = run(&args(&format!("launch fr 8 2 --swarm {swarm}"))).unwrap_err();
            assert!(err.contains("must lie in 1..=8"), "{err}");
        }
        assert!(run(&args("launch fr 8 2 --w 0")).is_err());
    }

    #[test]
    fn worker_dataset_recipe_is_deterministic() {
        // Master and workers must rebuild byte-identical data from n alone.
        let (_, a) = net_model_and_data(8);
        let (_, b) = net_model_and_data(8);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.features_of(i), b.features_of(i));
            assert_eq!(a.target_of(i), b.target_of(i));
        }
    }

    #[test]
    fn step_rendering_marks_oracle_and_dead() {
        let r = isgc_net::NetReport {
            step: 3,
            arrivals: vec![0, 1, 2],
            waited_ms: 12.5,
            duration: 0.0125,
            decode_ms: 0.2,
            selected: vec![0, 2],
            recovered: 5,
            bounds: None,
            ignored: vec![1, 3],
            dead: vec![3],
            declined: vec![1],
            repairs: vec![isgc_net::RepairEvent {
                partition: 2,
                from: 3,
                to: 0,
            }],
            stale: 1,
            failed_decode: false,
            outcome: isgc_engine::StepOutcome::Exact,
            coverage: 1.0,
            bias_weight: 1.0,
            consecutive_degraded: 0,
            loss: 0.5,
        };
        let line = render_step(&r, 4, Some(Ok(5)));
        assert!(line.contains("oracle ok"));
        assert!(line.contains("dead [3]"));
        assert!(line.contains("repaired 1"));
        let line = render_step(&r, 4, Some(Ok(6)));
        assert!(line.contains("ORACLE MISMATCH"));
        let timeout = OracleTimeout {
            budget: Duration::from_millis(250),
        };
        let line = render_step(&r, 4, Some(Err(timeout)));
        assert!(line.contains("oracle timeout > 250ms"), "{line}");
        let line = render_step(&r, 4, None);
        assert!(!line.contains("oracle"));

        // Degraded outcomes get an explicit ladder note.
        let mut approx = r.clone();
        approx.outcome = isgc_engine::StepOutcome::Approx;
        approx.coverage = 0.5;
        approx.bias_weight = 2.0;
        approx.consecutive_degraded = 1;
        let line = render_step(&approx, 4, None);
        assert!(line.contains("APPROX cov 50% x2.00 streak 1"), "{line}");
        let mut skipped = r.clone();
        skipped.outcome = isgc_engine::StepOutcome::Skipped;
        skipped.consecutive_degraded = 3;
        assert!(render_step(&skipped, 4, None).contains("SKIPPED streak 3"));
    }

    #[test]
    fn degrade_flags_build_policies_and_validate() {
        let policy = |s: &str| parse_flags(&args(s), SERVE_FLAGS).and_then(|f| degrade_from(&f));
        assert_eq!(policy("").unwrap(), None);
        assert_eq!(policy("--degrade fail").unwrap(), Some(DegradePolicy::Fail));
        assert_eq!(policy("--degrade skip").unwrap(), Some(DegradePolicy::Skip));
        assert_eq!(
            policy("--degrade approx").unwrap(),
            Some(DegradePolicy::approximate_default())
        );
        assert_eq!(
            policy("--degrade approx --max-consecutive 2 --min-coverage 0.25").unwrap(),
            Some(DegradePolicy::Approximate {
                max_consecutive: 2,
                min_coverage: 0.25,
            })
        );
        assert!(policy("--degrade sideways").is_err());
        assert!(policy("--degrade approx --max-consecutive 0").is_err());
        assert!(policy("--degrade approx --min-coverage 1.5").is_err());
        // The approx knobs are rejected outside --degrade approx.
        assert!(policy("--degrade skip --min-coverage 0.5").is_err());
        assert!(policy("--max-consecutive 3").is_err());
    }

    #[test]
    fn heartbeat_flags_validate() {
        let p = Placement::fractional(4, 2).unwrap();
        let flags = parse_flags(&args("--heartbeat-timeout-ms 500"), SERVE_FLAGS).unwrap();
        let config = net_config_from(&p, &flags).unwrap();
        assert_eq!(config.heartbeat_timeout, Duration::from_millis(500));
        let flags = parse_flags(&args("--heartbeat-timeout-ms 0"), SERVE_FLAGS).unwrap();
        assert!(net_config_from(&p, &flags).is_err());
        assert!(run(&args("worker 127.0.0.1:7070 --heartbeat-interval-ms 0")).is_err());
        assert!(run(&args("launch fr 4 2 --heartbeat-interval-ms 0")).is_err());
    }

    #[test]
    fn chaos_blackout_surfaces_the_ladder() {
        let out = run(&args("chaos --plan blackout --seed 7 --steps 8")).unwrap();
        assert!(out.contains("degrade policy:     approx"), "{out}");
        assert!(out.contains("SKIPPED streak"), "{out}");
        assert!(out.contains("degraded steps:"), "{out}");
        // A strict policy cannot ride out a total blackout: the plan
        // validator rejects it up front with a clean error.
        let err = run(&args("chaos --plan blackout --degrade fail")).unwrap_err();
        assert!(err.contains("skip or approx"), "{err}");
    }

    #[test]
    fn mc_command_exhausts_flat3() {
        // The counts crates/mc/tests/explore.rs pins for flat3.
        let out = run(&args("mc --shape flat3")).unwrap();
        assert!(out.contains("runs:               3044 ("), "{out}");
        assert!(out.contains("states:             5107 ("), "{out}");
        assert!(out.contains("exhausted the bounded state space"), "{out}");
        assert!(out.contains("all hold"), "{out}");
    }

    #[test]
    fn the_retired_tree_surface_is_unknown() {
        let err = run(&args("launch fr 8 2 --jobs 2 --tree 2 --steps 4")).unwrap_err();
        assert!(err.contains("unknown flag --tree"), "{err}");
        let err = run(&args("chaos --plan submaster-crash --seed 42")).unwrap_err();
        assert!(err.contains("unknown plan 'submaster-crash'"), "{err}");
        let err = run(&args("chaos --plan smoke --submasters 2")).unwrap_err();
        assert!(err.contains("unknown flag --submasters"), "{err}");
        let err = run(&args("mc --shape tree2x2")).unwrap_err();
        assert!(err.contains("unknown shape 'tree2x2'"), "{err}");
    }

    #[test]
    fn a_failed_spawn_kills_the_children_already_started() {
        let mut pids = Vec::new();
        let err = spawn_children(5, |i| {
            if i == 2 {
                return Err(std::io::Error::other("the third spawn fails"));
            }
            let child = std::process::Command::new("sleep").arg("30").spawn()?;
            pids.push(child.id());
            Ok(child)
        })
        .unwrap_err();
        assert!(err.contains("the third spawn fails"), "{err}");
        assert_eq!(pids.len(), 2);
        for pid in pids {
            // Killed and reaped: not even a zombie's /proc entry is left.
            let proc_entry = std::path::PathBuf::from(format!("/proc/{pid}"));
            assert!(
                !proc_entry.exists(),
                "child {pid} outlived the failed launch"
            );
        }
    }

    #[test]
    fn mc_command_rejects_unknown_shape() {
        let err = run(&args("mc --shape nope")).unwrap_err();
        assert!(err.contains("unknown shape 'nope'"), "{err}");
    }

    #[test]
    fn mc_command_fails_a_truncated_search() {
        // Ten clean runs out of 3044 prove nothing about the rest: the
        // report comes back as the error, as a violation's does.
        let err = run(&args("mc --shape flat3 --max-runs 10")).unwrap_err();
        assert!(err.contains("TRUNCATED by --max-runs"), "{err}");
        let verdict = err.lines().last().unwrap();
        assert!(verdict.contains("held on the 10 runs explored"), "{err}");
        assert!(verdict.contains("coverage is incomplete"), "{err}");
        assert!(!err.contains("all hold"), "{err}");
    }
}
