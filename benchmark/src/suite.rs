//! Whole-suite modes: every workload in its own child process (so peak RSS,
//! allocator counters and sockets never leak from one workload into the
//! next), and `--selfcheck`, which runs the untraced set twice on the same
//! build and holds the two against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::workloads::WORKLOADS;
use crate::Options;

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    /// Metric name → (value, unit).
    metrics: BTreeMap<String, (f64, String)>,
}

/// Runs one workload in a child process, echoing its report, and parses the
/// result object it prints last.
fn run_child(workload: &str, options: &Options, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if options.smoke {
        command.arg("--smoke");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {workload} output: {e}"))?;
        println!("{line}");
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("wait for {workload}: {e}"))?;
    let result = Json::parse(&last)
        .map_err(|e| format!("{workload} printed no result line ({e}); exit {status}"))?;
    let metrics = match result.get("metrics") {
        Some(Json::Object(map)) => map
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((name.clone(), (value, unit)))
            })
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics object")),
    };
    Ok(ChildResult {
        correct: status.success() && result.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

/// Reads `BENCHMARK.json` from the repository root (the parent of the
/// benchmark's directory).
fn load_spec() -> Result<Json, String> {
    let dir = crate::bench_dir();
    let path = dir.parent().unwrap_or(&dir).join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, bound)` of every end-to-end metric, in declared order.
fn end_to_end_bounds(spec: &Json) -> Result<Vec<(String, f64)>, String> {
    spec.get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name/bound".to_string())
        })
        .collect()
}

/// Names of the metrics under `key`, in declared order.
fn declared_names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

fn print_table(title: &str, names: &[String], columns: &[(&str, &ChildResult)]) {
    println!("\n== {title} ==");
    print!("{:<38}", "metric");
    for (workload, _) in columns {
        print!(" {workload:>16}");
    }
    println!("  unit");
    for name in names {
        print!("{name:<38}");
        let mut unit = "";
        for (_, result) in columns {
            match result.metrics.get(name) {
                Some((value, u)) => {
                    unit = u;
                    print!(" {value:>16.6}");
                }
                None => print!(" {:>16}", "-"),
            }
        }
        println!("  {unit}");
    }
}

/// Runs every workload untraced and traced and prints every metric by name
/// with its unit; `Ok(false)` when any run missed the correctness gate.
pub fn run_all(options: &Options) -> Result<bool, String> {
    let spec = load_spec()?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for shape in &WORKLOADS {
        untraced.push(run_child(shape.name, options, false)?);
        traced.push(run_child(shape.name, options, true)?);
    }
    fn columns(results: &[ChildResult]) -> Vec<(&'static str, &ChildResult)> {
        WORKLOADS.iter().map(|s| s.name).zip(results).collect()
    }
    print_table(
        "end to end (untraced runs)",
        &declared_names(&spec, "end_to_end"),
        &columns(&untraced),
    );
    print_table(
        "per layer (traced runs; 0 = layer not entered)",
        &declared_names(&spec, "per_layer"),
        &columns(&traced),
    );
    let correct = untraced.iter().chain(&traced).all(|r| r.correct);
    println!(
        "\ncorrectness gate: {}",
        if correct { "PASS" } else { "FAIL" }
    );
    Ok(correct)
}

/// How far apart two readings of one metric are, as a share of the first.
fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs()
    }
}

/// Runs the untraced set twice and prints, per workload × end-to-end metric,
/// both readings, their relative gap, the bound, and PASS or UNRESOLVED.
pub fn selfcheck(options: &Options) -> Result<bool, String> {
    let bounds = end_to_end_bounds(&load_spec()?)?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for shape in &WORKLOADS {
            set.push(run_child(shape.name, options, false)?);
        }
        sets.push(set);
    }
    println!("\n== selfcheck: two untraced sets of the same build ==");
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut all_pass = true;
    for (i, shape) in WORKLOADS.iter().enumerate() {
        for (name, bound) in &bounds {
            let read = |set: &[ChildResult]| set[i].metrics.get(name).map(|(v, _)| *v);
            let (Some(a), Some(b)) = (read(&sets[0]), read(&sets[1])) else {
                return Err(format!(
                    "{}: metric {name} missing from a result line",
                    shape.name
                ));
            };
            let gap = relative_gap(a, b);
            let pass = gap <= *bound;
            all_pass &= pass;
            println!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                shape.name,
                name,
                a,
                b,
                gap * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    let correct = sets.iter().flatten().all(|r| r.correct);
    println!(
        "\ncorrectness gate: {}",
        if correct { "PASS" } else { "FAIL" }
    );
    println!(
        "agreement: {}",
        if all_pass {
            "all PASS"
        } else {
            "UNRESOLVED rows above"
        }
    );
    Ok(correct && all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_to_the_first_reading() {
        assert_eq!(relative_gap(50.0, 50.0), 0.0);
        assert_eq!(relative_gap(50.0, 45.0), 0.1);
        assert_eq!(relative_gap(50.0, 55.0), 0.1);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
    }

    #[test]
    fn reads_bounds_in_declared_order() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let bounds = end_to_end_bounds(&spec).unwrap();
        assert_eq!(bounds.len(), 7);
        assert_eq!(bounds[0].0, "steps_per_s");
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap();
        assert!(
            bounds.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
    }
}
