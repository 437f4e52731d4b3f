//! What the harness reads from the host: per-thread CPU time, peak RSS,
//! limits for the preflight, and the provenance printed beside the numbers.

use std::fmt::Write as _;

/// Kernel thread id of the calling thread (`/proc/thread-self` resolves to
/// `<pid>/task/<tid>`), so another thread can read its `schedstat`.
pub fn thread_id() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Nanoseconds thread `tid` of this process has spent on a CPU (first field
/// of `schedstat`); `None` where the kernel does not expose it.
pub fn thread_cpu_ns(tid: u64) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Soft limit on open file descriptors.
pub fn open_files_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Refuses to measure on a host or build that would make the numbers
/// meaningless; `n` is the workload's connection count (0 for the simulator).
pub fn preflight(n: usize) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if n == 0 {
        return Ok(());
    }
    if cores() < 2 {
        return Err(format!(
            "TCP workloads run master and swarm on separate cores; this host offers {}",
            cores()
        ));
    }
    let need = 2 * n as u64 + 100;
    match open_files_limit() {
        Some(limit) if limit < need => Err(format!(
            "ulimit -n is {limit}, the workload needs at least {need} (2 sockets per worker)"
        )),
        _ => Ok(()),
    }
}

/// Where and how the numbers were taken. `run.sh` passes the toolchain and
/// commit through the environment (the harness binary cannot know either).
pub fn provenance(seed: u64, plan_note: &str, transport: &str) -> Vec<(&'static str, String)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    vec![
        ("nproc", cores().to_string()),
        ("kernel", kernel),
        ("rustc", env("ISGC_BENCH_RUSTC")),
        ("commit", env("ISGC_BENCH_COMMIT")),
        ("seed", seed.to_string()),
        ("plan", plan_note.to_string()),
        ("transport", transport.to_string()),
    ]
}

/// Provenance as one JSON object body (`"k": "v", ...`).
pub fn provenance_json(fields: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "\"{key}\": \"{escaped}\"");
    }
    out
}
