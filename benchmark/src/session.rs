//! What a session hands back, the correctness gate's tally, and the
//! arithmetic that turns sessions into the seven end-to-end metrics.

use isgc_core::{bounds, Placement};
use isgc_engine::{StepOutcome, StepReport};

use crate::stats::{self, Window};
use crate::workloads::Shape;

/// The correctness gate's tally: every executed step is an attempt, and a
/// session-level miss (unclean swarm, loss not falling, fingerprint drift)
/// counts as one more failed attempt.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    /// Steps (and session-level checks that failed) attempted.
    pub attempted: u64,
    /// Attempts that missed a check.
    pub failed: u64,
    /// One line per miss, capped so a broken run cannot flood the output.
    pub problems: Vec<String>,
}

impl Gate {
    const MAX_PROBLEMS: usize = 20;

    /// Records a failed attempt already counted in `attempted`.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < Self::MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Records a session-level miss as one more failed attempt.
    pub fn fail_session(&mut self, problem: String) {
        self.attempted += 1;
        self.fail(problem);
    }

    /// Holds one executed step against the per-step checks: `Exact`, inside
    /// the Theorem 10-11 bounds, at least w arrivals, no dead worker.
    pub fn check_step(&mut self, shape: &Shape, placement: &Placement, report: &StepReport) {
        self.attempted += 1;
        let bound = bounds::check_recovery_of(placement, report.arrivals.len(), report.recovered);
        let problem = if report.outcome != StepOutcome::Exact || report.failed_decode {
            format!("outcome {}", report.outcome.label())
        } else if !bound.within() {
            format!(
                "recovered {} outside Theorem 10-11 bounds [{}, {}]",
                report.recovered, bound.lo, bound.hi
            )
        } else if report.arrivals.len() < shape.w {
            format!("{} arrivals < w = {}", report.arrivals.len(), shape.w)
        } else if !report.dead.is_empty() {
            format!("ran with lost workers {:?}", report.dead)
        } else {
            return;
        };
        self.fail(format!("{} step {}: {problem}", shape.name, report.step));
    }

    /// Training must have made progress: a finite final loss below the loss
    /// at the seed's initial parameters (`None`: no step completed).
    pub fn check_final_loss(&mut self, shape: &Shape, last: Option<f64>, initial: f64) {
        match last {
            Some(last) if last.is_finite() && last < initial => {}
            Some(last) => self.fail_session(format!(
                "{}: final loss {last} is not below the initial {initial}",
                shape.name
            )),
            None => self.fail_session(format!("{}: no step completed", shape.name)),
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for problem in other.problems {
            if self.problems.len() < Self::MAX_PROBLEMS {
                self.problems.push(problem);
            }
        }
    }
}

/// Counts taken at the edges of a session's measured region (TCP only).
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// On-CPU nanoseconds of the stepping thread.
    pub master_cpu_ns: u64,
    /// On-CPU nanoseconds of the swarm thread.
    pub swarm_cpu_ns: u64,
    /// Heap allocations on the stepping thread.
    pub master_allocs: u64,
    /// Heap allocations on the swarm thread.
    pub swarm_allocs: u64,
    /// Σ `StepReport.waited_ms`.
    pub waited_ms: f64,
    /// Σ `StepReport.stale`.
    pub stale: u64,
    /// Wall time of `Master::into_session`, microseconds.
    pub register_us: f64,
    /// `net.frames.received.total` delta.
    pub frames_in: u64,
    /// `net.frames.sent.total` delta.
    pub frames_out: u64,
    /// `net.bytes.received.total` delta.
    pub bytes_in: u64,
    /// `net.bytes.sent.total` delta.
    pub bytes_out: u64,
    /// `net.reactor.wakeups.total` delta.
    pub wakeups: u64,
    /// `net.reactor.ready.events.total` delta.
    pub ready: u64,
    /// `net.reactor.partial.writes.total` delta.
    pub partial_writes: u64,
}

impl LayerCounts {
    /// Adds another session's counts (`register_us` becomes a sum too; the
    /// caller divides by the session count).
    pub fn add(&mut self, other: &LayerCounts) {
        self.master_cpu_ns += other.master_cpu_ns;
        self.swarm_cpu_ns += other.swarm_cpu_ns;
        self.master_allocs += other.master_allocs;
        self.swarm_allocs += other.swarm_allocs;
        self.waited_ms += other.waited_ms;
        self.stale += other.stale;
        self.register_us += other.register_us;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.wakeups += other.wakeups;
        self.ready += other.ready;
        self.partial_writes += other.partial_writes;
    }
}

/// Everything one session measured.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    /// Set-up wall times in seconds (one per TCP session; the simulator
    /// repeats its microsecond-scale set-up to get a usable median).
    pub setup_s: Vec<f64>,
    /// The measurement windows, in order.
    pub windows: Vec<Window>,
    /// Wall time of every measured step, milliseconds.
    pub step_ms: Vec<f64>,
    /// Σ `StepReport.recovered` over the measured steps.
    pub recovered: u64,
    /// The correctness tally (all steps, warm-up included).
    pub gate: Gate,
    /// Edge counts of the measured region, when the backend has them.
    pub layer: Option<LayerCounts>,
}

impl SessionStats {
    /// Steps inside the measurement windows.
    pub fn measured_steps(&self) -> u64 {
        self.windows.iter().map(|w| w.steps).sum()
    }

    /// Wall seconds inside the measurement windows.
    pub fn measured_seconds(&self) -> f64 {
        self.windows.iter().map(|w| w.seconds).sum()
    }
}

/// Steps inside the measurement windows of all `sessions`.
pub fn pooled_steps(sessions: &[SessionStats]) -> u64 {
    sessions.iter().map(SessionStats::measured_steps).sum()
}

/// Steps per second over every window of `sessions` together.
pub fn pooled_rate(sessions: &[SessionStats]) -> f64 {
    let seconds: f64 = sessions.iter().map(SessionStats::measured_seconds).sum();
    pooled_steps(sessions) as f64 / seconds
}

/// The end-to-end numbers of one run, with the spread recorded beside them.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Interquartile mean over windows of steps ÷ window wall time.
    pub steps_per_s: f64,
    /// Slowest window.
    pub steps_per_s_min: f64,
    /// Fastest window.
    pub steps_per_s_max: f64,
    /// Windows pooled.
    pub windows: usize,
    /// Interquartile mean over windows of each window's median step wall
    /// time.
    pub step_ms_p50: f64,
    /// Interquartile mean over windows of each window's 90th percentile (or
    /// the highest percentile the window has ten samples beyond).
    pub step_ms_p90: f64,
    /// The lowest percentile any window's `step_ms_p90` actually is.
    pub p90_used: f64,
    /// Median and 90th percentile of all measured steps pooled, for the note.
    pub pooled_p50_p90: (f64, f64),
    /// Step samples in all windows together.
    pub samples: usize,
    /// Σ recovered ÷ (steps · n).
    pub recovered_frac: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Set-up samples pooled.
    pub setups: usize,
}

/// Median and tail of every window's own step times. `step_ms` holds a
/// session's measured steps in order, so window `i` owns the next
/// `windows[i].steps` of them.
fn window_percentiles(sessions: &[SessionStats]) -> Vec<(f64, (f64, f64))> {
    let mut out = Vec::new();
    for session in sessions {
        let mut rest = session.step_ms.as_slice();
        for window in &session.windows {
            let (own, later) = rest.split_at((window.steps as usize).min(rest.len()));
            rest = later;
            if !own.is_empty() {
                let own = stats::sorted(own.to_vec());
                out.push((stats::median(&own), stats::tail(&own, 0.90)));
            }
        }
    }
    out
}

/// Turns `sessions` into the end-to-end numbers; `n` is the cluster size.
/// Every timing is the interquartile mean over windows of the window's own
/// statistic ([`stats::midmean`]): on a shared host whole seconds run slow,
/// and a percentile of all steps pooled moves with the share of slow seconds
/// in the run, while the middle half of the windows does not see a slow
/// quarter at all.
///
/// # Errors
///
/// When no window or step completed — there is nothing to report.
pub fn end_to_end(sessions: &[SessionStats], n: usize) -> Result<EndToEnd, String> {
    let pool = |field: fn(&SessionStats) -> &Vec<f64>| {
        stats::sorted(
            sessions
                .iter()
                .flat_map(|s| field(s).iter().copied())
                .collect(),
        )
    };
    let windows: Vec<Window> = sessions
        .iter()
        .flat_map(|s| s.windows.iter().copied())
        .collect();
    let step_ms = pool(|s| &s.step_ms);
    let setups = pool(|s| &s.setup_s);
    if windows.is_empty() || step_ms.is_empty() || setups.is_empty() {
        return Err("no measurement window completed".into());
    }
    let (steps_per_s, steps_per_s_min, steps_per_s_max) = stats::window_rates(&windows);
    let per_window = window_percentiles(sessions);
    let across = |pick: fn(&(f64, (f64, f64))) -> f64| {
        stats::midmean(&stats::sorted(per_window.iter().map(pick).collect()))
    };
    let p90_used = per_window
        .iter()
        .map(|(_, (_, used))| *used)
        .fold(f64::INFINITY, f64::min);
    let measured = pooled_steps(sessions);
    let recovered: u64 = sessions.iter().map(|s| s.recovered).sum();
    Ok(EndToEnd {
        steps_per_s,
        steps_per_s_min,
        steps_per_s_max,
        windows: windows.len(),
        step_ms_p50: across(|(p50, _)| *p50),
        step_ms_p90: across(|(_, (p90, _))| *p90),
        p90_used,
        pooled_p50_p90: (stats::median(&step_ms), stats::tail(&step_ms, 0.90).0),
        samples: step_ms.len(),
        recovered_frac: recovered as f64 / (measured as f64 * n as f64),
        setup_s: stats::median(&setups),
        setups: setups.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_windows_and_steps_across_sessions() {
        let session = |rate: u64| SessionStats {
            setup_s: vec![rate as f64],
            windows: vec![Window {
                steps: rate,
                seconds: 1.0,
            }],
            step_ms: vec![1000.0 / rate as f64; rate as usize],
            recovered: rate * 3,
            ..SessionStats::default()
        };
        let e2e = end_to_end(&[session(10), session(40), session(20)], 4).unwrap();
        // Three windows: nothing is dropped, the mean of 10, 40 and 20.
        assert!((e2e.steps_per_s - 70.0 / 3.0).abs() < 1e-12);
        assert_eq!((e2e.steps_per_s_min, e2e.steps_per_s_max), (10.0, 40.0));
        assert_eq!(e2e.samples, 70);
        // Window medians 100, 25 and 50 ms.
        assert!((e2e.step_ms_p50 - 175.0 / 3.0).abs() < 1e-12);
        assert_eq!(e2e.pooled_p50_p90.0, 25.0);
        assert_eq!(e2e.recovered_frac, 0.75);
        assert_eq!(e2e.setup_s, 20.0);
        assert!(end_to_end(&[], 4).is_err());
    }

    #[test]
    fn session_misses_count_as_attempts() {
        let mut gate = Gate {
            attempted: 9,
            ..Gate::default()
        };
        gate.fail_session("swarm unclean".into());
        assert_eq!((gate.attempted, gate.failed), (10, 1));
        let mut total = Gate::default();
        total.absorb(gate);
        assert_eq!(
            (total.attempted, total.failed, total.problems.len()),
            (10, 1, 1)
        );
    }
}
