//! Unified per-step and per-run reporting shared by every backend.

use isgc_linalg::Vector;

/// One partition reassignment performed by placement repair: partition
/// `partition` moved from permanently-dead worker `from` to survivor `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEvent {
    /// The partition whose lost replica was re-homed.
    pub partition: usize,
    /// The worker declared permanently dead.
    pub from: usize,
    /// The survivor that adopted the partition.
    pub to: usize,
}

/// How a step's gradient update was produced under the degradation ladder
/// (see [`crate::DegradePolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepOutcome {
    /// Normal operation: the exact decode met the coverage floor and the
    /// update used the recovered gradient as-is.
    #[default]
    Exact,
    /// Degraded: the bias-corrected partial estimate was applied
    /// ([`crate::DegradePolicy::Approximate`]).
    Approx,
    /// Degraded: no usable gradient; the previous iterate was reused.
    Skipped,
}

impl StepOutcome {
    /// Stable lowercase label for logs, fingerprints, and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            StepOutcome::Exact => "exact",
            StepOutcome::Approx => "approx",
            StepOutcome::Skipped => "skipped",
        }
    }

    /// Whether the ladder engaged (anything but the exact path).
    pub fn is_degraded(self) -> bool {
        !matches!(self, StepOutcome::Exact)
    }

    /// Stable numeric tag (0/1/2) for fingerprints and span fields.
    pub fn tag(self) -> u64 {
        match self {
            StepOutcome::Exact => 0,
            StepOutcome::Approx => 1,
            StepOutcome::Skipped => 2,
        }
    }
}

/// What the engine observed during one training step, identical in shape
/// across the simulator, the in-process scheduler jobs, and the TCP master.
///
/// Equality ignores [`StepReport::decode_ms`]: it is host timing, not step
/// semantics, so deterministic reruns still compare equal.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// The step this report describes.
    pub step: u64,
    /// Workers whose codeword for this step arrived in time, arrival order.
    pub arrivals: Vec<usize>,
    /// How long the collector waited for codewords, in milliseconds
    /// (simulated time for the simulator backend).
    pub waited_ms: f64,
    /// Duration of the step in seconds (simulated time for the simulator,
    /// wall-clock collection time elsewhere).
    pub duration: f64,
    /// Wall-clock time the decode itself took, in milliseconds. Excluded
    /// from equality; feeds the timing-classed decode-latency histogram.
    pub decode_ms: f64,
    /// The decoder's chosen ignoring-set complement `I` (selected workers).
    pub selected: Vec<usize>,
    /// Number of partitions recovered by the decode.
    pub recovered: usize,
    /// The Theorem 10–11 recovery interval `(lo, hi)` for this step's
    /// arrival count, when the theorems apply (scheme decoder over an
    /// intact FR/CR/HR placement); `None` after placement repair, for
    /// classic/strawman codecs, and for custom placements.
    pub bounds: Option<(usize, usize)>,
    /// Workers whose gradient did not contribute this step (ignored
    /// stragglers plus dead workers).
    pub ignored: Vec<usize>,
    /// Workers the collector considered dead when the step closed.
    pub dead: Vec<usize>,
    /// Workers that declined this step (fast-fail straggler signal).
    pub declined: Vec<usize>,
    /// Partition reassignments applied at the start of this step by
    /// placement repair (empty unless a worker was declared permanently
    /// dead right before this step).
    pub repairs: Vec<RepairEvent>,
    /// Late codewords from earlier steps discarded while collecting.
    pub stale: usize,
    /// Whether the decode failed outright (classic GC below its worker
    /// minimum); a failed step applies no update.
    pub failed_decode: bool,
    /// How the update was produced under the degradation ladder.
    pub outcome: StepOutcome,
    /// Fraction of partitions covered by this step's decode,
    /// `recovered / n` in `[0, 1]`.
    pub coverage: f64,
    /// The bias-correction scalar applied to the aggregated gradient:
    /// `1.0` on the exact path, `n / recovered` for an approximate step,
    /// `0.0` for a skipped step (no update).
    pub bias_weight: f64,
    /// Consecutive degraded (approx or skipped) steps ending at this one;
    /// `0` for an exact step. [`crate::DegradePolicy::Approximate`]
    /// escalates to [`crate::EngineError::Degraded`] when this would
    /// exceed `max_consecutive`.
    pub consecutive_degraded: u64,
    /// Full-dataset training loss after the update.
    pub loss: f64,
}

impl PartialEq for StepReport {
    fn eq(&self, other: &Self) -> bool {
        self.step == other.step
            && self.arrivals == other.arrivals
            && self.waited_ms == other.waited_ms
            && self.duration == other.duration
            && self.selected == other.selected
            && self.recovered == other.recovered
            && self.bounds == other.bounds
            && self.ignored == other.ignored
            && self.dead == other.dead
            && self.declined == other.declined
            && self.repairs == other.repairs
            && self.stale == other.stale
            && self.failed_decode == other.failed_decode
            && self.outcome == other.outcome
            && self.coverage == other.coverage
            && self.bias_weight == other.bias_weight
            && self.consecutive_degraded == other.consecutive_degraded
            && self.loss == other.loss
    }
}

/// The complete record of a training run, produced by
/// [`crate::StepEngine::run`] for every backend.
///
/// Equality ignores [`TrainReport::wall_time`]: it is host timing, not run
/// semantics, so two reruns of a deterministic run compare equal.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Cluster size (also the number of data partitions).
    pub n: usize,
    /// One report per executed step.
    pub steps: Vec<StepReport>,
    /// Whether the loss threshold was reached before the step cap.
    pub reached_threshold: bool,
    /// Whether the run was cut short by [`crate::StepControl::Crash`].
    pub interrupted: bool,
    /// Wall-clock duration of the run, in seconds.
    pub wall_time: f64,
    /// The trained parameter vector.
    pub final_params: Vector,
}

impl PartialEq for TrainReport {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.steps == other.steps
            && self.reached_threshold == other.reached_threshold
            && self.interrupted == other.interrupted
            && self.final_params == other.final_params
    }
}

impl TrainReport {
    /// Number of steps executed.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Final training loss, or `+∞` if no step ran.
    pub fn final_loss(&self) -> f64 {
        self.steps.last().map_or(f64::INFINITY, |s| s.loss)
    }

    /// The loss after each step.
    pub fn loss_curve(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.loss).collect()
    }

    /// Fraction of partitions recovered in each step (`recovered / n`).
    pub fn recovered_fractions(&self) -> Vec<f64> {
        self.steps
            .iter()
            .map(|s| s.recovered as f64 / self.n as f64)
            .collect()
    }

    /// Mean fraction of partitions recovered per step (the paper's
    /// Fig. 12(a) metric).
    pub fn mean_recovered_fraction(&self) -> f64 {
        mean(&self.recovered_fractions())
    }

    /// Duration of each step, in seconds.
    pub fn step_durations(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.duration).collect()
    }

    /// Mean per-step duration (Figs. 11, 12(c)).
    pub fn mean_step_duration(&self) -> f64 {
        mean(&self.step_durations())
    }

    /// Total simulated/collection time: the sum of step durations.
    pub fn sim_time(&self) -> f64 {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// Mean per-step collection wait, in milliseconds.
    pub fn mean_waited_ms(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        self.steps.iter().map(|s| s.waited_ms).sum::<f64>() / self.steps.len() as f64
    }

    /// Steps whose decode failed outright (classic GC below its minimum).
    pub fn failed_decodes(&self) -> usize {
        self.steps.iter().filter(|s| s.failed_decode).count()
    }

    /// Codewords the master accepted in each step (`|W'|`).
    pub fn codewords_received(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.arrivals.len()).collect()
    }

    /// The `q`-quantile of per-step durations (e.g. `0.99` for the tail the
    /// straggler literature cares about).
    ///
    /// # Panics
    ///
    /// Panics if no steps ran or `q` is outside `[0, 1]`.
    pub fn step_duration_quantile(&self, q: f64) -> f64 {
        isgc_ml::metrics::quantile(&self.step_durations(), q)
    }

    /// Total uplink volume over the run, assuming `dim`-dimensional `f64`
    /// gradient codewords: one vector per accepted worker per step.
    ///
    /// IS-GC's communication advantage over multi-message partial upload
    /// (see `isgc_simnet::partial`) shows up here: the count is independent
    /// of `c`.
    pub fn total_upload_bytes(&self, dim: usize) -> usize {
        self.steps.iter().map(|s| s.arrivals.len()).sum::<usize>() * dim * 8
    }

    /// A timing-free FNV-1a fingerprint of the run's recovery behavior:
    /// per step, the step number, the *sorted* arrival and selection sets,
    /// and the recovered-partition count. Two backends given the same seed
    /// and the same straggler schedule must produce identical fingerprints —
    /// the cross-backend parity tests assert exactly this.
    pub fn recovery_fingerprint(&self) -> u64 {
        const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = BASIS;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for s in &self.steps {
            mix(s.step);
            let mut arrivals = s.arrivals.clone();
            arrivals.sort_unstable();
            mix(arrivals.len() as u64);
            arrivals.iter().for_each(|&w| mix(w as u64));
            let mut selected = s.selected.clone();
            selected.sort_unstable();
            mix(selected.len() as u64);
            selected.iter().for_each(|&w| mix(w as u64));
            mix(s.recovered as u64);
            // The ladder decisions: a resumed run must replay outcome and
            // escalation state byte-for-byte, not just the recovery sets.
            mix(s.outcome.tag());
            mix(s.consecutive_degraded);
        }
        hash
    }

    /// Steps the ladder completed approximately.
    pub fn approx_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.outcome == StepOutcome::Approx)
            .count()
    }

    /// Steps the ladder skipped (previous iterate reused).
    pub fn skipped_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.outcome == StepOutcome::Skipped)
            .count()
    }

    /// Steps that took any degraded path (approx or skipped).
    pub fn degraded_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.outcome.is_degraded())
            .count()
    }

    /// The longest run of consecutive degraded steps.
    pub fn max_consecutive_degraded(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.consecutive_degraded)
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Display for TrainReport {
    /// One-paragraph human-readable summary.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps in {:.2}s sim-time ({:.3}s/step), final loss {:.4}, \
             {:.1}% gradients recovered on average, {}{}{}",
            self.step_count(),
            self.sim_time(),
            self.mean_step_duration(),
            self.final_loss(),
            100.0 * self.mean_recovered_fraction(),
            if self.reached_threshold {
                "reached the loss threshold"
            } else {
                "stopped at the step cap"
            },
            if self.failed_decodes() > 0 {
                format!(" ({} failed decodes)", self.failed_decodes())
            } else {
                String::new()
            },
            if self.degraded_steps() > 0 {
                format!(
                    " [degraded: {} approx, {} skipped, worst streak {}]",
                    self.approx_steps(),
                    self.skipped_steps(),
                    self.max_consecutive_degraded()
                )
            } else {
                String::new()
            }
        )
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn step(step: u64, recovered: usize, waited_ms: f64, loss: f64) -> StepReport {
        StepReport {
            step,
            arrivals: vec![0, 1],
            waited_ms,
            duration: waited_ms / 1e3,
            decode_ms: 0.0,
            selected: vec![0, 1],
            recovered,
            bounds: Some((2, 4)),
            ignored: vec![2],
            dead: vec![],
            declined: vec![],
            repairs: vec![],
            stale: 0,
            failed_decode: false,
            outcome: StepOutcome::Exact,
            coverage: recovered as f64 / 4.0,
            bias_weight: 1.0,
            consecutive_degraded: 0,
            loss,
        }
    }

    #[test]
    fn empty_report_defaults() {
        let r = TrainReport {
            n: 4,
            steps: vec![],
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(1),
        };
        assert_eq!(r.step_count(), 0);
        assert_eq!(r.final_loss(), f64::INFINITY);
        assert_eq!(r.mean_recovered_fraction(), 0.0);
        assert_eq!(r.mean_waited_ms(), 0.0);
        assert_eq!(r.failed_decodes(), 0);
        assert_eq!(r.total_upload_bytes(8), 0);
    }

    #[test]
    fn aggregates_compute() {
        let r = TrainReport {
            n: 4,
            steps: vec![step(0, 4, 10.0, 0.8), step(1, 2, 30.0, 0.4)],
            reached_threshold: true,
            interrupted: false,
            wall_time: 1.0,
            final_params: Vector::zeros(1),
        };
        assert_eq!(r.step_count(), 2);
        assert_eq!(r.final_loss(), 0.4);
        assert_eq!(r.loss_curve(), vec![0.8, 0.4]);
        assert!((r.mean_recovered_fraction() - 0.75).abs() < 1e-12);
        assert!((r.mean_waited_ms() - 20.0).abs() < 1e-12);
        assert_eq!(r.recovered_fractions(), vec![1.0, 0.5]);
        assert_eq!(r.codewords_received(), vec![2, 2]);
        // 2 steps × 2 codewords × dim 3 × 8 bytes.
        assert_eq!(r.total_upload_bytes(3), 2 * 2 * 3 * 8);
    }

    #[test]
    fn equality_ignores_decode_timing_but_not_bounds() {
        let a = step(0, 4, 10.0, 0.8);
        let mut b = a.clone();
        b.decode_ms = 99.0;
        assert_eq!(a, b, "decode wall time is not step semantics");
        b.bounds = Some((0, 4));
        assert_ne!(a, b, "the Theorem 10–11 interval is step semantics");
    }

    #[test]
    fn fingerprint_ignores_arrival_order_but_not_content() {
        let base = TrainReport {
            n: 4,
            steps: vec![step(0, 4, 10.0, 0.8)],
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(1),
        };
        let mut reordered = base.clone();
        reordered.steps[0].arrivals = vec![1, 0];
        assert_eq!(
            base.recovery_fingerprint(),
            reordered.recovery_fingerprint()
        );
        let mut changed = base.clone();
        changed.steps[0].recovered = 2;
        assert_ne!(base.recovery_fingerprint(), changed.recovery_fingerprint());
    }

    #[test]
    fn fingerprint_pins_ladder_decisions() {
        let base = TrainReport {
            n: 4,
            steps: vec![step(0, 2, 10.0, 0.8)],
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(1),
        };
        let mut approx = base.clone();
        approx.steps[0].outcome = StepOutcome::Approx;
        approx.steps[0].consecutive_degraded = 1;
        assert_ne!(base.recovery_fingerprint(), approx.recovery_fingerprint());
        let mut skipped = approx.clone();
        skipped.steps[0].outcome = StepOutcome::Skipped;
        assert_ne!(
            approx.recovery_fingerprint(),
            skipped.recovery_fingerprint()
        );
    }

    #[test]
    fn degradation_aggregates_and_display() {
        let mut approx = step(0, 2, 10.0, 0.9);
        approx.outcome = StepOutcome::Approx;
        approx.coverage = 0.5;
        approx.bias_weight = 2.0;
        approx.consecutive_degraded = 1;
        let mut skipped = step(1, 0, 10.0, 0.9);
        skipped.outcome = StepOutcome::Skipped;
        skipped.coverage = 0.0;
        skipped.bias_weight = 0.0;
        skipped.consecutive_degraded = 2;
        let r = TrainReport {
            n: 4,
            steps: vec![approx, skipped, step(2, 4, 10.0, 0.5)],
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(1),
        };
        assert_eq!(r.approx_steps(), 1);
        assert_eq!(r.skipped_steps(), 1);
        assert_eq!(r.degraded_steps(), 2);
        assert_eq!(r.max_consecutive_degraded(), 2);
        let text = r.to_string();
        assert!(text.contains("[degraded: 1 approx, 1 skipped, worst streak 2]"));
        // Outcome is step semantics: it participates in equality.
        let mut other = r.steps[0].clone();
        other.outcome = StepOutcome::Exact;
        assert_ne!(r.steps[0], other);
    }

    #[test]
    fn display_mentions_cap_and_failures() {
        let mut failed = step(0, 0, 10.0, 0.9);
        failed.failed_decode = true;
        let r = TrainReport {
            n: 4,
            steps: vec![failed],
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(1),
        };
        let text = r.to_string();
        assert!(text.contains("1 steps"));
        assert!(text.contains("stopped at the step cap"));
        assert!(text.contains("(1 failed decodes)"));
    }
}
