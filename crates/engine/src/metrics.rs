//! The engine's metric emission: one catalogue of per-step series shared by
//! every backend.
//!
//! Wrap any [`Observer`] in a [`MetricsObserver`] (or call
//! [`record_step`] / [`record_train_report`] directly) and each completed
//! step lands in an [`isgc_obs::Registry`] as the same named series, no
//! matter which transport ran the step. Logical series (recovery counts,
//! Theorem 10–11 bounds, repair and fault events, loss) are byte-stable
//! across runs *and* across backends under one seed; timing series (decode
//! latency, waits) carry the host clock and are excluded from logical
//! snapshots.

use isgc_obs::{buckets, Class, Registry, SpanField};

use crate::{NoopObserver, Observer, StepControl, StepReport, TrainReport};

/// The metric name catalogue (see also DESIGN.md § Observability).
pub mod names {
    /// Counter: completed steps.
    pub const STEPS_TOTAL: &str = "engine.steps.total";
    /// Counter: partitions requested over the run (`n` per step).
    pub const PARTITIONS_REQUESTED_TOTAL: &str = "engine.partitions.requested.total";
    /// Counter: partitions recovered over the run.
    pub const PARTITIONS_RECOVERED_TOTAL: &str = "engine.partitions.recovered.total";
    /// Counter: codewords that arrived in time.
    pub const CODEWORDS_ARRIVED_TOTAL: &str = "engine.codewords.arrived.total";
    /// Counter: per-step decline signals from workers.
    pub const WORKERS_DECLINED_TOTAL: &str = "engine.workers.declined.total";
    /// Counter: partition reassignments applied by placement repair.
    pub const REPAIR_EVENTS_TOTAL: &str = "engine.repair.events.total";
    /// Counter: outright decode failures (classic GC below its minimum).
    pub const DECODE_FAILED_TOTAL: &str = "engine.decode.failed.total";
    /// Counter: steps whose decode was checked against Theorems 10–11.
    pub const BOUND_CHECKED_TOTAL: &str = "engine.bound.checked.total";
    /// Counter: bound-checked steps that landed outside `[lo, hi]` (stays
    /// zero in a healthy run; the engine aborts before reporting one).
    pub const BOUND_VIOLATIONS_TOTAL: &str = "engine.bound.violations.total";
    /// Histogram over `0..=n`: codeword arrivals (`|W'|`) per step.
    pub const STEP_ARRIVALS: &str = "engine.step.arrivals";
    /// Histogram over `0..=n`: partitions recovered per step.
    pub const STEP_RECOVERED: &str = "engine.step.recovered";
    /// Histogram over `0..=n`: Theorem 10 floor per bound-checked step.
    pub const STEP_BOUND_LO: &str = "engine.step.bound.lo";
    /// Histogram over `0..=n`: Theorem 11 ceiling per bound-checked step.
    pub const STEP_BOUND_HI: &str = "engine.step.bound.hi";
    /// Histogram over `0..=n`: recovery headroom above the Theorem 10
    /// floor (`recovered − lo`) per bound-checked step.
    pub const STEP_BOUND_MARGIN: &str = "engine.step.bound.margin";
    /// Histogram over `0..=n`: workers considered dead per step.
    pub const STEP_DEAD: &str = "engine.step.dead";
    /// Counter: steps that applied the bias-corrected approximate update
    /// (degradation ladder, `StepOutcome::Approx`).
    pub const STEPS_APPROX_TOTAL: &str = "engine.steps.approx";
    /// Counter: steps that reused the previous iterate
    /// (degradation ladder, `StepOutcome::Skipped`).
    pub const STEPS_SKIPPED_TOTAL: &str = "engine.steps.skipped";
    /// Gauge: coverage fraction `recovered / n` of the most recent step.
    pub const COVERAGE: &str = "engine.coverage";
    /// Gauge: bias-correction scalar of the most recent step (`1` exact,
    /// `n / recovered` approximate, `0` skipped).
    pub const BIAS_WEIGHT: &str = "engine.bias_weight";
    /// Gauge: consecutive degraded steps ending at the most recent step.
    pub const DEGRADED_CONSECUTIVE: &str = "engine.degraded.consecutive";
    /// Gauge: loss after the most recent step.
    pub const LOSS_LAST: &str = "engine.loss.last";
    /// Gauge: most recent step number.
    pub const STEP_LAST: &str = "engine.step.last";
    /// Timing histogram (ms): wall-clock decode latency per step.
    pub const DECODE_LATENCY_MS: &str = "engine.decode.latency_ms";
    /// Timing histogram (ms): collection wait per step.
    pub const STEP_WAIT_MS: &str = "engine.step.wait_ms";
    /// Timing counter: stale codewords discarded while collecting.
    pub const CODEWORDS_STALE_TOTAL: &str = "engine.codewords.stale.total";
    /// Span name: one per completed step.
    pub const STEP_SPAN: &str = "engine.step";
}

/// Records one completed step into `registry`. `n` is the cluster size
/// (fixes the `0..=n` bucket ladders).
pub fn record_step(registry: &Registry, n: usize, report: &StepReport) {
    record_step_scoped(registry, n, report, &[]);
}

/// [`record_step`] with a label scope on every series — how a multi-tenant
/// scheduler keeps per-job metric streams disjoint inside one shared
/// registry (each job records under `[("job", name)]`).
pub fn record_step_scoped(
    registry: &Registry,
    n: usize,
    report: &StepReport,
    labels: &[(&str, &str)],
) {
    let l = Class::Logical;
    registry.inc(names::STEPS_TOTAL, labels, l);
    registry.inc_by(names::PARTITIONS_REQUESTED_TOTAL, labels, l, n as u64);
    registry.inc_by(
        names::PARTITIONS_RECOVERED_TOTAL,
        labels,
        l,
        report.recovered as u64,
    );
    registry.inc_by(
        names::CODEWORDS_ARRIVED_TOTAL,
        labels,
        l,
        report.arrivals.len() as u64,
    );
    registry.inc_by(
        names::WORKERS_DECLINED_TOTAL,
        labels,
        l,
        report.declined.len() as u64,
    );
    registry.inc_by(
        names::REPAIR_EVENTS_TOTAL,
        labels,
        l,
        report.repairs.len() as u64,
    );
    if report.failed_decode {
        registry.inc(names::DECODE_FAILED_TOTAL, labels, l);
    }
    match report.outcome {
        crate::StepOutcome::Exact => {}
        crate::StepOutcome::Approx => registry.inc(names::STEPS_APPROX_TOTAL, labels, l),
        crate::StepOutcome::Skipped => registry.inc(names::STEPS_SKIPPED_TOTAL, labels, l),
    }
    registry.set_gauge(names::COVERAGE, labels, l, report.coverage);
    registry.set_gauge(names::BIAS_WEIGHT, labels, l, report.bias_weight);
    registry.set_gauge(
        names::DEGRADED_CONSECUTIVE,
        labels,
        l,
        report.consecutive_degraded as f64,
    );

    let by_count = buckets::upto(n);
    registry.observe(
        names::STEP_ARRIVALS,
        labels,
        l,
        &by_count,
        report.arrivals.len() as f64,
    );
    registry.observe(
        names::STEP_RECOVERED,
        labels,
        l,
        &by_count,
        report.recovered as f64,
    );
    registry.observe(
        names::STEP_DEAD,
        labels,
        l,
        &by_count,
        report.dead.len() as f64,
    );
    if let Some((lo, hi)) = report.bounds {
        registry.inc(names::BOUND_CHECKED_TOTAL, labels, l);
        if !(lo..=hi).contains(&report.recovered) {
            registry.inc(names::BOUND_VIOLATIONS_TOTAL, labels, l);
        }
        registry.observe(names::STEP_BOUND_LO, labels, l, &by_count, lo as f64);
        registry.observe(names::STEP_BOUND_HI, labels, l, &by_count, hi as f64);
        registry.observe(
            names::STEP_BOUND_MARGIN,
            labels,
            l,
            &by_count,
            report.recovered.saturating_sub(lo) as f64,
        );
    }
    registry.set_gauge(names::LOSS_LAST, labels, l, report.loss);
    registry.set_gauge(names::STEP_LAST, labels, l, report.step as f64);

    let t = Class::Timing;
    let latency = buckets::latency_ms();
    registry.observe(
        names::DECODE_LATENCY_MS,
        labels,
        t,
        &latency,
        report.decode_ms,
    );
    registry.observe(names::STEP_WAIT_MS, labels, t, &latency, report.waited_ms);
    registry.inc_by(names::CODEWORDS_STALE_TOTAL, labels, t, report.stale as u64);

    let mut fields = vec![
        SpanField::logical("arrivals", report.arrivals.len() as f64),
        SpanField::logical("recovered", report.recovered as f64),
        SpanField::logical("selected", report.selected.len() as f64),
        SpanField::logical("step", report.step as f64),
        SpanField::logical("outcome", report.outcome.tag() as f64),
        SpanField::logical("coverage", report.coverage),
        SpanField::timing("wait_ms", report.waited_ms),
    ];
    if let Some((lo, hi)) = report.bounds {
        fields.push(SpanField::logical("bound_lo", lo as f64));
        fields.push(SpanField::logical("bound_hi", hi as f64));
    }
    registry.record_span(names::STEP_SPAN, labels, &fields);
}

/// Replays a finished run into `registry`, step by step — the post-hoc
/// path for callers that only hold a [`TrainReport`]. The logical series
/// are identical to what live [`MetricsObserver`] recording produces.
pub fn record_train_report(registry: &Registry, report: &TrainReport) {
    for step in &report.steps {
        record_step(registry, report.n, step);
    }
}

/// An [`Observer`] that records every step into a registry, then defers to
/// an inner observer for flow control.
#[derive(Debug)]
pub struct MetricsObserver<O: Observer = NoopObserver> {
    registry: Registry,
    n: usize,
    job: Option<String>,
    inner: O,
}

impl MetricsObserver<NoopObserver> {
    /// A metrics-only observer for an `n`-worker cluster.
    pub fn new(registry: Registry, n: usize) -> Self {
        MetricsObserver {
            registry,
            n,
            job: None,
            inner: NoopObserver,
        }
    }

    /// A metrics-only observer recording under a `("job", name)` label —
    /// the per-job metric scope of a multi-tenant scheduler.
    pub fn for_job(registry: Registry, n: usize, job: impl Into<String>) -> Self {
        MetricsObserver {
            registry,
            n,
            job: Some(job.into()),
            inner: NoopObserver,
        }
    }
}

impl<O: Observer> MetricsObserver<O> {
    /// Chains metric recording in front of `inner` (which keeps the final
    /// say on [`StepControl`]).
    pub fn wrapping(registry: Registry, n: usize, inner: O) -> Self {
        MetricsObserver {
            registry,
            n,
            job: None,
            inner,
        }
    }

    /// Scopes an existing observer's series under a `("job", name)` label.
    pub fn scoped_to_job(mut self, job: impl Into<String>) -> Self {
        self.job = Some(job.into());
        self
    }
}

impl<O: Observer> Observer for MetricsObserver<O> {
    fn on_step(&mut self, report: &StepReport) -> StepControl {
        match &self.job {
            Some(job) => {
                record_step_scoped(&self.registry, self.n, report, &[("job", job.as_str())])
            }
            None => record_step(&self.registry, self.n, report),
        }
        self.inner.on_step(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RepairEvent;
    use isgc_obs::Snapshot;

    fn report(step: u64, arrivals: Vec<usize>, recovered: usize) -> StepReport {
        StepReport {
            step,
            arrivals,
            waited_ms: 3.0,
            duration: 0.003,
            decode_ms: 0.4,
            selected: vec![0, 2],
            recovered,
            bounds: Some((2, 4)),
            ignored: vec![1, 3],
            dead: vec![3],
            declined: vec![],
            repairs: vec![RepairEvent {
                partition: 1,
                from: 3,
                to: 0,
            }],
            stale: 2,
            failed_decode: false,
            outcome: crate::StepOutcome::Exact,
            coverage: recovered as f64 / 4.0,
            bias_weight: 1.0,
            consecutive_degraded: 0,
            loss: 0.5,
        }
    }

    #[test]
    fn degraded_outcomes_land_in_the_ladder_series() {
        let registry = Registry::new();
        let mut approx = report(0, vec![0], 2);
        approx.outcome = crate::StepOutcome::Approx;
        approx.coverage = 0.5;
        approx.bias_weight = 2.0;
        approx.consecutive_degraded = 1;
        record_step(&registry, 4, &approx);
        let mut skipped = report(1, vec![], 0);
        skipped.outcome = crate::StepOutcome::Skipped;
        skipped.coverage = 0.0;
        skipped.bias_weight = 0.0;
        skipped.consecutive_degraded = 2;
        record_step(&registry, 4, &skipped);
        assert_eq!(registry.counter(names::STEPS_APPROX_TOTAL, &[]), Some(1));
        assert_eq!(registry.counter(names::STEPS_SKIPPED_TOTAL, &[]), Some(1));
        assert_eq!(registry.gauge(names::COVERAGE, &[]), Some(0.0));
        assert_eq!(registry.gauge(names::BIAS_WEIGHT, &[]), Some(0.0));
        assert_eq!(registry.gauge(names::DEGRADED_CONSECUTIVE, &[]), Some(2.0));
        let spans = registry.spans();
        assert_eq!(spans[0].field("outcome"), Some(1.0));
        assert_eq!(spans[0].field("coverage"), Some(0.5));
        assert_eq!(spans[1].field("outcome"), Some(2.0));
    }

    #[test]
    fn exact_steps_do_not_touch_the_degraded_counters() {
        let registry = Registry::new();
        record_step(&registry, 4, &report(0, vec![0, 2, 1], 4));
        assert_eq!(registry.counter(names::STEPS_APPROX_TOTAL, &[]), None);
        assert_eq!(registry.counter(names::STEPS_SKIPPED_TOTAL, &[]), None);
        assert_eq!(registry.gauge(names::COVERAGE, &[]), Some(1.0));
        assert_eq!(registry.gauge(names::BIAS_WEIGHT, &[]), Some(1.0));
        assert_eq!(registry.gauge(names::DEGRADED_CONSECUTIVE, &[]), Some(0.0));
    }

    #[test]
    fn record_step_fills_the_catalogue() {
        let registry = Registry::new();
        record_step(&registry, 4, &report(0, vec![0, 2, 1], 4));
        record_step(&registry, 4, &report(1, vec![0, 2], 2));
        assert_eq!(registry.counter(names::STEPS_TOTAL, &[]), Some(2));
        assert_eq!(
            registry.counter(names::PARTITIONS_REQUESTED_TOTAL, &[]),
            Some(8)
        );
        assert_eq!(
            registry.counter(names::PARTITIONS_RECOVERED_TOTAL, &[]),
            Some(6)
        );
        assert_eq!(
            registry.counter(names::CODEWORDS_ARRIVED_TOTAL, &[]),
            Some(5)
        );
        assert_eq!(registry.counter(names::REPAIR_EVENTS_TOTAL, &[]), Some(2));
        assert_eq!(registry.counter(names::BOUND_CHECKED_TOTAL, &[]), Some(2));
        assert_eq!(registry.counter(names::BOUND_VIOLATIONS_TOTAL, &[]), None);
        assert_eq!(registry.counter(names::CODEWORDS_STALE_TOTAL, &[]), Some(4));
        let recovered = registry.histogram(names::STEP_RECOVERED, &[]).unwrap();
        assert_eq!(recovered.count, 2);
        assert_eq!(recovered.counts[2], 1);
        assert_eq!(recovered.counts[4], 1);
        assert_eq!(registry.gauge(names::LOSS_LAST, &[]), Some(0.5));
        assert_eq!(registry.gauge(names::STEP_LAST, &[]), Some(1.0));
        let spans = registry.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].field("recovered"), Some(2.0));
        assert_eq!(spans[1].field("bound_lo"), Some(2.0));
    }

    #[test]
    fn out_of_bound_recovery_counts_as_violation() {
        let registry = Registry::new();
        let mut bad = report(0, vec![0], 4);
        bad.bounds = Some((0, 2));
        record_step(&registry, 4, &bad);
        assert_eq!(
            registry.counter(names::BOUND_VIOLATIONS_TOTAL, &[]),
            Some(1)
        );
    }

    #[test]
    fn unbounded_steps_skip_the_bound_series() {
        let registry = Registry::new();
        let mut repaired = report(0, vec![0, 2], 4);
        repaired.bounds = None;
        record_step(&registry, 4, &repaired);
        assert_eq!(registry.counter(names::BOUND_CHECKED_TOTAL, &[]), None);
        assert!(registry.histogram(names::STEP_BOUND_LO, &[]).is_none());
        assert!(registry.spans()[0].field("bound_lo").is_none());
    }

    #[test]
    fn live_and_post_hoc_recording_agree_on_logical_series() {
        let live = Registry::new();
        let steps = vec![report(0, vec![0, 1, 2, 3], 4), report(1, vec![1, 3], 2)];
        let mut observer = MetricsObserver::new(live.clone(), 4);
        for s in &steps {
            assert_eq!(observer.on_step(s), StepControl::Continue);
        }
        let replayed = Registry::new();
        record_train_report(
            &replayed,
            &TrainReport {
                n: 4,
                steps,
                reached_threshold: false,
                interrupted: false,
                wall_time: 0.0,
                final_params: isgc_linalg::Vector::zeros(1),
            },
        );
        assert_eq!(
            live.to_text(Snapshot::Logical),
            replayed.to_text(Snapshot::Logical)
        );
    }
}
