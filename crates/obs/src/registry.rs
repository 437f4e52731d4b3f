//! The metric registry: counters, gauges, and fixed-bucket histograms
//! behind a cheaply clonable, thread-safe handle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::span::{SpanField, SpanRecord};

/// Determinism class of a metric or span field.
///
/// The split is what makes whole-dump golden testing possible: logical
/// series are asserted byte-identical across runs *and* across backends,
/// while timing series are free to vary with the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Seed-deterministic and backend-independent (recovery counts, bounds,
    /// repair events, loss). Included in [`crate::Snapshot::Logical`].
    Logical,
    /// Wall-clock or transport-specific (latencies, waits, wire bytes).
    /// Exported only under [`crate::Snapshot::Full`].
    Timing,
}

impl Class {
    /// Stable lowercase name used by both export formats.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Logical => "logical",
            Class::Timing => "timing",
        }
    }
}

/// Registry key: metric name plus labels sorted by key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

/// A histogram's complete state: explicit upper bounds, one count per
/// bucket plus an overflow bucket, and moment sums for mean/variance.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Strictly increasing bucket upper bounds.
    pub bounds: Vec<f64>,
    /// `counts[i]` observations fell in bucket `i` (`v <= bounds[i]`, first
    /// match); `counts[bounds.len()]` is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Sum of squares of all observed values (enables sample std dev).
    pub sum_squares: f64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            sum_squares: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.sum_squares += value * value;
        self.count += 1;
    }

    /// Mean of the observed values (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation of the observed values (`0` when
    /// fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_squares / n - (self.sum / n).powi(2)).max(0.0);
        var.sqrt()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Metric {
    pub(crate) class: Class,
    pub(crate) value: Value,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) metrics: BTreeMap<Key, Metric>,
    pub(crate) spans: Vec<SpanRecord>,
}

/// A shared, thread-safe metric registry.
///
/// Cloning is cheap and every clone updates the same underlying store, so a
/// registry threads naturally through a master loop, its reader threads,
/// and a restarted master segment alike.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking observer must not wedge metrics for the rest of the
        // run (the chaos harness crashes threads on purpose).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn update(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        class: Class,
        fresh: Value,
        f: impl FnOnce(&mut Value),
    ) {
        let key = Key::new(name, labels);
        let mut inner = self.lock();
        let metric = inner.metrics.entry(key).or_insert(Metric {
            class,
            value: fresh,
        });
        assert!(
            metric.class == class,
            "metric {name} re-registered as {} (was {})",
            class.as_str(),
            metric.class.as_str()
        );
        f(&mut metric.value);
    }

    /// Increments a counter by one.
    ///
    /// # Panics
    ///
    /// Panics if `name`+`labels` already names a gauge or histogram, or was
    /// registered under a different [`Class`].
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], class: Class) {
        self.inc_by(name, labels, class, 1);
    }

    /// Adds `delta` to a counter, creating it at zero first if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name`+`labels` already names a gauge or histogram, or was
    /// registered under a different [`Class`].
    pub fn inc_by(&self, name: &str, labels: &[(&str, &str)], class: Class, delta: u64) {
        self.update(
            name,
            labels,
            class,
            Value::Counter(0),
            |value| match value {
                Value::Counter(total) => *total += delta,
                other => panic!("metric {name} is a {}, not a counter", other.type_name()),
            },
        );
    }

    /// Sets a gauge to `value` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if `name`+`labels` already names a counter or histogram, or
    /// was registered under a different [`Class`].
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], class: Class, value: f64) {
        self.update(
            name,
            labels,
            class,
            Value::Gauge(value),
            |slot| match slot {
                Value::Gauge(current) => *current = value,
                other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
            },
        );
    }

    /// Records `value` into a fixed-bucket histogram. The bucket `bounds`
    /// are fixed by the first observation; later calls must pass the same
    /// ladder.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing, if a later
    /// call changes the ladder, if `name`+`labels` already names a counter
    /// or gauge, or on a [`Class`] mismatch.
    pub fn observe(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        class: Class,
        bounds: &[f64],
        value: f64,
    ) {
        self.update(
            name,
            labels,
            class,
            Value::Histogram(HistogramSnapshot::new(bounds)),
            |slot| match slot {
                Value::Histogram(h) => {
                    assert!(
                        h.bounds == bounds,
                        "histogram {name} re-observed with different bounds"
                    );
                    h.observe(value);
                }
                other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
            },
        );
    }

    /// Records a completed span with the next sequence number. Fields are
    /// stored sorted by key so exports are deterministic.
    pub fn record_span(&self, name: &str, labels: &[(&str, &str)], fields: &[SpanField]) {
        let key = Key::new(name, labels);
        let mut fields = fields.to_vec();
        fields.sort_by(|a, b| a.key.cmp(&b.key));
        let mut inner = self.lock();
        let seq = inner.spans.len() as u64;
        inner.spans.push(SpanRecord {
            seq,
            name: key.name,
            labels: key.labels,
            fields,
        });
    }

    /// Current value of a counter, if one exists under this name+labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match &self.lock().metrics.get(&Key::new(name, labels))?.value {
            Value::Counter(total) => Some(*total),
            _ => None,
        }
    }

    /// Current value of a gauge, if one exists under this name+labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match &self.lock().metrics.get(&Key::new(name, labels))?.value {
            Value::Gauge(value) => Some(*value),
            _ => None,
        }
    }

    /// A copy of a histogram's state, if one exists under this name+labels.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        match &self.lock().metrics.get(&Key::new(name, labels))?.value {
            Value::Histogram(h) => Some(h.clone()),
            _ => None,
        }
    }

    /// All recorded spans, in sequence order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    pub(crate) fn with_inner<T>(&self, f: impl FnOnce(&Inner) -> T) -> T {
        f(&self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let a = Registry::new();
        let b = a.clone();
        a.inc("x", &[], Class::Logical);
        b.inc_by("x", &[], Class::Logical, 4);
        assert_eq!(a.counter("x", &[]), Some(5));
    }

    #[test]
    fn labels_are_order_insensitive() {
        let r = Registry::new();
        r.inc("x", &[("b", "2"), ("a", "1")], Class::Logical);
        assert_eq!(r.counter("x", &[("a", "1"), ("b", "2")]), Some(1));
        assert_eq!(r.counter("x", &[("a", "1")]), None);
    }

    #[test]
    fn gauges_take_the_last_write() {
        let r = Registry::new();
        r.set_gauge("loss", &[], Class::Logical, 0.9);
        r.set_gauge("loss", &[], Class::Logical, 0.4);
        assert_eq!(r.gauge("loss", &[]), Some(0.4));
    }

    #[test]
    fn histograms_bucket_count_and_sum() {
        let r = Registry::new();
        for v in [0.0, 1.0, 1.0, 3.0, 99.0] {
            r.observe("h", &[], Class::Logical, &[0.0, 1.0, 2.0, 3.0], v);
        }
        let h = r.histogram("h", &[]).unwrap();
        assert_eq!(h.counts, vec![1, 2, 0, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 104.0).abs() < 1e-12);
        assert!((h.mean() - 20.8).abs() < 1e-12);
        assert!(h.std_dev() > 0.0);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.set_gauge("x", &[], Class::Logical, 1.0);
        r.inc("x", &[], Class::Logical);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn class_confusion_panics() {
        let r = Registry::new();
        r.inc("x", &[], Class::Logical);
        r.inc("x", &[], Class::Timing);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bound_change_panics() {
        let r = Registry::new();
        r.observe("h", &[], Class::Logical, &[1.0], 0.5);
        r.observe("h", &[], Class::Logical, &[2.0], 0.5);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.inc("hits", &[], Class::Timing);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits", &[]), Some(4000));
    }
}
