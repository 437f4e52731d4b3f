//! isgc-obs: dependency-free metrics and tracing for the IS-GC reproduction.
//!
//! Gradient-coding evaluations live and die on per-step distributions —
//! recovery fractions, decode latency, wait times — yet ad-hoc accumulators
//! scattered across bench binaries throw the raw signal away. This crate is
//! the one instrumentation layer every backend shares:
//!
//! - a [`Registry`] of **counters**, **gauges**, and **fixed-bucket
//!   histograms**, addressed by name plus sorted key/value labels;
//! - structured **trace spans** ([`Registry::record_span`]) with
//!   ordered sequence numbers and typed numeric fields;
//! - deterministic **snapshot export** in two formats — a sorted text dump
//!   ([`Registry::to_text`]) and JSON lines ([`Registry::to_jsonl`]) — built
//!   for byte-exact golden-file testing.
//!
//! # Logical vs. timing metrics
//!
//! Every metric and span field carries a [`Class`]:
//!
//! - [`Class::Logical`] — seed-deterministic *and* backend-independent:
//!   recovered partitions, arrival counts, Theorem 10–11 bounds, repair
//!   events, loss values. A seeded run exports the identical logical
//!   snapshot on the simulator and on a real TCP cluster.
//! - [`Class::Timing`] — wall-clock or transport-specific: decode latency,
//!   collection waits, bytes on the wire. Excluded from
//!   [`Snapshot::Logical`] exports so golden files stay byte-stable.
//!
//! # Example
//!
//! ```
//! use isgc_obs::{buckets, Class, Registry, Snapshot};
//!
//! let registry = Registry::new();
//! registry.inc("engine.steps.total", &[], Class::Logical);
//! registry.observe(
//!     "engine.step.recovered",
//!     &[],
//!     Class::Logical,
//!     &buckets::upto(4),
//!     4.0,
//! );
//! registry.observe(
//!     "engine.decode.latency_ms",
//!     &[],
//!     Class::Timing,
//!     &buckets::latency_ms(),
//!     0.07,
//! );
//! let logical = registry.to_text(Snapshot::Logical);
//! assert!(logical.contains("counter engine.steps.total 1"));
//! assert!(!logical.contains("latency"), "timing metrics are excluded");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod snapshot;
mod span;

pub use registry::{Class, HistogramSnapshot, Registry};
pub use snapshot::Snapshot;
pub use span::{SpanField, SpanRecord};

/// Ready-made histogram bucket ladders.
///
/// Bucket bounds are *upper* bounds: a histogram with bounds `[b0 < b1 < …]`
/// counts an observation `v` in the first bucket with `v <= b_i`, plus one
/// implicit overflow bucket for `v` above every bound.
pub mod buckets {
    /// Integer bounds `0, 1, …, n`: one bucket per exact count, for
    /// per-step worker/partition tallies (arrivals, recovered, dead).
    pub fn upto(n: usize) -> Vec<f64> {
        (0..=n).map(|i| i as f64).collect()
    }

    /// `count` bounds spaced `width` apart starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive or `count` is zero.
    pub fn linear(start: f64, width: f64, count: usize) -> Vec<f64> {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(count > 0, "need at least one bucket");
        (0..count).map(|i| start + width * i as f64).collect()
    }

    /// Log-spaced latency bounds in milliseconds, 0.01 ms to 10 s — wide
    /// enough for in-process decodes and straggler-limited network steps
    /// alike.
    pub fn latency_ms() -> Vec<f64> {
        vec![
            0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
            500.0, 1000.0, 2500.0, 5000.0, 10000.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::buckets::*;

    #[test]
    fn ladders_are_strictly_increasing() {
        for ladder in [upto(6), linear(0.5, 0.25, 8), latency_ms()] {
            assert!(ladder.windows(2).all(|w| w[0] < w[1]), "{ladder:?}");
        }
    }

    #[test]
    fn upto_covers_every_exact_count() {
        assert_eq!(upto(3), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
