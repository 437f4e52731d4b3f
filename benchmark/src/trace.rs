//! Harness-side spans: recorded around the calls into each layer, kept in
//! memory, written as JSON lines when the run ends. Nothing here touches
//! product source — spans *inside* the program are a later change
//! (ROADMAP item 1).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

/// One timed interval, `{id, parent, name, start_us, end_us, step, calls}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based identifier, unique within a run.
    pub id: SpanId,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `engine.step` or `replay.core.decode`.
    pub name: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: u64,
    /// End, microseconds since the tracer was created.
    pub end_us: u64,
    /// The training step the span belongs to, when it belongs to one.
    pub step: Option<u64>,
    /// Back-to-back calls of the named function the interval covers (1
    /// everywhere except the replayed step's sub-microsecond functions).
    pub calls: u32,
}

impl Span {
    /// Wall duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Collects spans for one run. A disabled tracer (the untraced run) records
/// nothing, so the end-to-end numbers carry no tracing cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as SpanId + 1;
        let now = self.micros(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_us: now,
            end_us: now,
            step: None,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let now = self.micros(Instant::now());
        self.spans[id as usize - 1].end_us = now;
    }

    /// Records an already-timed leaf under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, step: Option<u64>) {
        self.push_leaf(name, start, end, step, 1);
    }

    /// Records a leaf that covers `calls` back-to-back calls of `name`.
    pub fn leaf_calls(&mut self, name: &'static str, start: Instant, end: Instant, calls: u32) {
        self.push_leaf(name, start, end, None, calls);
    }

    fn push_leaf(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        step: Option<u64>,
        calls: u32,
    ) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            step,
            calls,
        });
    }

    /// Everything recorded so far, in start order of opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, the format `benchmark/README.md` documents.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"step\":",
                s.id, s.parent, s.name, s.start_us, s.end_us
            );
            match s.step {
                Some(step) => {
                    let _ = write!(out, "{step}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(out, ",\"calls\":{}}}", s.calls);
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once,
/// and a child reaching outside its parent is clipped to it).
pub fn self_times_us(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<SpanId, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_us, s.end_us)))
        .collect();
    for s in spans {
        if let Some(&(lo, hi)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi));
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = s.start_us;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_us().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals for the human-readable trace summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
    /// Sum of their self times, microseconds.
    pub self_us: u64,
}

/// Aggregates spans by name (sorted), with total and self time.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let self_times = self_times_us(spans);
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let entry = totals.entry(s.name).or_default();
        entry.count += 1;
        entry.total_us += s.duration_us();
        entry.self_us += self_times[&s.id];
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_us: u64, end_us: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_us,
            end_us,
            step: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)];
        let st = self_times_us(&spans);
        assert_eq!(st[&1], 100 - 20 - 40);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 40);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        assert_eq!(self_times_us(&spans)[&1], 100 - 70);
        // A child nested inside another child of the same parent adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 20, 30)];
        assert_eq!(self_times_us(&spans)[&1], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 50, 120),  // starts before the parent
            span(3, 1, 190, 260), // ends after it
            span(4, 2, 60, 110),  // grandchild: only reduces span 2
        ];
        let st = self_times_us(&spans);
        assert_eq!(st[&1], 100 - 20 - 10);
        assert_eq!(st[&2], 70 - 50);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open("run");
        let now = Instant::now();
        tracer.leaf("engine.step", now, now, Some(7));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        let jsonl = tracer.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"parent\":0,\"name\":\"run\""));
        assert!(lines[0].ends_with("\"step\":null,\"calls\":1}"));
        assert!(lines[1].ends_with("\"step\":7,\"calls\":1}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("run");
        tracer.leaf("engine.step", Instant::now(), Instant::now(), None);
        tracer.close(id);
        assert!(tracer.spans().is_empty());
    }
}
