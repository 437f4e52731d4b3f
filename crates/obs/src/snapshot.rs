//! Deterministic snapshot export: sorted text and JSON lines.
//!
//! Both formats iterate metrics in `BTreeMap` order (name, then sorted
//! labels) and spans in sequence order, and format floats with Rust's
//! shortest-roundtrip `Display` — identical bits in, identical bytes out.

use crate::registry::{Class, Registry, Value};
use crate::span::SpanRecord;

/// Which metric classes a snapshot includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Snapshot {
    /// Only [`Class::Logical`] metrics and span fields: the byte-stable
    /// subset golden files and cross-backend comparisons assert on.
    Logical,
    /// Everything, timing included.
    Full,
}

impl Snapshot {
    fn includes(self, class: Class) -> bool {
        match self {
            Snapshot::Full => true,
            Snapshot::Logical => class == Class::Logical,
        }
    }

    fn mode_name(self) -> &'static str {
        match self {
            Snapshot::Logical => "logical",
            Snapshot::Full => "full",
        }
    }
}

/// Shortest-roundtrip float formatting shared by both exporters.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "inf" } else { "-inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// JSON number token; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string token: quoted, with `"`, `\` and control
/// characters escaped.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn labels_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn labels_json(labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn span_text_line(span: &SpanRecord, snapshot: Snapshot) -> String {
    let mut line = format!(
        "span {} {}{}",
        span.seq,
        span.name,
        labels_suffix(&span.labels)
    );
    for field in &span.fields {
        if snapshot.includes(field.class) {
            line.push_str(&format!(" {}={}", field.key, fmt_f64(field.value)));
        }
    }
    line
}

impl Registry {
    /// Renders the snapshot as sorted plain text, one series per line:
    ///
    /// ```text
    /// # isgc-obs snapshot v1 (logical)
    /// counter engine.steps.total 4
    /// gauge engine.loss.last 0.52
    /// histogram engine.step.recovered le0=0 le4=4 +inf=0 sum=16 count=4
    /// span 0 engine.step arrivals=4 recovered=4 step=0
    /// ```
    pub fn to_text(&self, snapshot: Snapshot) -> String {
        let mut out = format!("# isgc-obs snapshot v1 ({})\n", snapshot.mode_name());
        self.with_inner(|inner| {
            for (key, metric) in &inner.metrics {
                if !snapshot.includes(metric.class) {
                    continue;
                }
                let id = format!("{}{}", key.name, labels_suffix(&key.labels));
                match &metric.value {
                    Value::Counter(total) => {
                        out.push_str(&format!("counter {id} {total}\n"));
                    }
                    Value::Gauge(value) => {
                        out.push_str(&format!("gauge {id} {}\n", fmt_f64(*value)));
                    }
                    Value::Histogram(h) => {
                        out.push_str(&format!("histogram {id}"));
                        for (bound, count) in h.bounds.iter().zip(&h.counts) {
                            out.push_str(&format!(" le{}={count}", fmt_f64(*bound)));
                        }
                        out.push_str(&format!(
                            " +inf={} sum={} count={}\n",
                            h.counts[h.bounds.len()],
                            fmt_f64(h.sum),
                            h.count
                        ));
                    }
                }
            }
            for span in &inner.spans {
                out.push_str(&span_text_line(span, snapshot));
                out.push('\n');
            }
        });
        out
    }

    /// Renders the snapshot as JSON lines: a header object, then one object
    /// per metric (registry order), then one per span (sequence order).
    pub fn to_jsonl(&self, snapshot: Snapshot) -> String {
        let mut out = format!(
            "{{\"format\":\"isgc-obs\",\"version\":1,\"mode\":{}}}\n",
            json_str(snapshot.mode_name())
        );
        self.with_inner(|inner| {
            for (key, metric) in &inner.metrics {
                if !snapshot.includes(metric.class) {
                    continue;
                }
                let head = format!(
                    "\"name\":{},\"labels\":{},\"class\":{}",
                    json_str(&key.name),
                    labels_json(&key.labels),
                    json_str(metric.class.as_str())
                );
                match &metric.value {
                    Value::Counter(total) => {
                        out.push_str(&format!(
                            "{{\"type\":\"counter\",{head},\"value\":{total}}}\n"
                        ));
                    }
                    Value::Gauge(value) => {
                        out.push_str(&format!(
                            "{{\"type\":\"gauge\",{head},\"value\":{}}}\n",
                            json_num(*value)
                        ));
                    }
                    Value::Histogram(h) => {
                        let bounds: Vec<String> = h.bounds.iter().map(|&b| json_num(b)).collect();
                        let counts: Vec<String> =
                            h.counts.iter().map(|c| c.to_string()).collect();
                        out.push_str(&format!(
                            "{{\"type\":\"histogram\",{head},\"bounds\":[{}],\"counts\":[{}],\
                             \"sum\":{},\"count\":{}}}\n",
                            bounds.join(","),
                            counts.join(","),
                            json_num(h.sum),
                            h.count
                        ));
                    }
                }
            }
            for span in &inner.spans {
                let fields: Vec<String> = span
                    .fields
                    .iter()
                    .filter(|f| snapshot.includes(f.class))
                    .map(|f| format!("{}:{}", json_str(&f.key), json_num(f.value)))
                    .collect();
                out.push_str(&format!(
                    "{{\"type\":\"span\",\"seq\":{},\"name\":{},\"labels\":{},\"fields\":{{{}}}}}\n",
                    span.seq,
                    json_str(&span.name),
                    labels_json(&span.labels),
                    fields.join(",")
                ));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanField;
    use crate::{buckets, Class, Registry};

    fn sample() -> Registry {
        let r = Registry::new();
        r.inc_by("b.counter", &[("w", "3")], Class::Logical, 7);
        r.set_gauge("a.gauge", &[], Class::Logical, 0.25);
        r.observe("c.hist", &[], Class::Logical, &buckets::upto(2), 1.0);
        r.observe("c.hist", &[], Class::Logical, &buckets::upto(2), 9.0);
        r.inc("t.timing", &[], Class::Timing);
        r.record_span(
            "step",
            &[],
            &[
                SpanField::logical("recovered", 4.0),
                SpanField::timing("wait_ms", 12.5),
            ],
        );
        r
    }

    #[test]
    fn text_is_sorted_and_stable() {
        let text = sample().to_text(Snapshot::Full);
        let expected = "# isgc-obs snapshot v1 (full)\n\
                        gauge a.gauge 0.25\n\
                        counter b.counter{w=3} 7\n\
                        histogram c.hist le0=0 le1=1 le2=0 +inf=1 sum=10 count=2\n\
                        counter t.timing 1\n\
                        span 0 step recovered=4 wait_ms=12.5\n";
        assert_eq!(text, expected);
        assert_eq!(text, sample().to_text(Snapshot::Full));
    }

    #[test]
    fn logical_mode_drops_timing_series_and_fields() {
        let text = sample().to_text(Snapshot::Logical);
        assert!(!text.contains("t.timing"));
        assert!(!text.contains("wait_ms"));
        assert!(text.contains("span 0 step recovered=4\n"));
        assert!(text.starts_with("# isgc-obs snapshot v1 (logical)\n"));
    }

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let jsonl = sample().to_jsonl(Snapshot::Full);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"format\":\"isgc-obs\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        assert!(jsonl.contains("\"type\":\"histogram\""));
        assert!(jsonl.contains("\"counts\":[0,1,0,1]"));
        assert!(jsonl.contains("\"type\":\"span\",\"seq\":0"));
    }

    #[test]
    fn float_formatting_handles_edge_values() {
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
