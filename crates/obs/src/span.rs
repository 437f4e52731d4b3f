//! Structured trace spans: ordered events with typed numeric fields.

use crate::registry::Class;

/// One typed numeric field attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanField {
    /// Field name (unique within the span; exports sort by it).
    pub key: String,
    /// Field value.
    pub value: f64,
    /// Whether the field survives into logical snapshots.
    pub class: Class,
}

impl SpanField {
    /// A seed-deterministic, backend-independent field.
    pub fn logical(key: &str, value: f64) -> Self {
        SpanField {
            key: key.to_string(),
            value,
            class: Class::Logical,
        }
    }

    /// A wall-clock or transport-specific field.
    pub fn timing(key: &str, value: f64) -> Self {
        SpanField {
            key: key.to_string(),
            value,
            class: Class::Timing,
        }
    }
}

/// A completed span as stored in the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Global sequence number, in recording order.
    pub seq: u64,
    /// Span name.
    pub name: String,
    /// Labels, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Fields, sorted by key.
    pub fields: Vec<SpanField>,
}

impl SpanRecord {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|f| f.key == key).map(|f| f.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn record_span_sorts_fields_and_numbers_sequentially() {
        let r = Registry::new();
        r.record_span(
            "step",
            &[],
            &[SpanField::logical("z", 1.0), SpanField::logical("a", 2.0)],
        );
        r.record_span("step", &[], &[]);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert_eq!(spans[0].fields[0].key, "a");
        assert_eq!(spans[0].field("z"), Some(1.0));
        assert_eq!(spans[0].field("missing"), None);
    }
}
