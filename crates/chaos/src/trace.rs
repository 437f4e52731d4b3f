//! Replayable counterexample traces.
//!
//! The model checker (`isgc-mc`) explores an abstract cluster; when it
//! finds an invariant violation it serializes the offending fault schedule
//! as a **trace**: a small JSON document naming the cluster shape, the
//! seed, the faults, and the failure it expects. `isgc chaos --plan
//! <trace.json>` parses the trace back into a [`FaultPlan`] and replays it
//! on a genuine loopback TCP cluster, closing the loop between the model
//! and the real protocol.
//!
//! The format is deliberately tiny and hand-parsed (this workspace has no
//! serde): one flat object, no nesting beyond the fault list.
//!
//! ```json
//! {
//!   "name": "mc-flat3",
//!   "n": 3, "c": 1, "steps": 2, "seed": 42,
//!   "failure": "plan scripted 1 stale/duplicate frames but the master counted only 0",
//!   "fingerprint": "00a1b2c3d4e5f607",
//!   "faults": [{"worker": 0, "step": 1, "kind": "stale"}],
//!   "master_crashes": []
//! }
//! ```

use std::collections::BTreeMap;

use isgc_core::hash::{fnv1a, FNV_BASIS};

use crate::plan::{Fault, FaultKind, FaultPlan};

/// A serialized counterexample: cluster shape + fault schedule + the
/// failure the producer observed (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Trace name; becomes the replayed plan's name.
    pub name: String,
    /// Cluster size.
    pub n: usize,
    /// Replication factor.
    pub c: usize,
    /// Steps the run executes.
    pub steps: usize,
    /// Training + fault seed.
    pub seed: u64,
    /// The first violation the producer observed, if the trace records a
    /// failing run.
    pub failure: Option<String>,
    /// The producer's failure fingerprint (FNV-1a over its violation
    /// strings), if the trace records a failing run. A replay reproduces
    /// the bug exactly when its own failure fingerprint matches.
    pub fingerprint: Option<u64>,
    /// The fault schedule.
    pub faults: Vec<Fault>,
    /// Steps after which the master crashes cold.
    pub master_crashes: Vec<u64>,
}

impl Trace {
    /// The fault plan this trace replays.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            name: self.name.clone(),
            faults: self.faults.clone(),
            master_crashes: self.master_crashes.clone(),
        }
    }

    /// Renders the trace as its canonical JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": {},\n", quote(&self.name)));
        out.push_str(&format!("  \"n\": {},\n", self.n));
        out.push_str(&format!("  \"c\": {},\n", self.c));
        out.push_str(&format!("  \"steps\": {},\n", self.steps));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        if let Some(failure) = &self.failure {
            out.push_str(&format!("  \"failure\": {},\n", quote(failure)));
        }
        if let Some(fp) = self.fingerprint {
            out.push_str(&format!("  \"fingerprint\": \"{fp:016x}\",\n"));
        }
        out.push_str("  \"faults\": [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            match f.kind {
                FaultKind::Delay(ms) => out.push_str(&format!(
                    "{{\"worker\": {}, \"step\": {}, \"kind\": \"delay\", \"ms\": {ms}}}",
                    f.worker, f.step
                )),
                kind => out.push_str(&format!(
                    "{{\"worker\": {}, \"step\": {}, \"kind\": \"{}\"}}",
                    f.worker,
                    f.step,
                    kind.label()
                )),
            }
        }
        if !self.faults.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"master_crashes\": [");
        for (i, s) in self.master_crashes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&s.to_string());
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a trace from its JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable message when the document is not valid JSON, is
    /// missing a required field, or names an unknown fault kind.
    pub fn from_json(text: &str) -> Result<Trace, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("trace")?;
        let faults_value = obj
            .get("faults")
            .ok_or_else(|| "trace is missing \"faults\"".to_string())?;
        let mut faults = Vec::new();
        for (i, f) in faults_value.as_array("faults")?.iter().enumerate() {
            let f = f.as_object(&format!("faults[{i}]"))?;
            let kind_name = get(f, "kind", i)?.as_str("kind")?;
            let kind = match kind_name {
                "drop" => FaultKind::Drop,
                "corrupt" => FaultKind::Corrupt,
                "truncate" => FaultKind::Truncate,
                "delay" => FaultKind::Delay(get(f, "ms", i)?.as_u64("ms")?),
                "duplicate" => FaultKind::Duplicate,
                "stale" => FaultKind::Stale,
                "decline" => FaultKind::Decline,
                "die" => FaultKind::Die,
                other => return Err(format!("faults[{i}]: unknown fault kind \"{other}\"")),
            };
            faults.push(Fault {
                worker: get(f, "worker", i)?.as_u64("worker")? as usize,
                step: get(f, "step", i)?.as_u64("step")?,
                kind,
            });
        }
        let mut master_crashes = Vec::new();
        if let Some(crashes) = obj.get("master_crashes") {
            for s in crashes.as_array("master_crashes")? {
                master_crashes.push(s.as_u64("master_crashes entry")?);
            }
        }
        let fingerprint = match obj.get("fingerprint") {
            None => None,
            Some(v) => Some(
                u64::from_str_radix(v.as_str("fingerprint")?, 16)
                    .map_err(|e| format!("bad fingerprint: {e}"))?,
            ),
        };
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| format!("trace is missing \"{name}\""))
        };
        Ok(Trace {
            name: field("name")?.as_str("name")?.to_string(),
            n: field("n")?.as_u64("n")? as usize,
            c: field("c")?.as_u64("c")? as usize,
            steps: field("steps")?.as_u64("steps")? as usize,
            seed: field("seed")?.as_u64("seed")?,
            failure: match obj.get("failure") {
                None => None,
                Some(v) => Some(v.as_str("failure")?.to_string()),
            },
            fingerprint,
            faults,
            master_crashes,
        })
    }
}

/// FNV-1a over a run's violation strings, **sorted** before hashing so the
/// fingerprint is independent of check ordering: the model checker groups
/// its invariant checks differently from the chaos harness, but a replay
/// that observes the same violation *set* must produce the same value.
/// Each string's byte length is folded before its bytes, so a message
/// containing an embedded separator cannot collide with a split pair. An
/// empty slice (a passing run) hashes to the FNV basis.
pub fn failure_fingerprint(violations: &[String]) -> u64 {
    let mut sorted: Vec<&str> = violations.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.into_iter().fold(FNV_BASIS, |hash, violation| {
        let bytes = violation.as_bytes();
        fnv1a(fnv1a(hash, &(bytes.len() as u64).to_le_bytes()), bytes)
    })
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str, index: usize) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("faults[{index}] is missing \"{key}\""))
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The minimal JSON value model the trace format needs.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Json>, String> {
        match self {
            Json::Object(map) => Ok(map),
            other => Err(format!("{what} must be an object, got {other:?}")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{what} must be an array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("{what} must be a string, got {other:?}")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Ok(*x as u64)
            }
            other => Err(format!(
                "{what} must be a non-negative integer, got {other:?}"
            )),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(char::from_u32(code).ok_or("\\u escape outside the BMP")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged; the input is a &str so it's valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "mc-flat3".to_string(),
            n: 3,
            c: 1,
            steps: 2,
            seed: 42,
            failure: Some(
                "plan scripted 1 stale/duplicate frames but the master counted only 0".to_string(),
            ),
            fingerprint: Some(0x00a1_b2c3_d4e5_f607),
            faults: vec![
                Fault {
                    worker: 0,
                    step: 1,
                    kind: FaultKind::Stale,
                },
                Fault {
                    worker: 2,
                    step: 0,
                    kind: FaultKind::Delay(25),
                },
            ],
            master_crashes: vec![1],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let t = sample();
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
        // And the rendered plan carries the faults verbatim.
        assert_eq!(parsed.plan().faults, t.faults);
        assert_eq!(parsed.plan().master_crashes, vec![1]);
        assert_eq!(parsed.plan().name, "mc-flat3");
    }

    #[test]
    fn optional_fields_can_be_absent() {
        let text = r#"{"name": "bare", "n": 4, "c": 2, "steps": 3, "seed": 7, "faults": []}"#;
        let t = Trace::from_json(text).unwrap();
        assert_eq!(t.failure, None);
        assert_eq!(t.fingerprint, None);
        assert!(t.faults.is_empty());
        assert!(t.master_crashes.is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Trace::from_json("").is_err());
        assert!(Trace::from_json("[]").unwrap_err().contains("object"));
        assert!(Trace::from_json(r#"{"name": "x"}"#)
            .unwrap_err()
            .contains("faults"));
        let bad_kind = r#"{"name":"x","n":3,"c":1,"steps":2,"seed":0,"faults":[{"worker":0,"step":0,"kind":"melt"}]}"#;
        assert!(Trace::from_json(bad_kind)
            .unwrap_err()
            .contains("unknown fault kind"));
        let no_ms = r#"{"name":"x","n":3,"c":1,"steps":2,"seed":0,"faults":[{"worker":0,"step":0,"kind":"delay"}]}"#;
        assert!(Trace::from_json(no_ms).unwrap_err().contains("ms"));
        assert!(Trace::from_json(r#"{"name":"x"} trailing"#)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn escapes_survive_the_round_trip() {
        let mut t = sample();
        t.failure = Some("line one\nquote \" and backslash \\".to_string());
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed.failure, t.failure);
    }

    #[test]
    fn failure_fingerprint_is_order_insensitive() {
        let a = vec![
            "first violation".to_string(),
            "second violation".to_string(),
        ];
        let b = vec![
            "second violation".to_string(),
            "first violation".to_string(),
        ];
        assert_eq!(failure_fingerprint(&a), failure_fingerprint(&b));
        assert_ne!(failure_fingerprint(&a), failure_fingerprint(&a[..1]));
        // The length fold keeps concatenations distinct from splits (a
        // plain separator byte would collide with an embedded one).
        let joined = vec!["first violation\nsecond violation".to_string()];
        assert_ne!(failure_fingerprint(&a), failure_fingerprint(&joined));
        // A passing run has a stable, documented fingerprint: the basis.
        assert_eq!(failure_fingerprint(&[]), 0xCBF2_9CE4_8422_2325);
    }
}
