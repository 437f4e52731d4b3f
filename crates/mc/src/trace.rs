//! Replayable counterexample traces.
//!
//! The model checker ([`crate::explore`]) explores an abstract cluster;
//! when it finds an invariant violation it writes the offending fault
//! schedule as a **trace**: a small text file naming the cluster shape,
//! the seed, the faults, and the failure fingerprint it expects. `isgc
//! chaos --plan <file>` reads the trace back into a [`FaultPlan`] and
//! replays it on a genuine loopback TCP cluster, closing the loop between
//! the model and the real protocol.
//!
//! One `key value` fact per line; a line starting with `#` is a comment,
//! and blank lines are skipped. A fault is `fault <worker> <step> <kind>`,
//! and a `delay` adds its milliseconds. Every integer is a decimal `u64`
//! except the fingerprint, which is 16 hex digits and may be absent.
//!
//! ```text
//! name mc-flat3
//! n 3
//! c 1
//! steps 2
//! seed 7
//! fingerprint 6b6f190132f41daa
//! fault 2 1 stale
//! fault 0 0 delay 25
//! ```

use std::fmt::Display;
use std::str::FromStr;

use isgc_core::hash::{fnv1a, FNV_BASIS};

use crate::plan::{Fault, FaultKind, FaultPlan};

/// A serialized counterexample: cluster shape + fault schedule + the
/// failure fingerprint the producer observed (if any).
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
    /// The producer's failure fingerprint (FNV-1a over its violation
    /// strings), if the trace records a failing run. A replay reproduces
    /// the bug exactly when its own failure fingerprint matches.
    pub fingerprint: Option<u64>,
    /// The fault schedule.
    pub faults: Vec<Fault>,
}

impl Trace {
    /// The fault plan this trace replays.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan {
            name: self.name.clone(),
            faults: self.faults.clone(),
            master_crashes: Vec::new(),
        }
    }

    /// Renders the trace in its line format. The name is written as is, so
    /// it must be one line to read back.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "name {}\nn {}\nc {}\nsteps {}\nseed {}\n",
            self.name, self.n, self.c, self.steps, self.seed
        );
        if let Some(fp) = self.fingerprint {
            out.push_str(&format!("fingerprint {fp:016x}\n"));
        }
        for f in &self.faults {
            out.push_str(&format!("fault {} {} {}", f.worker, f.step, f.kind.label()));
            if let FaultKind::Delay(ms) = f.kind {
                out.push_str(&format!(" {ms}"));
            }
            out.push('\n');
        }
        out
    }

    /// Reads a trace from its line format.
    ///
    /// # Errors
    ///
    /// A message naming the offending line for an unknown or repeated key,
    /// a bad number, or a fault of the wrong shape; a message naming the
    /// key when `name`, `n`, `c`, `steps` or `seed` is missing.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let (mut name, mut n, mut c, mut steps, mut seed) = (None, None, None, None, None);
        let mut fingerprint = None;
        let mut faults = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let value = value.trim();
            match key {
                "name" if value.is_empty() => Err("name has no value".to_string()),
                "name" => set(&mut name, key, Ok(value.to_string())),
                "n" => set(&mut n, key, number(value)),
                "c" => set(&mut c, key, number(value)),
                "steps" => set(&mut steps, key, number(value)),
                "seed" => set(&mut seed, key, number(value)),
                "fingerprint" => set(
                    &mut fingerprint,
                    key,
                    u64::from_str_radix(value, 16)
                        .map_err(|e| format!("bad fingerprint \"{value}\": {e}")),
                ),
                "fault" => fault(value).map(|f| faults.push(f)),
                other => Err(format!("unknown key \"{other}\"")),
            }
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        let missing = |key: &str| format!("trace is missing \"{key}\"");
        Ok(Trace {
            name: name.ok_or_else(|| missing("name"))?,
            n: n.ok_or_else(|| missing("n"))?,
            c: c.ok_or_else(|| missing("c"))?,
            steps: steps.ok_or_else(|| missing("steps"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            fingerprint,
            faults,
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

/// Stores a key's value, refusing a second occurrence of the key.
fn set<T>(slot: &mut Option<T>, key: &str, value: Result<T, String>) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("repeated key \"{key}\""));
    }
    *slot = Some(value?);
    Ok(())
}

fn number<T: FromStr>(word: &str) -> Result<T, String>
where
    T::Err: Display,
{
    word.parse()
        .map_err(|e| format!("bad number \"{word}\": {e}"))
}

/// Reads `<worker> <step> <kind>`, plus the milliseconds of a `delay`.
fn fault(value: &str) -> Result<Fault, String> {
    let words: Vec<&str> = value.split_whitespace().collect();
    let [worker, step, kind, extra @ ..] = words.as_slice() else {
        return Err(format!(
            "a fault is \"fault <worker> <step> <kind>\", got \"fault {value}\""
        ));
    };
    let kind = match (*kind, extra) {
        ("delay", [ms]) => FaultKind::Delay(number(ms)?),
        ("delay", _) => return Err("a delay fault takes one number, its milliseconds".into()),
        (kind, [_, ..]) => return Err(format!("a {kind} fault takes no extra number")),
        ("drop", []) => FaultKind::Drop,
        ("corrupt", []) => FaultKind::Corrupt,
        ("truncate", []) => FaultKind::Truncate,
        ("duplicate", []) => FaultKind::Duplicate,
        ("stale", []) => FaultKind::Stale,
        ("decline", []) => FaultKind::Decline,
        ("die", []) => FaultKind::Die,
        (other, []) => return Err(format!("unknown fault kind \"{other}\"")),
    };
    Ok(Fault {
        worker: number(worker)?,
        step: number(step)?,
        kind,
    })
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
            seed: 7,
            fingerprint: Some(0x6b6f_1901_32f4_1daa),
            faults: vec![
                Fault {
                    worker: 2,
                    step: 1,
                    kind: FaultKind::Stale,
                },
                Fault {
                    worker: 0,
                    step: 0,
                    kind: FaultKind::Delay(25),
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_text() {
        let mut t = sample();
        t.seed = u64::MAX;
        let parsed = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(parsed, t);
        // And the rendered plan carries the faults verbatim.
        assert_eq!(parsed.plan().faults, t.faults);
        assert!(parsed.plan().master_crashes.is_empty());
        assert_eq!(parsed.plan().name, "mc-flat3");
        // Comments, blank lines and surrounding blanks are skipped.
        let commented = format!("# a violation\n\n{}  # indented\n", t.to_text());
        assert_eq!(Trace::from_text(&commented).unwrap(), t);
    }

    #[test]
    fn the_rendered_text_is_pinned() {
        // Byte for byte: the trace format is a file format, so the same
        // trace renders the same text in every build.
        assert_eq!(
            sample().to_text(),
            "name mc-flat3\nn 3\nc 1\nsteps 2\nseed 7\nfingerprint 6b6f190132f41daa\n\
             fault 2 1 stale\nfault 0 0 delay 25\n"
        );
    }

    #[test]
    fn a_trace_without_fingerprint_or_faults_reads_back() {
        let t = Trace::from_text("name bare\nn 4\nc 2\nsteps 3\nseed 7\n").unwrap();
        assert_eq!(t.fingerprint, None);
        assert!(t.faults.is_empty());
        assert_eq!(
            (t.name.as_str(), t.n, t.c, t.steps, t.seed),
            ("bare", 4, 2, 3, 7)
        );
    }

    #[test]
    fn rejects_malformed_traces_naming_the_line() {
        let base = "name x\nn 3\nc 1\nsteps 2\nseed 0\n";
        let err = |extra: &str| Trace::from_text(&format!("{base}{extra}")).unwrap_err();
        assert!(err("melt 1\n").contains("line 6: unknown key \"melt\""));
        assert!(err("seed 1\n").contains("line 6: repeated key \"seed\""));
        assert!(err("fingerprint 1\nfingerprint 2\n").contains("line 7: repeated key"));
        assert!(err("fingerprint xyz\n").contains("line 6: bad fingerprint"));
        assert!(err("fault 0 x stale\n").contains("line 6: bad number \"x\""));
        assert!(err("fault 0 1\n").contains("line 6: a fault is"));
        assert!(err("fault 0 1 melt\n").contains("line 6: unknown fault kind \"melt\""));
        assert!(err("fault 0 1 delay\n").contains("line 6: a delay fault takes one number"));
        assert!(err("fault 0 1 delay 5 6\n").contains("line 6: a delay fault"));
        assert!(err("fault 0 1 stale 5\n").contains("line 6: a stale fault takes no extra"));
        // One past u64::MAX, a negative and a fractional number are bad.
        for bad in ["18446744073709551616", "-1", "1.5", ""] {
            let text = base.replace("seed 0", &format!("seed {bad}"));
            assert!(
                Trace::from_text(&text)
                    .unwrap_err()
                    .contains("line 5: bad number"),
                "{bad}"
            );
        }
        assert!(Trace::from_text(&base.replace("name x", "name"))
            .unwrap_err()
            .contains("line 1: name has no value"));
        for key in ["name", "n", "c", "steps", "seed"] {
            let text: String = base
                .lines()
                .filter(|l| l.split_whitespace().next() != Some(key))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(
                Trace::from_text(&text).unwrap_err(),
                format!("trace is missing \"{key}\"")
            );
        }
        assert!(Trace::from_text("").is_err());
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
