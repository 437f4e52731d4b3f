//! One retry policy for every reconnection path in the runtime.
//!
//! PR 1 grew three ad-hoc backoff loops (worker initial connect, worker
//! reconnect, heartbeat write retries); they disagreed on capping and none
//! jittered, so a restarted master was greeted by every worker dialing on
//! the same schedule — a thundering herd. [`RetryPolicy`] unifies them:
//! exponential backoff with a hard cap, a bounded attempt count, and
//! *deterministic* jitter derived from a salt (typically the worker id), so
//! peers spread out without introducing nondeterminism that would break
//! seeded chaos replay.

use std::time::Duration;

use isgc_core::hash::{mix64, GOLDEN_GAMMA};

/// Exponential backoff with cap, bounded attempts, and deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the second attempt (the first runs immediately).
    pub base: Duration,
    /// Multiplier applied to the delay after every failed attempt.
    pub factor: u32,
    /// Upper bound on any single delay, pre-jitter.
    pub cap: Duration,
    /// Total attempts made before giving up (at least 1).
    pub max_attempts: u32,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor drawn from `[1 − jitter/2, 1 + jitter/2]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(50),
            factor: 2,
            cap: Duration::from_secs(2),
            max_attempts: 8,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The delay to sleep *before* attempt `attempt` (0-based). Attempt 0
    /// runs immediately; later delays grow by `factor`, saturate at `cap`,
    /// and are jittered deterministically by `salt` so distinct peers using
    /// the same policy spread their retries apart.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let mut d = self.base;
        for _ in 1..attempt {
            d = d.saturating_mul(self.factor).min(self.cap);
        }
        d = d.min(self.cap);
        if self.jitter <= 0.0 {
            return d;
        }
        // splitmix64 of (salt, attempt) → uniform factor in
        // [1 − jitter/2, 1 + jitter/2]. Pure function of its inputs: the
        // same peer retries on the same schedule every run.
        let x = salt ^ u64::from(attempt).wrapping_mul(GOLDEN_GAMMA);
        let z = mix64(x.wrapping_add(GOLDEN_GAMMA));
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 + self.jitter * (unit - 0.5);
        Duration::from_secs_f64(d.as_secs_f64() * scale)
    }

    /// Runs `op` up to `max_attempts` times, sleeping the policy's delay
    /// between attempts; returns the first success or the last error.
    ///
    /// # Errors
    ///
    /// The error of the final failed attempt.
    pub fn run<T, E>(&self, salt: u64, mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            let pause = self.delay(attempt, salt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_is_immediate() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(0, 123), Duration::ZERO);
    }

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            base: Duration::from_millis(100),
            factor: 2,
            cap: Duration::from_millis(350),
            max_attempts: 6,
            jitter: 0.0,
        };
        assert_eq!(p.delay(1, 0), Duration::from_millis(100));
        assert_eq!(p.delay(2, 0), Duration::from_millis(200));
        assert_eq!(p.delay(3, 0), Duration::from_millis(350)); // capped
        assert_eq!(p.delay(9, 0), Duration::from_millis(350));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            base: Duration::from_millis(100),
            factor: 2,
            cap: Duration::from_secs(1),
            max_attempts: 4,
            jitter: 0.5,
        };
        for attempt in 1..4 {
            for salt in 0..8u64 {
                let a = p.delay(attempt, salt);
                let b = p.delay(attempt, salt);
                assert_eq!(a, b, "jitter must be a pure function");
                let nominal = p.delay(attempt, salt).as_secs_f64() / 1.0;
                let unjittered = RetryPolicy {
                    jitter: 0.0,
                    ..p.clone()
                }
                .delay(attempt, salt)
                .as_secs_f64();
                assert!(nominal >= unjittered * 0.75 - 1e-9);
                assert!(nominal <= unjittered * 1.25 + 1e-9);
            }
        }
        // Different salts actually spread.
        assert_ne!(p.delay(1, 1), p.delay(1, 2));
    }

    #[test]
    fn run_stops_on_success_and_reports_last_error() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            factor: 1,
            cap: Duration::from_millis(1),
            max_attempts: 3,
            jitter: 0.0,
        };
        let mut calls = 0;
        let ok: Result<u32, &str> = p.run(0, || {
            calls += 1;
            if calls == 2 {
                Ok(7)
            } else {
                Err("nope")
            }
        });
        assert_eq!(ok, Ok(7));
        assert_eq!(calls, 2);

        let mut calls = 0;
        let err: Result<u32, String> = p.run(0, || {
            calls += 1;
            Err(format!("fail {calls}"))
        });
        assert_eq!(err, Err("fail 3".to_string()));
    }
}
