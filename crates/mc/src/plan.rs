//! Fault plans: scripted, per-step, per-worker fault schedules.
//!
//! Every fault is keyed by **step index**, never wall clock, which is what
//! makes a chaos run replayable: the same plan against the same seed yields
//! the same per-step arrival sets, selections, and recovery counts no matter
//! how threads interleave. The named plans cover the runtime's failure
//! modes one at a time; [`FaultPlan::random`] composes them from a
//! [`ChaosRng`] seed so a fuzzed schedule that finds a bug
//! can be replayed byte-for-byte from its seed.

use isgc_engine::DegradePolicy;

use crate::{ChaosError, ChaosRng};

/// One kind of injected fault, applied by a chaos worker when it receives
/// the `Params` broadcast of the fault's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the connection instead of answering, then reconnect (a flap).
    /// The worker deterministically sits out this step and the next (it
    /// declines any step it rejoins mid-flight), contributing again from
    /// `step + 2`.
    Drop,
    /// Send a frame with a flipped byte instead of the codeword. The master
    /// tears the connection down on the malformed frame; the worker then
    /// behaves like [`FaultKind::Drop`].
    Corrupt,
    /// Send a truncated frame then close. Same recovery as
    /// [`FaultKind::Corrupt`].
    Truncate,
    /// Straggle: sleep this many milliseconds before sending the codeword.
    /// Changes timing only — the arrival set is unaffected because the
    /// chaos harness waits for every live worker each step.
    Delay(u64),
    /// Send the codeword twice; the duplicate must be counted stale, never
    /// double-applied.
    Duplicate,
    /// Send a codeword tagged with the previous step (a straggler finishing
    /// an old round), then decline the current one. The stale frame must be
    /// discarded by step tag.
    Stale,
    /// Send `Decline` instead of a codeword: the fast-fail straggler path.
    Decline,
    /// Close the connection and never return. With repair enabled the
    /// master eventually declares this worker permanently dead and re-homes
    /// its partitions.
    Die,
}

impl FaultKind {
    /// Whether this fault removes the worker's codeword from the fault's
    /// step (and, for connection-killing faults, the next step too).
    pub(crate) fn suppresses_codeword(self) -> bool {
        !matches!(self, FaultKind::Delay(_) | FaultKind::Duplicate)
    }

    /// Whether this fault kills the connection, costing the *next* step as
    /// well while the worker flaps back in.
    pub(crate) fn kills_connection(self) -> bool {
        matches!(
            self,
            FaultKind::Drop | FaultKind::Corrupt | FaultKind::Truncate | FaultKind::Die
        )
    }

    /// What a worker does instead of answering the `Params` broadcast of
    /// `step` honestly — the one table both fault interpreters read: the
    /// chaos client performs it as bytes on its socket
    /// ([`crate::worker::perform`]), the model checker as events on its
    /// virtual network.
    pub(crate) fn script(self, step: u64) -> Vec<Action> {
        // A flapped worker sits out the faulted step and the next one.
        let rejoin = Action::Rejoin {
            decline_until: step + 2,
        };
        match self {
            FaultKind::Drop => vec![rejoin],
            FaultKind::Corrupt => vec![
                Action::Mangled {
                    step,
                    how: Mangle::FlippedMagic,
                },
                rejoin,
            ],
            FaultKind::Truncate => vec![
                Action::Mangled {
                    step,
                    how: Mangle::Halved,
                },
                rejoin,
            ],
            FaultKind::Delay(ms) => vec![Action::Sleep(ms), Action::Honest { step }],
            FaultKind::Duplicate => vec![Action::Honest { step }, Action::Honest { step }],
            // A straggler finishing the previous round: computed from the
            // *current* params but tagged (and batched) for step − 1, then a
            // decline for the step actually underway.
            FaultKind::Stale => match step.checked_sub(1) {
                Some(previous) => vec![Action::Honest { step: previous }, Action::Decline { step }],
                None => vec![Action::Decline { step }],
            },
            FaultKind::Decline => vec![Action::Decline { step }],
            FaultKind::Die => vec![Action::Exit],
        }
    }

    /// Stable lowercase name, used as the `kind` label on fault counters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Delay(_) => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Stale => "stale",
            FaultKind::Decline => "decline",
            FaultKind::Die => "die",
        }
    }
}

/// One abstract move of a misbehaving worker (see [`FaultKind::script`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Stall for this many milliseconds.
    Sleep(u64),
    /// Send the honest codeword tagged and batched for `step`.
    Honest {
        /// The step the codeword claims.
        step: u64,
    },
    /// Send `Decline` for `step`.
    Decline {
        /// The step declined.
        step: u64,
    },
    /// Send the honest codeword frame for `step`, damaged.
    Mangled {
        /// The step the undamaged frame would claim.
        step: u64,
        /// The damage.
        how: Mangle,
    },
    /// Close the connection and handshake again, sitting out every step
    /// below `decline_until`.
    Rejoin {
        /// First step the rejoined worker answers honestly again.
        decline_until: u64,
    },
    /// Close the connection and never return.
    Exit,
}

/// How a [`Action::Mangled`] frame is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mangle {
    /// First magic byte flipped.
    FlippedMagic,
    /// Only the first half of the frame is sent.
    Halved,
}

/// One scripted fault: `worker` misbehaves per `kind` at `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The worker that misbehaves.
    pub worker: usize,
    /// The training step whose `Params` broadcast triggers the fault.
    pub step: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A complete scripted fault schedule for one chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name (shown in reports; named plans replay by name).
    pub name: String,
    /// Worker faults, in no particular order; at most one per
    /// `(worker, step)` pair is honored (the first listed wins).
    pub faults: Vec<Fault>,
    /// Steps after which the master crashes cold (no shutdown broadcast)
    /// and is restarted by the harness to resume from its checkpoint.
    pub master_crashes: Vec<u64>,
}

/// Names accepted by [`FaultPlan::named`].
pub const PLAN_NAMES: &[&str] = &[
    "smoke",
    "worker-flap",
    "worker-crash",
    "master-restart",
    "frame-corrupt",
    "delay",
    "duplicate-stale",
    "blackout",
    "slow-bleed",
    "random",
];

impl FaultPlan {
    /// A plan with no faults at all (baseline).
    pub fn quiet(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            faults: Vec::new(),
            master_crashes: Vec::new(),
        }
    }

    /// Builds a named plan for a cluster of `n` workers running `steps`
    /// steps. `seed` only matters for `"random"`. Returns `None` for an
    /// unknown name; see [`PLAN_NAMES`].
    pub fn named(name: &str, seed: u64, n: usize, steps: u64) -> Option<Self> {
        let mid = steps / 2;
        let last = n.saturating_sub(1);
        let plan = match name {
            "smoke" => FaultPlan {
                name: name.into(),
                faults: vec![
                    Fault {
                        worker: 1 % n,
                        step: 1,
                        kind: FaultKind::Delay(40),
                    },
                    Fault {
                        worker: last,
                        step: 2,
                        kind: FaultKind::Decline,
                    },
                ],
                master_crashes: Vec::new(),
            },
            "worker-flap" => FaultPlan {
                name: name.into(),
                faults: vec![Fault {
                    worker: last,
                    step: 2.min(steps.saturating_sub(3)),
                    kind: FaultKind::Drop,
                }],
                master_crashes: Vec::new(),
            },
            "worker-crash" => FaultPlan {
                name: name.into(),
                faults: vec![Fault {
                    worker: last,
                    step: 1.min(steps.saturating_sub(4)),
                    kind: FaultKind::Die,
                }],
                master_crashes: Vec::new(),
            },
            "master-restart" => FaultPlan {
                name: name.into(),
                faults: Vec::new(),
                master_crashes: vec![mid],
            },
            "frame-corrupt" => FaultPlan {
                name: name.into(),
                faults: vec![
                    Fault {
                        worker: 1 % n,
                        step: 1,
                        kind: FaultKind::Corrupt,
                    },
                    Fault {
                        worker: last,
                        step: mid.max(3),
                        kind: FaultKind::Truncate,
                    },
                ],
                master_crashes: Vec::new(),
            },
            "delay" => FaultPlan {
                name: name.into(),
                faults: (0..steps)
                    .filter(|s| s % 2 == 1)
                    .map(|step| Fault {
                        worker: (step as usize) % n,
                        step,
                        kind: FaultKind::Delay(50),
                    })
                    .collect(),
                master_crashes: Vec::new(),
            },
            "duplicate-stale" => FaultPlan {
                name: name.into(),
                faults: vec![
                    Fault {
                        worker: 1 % n,
                        step: 1,
                        kind: FaultKind::Duplicate,
                    },
                    Fault {
                        worker: last,
                        step: 3.min(steps.saturating_sub(1)),
                        kind: FaultKind::Stale,
                    },
                ],
                master_crashes: Vec::new(),
            },
            "blackout" => {
                // Every worker declines for a two-step window mid-run: the
                // master completes those steps with zero arrivals and the
                // engine's degrade ladder decides what happens. Declines
                // (not drops) keep every connection alive, so the steps
                // finish instead of hanging on dead sockets.
                let start = mid.min(steps.saturating_sub(3)).max(1);
                let window = 2u64.min(steps.saturating_sub(start + 1));
                FaultPlan {
                    name: name.into(),
                    faults: (start..start + window)
                        .flat_map(|step| {
                            (0..n).map(move |worker| Fault {
                                worker,
                                step,
                                kind: FaultKind::Decline,
                            })
                        })
                        .collect(),
                    master_crashes: Vec::new(),
                }
            }
            "slow-bleed" => {
                // Progressive starvation: one more worker declines each
                // step until a single contributor remains, then everyone
                // rejoins for the final steps. Coverage bleeds 5/6 → 1/6
                // (on the default FR(6,2) cluster) and recovers, walking
                // the ladder from exact through approximate and back.
                let quiet_tail = 2u64.min(steps.saturating_sub(1));
                FaultPlan {
                    name: name.into(),
                    faults: (1..steps.saturating_sub(quiet_tail))
                        .flat_map(|step| {
                            let bled = (step as usize).min(n.saturating_sub(1));
                            (0..bled).map(move |worker| Fault {
                                worker,
                                step,
                                kind: FaultKind::Decline,
                            })
                        })
                        .collect(),
                    master_crashes: Vec::new(),
                }
            }
            "random" => Self::random(seed, n, steps),
            _ => return None,
        };
        Some(plan)
    }

    /// A seeded random schedule: each step has a chance of one benign
    /// worker fault (delay, decline, duplicate, stale, drop, corrupt). The
    /// same seed always generates the same schedule, so a failing fuzz run
    /// replays exactly. Never includes `Die` or master crashes — those have
    /// dedicated plans because they change the run's shape (repair,
    /// resume), and a fuzzer stacking them can starve every step.
    pub(crate) fn random(seed: u64, n: usize, steps: u64) -> Self {
        let mut rng = ChaosRng::new(seed).fork("random-plan");
        let mut faults = Vec::new();
        // Track which workers are mid-flap so consecutive connection kills
        // can't pile up and empty a step's contributor set.
        let mut flapping_until = vec![0u64; n];
        for step in 1..steps {
            if !rng.next_bool(0.45) {
                continue;
            }
            let worker = rng.next_below(n as u64) as usize;
            if flapping_until[worker] > step {
                continue;
            }
            let kind = match rng.next_below(6) {
                0 => FaultKind::Delay(20 + rng.next_below(60)),
                1 => FaultKind::Decline,
                2 => FaultKind::Duplicate,
                3 => FaultKind::Stale,
                4 => FaultKind::Drop,
                _ => FaultKind::Corrupt,
            };
            if kind.kills_connection() {
                flapping_until[worker] = step + 2;
            }
            faults.push(Fault { worker, step, kind });
        }
        FaultPlan {
            name: format!("random[{seed}]"),
            faults,
            master_crashes: Vec::new(),
        }
    }

    /// The fault scripted for `(worker, step)`, if any.
    pub(crate) fn fault_for(&self, worker: usize, step: u64) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.worker == worker && f.step == step)
            .map(|f| f.kind)
    }

    /// Whether any worker dies permanently (the harness then enables
    /// placement repair on the master).
    pub(crate) fn has_deaths(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::Die)
    }

    /// Workers able to contribute a codeword at `step`: not dead, not
    /// suppressing their codeword this step, and not mid-flap from a
    /// connection kill on the previous step.
    pub(crate) fn contributors_at(&self, step: u64, n: usize) -> usize {
        (0..n)
            .filter(|&w| {
                let dead = self
                    .faults
                    .iter()
                    .any(|f| f.worker == w && f.kind == FaultKind::Die && f.step <= step);
                let suppressed_now = self
                    .fault_for(w, step)
                    .is_some_and(FaultKind::suppresses_codeword);
                let flapping = step > 0
                    && self
                        .fault_for(w, step - 1)
                        .is_some_and(FaultKind::kills_connection);
                !dead && !suppressed_now && !flapping
            })
            .count()
    }

    /// The weakest [`DegradePolicy`] under which this plan's scripted
    /// starvation completes instead of aborting: [`DegradePolicy::Fail`]
    /// when every step keeps a majority of contributors, otherwise
    /// [`DegradePolicy::Approximate`] with `max_consecutive` sized one
    /// above the longest lean streak — the scripted degradation never
    /// escalates, while a longer unscripted streak still would.
    pub fn recommended_policy(&self, n: usize, steps: u64) -> DegradePolicy {
        let mut worst = 0u64;
        let mut streak = 0u64;
        for step in 0..steps {
            if 2 * self.contributors_at(step, n) <= n {
                streak += 1;
                worst = worst.max(streak);
            } else {
                streak = 0;
            }
        }
        if worst == 0 {
            return DegradePolicy::Fail;
        }
        DegradePolicy::Approximate {
            max_consecutive: worst + 1,
            min_coverage: 0.5,
        }
    }

    /// Checks the plan is runnable against a cluster of `n` workers for
    /// `steps` steps under the given degrade policy.
    ///
    /// # Errors
    ///
    /// [`ChaosError::InvalidPlan`] when a fault references a worker or step
    /// out of range, when deaths are combined with master crashes (a
    /// resumed master waits for all workers to re-register, which a dead
    /// worker never does), or when some step would be left with no
    /// contributing worker at all — tolerated under a non-`Fail` policy,
    /// but only when every absence is a connection-preserving decline (a
    /// fully dark step must still *complete*, and a dead socket hangs it).
    pub(crate) fn validate(
        &self,
        n: usize,
        steps: u64,
        degrade: &DegradePolicy,
    ) -> Result<(), ChaosError> {
        for f in &self.faults {
            if f.worker >= n {
                return Err(ChaosError::InvalidPlan(format!(
                    "fault references worker {} in a cluster of {n}",
                    f.worker
                )));
            }
            if f.step >= steps {
                return Err(ChaosError::InvalidPlan(format!(
                    "fault at step {} beyond the run's {steps} steps",
                    f.step
                )));
            }
        }
        for &s in &self.master_crashes {
            if s >= steps {
                return Err(ChaosError::InvalidPlan(format!(
                    "master crash after step {s} beyond the run's {steps} steps"
                )));
            }
        }
        if self.has_deaths() && !self.master_crashes.is_empty() {
            return Err(ChaosError::InvalidPlan(
                "a plan cannot combine worker deaths with master restarts: \
                 the resumed master waits for every worker to re-register"
                    .into(),
            ));
        }
        // A step with no contributor at all aborts a Fail-policy run; under
        // skip/approx it must still complete, which only declines guarantee.
        for step in 0..steps {
            if self.contributors_at(step, n) > 0 {
                continue;
            }
            if matches!(degrade, DegradePolicy::Fail) {
                return Err(ChaosError::InvalidPlan(format!(
                    "step {step} would have no contributing worker; the Fail \
                     degrade policy aborts there — run skip or approx to \
                     ride out the blackout"
                )));
            }
            let every_absence_declines = (0..n).all(|w| {
                let alive_fault = self
                    .fault_for(w, step)
                    .is_some_and(|k| k.suppresses_codeword() && !k.kills_connection());
                let dead_before = self
                    .faults
                    .iter()
                    .any(|f| f.worker == w && f.kind == FaultKind::Die && f.step < step);
                alive_fault && !dead_before
            });
            if !every_absence_declines {
                return Err(ChaosError::InvalidPlan(format!(
                    "step {step} has no contributor and at least one absence \
                     closes its connection; a fully dark step only completes \
                     when every worker declines"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_plan_builds_and_validates() {
        for &name in PLAN_NAMES {
            let plan = FaultPlan::named(name, 42, 6, 8).expect(name);
            let policy = plan.recommended_policy(6, 8);
            plan.validate(6, 8, &policy)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(FaultPlan::named("no-such-plan", 0, 6, 8).is_none());
    }

    #[test]
    fn recommended_policy_matches_plan_shape() {
        let quiet = FaultPlan::quiet("t");
        assert_eq!(quiet.recommended_policy(6, 8), DegradePolicy::Fail);
        let flap = FaultPlan::named("worker-flap", 0, 6, 8).unwrap();
        assert_eq!(flap.recommended_policy(6, 8), DegradePolicy::Fail);

        // blackout starves two consecutive steps entirely: the recommended
        // policy sizes max_consecutive one above that streak.
        let blackout = FaultPlan::named("blackout", 0, 6, 8).unwrap();
        for step in [4, 5] {
            assert_eq!(blackout.contributors_at(step, 6), 0, "step {step}");
        }
        assert_eq!(
            blackout.recommended_policy(6, 8),
            DegradePolicy::Approximate {
                max_consecutive: 3,
                min_coverage: 0.5,
            }
        );

        // slow-bleed thins contributors one per step, never to zero.
        let bleed = FaultPlan::named("slow-bleed", 0, 6, 8).unwrap();
        let per_step: Vec<usize> = (0..8).map(|s| bleed.contributors_at(s, 6)).collect();
        assert_eq!(per_step, vec![6, 5, 4, 3, 2, 1, 6, 6]);
        assert_eq!(
            bleed.recommended_policy(6, 8),
            DegradePolicy::Approximate {
                max_consecutive: 4,
                min_coverage: 0.5,
            }
        );
    }

    #[test]
    fn starved_steps_need_a_lenient_policy_and_live_connections() {
        let blackout = FaultPlan::named("blackout", 0, 6, 8).unwrap();
        assert!(
            blackout.validate(6, 8, &DegradePolicy::Fail).is_err(),
            "a fully dark step must be rejected under Fail"
        );
        blackout
            .validate(6, 8, &DegradePolicy::Skip)
            .expect("declined blackout completes under skip");
        blackout
            .validate(6, 8, &DegradePolicy::approximate_default())
            .expect("declined blackout completes under approx");

        // The same starvation via connection kills would hang the wait, so
        // it is rejected even under a lenient policy.
        let mut dropped = blackout.clone();
        for f in &mut dropped.faults {
            f.kind = FaultKind::Drop;
        }
        assert!(dropped
            .validate(6, 8, &DegradePolicy::approximate_default())
            .is_err());
    }

    #[test]
    fn random_plans_replay_from_seed() {
        let a = FaultPlan::random(7, 6, 12);
        let b = FaultPlan::random(7, 6, 12);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 6, 12);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn random_plans_validate_across_seeds() {
        for seed in 0..200 {
            let plan = FaultPlan::random(seed, 5, 10);
            plan.validate(5, 10, &DegradePolicy::Fail)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let fail = DegradePolicy::Fail;
        let mut plan = FaultPlan::quiet("t");
        plan.faults.push(Fault {
            worker: 9,
            step: 0,
            kind: FaultKind::Decline,
        });
        assert!(plan.validate(4, 8, &fail).is_err(), "worker out of range");

        let mut plan = FaultPlan::quiet("t");
        plan.faults.push(Fault {
            worker: 0,
            step: 99,
            kind: FaultKind::Decline,
        });
        assert!(plan.validate(4, 8, &fail).is_err(), "step out of range");

        let mut plan = FaultPlan::quiet("t");
        plan.faults.push(Fault {
            worker: 0,
            step: 1,
            kind: FaultKind::Die,
        });
        plan.master_crashes.push(3);
        assert!(plan.validate(4, 8, &fail).is_err(), "death + restart");

        let mut plan = FaultPlan::quiet("t");
        for w in 0..4 {
            plan.faults.push(Fault {
                worker: w,
                step: 2,
                kind: FaultKind::Decline,
            });
        }
        assert!(plan.validate(4, 8, &fail).is_err(), "empty step under Fail");
        plan.validate(4, 8, &DegradePolicy::Skip)
            .expect("empty declined step rides on skip");
    }

    #[test]
    fn fault_lookup_honors_first_match() {
        let plan = FaultPlan {
            name: "t".into(),
            faults: vec![
                Fault {
                    worker: 2,
                    step: 3,
                    kind: FaultKind::Decline,
                },
                Fault {
                    worker: 2,
                    step: 3,
                    kind: FaultKind::Drop,
                },
            ],
            master_crashes: vec![],
        };
        assert_eq!(plan.fault_for(2, 3), Some(FaultKind::Decline));
        assert_eq!(plan.fault_for(2, 4), None);
        assert_eq!(plan.fault_for(1, 3), None);
    }
}
