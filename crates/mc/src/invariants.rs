//! The report invariants, written once.
//!
//! Every IS-GC backend emits the same [`StepReport`] stream, so the
//! properties the paper and the protocol guarantee — recovery inside the
//! Theorem 10–11 interval and equal to the exact decoder's maximum, scripted
//! faults keeping their workers out, coherent degradation-ladder arithmetic,
//! stale frames discarded and counted — are asserted once, by
//! [`check_reports`], against any run: the loopback harness
//! ([`crate::run_chaos`]) and the model checker ([`crate::explore`]) both
//! call it and add only the checks that are theirs alone.
//!
//! The violation strings are **stable**: [`crate::failure_fingerprint`]
//! hashes them, and a model-checker counterexample replayed through `isgc
//! chaos` reproduces the bug exactly when it yields the same set.

use isgc_core::decode::{Decoder, ExactDecoder};
use isgc_core::{bounds, ConflictGraph, Placement, WorkerSet};
use isgc_engine::{StepOutcome, StepReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::plan::{Fault, FaultKind};

/// Checks a run's step reports over `placement` against every report
/// invariant, given the faults it was scripted with; returns one
/// human-readable violation per breach (empty = pass).
///
/// `expected_steps` is `Some` exactly when the run completed: it then must
/// hold that many reports, and the stale accounting is checked (a run cut
/// short may end before a duplicate's delivery window).
pub(crate) fn check_reports(
    placement: &Placement,
    reports: &[StepReport],
    faults: &[Fault],
    expected_steps: Option<usize>,
) -> Vec<String> {
    let mut violations = Vec::new();
    check_step_sequence(reports, expected_steps, &mut violations);
    check_recovery(placement, reports, &mut violations);
    check_absences(reports, faults, &mut violations);
    check_ladder(reports, &mut violations);
    if expected_steps.is_some() {
        check_stale(reports, faults, &mut violations);
    }
    violations
}

/// The run covers every step exactly once, in order — across master
/// restarts this is also the mid-run-resume check: a master restarting at
/// the wrong step duplicates or skips an index.
fn check_step_sequence(
    reports: &[StepReport],
    expected_steps: Option<usize>,
    violations: &mut Vec<String>,
) {
    for (i, r) in reports.iter().enumerate() {
        if r.step != i as u64 {
            violations.push(format!(
                "step sequence broken at position {i}: found step {}",
                r.step
            ));
        }
    }
    if let Some(expected) = expected_steps {
        if reports.len() != expected {
            violations.push(format!("expected {expected} steps, got {}", reports.len()));
        }
    }
}

/// Recovery bounds and decode-oracle equality, step by step, replaying
/// placement repair as it happened: up to the first repair, recovery lies
/// inside the Theorem 10–11 interval and equals the exact decoder's
/// maximum; from it on, an independent reconstruction of the repaired
/// decode.
fn check_recovery(placement: &Placement, reports: &[StepReport], violations: &mut Vec<String>) {
    let (n, c) = (placement.n(), placement.c());
    let oracle = ExactDecoder::new(placement);
    // The exact decoder is deterministic; the rng only satisfies the
    // `Decoder` trait.
    let mut rng = StdRng::seed_from_u64(0);
    let mut assignments: Vec<Vec<usize>> = (0..n)
        .map(|w| placement.partitions_of(w).to_vec())
        .collect();
    let mut repaired = false;
    for r in reports {
        for e in &r.repairs {
            let Some(pos) = assignments[e.from].iter().position(|&j| j == e.partition) else {
                violations.push(format!(
                    "step {}: repair moves partition {} which worker {} does not hold",
                    r.step, e.partition, e.from
                ));
                continue;
            };
            assignments[e.from].remove(pos);
            assignments[e.to].push(e.partition);
            assignments[e.to].sort_unstable();
            repaired = true;
        }
        let available = WorkerSet::from_indices(n, r.arrivals.iter().copied());
        let w = r.arrivals.len();
        if !repaired {
            if !bounds::recovery_within_bounds_of(placement, w, r.recovered) {
                let (lo, hi) = bounds::recovery_bounds_of(placement, w);
                violations.push(format!(
                    "step {}: recovered {} outside Theorem 10-11 bounds [{lo}, {hi}] for w={w}",
                    r.step, r.recovered
                ));
            }
            let best = oracle.decode(&available, &mut rng).recovered_count();
            if r.recovered != best {
                violations.push(format!(
                    "step {}: recovered {} but the exact decoder finds {best} for arrivals {:?}",
                    r.step, r.recovered, r.arrivals
                ));
            }
        } else {
            // Post-repair the placement is no longer the scheme's, so the
            // theorems do not apply verbatim; the contract is bounded
            // degradation: at least one worker's original load, at most
            // everything.
            if !(c..=n).contains(&r.recovered) {
                violations.push(format!(
                    "step {}: post-repair recovered {} outside [{c}, {n}]",
                    r.step, r.recovered
                ));
            }
            // Independent reconstruction of the repaired decode.
            let mut edges = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if assignments[a].iter().any(|p| assignments[b].contains(p)) {
                        edges.push((a, b));
                    }
                }
            }
            let graph = ConflictGraph::from_edges(n, &edges);
            let best: usize = graph
                .max_independent_set(&available)
                .iter()
                .map(|&w| assignments[w].len())
                .sum();
            if r.recovered != best {
                violations.push(format!(
                    "step {}: post-repair recovered {} but reconstruction finds {best}",
                    r.step, r.recovered
                ));
            }
        }
    }
}

/// Scripted absences: a fault that suppresses the codeword keeps the worker
/// out of that step's arrivals; connection kills also cost the next step; a
/// death costs every later step.
fn check_absences(reports: &[StepReport], faults: &[Fault], violations: &mut Vec<String>) {
    for f in faults.iter().filter(|f| f.kind.suppresses_codeword()) {
        let last = match f.kind {
            FaultKind::Die => u64::MAX,
            kind if kind.kills_connection() => f.step + 1,
            _ => f.step,
        };
        for r in reports.iter().filter(|r| (f.step..=last).contains(&r.step)) {
            if r.arrivals.contains(&f.worker) {
                violations.push(format!(
                    "worker {} arrived at step {} despite {:?} at step {}",
                    f.worker, r.step, f.kind, f.step
                ));
            }
        }
    }
}

/// Degradation-ladder arithmetic. The consecutive-degraded counter climbs
/// by one on every approx/skipped step and resets on exact steps — across
/// master restarts too, which is exactly what checkpointing the counter
/// buys (a resumed master must not forget a live streak); skipped steps
/// recover nothing; the bias weight is the exact inverse of coverage on the
/// approximate path, `1` on the exact path, and `0` when skipped.
fn check_ladder(reports: &[StepReport], violations: &mut Vec<String>) {
    let mut expected_streak = 0u64;
    for r in reports {
        expected_streak = if r.outcome.is_degraded() {
            expected_streak + 1
        } else {
            0
        };
        if r.consecutive_degraded != expected_streak {
            violations.push(format!(
                "step {}: consecutive-degraded counter is {} but the report \
                 sequence implies {expected_streak}",
                r.step, r.consecutive_degraded
            ));
        }
        if r.outcome == StepOutcome::Skipped && r.recovered != 0 {
            violations.push(format!(
                "step {}: skipped outcome with {} recovered partitions",
                r.step, r.recovered
            ));
        }
        match r.outcome {
            StepOutcome::Approx => {
                if (r.coverage * r.bias_weight - 1.0).abs() > 1e-9 {
                    violations.push(format!(
                        "step {}: approx bias weight {} is not the inverse of coverage {}",
                        r.step, r.bias_weight, r.coverage
                    ));
                }
            }
            StepOutcome::Exact => {
                if r.bias_weight != 1.0 {
                    violations.push(format!(
                        "step {}: exact outcome with bias weight {}",
                        r.step, r.bias_weight
                    ));
                }
            }
            StepOutcome::Skipped => {
                if r.bias_weight != 0.0 {
                    violations.push(format!(
                        "step {}: skipped outcome with bias weight {}",
                        r.step, r.bias_weight
                    ));
                }
            }
        }
    }
}

/// Stale accounting: every scripted stale or duplicate frame must be
/// discarded (counted), never double-applied. Counted across the whole run
/// because a duplicate can land in the next step's window.
fn check_stale(reports: &[StepReport], faults: &[Fault], violations: &mut Vec<String>) {
    let scripted_stale = faults
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::Stale | FaultKind::Duplicate) && f.step > 0)
        .count();
    let observed_stale: usize = reports.iter().map(|r| r.stale).sum();
    if observed_stale < scripted_stale {
        violations.push(format!(
            "plan scripted {scripted_stale} stale/duplicate frames but the master counted only \
             {observed_stale}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_engine::RepairEvent;

    fn fr42() -> Placement {
        Placement::fractional(4, 2).unwrap()
    }

    fn report(step: u64, arrivals: Vec<usize>, recovered: usize) -> StepReport {
        StepReport {
            step,
            arrivals,
            waited_ms: 0.0,
            duration: 0.0,
            decode_ms: 0.0,
            selected: vec![],
            recovered,
            bounds: None,
            ignored: vec![],
            dead: vec![],
            declined: vec![],
            repairs: vec![],
            stale: 0,
            failed_decode: false,
            outcome: StepOutcome::Exact,
            coverage: 0.0,
            bias_weight: 1.0,
            consecutive_degraded: 0,
            loss: 0.0,
        }
    }

    fn fault(worker: usize, step: u64, kind: FaultKind) -> Fault {
        Fault { worker, step, kind }
    }

    fn has(vs: &[String], needle: &str) -> bool {
        vs.iter().any(|v| v.contains(needle))
    }

    #[test]
    fn clean_run_passes() {
        let mut r0 = report(0, vec![0, 1, 2, 3], 4);
        r0.selected = vec![0, 2];
        let mut r1 = report(1, vec![0, 2], 4);
        r1.selected = vec![0, 2];
        assert_eq!(
            check_reports(&fr42(), &[r0, r1], &[], Some(2)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn broken_sequence_and_count_are_flagged() {
        assert!(check_reports(&fr42(), &[], &[], Some(0)).is_empty());
        assert_eq!(
            check_reports(&fr42(), &[], &[], Some(2)),
            vec!["expected 2 steps, got 0".to_string()]
        );
        let vs = check_reports(&fr42(), &[report(1, vec![0, 2], 4)], &[], Some(2));
        assert!(has(&vs, "step sequence broken"), "{vs:?}");
        assert!(has(&vs, "expected 2 steps, got 1"), "{vs:?}");
        // A run that did not complete owes no particular step count.
        let vs = check_reports(&fr42(), &[report(0, vec![0, 2], 4)], &[], None);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn bounds_and_oracle_breaches_are_flagged() {
        // Four arrivals but only 2 recovered: below the Theorem 10 floor,
        // and below the exact decoder's maximum of 4.
        let r = report(0, vec![0, 1, 2, 3], 2);
        let vs = check_reports(&fr42(), &[r], &[], None);
        assert!(has(&vs, "outside Theorem 10-11 bounds"), "{vs:?}");
        assert!(has(&vs, "the exact decoder finds 4"), "{vs:?}");
    }

    /// Worker 3 dies and its partitions {2, 3} move to the absent worker 0,
    /// so arrivals {1, 2} — disjoint loads {0, 1} and {2, 3} — recover 4.
    fn repaired_step(recovered: usize) -> StepReport {
        let mut r = report(0, vec![1, 2], recovered);
        r.repairs = vec![
            RepairEvent {
                partition: 2,
                from: 3,
                to: 0,
            },
            RepairEvent {
                partition: 3,
                from: 3,
                to: 0,
            },
        ];
        r
    }

    #[test]
    fn repairs_switch_to_the_reconstruction() {
        assert!(check_reports(&fr42(), &[repaired_step(4)], &[], Some(1)).is_empty());
        // Recovering 2 is inside the post-repair range [c, n], and the
        // theorems no longer apply, so only the reconstruction catches it —
        // for a completed run and for one the model checker cut short.
        for expected in [Some(1), None] {
            let vs = check_reports(&fr42(), &[repaired_step(2)], &[], expected);
            assert_eq!(
                vs,
                vec!["step 0: post-repair recovered 2 but reconstruction finds 4".to_string()]
            );
        }
        let mut r = repaired_step(4);
        r.repairs[0].from = 1; // worker 1 holds {0, 1}, not partition 2
        let vs = check_reports(&fr42(), &[r], &[], Some(1));
        assert!(
            has(&vs, "repair moves partition 2 which worker 1 does not hold"),
            "{vs:?}"
        );
    }

    #[test]
    fn ladder_arithmetic_is_enforced() {
        let p = fr42();
        let mut skip = report(0, vec![], 0);
        skip.outcome = StepOutcome::Skipped;
        skip.bias_weight = 0.0;
        skip.consecutive_degraded = 2; // should be 1
        let vs = check_reports(&p, std::slice::from_ref(&skip), &[], None);
        assert!(has(&vs, "consecutive-degraded counter is 2"), "{vs:?}");

        skip.consecutive_degraded = 1;
        skip.recovered = 2; // skipped steps recover nothing
        let vs = check_reports(&p, std::slice::from_ref(&skip), &[], None);
        assert!(
            has(&vs, "skipped outcome with 2 recovered partitions"),
            "{vs:?}"
        );

        skip.recovered = 0;
        skip.bias_weight = 1.0; // skipped steps carry no weight
        let vs = check_reports(&p, std::slice::from_ref(&skip), &[], None);
        assert!(has(&vs, "skipped outcome with bias weight 1"), "{vs:?}");

        let mut approx = report(0, vec![0], 2);
        approx.outcome = StepOutcome::Approx;
        approx.consecutive_degraded = 1;
        approx.coverage = 0.5;
        approx.bias_weight = 3.0; // should be 2.0
        let vs = check_reports(&p, &[approx], &[], None);
        assert!(has(&vs, "not the inverse of coverage"), "{vs:?}");
    }

    #[test]
    fn exact_step_with_a_bias_weight_fails_a_completed_chaos_run() {
        let faults = [fault(3, 1, FaultKind::Decline)];
        let r0 = report(0, vec![0, 1, 2, 3], 4);
        let mut r1 = report(1, vec![0, 1, 2], 4);
        r1.bias_weight = 0.5;
        let vs = check_reports(&fr42(), &[r0, r1], &faults, Some(2));
        assert_eq!(
            vs,
            vec!["step 1: exact outcome with bias weight 0.5".to_string()]
        );
    }

    #[test]
    fn a_dead_worker_is_absent_from_every_later_step() {
        let faults = [fault(1, 0, FaultKind::Die)];
        let reports = [
            report(0, vec![0, 2, 3], 4),
            report(1, vec![0, 2, 3], 4),
            report(2, vec![0, 1, 2, 3], 4),
        ];
        let vs = check_reports(&fr42(), &reports, &faults, Some(3));
        assert_eq!(
            vs,
            vec!["worker 1 arrived at step 2 despite Die at step 0".to_string()]
        );
    }

    #[test]
    fn absences_cover_the_fault_step_and_a_kill_the_next() {
        let reports = [
            report(0, vec![0, 1, 2, 3], 4),
            report(1, vec![0, 1, 2, 3], 4),
            report(2, vec![0, 1, 2, 3], 4),
        ];
        let decline = [fault(2, 1, FaultKind::Decline)];
        let vs = check_reports(&fr42(), &reports, &decline, Some(3));
        assert_eq!(
            vs,
            vec!["worker 2 arrived at step 1 despite Decline at step 1".to_string()]
        );
        let drop = [fault(2, 1, FaultKind::Drop)];
        let vs = check_reports(&fr42(), &reports, &drop, Some(3));
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(has(&vs, "at step 2 despite Drop at step 1"), "{vs:?}");
        // A delay or a duplicate keeps the codeword.
        let benign = [
            fault(2, 1, FaultKind::Delay(5)),
            fault(3, 0, FaultKind::Duplicate),
        ];
        assert!(check_reports(&fr42(), &reports, &benign, Some(3)).is_empty());
    }

    #[test]
    fn stale_accounting_is_checked_only_for_completed_runs() {
        let faults = [fault(0, 1, FaultKind::Stale)];
        let reports = [report(0, vec![0, 1, 2, 3], 4), report(1, vec![1, 2, 3], 4)];
        let vs = check_reports(&fr42(), &reports, &faults, Some(2));
        assert_eq!(
            vs,
            vec![
                "plan scripted 1 stale/duplicate frames but the master counted only 0".to_string()
            ]
        );
        assert!(check_reports(&fr42(), &reports, &faults, None).is_empty());
        let mut counted = reports.clone();
        counted[1].stale = 1;
        assert!(check_reports(&fr42(), &counted, &faults, Some(2)).is_empty());
    }
}
