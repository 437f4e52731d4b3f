//! End-to-end chaos tests: real loopback clusters under scripted fault
//! plans, checked for determinism, bound-respecting degradation, checkpoint
//! resume, and placement repair.
//!
//! Every assertion here rides on the harness's own invariant checker
//! (Theorem 10–11 bounds, exact-decode oracle, scripted-absence checks) plus
//! plan-specific expectations about *which* steps degrade and how the run
//! recovers.

use isgc_engine::{DegradePolicy, StepOutcome};
use isgc_mc::{run_chaos, ChaosConfig, ChaosError, FaultKind, FaultPlan};

fn cfg(seed: u64) -> ChaosConfig {
    let mut c = ChaosConfig::new(seed);
    c.n = 6;
    c.c = 2;
    c.steps = 8;
    c
}

fn plan(name: &str, seed: u64, config: &ChaosConfig) -> FaultPlan {
    FaultPlan::named(name, seed, config.n, config.steps as u64).expect("known plan name")
}

#[test]
fn smoke_plan_passes_and_replays_byte_for_byte() {
    let config = cfg(42);
    let p = plan("smoke", 42, &config);
    let a = run_chaos(&p, &config).expect("run");
    assert!(a.passed(), "violations: {:?}", a.violations);
    assert_eq!(a.reports.len(), config.steps);

    // Determinism: the same (plan, seed) reproduces the same per-step
    // observables and the same final parameter bits.
    let b = run_chaos(&p, &config).expect("rerun");
    assert!(b.passed(), "violations: {:?}", b.violations);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "chaos run must replay exactly"
    );
}

#[test]
fn worker_flap_misses_exactly_its_scripted_steps() {
    let config = cfg(7);
    let p = plan("worker-flap", 7, &config);
    let flap = p.faults[0];
    assert_eq!(flap.kind, FaultKind::Drop);
    let outcome = run_chaos(&p, &config).expect("run");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);

    let w = flap.worker;
    for r in &outcome.reports {
        let arrived = r.arrivals.contains(&w);
        if r.step == flap.step || r.step == flap.step + 1 {
            assert!(!arrived, "step {}: flapped worker {w} arrived", r.step);
            // Degradation, not stalling: the step still recovered something.
            assert!(r.recovered > 0, "step {} recovered nothing", r.step);
        } else {
            assert!(arrived, "step {}: worker {w} should be back", r.step);
        }
    }
    // The flapped worker reconnected at least once.
    assert!(outcome.workers[w].reconnects >= 1);
}

#[test]
fn master_restart_resumes_at_the_checkpointed_step() {
    let config = cfg(11);
    let p = plan("master-restart", 11, &config);
    let crash_step = p.master_crashes[0];
    let outcome = run_chaos(&p, &config).expect("run");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);
    assert_eq!(outcome.master_restarts, 1);
    // The stitched run covers every step exactly once (the invariant
    // checker enforces this too; assert explicitly for clarity).
    let steps: Vec<u64> = outcome.reports.iter().map(|r| r.step).collect();
    assert_eq!(steps, (0..config.steps as u64).collect::<Vec<_>>());
    assert!(crash_step < config.steps as u64);

    // The strongest checkpoint check there is: a run that crashed and
    // resumed is observationally identical to one that never crashed —
    // same arrivals, same selections, same final parameter bits.
    let quiet = run_chaos(&FaultPlan::quiet("baseline"), &config).expect("baseline");
    assert!(quiet.passed(), "violations: {:?}", quiet.violations);
    assert_eq!(
        outcome.fingerprint, quiet.fingerprint,
        "resume from checkpoint must be observationally transparent"
    );
    // Workers reconnected through the restart.
    assert!(outcome.workers.iter().all(|w| w.reconnects >= 1));
}

#[test]
fn worker_death_triggers_placement_repair_within_bounds() {
    let config = cfg(13);
    let p = plan("worker-crash", 13, &config);
    let death = p.faults[0];
    assert_eq!(death.kind, FaultKind::Die);
    let outcome = run_chaos(&p, &config).expect("run");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);

    // The dead worker never arrives again.
    for r in &outcome.reports {
        if r.step >= death.step {
            assert!(!r.arrivals.contains(&death.worker));
        }
    }
    // Repair fired exactly once, re-homing all of the dead worker's
    // partitions onto survivors.
    let repair_steps: Vec<&isgc_net::NetReport> = outcome
        .reports
        .iter()
        .filter(|r| !r.repairs.is_empty())
        .collect();
    assert_eq!(repair_steps.len(), 1, "repair should fire on one step");
    let repairs = &repair_steps[0].repairs;
    assert_eq!(repairs.len(), config.c, "all c partitions re-homed");
    assert!(repairs.iter().all(|e| e.from == death.worker));
    assert!(repairs.iter().all(|e| e.to != death.worker));

    // After repair, recovery climbs back to full: the survivors cover all n
    // partitions again (the harness's invariant checker already verified
    // recovered matches the repaired conflict graph's optimum).
    let post = outcome
        .reports
        .iter()
        .filter(|r| r.step > repair_steps[0].step)
        .collect::<Vec<_>>();
    assert!(!post.is_empty());
    for r in post {
        assert!(
            r.recovered >= config.n - config.c,
            "step {}: post-repair recovery {} too low",
            r.step,
            r.recovered
        );
    }
}

#[test]
fn random_plan_replays_from_its_seed() {
    let config = cfg(1234);
    let p = plan("random", 1234, &config);
    assert_eq!(p, plan("random", 1234, &config), "plan generation replays");
    let a = run_chaos(&p, &config).expect("run");
    assert!(a.passed(), "violations: {:?}", a.violations);
    let b = run_chaos(&p, &config).expect("rerun");
    assert_eq!(a.fingerprint, b.fingerprint, "random plan must replay");
}

#[test]
fn blackout_plan_degrades_and_recovers_deterministically() {
    let mut config = cfg(21);
    let p = plan("blackout", 21, &config);

    // Under the default Fail policy the fully dark steps are unrunnable —
    // this is the run that used to abort, now rejected up front.
    assert!(matches!(
        run_chaos(&p, &config),
        Err(ChaosError::InvalidPlan(_))
    ));

    config.degrade = p.recommended_policy(config.n, config.steps as u64);
    let a = run_chaos(&p, &config).expect("blackout rides the ladder");
    assert!(a.passed(), "violations: {:?}", a.violations);
    assert_eq!(a.reports.len(), config.steps);

    // Exactly the scripted dark window skips; everything else is exact,
    // and the streak counter climbs through the window and resets after.
    for r in &a.reports {
        if r.step == 4 || r.step == 5 {
            assert_eq!(r.outcome, StepOutcome::Skipped, "step {}", r.step);
            assert!(r.arrivals.is_empty(), "step {} had arrivals", r.step);
            assert_eq!(r.consecutive_degraded, r.step - 3);
        } else {
            assert_eq!(r.outcome, StepOutcome::Exact, "step {}", r.step);
            assert_eq!(r.consecutive_degraded, 0, "step {}", r.step);
        }
    }
    assert_eq!(a.degraded_steps(), 2);
    assert_eq!(a.max_consecutive_degraded(), 2);
    // The frozen iterate resumes converging once workers rejoin.
    assert!(
        a.final_loss < a.reports[0].loss,
        "no recovery after blackout"
    );

    let b = run_chaos(&p, &config).expect("rerun");
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "ladder decisions must replay byte-for-byte"
    );
}

#[test]
fn blackout_escalates_when_the_streak_exceeds_the_policy() {
    let mut config = cfg(21);
    config.degrade = DegradePolicy::Approximate {
        max_consecutive: 1,
        min_coverage: 0.5,
    };
    let p = plan("blackout", 21, &config);
    // The second dark step pushes the streak past max_consecutive: the run
    // aborts with the typed degradation error instead of limping on.
    match run_chaos(&p, &config) {
        Err(ChaosError::Net(isgc_net::NetError::Degraded {
            step, recovered, ..
        })) => {
            assert_eq!(step, 5, "escalation should land on the second dark step");
            assert_eq!(recovered, 0);
        }
        other => panic!("expected NetError::Degraded, got {other:?}"),
    }
}

#[test]
fn slow_bleed_walks_the_ladder_through_approximate_updates() {
    let mut config = cfg(33);
    let p = plan("slow-bleed", 33, &config);
    config.degrade = p.recommended_policy(config.n, config.steps as u64);
    let a = run_chaos(&p, &config).expect("slow-bleed rides the ladder");
    assert!(a.passed(), "violations: {:?}", a.violations);
    assert_eq!(a.reports.len(), config.steps);

    // Contributors thin 6 → 1: once coverage drops below min_coverage the
    // steps turn approximate, with the bias weight inflating the partial
    // sum (coverage × weight = 1), then everything snaps back to exact.
    for r in &a.reports {
        match r.step {
            4 | 5 => {
                assert_eq!(r.outcome, StepOutcome::Approx, "step {}", r.step);
                assert_eq!(r.recovered, 2, "step {}", r.step);
                assert!((r.coverage - 1.0 / 3.0).abs() < 1e-12);
                assert!((r.coverage * r.bias_weight - 1.0).abs() < 1e-12);
                assert_eq!(r.consecutive_degraded, r.step - 3);
            }
            _ => {
                assert_eq!(r.outcome, StepOutcome::Exact, "step {}", r.step);
                assert_eq!(r.consecutive_degraded, 0, "step {}", r.step);
            }
        }
    }

    let b = run_chaos(&p, &config).expect("rerun");
    assert_eq!(a.fingerprint, b.fingerprint, "slow-bleed must replay");
}

#[test]
fn master_crash_mid_blackout_resumes_the_streak_bit_for_bit() {
    let mut config = cfg(55);
    let smooth = plan("blackout", 55, &config);
    config.degrade = smooth.recommended_policy(config.n, config.steps as u64);

    // Crash the master cold after the first dark step: the checkpoint holds
    // a live consecutive-degraded streak of 1, which the resumed master
    // must restore — otherwise step 5's counter (and the fingerprint, and
    // any later escalation decision) would diverge from the smooth run.
    let mut crashed_plan = smooth.clone();
    crashed_plan.master_crashes = vec![4];

    let crashed = run_chaos(&crashed_plan, &config).expect("crashed run");
    assert!(crashed.passed(), "violations: {:?}", crashed.violations);
    assert_eq!(crashed.master_restarts, 1);
    let step5 = &crashed.reports[5];
    assert_eq!(step5.outcome, StepOutcome::Skipped);
    assert_eq!(
        step5.consecutive_degraded, 2,
        "resumed master forgot the degraded streak"
    );

    let uneventful = run_chaos(&smooth, &config).expect("smooth run");
    assert!(
        uneventful.passed(),
        "violations: {:?}",
        uneventful.violations
    );
    assert_eq!(
        crashed.fingerprint, uneventful.fingerprint,
        "mid-degraded resume must be observationally transparent"
    );
}

#[test]
fn duplicate_and_stale_frames_are_discarded_not_applied() {
    let config = cfg(5);
    let p = plan("duplicate-stale", 5, &config);
    let outcome = run_chaos(&p, &config).expect("run");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);
    // The invariant checker already asserts the stale count; double-check
    // the run still recovered fully on unaffected steps.
    let total_stale: usize = outcome.reports.iter().map(|r| r.stale).sum();
    assert!(total_stale >= 1, "no stale frame was counted");
}
