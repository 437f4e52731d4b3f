//! The full counterexample loop, exercised against a seeded bug.
//!
//! The `mc-mutation` feature (forwarded to `isgc-net`) weakens the real
//! master's stale-codeword guard: a codeword tagged `step - 1` is accepted
//! as a fresh arrival. These tests assert the checker finds that bug by
//! exhaustive search, shrinks a noisy failing schedule to its 1-minimal
//! core, and emits a trace that a *real loopback cluster* replays to the
//! same failure fingerprint — the complete explore → shrink → emit → replay
//! pipeline the crate exists for.

#![cfg(feature = "mc-mutation")]

use isgc_mc::{
    counterexample_trace, explore, explore_plan, failure_fingerprint, minimize, run_chaos,
    ChaosConfig, Fault, FaultKind, McConfig, Trace,
};

/// A schedule with one genuine trigger buried among benign declines.
fn noisy_plan() -> Vec<Fault> {
    vec![
        Fault {
            worker: 1,
            step: 0,
            kind: FaultKind::Decline,
        },
        Fault {
            worker: 0,
            step: 1,
            kind: FaultKind::Stale,
        },
        Fault {
            worker: 2,
            step: 1,
            kind: FaultKind::Decline,
        },
    ]
}

#[test]
fn free_exploration_finds_the_seeded_bug() {
    let result = explore(&McConfig::flat3());
    assert!(!result.passed(), "the mutated master must fail exploration");
    let violation = &result.violations[0];
    assert_eq!(
        violation.faults.len(),
        1,
        "DFS order hits a 1-fault path first"
    );
    assert_eq!(violation.faults[0].kind, FaultKind::Stale);
    assert!(
        violation
            .messages
            .iter()
            .any(|m| m.contains("despite Stale")),
        "stale acceptance must trip the absence invariant: {:?}",
        violation.messages
    );
    assert!(
        violation
            .messages
            .iter()
            .any(|m| m.contains("stale/duplicate frames")),
        "stale acceptance must trip the accounting invariant: {:?}",
        violation.messages
    );
}

#[test]
fn minimization_shrinks_to_the_single_trigger() {
    let cfg = McConfig::flat3();
    assert!(explore_plan(&cfg, &noisy_plan()).is_some());
    let min = minimize(&cfg, &noisy_plan());
    assert_eq!(
        min,
        vec![Fault {
            worker: 0,
            step: 1,
            kind: FaultKind::Stale,
        }],
        "benign declines must be shrunk away"
    );
}

#[test]
fn minimized_trace_replays_on_a_real_cluster_to_the_same_fingerprint() {
    let cfg = McConfig::flat3();
    let min = minimize(&cfg, &noisy_plan());
    let violation = explore_plan(&cfg, &min).expect("minimized core still fails");
    let trace = counterexample_trace(&cfg, &violation);

    // Round-trip through the on-disk format `isgc chaos --plan` consumes.
    let trace = Trace::from_text(&trace.to_text()).expect("trace round-trips");
    assert_eq!(trace.n, 3);
    assert_eq!(trace.steps, 2);
    let expected = trace
        .fingerprint
        .expect("counterexample carries a fingerprint");

    let mut config = ChaosConfig::new(trace.seed);
    config.n = trace.n;
    config.c = trace.c;
    config.steps = trace.steps;
    let outcome = run_chaos(&trace.plan(), &config).expect("replay cluster runs");
    assert!(
        !outcome.passed(),
        "the real cluster must reproduce the modeled failure"
    );
    assert_eq!(
        failure_fingerprint(&outcome.violations),
        expected,
        "replayed violations {:?} differ from modeled ones {:?}",
        outcome.violations,
        violation.messages
    );
}
