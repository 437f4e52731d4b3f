//! Exhaustive exploration of the unmutated collectors: every bounded
//! interleaving of every bounded fault schedule must satisfy every chaos
//! invariant, on both shapes the checker models.

use isgc_mc::{
    counterexample_trace, explore, explore_plan, minimize, Fault, FaultKind, McConfig, Shape,
    Trace, Violation,
};

/// What the search enumerates is the sequence of `Transport` calls the
/// shipped loops and the shipped `WorkerCore` make, so a change to what a
/// peer emits, or a reordered `next_event`/`adopt`/`broadcast` on the master
/// side, moves these (runs, states) counts before it shows up anywhere else.
const REPIN: &str = "the explored state space moved; re-pin only with a stated reason";

#[test]
fn flat3_exhausts_green() {
    let result = explore(&McConfig::flat3());
    assert!(result.passed(), "violations: {:?}", result.violations);
    assert!(!result.truncated, "flat3 must exhaust its bounded space");
    assert_eq!((result.runs, result.states()), (3044, 5107), "{REPIN}");
    assert_eq!(
        (result.completed, result.degraded, result.lost),
        (2037, 0, 0),
        "{REPIN}"
    );
    assert!(result.pruned > 0);
    assert_eq!(result.stuck, 0, "no reachable deadlock");
    assert!(
        result.distinct_fingerprints > 1,
        "different fault schedules recover differently"
    );
}

#[test]
fn flat4_exhausts_green() {
    let result = explore(&McConfig::flat4());
    assert!(result.passed(), "violations: {:?}", result.violations);
    assert!(!result.truncated, "flat4 must exhaust its bounded space");
    assert_eq!((result.runs, result.states()), (17057, 26869), "{REPIN}");
    assert_eq!(
        (result.completed, result.degraded, result.lost),
        (7324, 0, 0),
        "{REPIN}"
    );
    assert_eq!(result.stuck, 0);
}

#[test]
fn directed_benign_plan_passes_every_interleaving() {
    let plan = vec![Fault {
        worker: 1,
        step: 0,
        kind: FaultKind::Decline,
    }];
    assert_eq!(
        explore_plan(&McConfig::flat3(), &plan),
        None,
        "a single decline is recoverable under FR(3, 1) with ignorance"
    );
}

#[test]
fn directed_drop_and_die_plans_pass() {
    let cfg = McConfig::flat3();
    let drop = vec![Fault {
        worker: 2,
        step: 0,
        kind: FaultKind::Drop,
    }];
    assert_eq!(explore_plan(&cfg, &drop), None, "drop + rejoin is clean");

    let die = vec![Fault {
        worker: 0,
        step: 1,
        kind: FaultKind::Die,
    }];
    assert_eq!(
        explore_plan(&McConfig::flat4(), &die),
        None,
        "a worker death degrades but never violates"
    );
}

#[test]
fn minimize_returns_passing_plans_unchanged() {
    let plan = vec![
        Fault {
            worker: 1,
            step: 0,
            kind: FaultKind::Decline,
        },
        Fault {
            worker: 2,
            step: 1,
            kind: FaultKind::Decline,
        },
    ];
    assert_eq!(minimize(&McConfig::flat3(), &plan), plan);
}

#[test]
fn counterexample_traces_round_trip_as_chaos_plans() {
    // Build a violation by hand — the unmutated collector has none — and
    // check the serialization path the CLI uses.
    let faults = vec![Fault {
        worker: 3,
        step: 1,
        kind: FaultKind::Stale,
    }];
    let violation = Violation {
        faults: faults.clone(),
        messages: vec!["synthetic".into()],
        fingerprint: 0xDEAD_BEEF,
    };
    // Any u64 seed survives, including those past f64's 2^53 integers.
    for seed in [McConfig::flat4().seed, (1 << 53) + 1, u64::MAX] {
        let cfg = McConfig {
            seed,
            ..McConfig::flat4()
        };
        let trace = counterexample_trace(&cfg, &violation);
        assert_eq!(trace.name, "mc-flat4");
        assert_eq!((trace.n, trace.c, trace.steps), (4, 2, 2));
        assert_eq!(trace.fingerprint, Some(0xDEAD_BEEF));
        let back = Trace::from_text(&trace.to_text()).expect("round-trips");
        assert_eq!(back.plan().faults, faults);
        assert_eq!(back.fingerprint, Some(0xDEAD_BEEF));
        assert_eq!(back.seed, seed);
    }
}

#[test]
fn modeled_frames_agree_with_the_wire_corpus() {
    // The virtual network exchanges genuine wire frames (the collectors
    // under test decode them with the production codec). The shared seed
    // corpus in `isgc-net` pins that agreement: every corpus message the
    // checker could model round-trips bit-exactly.
    for message in isgc_net::wire::corpus_messages(0x15C0_C0DE) {
        let bytes = message.encode();
        let (back, used) = isgc_net::wire::Message::decode(&bytes).expect("corpus decodes");
        assert_eq!(back, message);
        assert_eq!(used, bytes.len());
    }
}

#[test]
fn shapes_report_their_cluster_geometry() {
    assert_eq!(McConfig::flat3().shape, Shape::Flat { n: 3, c: 1 });
    assert_eq!(McConfig::flat4().shape, Shape::Flat { n: 4, c: 2 });
    assert_eq!(McConfig::flat4().shape.cluster(), (4, 2));
}
