//! Checkpoint round-trip property tests: arbitrary mid-training master
//! state must survive the `ISGCCKPT` byte format and the filesystem round
//! trip bit-exactly, and a master that crashes and resumes from its
//! checkpoint must be observationally identical — same
//! `recovery_fingerprint()`, same logical metrics snapshot — to a master
//! that never crashed.

use std::sync::atomic::{AtomicU64, Ordering};

use isgc_mc::{run_chaos, ChaosConfig, FaultPlan};
use isgc_net::checkpoint::MasterCheckpoint;
use isgc_net::NetTrainReport;
use isgc_obs::{Registry, Snapshot};
use proptest::prelude::*;

/// Arbitrary mid-training master state: any seed/step, any parameter
/// vector, any (possibly repaired, possibly emptied) assignment lists.
fn checkpoint_strategy() -> impl Strategy<Value = MasterCheckpoint> {
    (
        0u64..u64::MAX,
        0u64..10_000,
        1u64..16,
        0u64..64,
        proptest::collection::vec(-1e12f64..1e12, 0..48),
        proptest::collection::vec(proptest::collection::vec(0u64..512, 0..8), 1..10),
    )
        .prop_map(
            |(seed, step, c, consecutive_degraded, params, assignments)| MasterCheckpoint {
                seed,
                n: assignments.len() as u64,
                c,
                step,
                consecutive_degraded,
                params,
                assignments,
            },
        )
}

/// A unique scratch path per proptest case (cases run in one process; tests
/// may run in parallel across processes).
fn scratch_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "isgc-ckpt-prop-{}-{unique}.ckpt",
        std::process::id()
    ))
}

proptest! {
    /// Byte-format round trip: decode(encode(ck)) == ck for arbitrary state.
    #[test]
    fn encode_decode_roundtrips(ck in checkpoint_strategy()) {
        let decoded = MasterCheckpoint::decode(&ck.encode()).expect("self-encoded state decodes");
        prop_assert_eq!(decoded, ck);
    }

    /// Filesystem round trip through the atomic save path.
    #[test]
    fn save_load_roundtrips(ck in checkpoint_strategy()) {
        let path = scratch_path();
        ck.save(&path).expect("save");
        let loaded = MasterCheckpoint::load(&path).expect("load").expect("file exists");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(loaded, ck);
    }

    /// Parameters round-trip bit-exactly — NaN payloads, infinities, and
    /// subnormals included (resume must not perturb a single mantissa bit).
    #[test]
    fn raw_bit_params_roundtrip_bit_exactly(bits in proptest::collection::vec(0u64..u64::MAX, 0..32)) {
        let ck = MasterCheckpoint {
            seed: 7,
            n: 2,
            c: 1,
            step: 3,
            consecutive_degraded: 1,
            params: bits.iter().map(|&b| f64::from_bits(b)).collect(),
            assignments: vec![vec![0], vec![1]],
        };
        let decoded = MasterCheckpoint::decode(&ck.encode()).expect("decodes");
        prop_assert_eq!(decoded.params.len(), ck.params.len());
        for (x, y) in decoded.params.iter().zip(ck.params.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// No strict prefix of a valid checkpoint ever decodes.
    #[test]
    fn every_truncation_rejected(ck in checkpoint_strategy()) {
        let bytes = ck.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                MasterCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// The resume fingerprint accepts exactly its own run's identity.
    #[test]
    fn fingerprint_accepts_own_run_and_rejects_others(ck in checkpoint_strategy()) {
        let (seed, n, c) = (ck.seed, ck.n as usize, ck.c as usize);
        prop_assert!(ck.verify_fingerprint(seed, n, c).is_ok());
        prop_assert!(ck.verify_fingerprint(seed.wrapping_add(1), n, c).is_err());
        prop_assert!(ck.verify_fingerprint(seed, n + 1, c).is_err());
        prop_assert!(ck.verify_fingerprint(seed, n, c + 1).is_err());
    }
}

/// Builds the engine-shaped report over a chaos run's stitched steps so
/// `recovery_fingerprint()` applies to it.
fn train_report(n: usize, outcome: &isgc_mc::ChaosOutcome) -> NetTrainReport {
    NetTrainReport {
        n,
        steps: outcome.reports.clone(),
        reached_threshold: false,
        interrupted: false,
        wall_time: 0.0,
        final_params: isgc_linalg::Vector::zeros(1),
    }
}

/// Only the engine's series: the chaos harness counts its own scripted
/// faults and restarts into the same registry, and those *should* differ
/// between a crashed and an uncrashed run.
fn engine_series(registry: &Registry) -> String {
    registry
        .to_text(Snapshot::Logical)
        .lines()
        .filter(|l| l.starts_with('#') || l.contains("engine."))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The end-to-end contract of the `ISGCCKPT` path: a real loopback cluster
/// whose master crashes mid-training and resumes from its checkpoint is
/// observationally identical to an uncrashed run — same stitched step
/// sequence (the chaos fingerprint covers arrivals, selections, recovered
/// counts, and final parameter bits), same `recovery_fingerprint()`, and a
/// byte-identical logical metrics snapshot of the engine's series.
#[test]
fn crash_resume_is_metric_and_fingerprint_transparent() {
    let mut config = ChaosConfig::new(17);
    config.n = 6;
    config.c = 2;
    config.steps = 8;

    let crashed_registry = Registry::new();
    let mut crashed_cfg = config.clone();
    crashed_cfg.metrics = Some(crashed_registry.clone());
    let plan =
        FaultPlan::named("master-restart", 17, config.n, config.steps as u64).expect("known plan");
    let crashed = run_chaos(&plan, &crashed_cfg).expect("crashed run");
    assert!(crashed.passed(), "violations: {:?}", crashed.violations);
    assert_eq!(crashed.master_restarts, 1);

    let quiet_registry = Registry::new();
    let mut quiet_cfg = config.clone();
    quiet_cfg.metrics = Some(quiet_registry.clone());
    let quiet = run_chaos(&FaultPlan::quiet("baseline"), &quiet_cfg).expect("uncrashed run");
    assert!(quiet.passed(), "violations: {:?}", quiet.violations);
    assert_eq!(quiet.master_restarts, 0);

    assert_eq!(
        crashed.fingerprint, quiet.fingerprint,
        "crash/resume changed the run fingerprint"
    );
    assert_eq!(
        train_report(config.n, &crashed).recovery_fingerprint(),
        train_report(config.n, &quiet).recovery_fingerprint(),
        "crash/resume changed the recovery fingerprint"
    );
    assert_eq!(
        engine_series(&crashed_registry),
        engine_series(&quiet_registry),
        "crash/resume changed the engine's logical metric series"
    );
    // The restart itself *is* visible — in the chaos counters, not the
    // engine series.
    assert_eq!(
        crashed_registry.counter(isgc_mc::MASTER_RESTARTS_TOTAL, &[]),
        Some(1)
    );
}

/// The same transparency holds *mid-degradation*: a master that crashes in
/// the middle of a blackout — with a nonzero ladder streak in its last
/// checkpoint — must resume the streak bit-for-bit. Fingerprints (which mix
/// each step's outcome tag and streak counter) and the engine's logical
/// metric series (which include the approx/skip ladder counters) must match
/// the uncrashed blackout run exactly.
#[test]
fn crash_resume_mid_degraded_run_is_transparent() {
    let mut config = ChaosConfig::new(23);
    config.n = 6;
    config.c = 2;
    config.steps = 8;
    let plan = FaultPlan::named("blackout", 23, config.n, config.steps as u64).expect("known plan");
    config.degrade = plan.recommended_policy(config.n, config.steps as u64);

    let quiet_registry = Registry::new();
    let mut quiet_cfg = config.clone();
    quiet_cfg.metrics = Some(quiet_registry.clone());
    let quiet = run_chaos(&plan, &quiet_cfg).expect("uncrashed blackout");
    assert!(quiet.passed(), "violations: {:?}", quiet.violations);
    assert!(
        quiet.degraded_steps() > 0,
        "blackout must degrade some steps"
    );
    assert_eq!(quiet.master_restarts, 0);

    // Crash during the second dark step: the step-4 checkpoint already
    // carries streak 1, so the resumed master starts mid-streak.
    let mut crashed_plan = plan.clone();
    crashed_plan.master_crashes = vec![5];
    let crashed_registry = Registry::new();
    let mut crashed_cfg = config.clone();
    crashed_cfg.metrics = Some(crashed_registry.clone());
    let crashed = run_chaos(&crashed_plan, &crashed_cfg).expect("crashed blackout");
    assert!(crashed.passed(), "violations: {:?}", crashed.violations);
    assert_eq!(crashed.master_restarts, 1);

    assert_eq!(
        crashed.fingerprint, quiet.fingerprint,
        "crash mid-blackout changed the run fingerprint"
    );
    assert_eq!(
        train_report(config.n, &crashed).recovery_fingerprint(),
        train_report(config.n, &quiet).recovery_fingerprint(),
        "crash mid-blackout changed the recovery fingerprint"
    );
    assert_eq!(
        engine_series(&crashed_registry),
        engine_series(&quiet_registry),
        "crash mid-blackout changed the engine's logical metric series"
    );
}
