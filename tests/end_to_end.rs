//! Cross-crate integration: full training runs through the umbrella crate,
//! checking the paper's headline claims end to end.

use isgc::core::Placement;
use isgc::ml::dataset::Dataset;
use isgc::ml::model::{Mlp, SoftmaxRegression};
use isgc::simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc::simnet::delay::Delay;
use isgc::simnet::policy::WaitPolicy;
use isgc::simnet::trainer::{train, CodingScheme, GradientNormalization, TrainingConfig};

fn cluster(n: usize) -> ClusterConfig {
    ClusterConfig {
        n,
        compute_time_per_partition: 0.05,
        comm_time: 0.1,
        jitter: Delay::Exponential { mean: 0.4 },
        straggler_delay: Delay::none(),
        stragglers: StragglerSelection::None,
    }
}

fn config(threshold: f64, max_steps: usize, seed: u64) -> TrainingConfig {
    TrainingConfig {
        batch_size: 32,
        learning_rate: 0.05,
        loss_threshold: threshold,
        max_steps,
        seed,
        normalization: GradientNormalization::SumOfPartitionMeans,
        ..Default::default()
    }
}

/// Paper Fig. 12(a): at equal w, IS-GC recovers strictly more gradients than
/// IS-SGD, and FR recovers more than CR at w = 2.
#[test]
fn recovery_ordering_matches_paper() {
    let dataset = Dataset::gaussian_classification(256, 8, 4, 3.0, 1);
    let model = SoftmaxRegression::new(8, 4);
    let cfg = config(0.0, 60, 7);
    let w = WaitPolicy::WaitForCount(2);

    let issgd = train(
        &model,
        &dataset,
        &CodingScheme::IgnoreStragglerSgd,
        &w,
        cluster(4),
        &cfg,
    );
    let cr = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::cyclic(4, 2).unwrap()),
        &w,
        cluster(4),
        &cfg,
    );
    let fr = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::fractional(4, 2).unwrap()),
        &w,
        cluster(4),
        &cfg,
    );
    assert_eq!(issgd.mean_recovered_fraction(), 0.5);
    assert!(cr.mean_recovered_fraction() > issgd.mean_recovered_fraction());
    assert!(fr.mean_recovered_fraction() > cr.mean_recovered_fraction());
}

/// Paper Fig. 12(b): more recovery → fewer steps to the loss threshold.
#[test]
fn steps_decrease_with_recovery() {
    let dataset = Dataset::gaussian_classification(512, 8, 4, 3.0, 777);
    let model = SoftmaxRegression::new(8, 4);
    let mut steps = Vec::new();
    for (scheme, w) in [
        (CodingScheme::IgnoreStragglerSgd, 1),
        (CodingScheme::IgnoreStragglerSgd, 2),
        (CodingScheme::Synchronous, 4),
    ] {
        let mut total = 0usize;
        for trial in 0..3u64 {
            let r = train(
                &model,
                &dataset,
                &scheme,
                &WaitPolicy::WaitForCount(w),
                cluster(4),
                &config(0.205, 4000, 100 + trial * 13),
            );
            assert!(r.reached_threshold, "w={w} never converged");
            total += r.step_count();
        }
        steps.push(total);
    }
    assert!(steps[0] > steps[1], "w=1 {} !> w=2 {}", steps[0], steps[1]);
    assert!(steps[1] > steps[2], "w=2 {} !> w=4 {}", steps[1], steps[2]);
}

/// Classic GC and IS-GC at full availability drive the *identical* parameter
/// trajectory as synchronous SGD: all three recover exactly Σ gᵢ each step.
#[test]
fn full_recovery_schemes_agree_exactly() {
    let dataset = Dataset::gaussian_classification(128, 6, 3, 3.0, 5);
    let model = SoftmaxRegression::new(6, 3);
    let cfg = config(0.0, 25, 3);
    let sync = train(
        &model,
        &dataset,
        &CodingScheme::Synchronous,
        &WaitPolicy::All,
        ClusterConfig::uniform(4, 0.1, 0.05),
        &cfg,
    );
    let isgc = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::cyclic(4, 2).unwrap()),
        &WaitPolicy::All,
        ClusterConfig::uniform(4, 0.1, 0.05),
        &cfg,
    );
    let gc = train(
        &model,
        &dataset,
        &CodingScheme::ClassicCr { c: 2 },
        &WaitPolicy::All,
        ClusterConfig::uniform(4, 0.1, 0.05),
        &cfg,
    );
    for step in 0..25 {
        assert!(
            (sync.loss_curve()[step] - isgc.loss_curve()[step]).abs() < 1e-9,
            "IS-GC diverged from sync at step {step}"
        );
        assert!(
            (sync.loss_curve()[step] - gc.loss_curve()[step]).abs() < 1e-6,
            "classic GC diverged from sync at step {step}: {} vs {}",
            sync.loss_curve()[step],
            gc.loss_curve()[step]
        );
    }
}

/// The non-convex model (MLP) also trains under IS-GC with stragglers.
#[test]
fn mlp_trains_under_isgc() {
    let dataset = Dataset::gaussian_classification(256, 6, 3, 4.0, 9);
    let model = Mlp::new(6, 12, 3);
    let mut cl = cluster(4);
    cl.stragglers = StragglerSelection::RandomEachStep(2);
    cl.straggler_delay = Delay::Exponential { mean: 1.0 };
    let report = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::cyclic(4, 2).unwrap()),
        &WaitPolicy::WaitForCount(2),
        cl,
        &config(0.25, 1500, 2),
    );
    assert!(
        report.reached_threshold,
        "final loss {}",
        report.final_loss()
    );
    // Accuracy sanity check on the trained trajectory is implicit in the
    // loss threshold; verify the report is internally consistent instead.
    assert_eq!(report.loss_curve().len(), report.step_count());
    assert_eq!(report.recovered_fractions().len(), report.step_count());
}

/// Fig. 11 claim: with heavy stragglers, waiting for fewer workers yields a
/// strictly lower mean step time, and IS-GC's overhead vs IS-SGD shrinks as
/// delays grow.
#[test]
fn step_time_ordering_under_stragglers() {
    use isgc::simnet::trainer::measure_step_times;
    let straggly = |mean: f64| ClusterConfig {
        n: 24,
        compute_time_per_partition: 0.2,
        comm_time: 0.05,
        jitter: Delay::Uniform { lo: 0.0, hi: 0.02 },
        straggler_delay: Delay::Exponential { mean },
        stragglers: StragglerSelection::RandomEachStep(24),
    };
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let t_w12 = avg(&measure_step_times(
        straggly(1.5),
        2,
        &WaitPolicy::WaitForCount(12),
        300,
        1,
    ));
    let t_w23 = avg(&measure_step_times(
        straggly(1.5),
        2,
        &WaitPolicy::WaitForCount(23),
        300,
        1,
    ));
    let t_all = avg(&measure_step_times(
        straggly(1.5),
        1,
        &WaitPolicy::All,
        300,
        1,
    ));
    assert!(t_w12 < t_w23 && t_w23 < t_all);

    // Relative IS-GC (c=2) vs IS-SGD (c=1) overhead shrinks as delays grow.
    let overhead = |mean: f64| {
        let isgc = avg(&measure_step_times(
            straggly(mean),
            2,
            &WaitPolicy::WaitForCount(12),
            300,
            2,
        ));
        let issgd = avg(&measure_step_times(
            straggly(mean),
            1,
            &WaitPolicy::WaitForCount(12),
            300,
            2,
        ));
        isgc / issgd
    };
    assert!(overhead(3.0) < overhead(0.5));
}

/// The placement recommender's output plugs straight into training: the
/// full recommend → place → train pipeline converges for every rationale.
#[test]
fn recommended_placements_train_end_to_end() {
    use isgc::core::design::recommend;
    for (n, c) in [(4usize, 2usize), (10, 4), (7, 3)] {
        let rec = recommend(n, c).unwrap();
        let dataset = Dataset::gaussian_classification(64 * n, 6, 3, 4.0, 20 + n as u64);
        let model = SoftmaxRegression::new(6, 3);
        let report = train(
            &model,
            &dataset,
            &CodingScheme::IsGc(rec.placement.clone()),
            &WaitPolicy::WaitForCount((n / 2).max(1)),
            cluster(n),
            &config(0.3, 2000, 4),
        );
        assert!(
            report.reached_threshold,
            "{:?} (n={n}, c={c}): final loss {}",
            rec.rationale,
            report.final_loss()
        );
        assert!(report.mean_recovered_fraction() > 0.0);
    }
}

/// A deadline policy bounds every step's duration, and ramping w trades
/// early speed for late recovery (§IV).
#[test]
fn adaptive_policies_behave() {
    let dataset = Dataset::gaussian_classification(128, 6, 3, 3.0, 4);
    let model = SoftmaxRegression::new(6, 3);
    let mut cl = cluster(4);
    cl.stragglers = StragglerSelection::RandomEachStep(1);
    cl.straggler_delay = Delay::Exponential { mean: 3.0 };

    let deadline = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::cyclic(4, 2).unwrap()),
        &WaitPolicy::Deadline(0.8),
        cl.clone(),
        &config(0.0, 60, 8),
    );
    assert!(deadline.step_durations().iter().all(|&d| d <= 0.8 + 1e-12));

    let ramp = train(
        &model,
        &dataset,
        &CodingScheme::IsGc(Placement::cyclic(4, 2).unwrap()),
        &WaitPolicy::Ramp {
            start: 1,
            end: 4,
            ramp_steps: 30,
        },
        cl,
        &config(0.0, 60, 8),
    );
    let early: f64 = ramp.recovered_fractions()[..10].iter().sum::<f64>() / 10.0;
    let late: f64 = ramp.recovered_fractions()[40..50].iter().sum::<f64>() / 10.0;
    assert!(late > early, "late {late} !> early {early}");
    assert_eq!(late, 1.0); // w = 4 recovers everything
}
