//! Randomized end-to-end stress: arbitrary (scheme, placement, policy,
//! cluster, model) combinations must uphold the system invariants — no
//! panics, valid recovery fractions, bounded step counts, consistent
//! bookkeeping — across hundreds of configurations.

use isgc::core::{bounds, HrParams, Placement};
use isgc::ml::dataset::Dataset;
use isgc::ml::model::{LinearRegression, Mlp, SoftmaxRegression};
use isgc::simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc::simnet::delay::Delay;
use isgc::simnet::policy::WaitPolicy;
use isgc::simnet::trainer::{
    train, CodingScheme, GradientNormalization, TrainReport, TrainingConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_placement(n: usize, rng: &mut StdRng) -> Placement {
    loop {
        match rng.random_range(0..3) {
            0 => {
                // FR: pick a divisor of n.
                let divisors: Vec<usize> = (1..=n).filter(|c| n.is_multiple_of(*c)).collect();
                let c = divisors[rng.random_range(0..divisors.len())];
                return Placement::fractional(n, c).expect("c | n by construction");
            }
            1 => {
                let c = rng.random_range(1..=n);
                return Placement::cyclic(n, c).expect("valid CR");
            }
            _ => {
                // HR: random valid parameters, retry on rejection.
                let divisors: Vec<usize> = (1..=n).filter(|g| n.is_multiple_of(*g)).collect();
                let g = divisors[rng.random_range(0..divisors.len())];
                let n0 = n / g;
                let c = rng.random_range(1..=n0);
                let c1 = rng.random_range(0..=c.min(n0));
                let params = HrParams::new(n, g, c1, c - c1);
                if params.validate().is_ok() {
                    return Placement::hybrid(params).expect("validated");
                }
            }
        }
    }
}

fn random_cluster(n: usize, rng: &mut StdRng) -> ClusterConfig {
    let straggler_delay = match rng.random_range(0..4) {
        0 => Delay::Exponential {
            mean: rng.random_range(0.1..3.0),
        },
        1 => Delay::Constant(rng.random_range(0.0..2.0)),
        2 => Delay::Pareto {
            scale: 0.2,
            shape: 2.5,
        },
        _ => Delay::none(),
    };
    let stragglers = match rng.random_range(0..4) {
        0 => StragglerSelection::None,
        1 => StragglerSelection::RandomEachStep(rng.random_range(0..=n)),
        2 => StragglerSelection::Probabilistic(rng.random_range(0.0..0.9)),
        _ => StragglerSelection::Fixed((0..n).filter(|_| rng.random_range(0..3) == 0).collect()),
    };
    ClusterConfig {
        n,
        compute_time_per_partition: rng.random_range(0.0..0.3),
        comm_time: rng.random_range(0.0..0.3),
        jitter: Delay::Uniform {
            lo: 0.0,
            hi: rng.random_range(0.001..0.1),
        },
        straggler_delay,
        stragglers,
    }
}

fn check_invariants(
    report: &TrainReport,
    n: usize,
    c: usize,
    max_steps: usize,
    summed_scheme: bool,
) {
    let steps = report.step_count();
    assert!(steps >= 1 && steps <= max_steps);
    assert_eq!(report.loss_curve().len(), steps);
    assert_eq!(report.recovered_fractions().len(), steps);
    assert_eq!(report.step_durations().len(), steps);
    assert_eq!(report.codewords_received().len(), steps);
    assert!(report.sim_time() >= 0.0 && report.sim_time().is_finite());
    for (&f, &d) in report
        .recovered_fractions()
        .iter()
        .zip(&report.step_durations())
    {
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
        assert!(d >= 0.0 && d.is_finite(), "duration {d}");
        if summed_scheme {
            // Recovered fraction is a multiple of c/n (whole workers).
            let units = f * n as f64 / c as f64;
            assert!(
                (units - units.round()).abs() < 1e-9,
                "fraction {f} not a multiple of c/n"
            );
        }
    }
    for &loss in &report.loss_curve() {
        assert!(loss.is_finite(), "loss diverged: {loss}");
    }
    for &m in &report.codewords_received() {
        assert!(m <= n);
    }
    assert!(report.failed_decodes() <= steps);
}

#[test]
fn random_configurations_uphold_invariants() {
    let mut rng = StdRng::seed_from_u64(0xC4A0_5EED);
    for trial in 0..60u64 {
        let n = rng.random_range(2..=8usize);
        let placement = random_placement(n, &mut rng);
        let scheme = match rng.random_range(0..4) {
            0 => CodingScheme::IgnoreStragglerSgd,
            1 => CodingScheme::IsGc(placement.clone()),
            2 => CodingScheme::IsGcArrivalOrder(placement.clone()),
            _ => CodingScheme::ClassicCr {
                c: rng.random_range(1..=n),
            },
        };
        let policy = match rng.random_range(0..3) {
            0 => WaitPolicy::WaitForCount(rng.random_range(1..=n)),
            1 => WaitPolicy::Deadline(rng.random_range(0.05..2.0)),
            _ => WaitPolicy::Ramp {
                start: 1,
                end: rng.random_range(1..=n),
                ramp_steps: rng.random_range(0..20),
            },
        };
        let cluster = random_cluster(n, &mut rng);
        let max_steps = rng.random_range(3..25usize);
        let config = TrainingConfig {
            batch_size: rng.random_range(1..16usize),
            learning_rate: rng.random_range(0.001..0.1),
            loss_threshold: 0.0,
            max_steps,
            seed: trial,
            normalization: if rng.random_range(0..2) == 0 {
                GradientNormalization::SumOfPartitionMeans
            } else {
                GradientNormalization::MeanOverRecovered
            },
            ..TrainingConfig::default()
        };
        // Effective c for invariant checks depends on the scheme.
        let eff_c = scheme.c();
        let dataset = Dataset::gaussian_classification(32 * n.max(2), 5, 3, 3.0, trial);
        let report = match rng.random_range(0..3) {
            0 => train(
                &SoftmaxRegression::new(5, 3),
                &dataset,
                &scheme,
                &policy,
                cluster,
                &config,
            ),
            1 => train(
                &Mlp::new(5, 6, 3),
                &dataset,
                &scheme,
                &policy,
                cluster,
                &config,
            ),
            _ => {
                let reg = Dataset::synthetic_regression(32 * n.max(2), 5, 0.2, trial);
                train(
                    &LinearRegression::new(5),
                    &reg,
                    &scheme,
                    &policy,
                    cluster,
                    &config,
                )
            }
        };
        let summed = !matches!(scheme, CodingScheme::ClassicCr { .. });
        check_invariants(&report, n, eff_c.max(1), max_steps, summed);
        // Count-policy recovery must respect the Theorem 10 lower bound
        // whenever IS-GC decoded a non-empty arrival set.
        if let (CodingScheme::IsGc(p), WaitPolicy::WaitForCount(w)) = (&scheme, &policy) {
            let lo = bounds::recovery_lower_bound(p.n(), p.c(), *w) as f64 / p.n() as f64;
            for &f in &report.recovered_fractions() {
                assert!(f >= lo - 1e-9, "trial {trial}: fraction {f} < bound {lo}");
            }
        }
    }
}
