//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates through the umbrella API.

use isgc::core::classic::ClassicGc;
use isgc::core::decode::{hr_conflict, CrDecoder, Decoder, FrDecoder, HrDecoder};
use isgc::core::encode::SumEncoder;
use isgc::core::{bounds, design, expectation, ConflictGraph, HrParams, Placement, WorkerSet};
use isgc::linalg::Vector;
use isgc::ml::dataset::Dataset;
use isgc::ml::model::{LinearRegression, Model, SoftmaxRegression};
use isgc::obs::Registry;
use isgc::simnet::adaptive::AdaptiveWaitController;
use isgc::simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc::simnet::delay::Delay;
use isgc::simnet::policy::WaitPolicy;
use isgc::simnet::trace::MarkovStragglerModel;
use isgc::simnet::trainer::{train, train_observed, CodingScheme, TrainingConfig};
use isgc_engine::metrics::names;
use isgc_engine::{DegradePolicy, MetricsObserver, StepOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: (n, c) valid for CR.
fn cr_params() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=20).prop_flat_map(|n| (Just(n), 1usize..=n))
}

/// Strategy: (n, c) valid for FR (c | n).
fn fr_params() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=20)
        .prop_flat_map(|n| (Just(n), 1usize..=n))
        .prop_filter("c | n", |(n, c)| n % c == 0)
}

/// Strategy: valid HR parameter bundles.
fn hr_params() -> impl Strategy<Value = HrParams> {
    (1usize..=5, 2usize..=6, 0usize..=6, 0usize..=6)
        .prop_map(|(g, n0, c1, c2)| HrParams::new(g * n0, g, c1, c2))
        .prop_filter("valid", |p| p.validate().is_ok())
}

/// Strategy: a subset of 0..n encoded as a bitmask.
fn subset(n: usize) -> impl Strategy<Value = WorkerSet> {
    prop::collection::vec(prop::bool::ANY, n).prop_map(move |bits| {
        WorkerSet::from_indices(
            n,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every placement is balanced: each worker stores c partitions and each
    /// partition lives on c workers.
    #[test]
    fn placements_are_balanced(
        (n_cr, c_cr) in cr_params(),
        (n_fr, c_fr) in fr_params(),
        hr in hr_params(),
    ) {
        for p in [
            Placement::cyclic(n_cr, c_cr).unwrap(),
            Placement::fractional(n_fr, c_fr).unwrap(),
            Placement::hybrid(hr).unwrap(),
        ] {
            for w in 0..p.n() {
                prop_assert_eq!(p.partitions_of(w).len(), p.c());
            }
            for j in 0..p.n() {
                prop_assert_eq!(p.workers_of(j).len(), p.c());
            }
        }
    }

    /// CR's conflict graph is the circulant C_n^{1..c-1} (Theorem 1).
    #[test]
    fn cr_conflict_graph_is_circulant((n, c) in cr_params()) {
        let g = ConflictGraph::from_placement(&Placement::cyclic(n, c).unwrap());
        prop_assert!(g.is_circulant_with_span(c));
    }

    /// The CR decoder output is an independent set within the Theorem 10-11
    /// bounds for arbitrary availability.
    #[test]
    fn cr_decode_respects_invariants((n, c) in cr_params(), seed in 0u64..1000) {
        let p = Placement::cyclic(n, c).unwrap();
        let d = CrDecoder::new(&p).unwrap();
        let g = ConflictGraph::from_placement(&p);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (seed as usize) % (n + 1);
        let avail = WorkerSet::random_subset(n, w, &mut rng);
        let r = d.decode(&avail, &mut rng);
        prop_assert!(g.is_independent(r.selected()));
        prop_assert!(r.selected().len() >= bounds::alpha_lower_bound(n, c, w));
        prop_assert!(r.selected().len() <= bounds::alpha_upper_bound(n, c, w));
    }

    /// Alg. 4's closed-form HR conflict predicate agrees with ground truth.
    #[test]
    fn hr_conflict_closed_form_is_exact(hr in hr_params()) {
        let p = Placement::hybrid(hr).unwrap();
        for a in 0..hr.n() {
            for b in 0..hr.n() {
                prop_assert_eq!(hr_conflict(&hr, a, b), p.conflicts(a, b));
            }
        }
    }

    /// ĝ assembled from codewords equals the direct sum of the recovered
    /// partitions' gradients, exactly (IS-GC's central identity).
    #[test]
    fn assembled_gradient_identity(hr in hr_params(), seed in 0u64..500) {
        let p = Placement::hybrid(hr).unwrap();
        let n = p.n();
        let d = HrDecoder::new(&p).unwrap();
        let e = SumEncoder::new(&p);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = (seed as usize * 7) % (n + 1);
        let avail = WorkerSet::random_subset(n, w, &mut rng);
        let result = d.decode(&avail, &mut rng);
        let grad = |j: usize| Vector::from_slice(&[(j * j) as f64 + 1.0, j as f64]);
        let g_hat = e.assemble(&result, 2, |wid| {
            let grads: Vec<Vector> =
                p.partitions_of(wid).iter().map(|&j| grad(j)).collect();
            e.encode(wid, &grads)
        });
        let mut expected = Vector::zeros(2);
        for &j in result.partitions() {
            expected.axpy(1.0, &grad(j));
        }
        prop_assert_eq!(g_hat.as_slice(), expected.as_slice());
    }

    /// Classic GC recovers the exact full gradient from any subset of at
    /// least n − c + 1 workers.
    #[test]
    fn classic_gc_roundtrip((n, c) in cr_params(), seed in 0u64..200) {
        prop_assume!(n <= 12);
        let mut rng = StdRng::seed_from_u64(seed);
        let gc = ClassicGc::cyclic(n, c, &mut rng).unwrap();
        let grads: Vec<Vector> =
            (0..n).map(|j| Vector::from_slice(&[j as f64 - 2.5])).collect();
        let codewords: Vec<Vector> = (0..n).map(|w| gc.encode(w, &grads)).collect();
        let expected: f64 = grads.iter().map(|g| g[0]).sum();
        let avail = WorkerSet::random_subset(n, n - c + 1, &mut rng);
        let g = gc.recover(&avail, |w| codewords[w].clone(), 1).unwrap();
        prop_assert!((g[0] - expected).abs() < 1e-6);
    }

    /// WorkerSet algebra laws.
    #[test]
    fn worker_set_algebra(a in subset(24), b in subset(24)) {
        let union = a.union(&b);
        let inter = a.intersection(&b);
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        prop_assert_eq!(a.difference(&b).union(&inter).to_vec(), a.to_vec());
        prop_assert_eq!(a.complement().complement(), a.clone());
        for i in a.iter() {
            prop_assert!(union.contains(i));
        }
        prop_assert!(inter.iter().all(|i| a.contains(i) && b.contains(i)));
    }

    /// FR decode selects exactly one representative per surviving group.
    #[test]
    fn fr_decode_selects_group_representatives((n, c) in fr_params(), avail_seed in 0u64..300) {
        let p = Placement::fractional(n, c).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(avail_seed);
        let w = (avail_seed as usize) % (n + 1);
        let avail = WorkerSet::random_subset(n, w, &mut rng);
        let r = d.decode(&avail, &mut rng);
        let mut groups_with_members = 0;
        for g in 0..n / c {
            let members = (g * c..(g + 1) * c).filter(|&i| avail.contains(i)).count();
            if members > 0 {
                groups_with_members += 1;
            }
            let selected_here = r
                .selected()
                .iter()
                .filter(|&&v| v / c == g)
                .count();
            prop_assert!(selected_here <= 1);
        }
        prop_assert_eq!(r.selected().len(), groups_with_members);
    }

    /// The placement recommender always honors the budget and never has
    /// more conflict edges than CR at the same (n, c).
    #[test]
    fn recommender_dominates_cr((n, c) in cr_params()) {
        let rec = design::recommend(n, c).unwrap();
        prop_assert_eq!(rec.placement.n(), n);
        prop_assert_eq!(rec.placement.c(), c);
        let rec_edges = ConflictGraph::from_placement(&rec.placement).edge_count();
        let cr_edges =
            ConflictGraph::from_placement(&Placement::cyclic(n, c).unwrap()).edge_count();
        prop_assert!(rec_edges <= cr_edges);
    }

    /// FR's closed-form expected recovery is within the Theorem 10-11
    /// bounds scaled to expectations.
    #[test]
    fn fr_expectation_within_bounds((n, c) in fr_params(), w_frac in 0.0f64..1.0) {
        let w = ((n as f64) * w_frac) as usize;
        let e = expectation::fr_expected_alpha(n, c, w);
        prop_assert!(e >= bounds::alpha_lower_bound(n, c, w) as f64 - 1e-9);
        prop_assert!(e <= bounds::alpha_upper_bound(n, c, w) as f64 + 1e-9);
    }

    /// Markov traces: delays non-negative, deterministic in the seed, and
    /// the straggle rate approaches the stationary fraction.
    #[test]
    fn markov_trace_properties(
        n in 1usize..6,
        p_fs in 0.0f64..0.5,
        p_sf in 0.01f64..0.5,
        seed in 0u64..100,
    ) {
        let model = MarkovStragglerModel {
            n,
            fast: Delay::Constant(0.0),
            slow: Delay::Constant(1.0),
            p_fast_to_slow: p_fs,
            p_slow_to_fast: p_sf,
        };
        let t = model.generate(300, seed);
        prop_assert_eq!(t.n(), n);
        prop_assert_eq!(t.len(), 300);
        prop_assert_eq!(&t, &model.generate(300, seed));
        let rate = t.straggle_rate(0.5);
        prop_assert!((0.0..=1.0).contains(&rate));
        let stationary = model.stationary_slow_fraction();
        prop_assert!((0.0..=1.0).contains(&stationary));
    }

    /// The adaptive controller's recommendation is always within
    /// [min_w, max_w] and never decreases.
    #[test]
    fn adaptive_controller_invariants(
        min_w in 1usize..4,
        extra in 0usize..4,
        window in 1usize..6,
        losses in prop::collection::vec(0.0f64..10.0, 1..60),
    ) {
        let max_w = min_w + extra;
        let mut ctl = AdaptiveWaitController::new(min_w, max_w, window, 0.05);
        for &loss in &losses {
            ctl.observe(loss);
            prop_assert!((min_w..=max_w).contains(&ctl.current_w()));
        }
        for pair in ctl.w_history().windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        prop_assert_eq!(ctl.w_history().len(), losses.len());
    }

    /// Placement-aware Theorems 10–11: for random placements of all three
    /// schemes and arbitrary surviving sets W', the `recovery_bounds_of`
    /// bracket always contains the decoder's α(G[W']) (the scheme decoders
    /// are maximum — cross-checked against the exact α on small instances)
    /// and its recovered-partition count.
    #[test]
    fn recovery_bounds_bracket_decoder_alpha(
        (n_cr, c_cr) in cr_params(),
        (n_fr, c_fr) in fr_params(),
        hr in hr_params(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cr = Placement::cyclic(n_cr, c_cr).unwrap();
        let fr = Placement::fractional(n_fr, c_fr).unwrap();
        let hy = Placement::hybrid(hr).unwrap();
        let cases: [(&Placement, Box<dyn Decoder>); 3] = [
            (&cr, Box::new(CrDecoder::new(&cr).unwrap())),
            (&fr, Box::new(FrDecoder::new(&fr).unwrap())),
            (&hy, Box::new(HrDecoder::new(&hy).unwrap())),
        ];
        for (p, d) in &cases {
            let n = p.n();
            let w = (seed as usize).wrapping_mul(37) % (n + 1);
            let avail = WorkerSet::random_subset(n, w, &mut rng);
            let r = d.decode(&avail, &mut rng);
            let alpha = r.selected().len();
            if n <= 12 {
                let exact = ConflictGraph::from_placement(p).alpha(&avail);
                prop_assert_eq!(alpha, exact, "{} n={} w={}", p.scheme(), n, w);
            }
            let (lo, hi) = bounds::alpha_bounds_of(p, w);
            prop_assert!(
                (lo..=hi).contains(&alpha),
                "{} n={} w={}: alpha {} outside [{}, {}]", p.scheme(), n, w, alpha, lo, hi
            );
            let (rlo, rhi) = bounds::recovery_bounds_of(p, w);
            prop_assert!(
                (rlo..=rhi).contains(&r.recovered_count()),
                "{} n={} w={}: recovered {} outside [{}, {}]",
                p.scheme(), n, w, r.recovered_count(), rlo, rhi
            );
            prop_assert!(bounds::recovery_within_bounds_of(p, w, r.recovered_count()));
            prop_assert!(bounds::check_recovery_of(p, w, r.recovered_count()).within());
        }
    }

    /// A metered simulator run's obs histogram of recovered counts is
    /// exactly the multiset of the report's per-step values — same bin
    /// counts, same totals — and every step's reported bound interval
    /// brackets what its decode recovered.
    #[test]
    fn obs_recovered_histogram_matches_step_reports(
        seed in 0u64..300,
        use_cr in prop::bool::ANY,
        w in 1usize..=6,
        straggler_count in 0usize..3,
    ) {
        let (n, c) = (6usize, 2usize);
        let placement = if use_cr {
            Placement::cyclic(n, c).unwrap()
        } else {
            Placement::fractional(n, c).unwrap()
        };
        let cluster = ClusterConfig {
            n,
            compute_time_per_partition: 0.01,
            comm_time: 0.005,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.02 },
            straggler_delay: Delay::Exponential { mean: 0.5 },
            stragglers: StragglerSelection::RandomEachStep(straggler_count),
        };
        let config = TrainingConfig {
            batch_size: 8,
            learning_rate: 0.05,
            loss_threshold: 0.0,
            max_steps: 6,
            seed,
            ..TrainingConfig::default()
        };
        let registry = Registry::new();
        let report = train_observed(
            &LinearRegression::new(3),
            &Dataset::synthetic_regression(48, 3, 0.05, seed),
            &CodingScheme::IsGc(placement),
            &WaitPolicy::WaitForCount(w),
            cluster,
            &config,
            &mut MetricsObserver::new(registry.clone(), n),
        );
        let hist = registry
            .histogram(names::STEP_RECOVERED, &[])
            .expect("metered run records the recovered histogram");
        prop_assert_eq!(hist.count, report.steps.len() as u64);
        let total: usize = report.steps.iter().map(|s| s.recovered).sum();
        prop_assert!((hist.sum - total as f64).abs() < 1e-12);
        for v in 0..=n {
            let in_report = report.steps.iter().filter(|s| s.recovered == v).count();
            prop_assert_eq!(
                hist.counts[v], in_report as u64,
                "bin {}: histogram {} vs report {}", v, hist.counts[v], in_report
            );
        }
        for step in &report.steps {
            let (lo, hi) = step.bounds.expect("bounds checked on unrepaired steps");
            prop_assert!(
                (lo..=hi).contains(&step.recovered),
                "step {}: recovered {} outside [{}, {}]", step.step, step.recovered, lo, hi
            );
        }
    }

    /// Graceful-degradation transparency: as long as every step holds the
    /// coverage floor, the ladder's exact path under `Skip` or
    /// `Approximate` is bitwise-identical to `Fail` — same loss bits, same
    /// final parameters, same recovery fingerprint. The lenient policies
    /// must be free until the moment they are needed.
    #[test]
    fn ladder_exact_path_is_bitwise_identical_to_fail(
        seed in 0u64..200,
        w in 4usize..=6,
        use_cr in prop::bool::ANY,
        straggler_count in 0usize..3,
    ) {
        let (n, c) = (6usize, 2usize);
        let placement = if use_cr {
            Placement::cyclic(n, c).unwrap()
        } else {
            Placement::fractional(n, c).unwrap()
        };
        let cluster = ClusterConfig {
            n,
            compute_time_per_partition: 0.01,
            comm_time: 0.005,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.02 },
            straggler_delay: Delay::Exponential { mean: 0.5 },
            stragglers: StragglerSelection::RandomEachStep(straggler_count),
        };
        let dataset = Dataset::synthetic_regression(48, 3, 0.05, seed);
        let run = |degrade: DegradePolicy| {
            let config = TrainingConfig {
                batch_size: 8,
                learning_rate: 0.05,
                loss_threshold: 0.0,
                max_steps: 6,
                seed,
                degrade,
                ..TrainingConfig::default()
            };
            train(
                &LinearRegression::new(3),
                &dataset,
                &CodingScheme::IsGc(placement.clone()),
                &WaitPolicy::WaitForCount(w),
                cluster.clone(),
                &config,
            )
        };
        // Theorem 10: waiting for w >= 4 of FR/CR(6,2) recovers >= 4 of the
        // 6 partitions, so coverage never drops below the default 0.5 floor
        // and the ladder never leaves the exact path.
        let baseline = run(DegradePolicy::Fail);
        for policy in [DegradePolicy::Skip, DegradePolicy::approximate_default()] {
            let label = policy.label();
            let other = run(policy);
            for s in &other.steps {
                prop_assert_eq!(
                    s.outcome, StepOutcome::Exact,
                    "{}: step {} left the exact path", label, s.step
                );
            }
            prop_assert_eq!(
                other.recovery_fingerprint(), baseline.recovery_fingerprint(),
                "{}: fingerprint diverged", label
            );
            let base_losses: Vec<u64> =
                baseline.loss_curve().iter().map(|l| l.to_bits()).collect();
            let other_losses: Vec<u64> =
                other.loss_curve().iter().map(|l| l.to_bits()).collect();
            prop_assert_eq!(base_losses, other_losses, "{}: loss bits diverged", label);
            let base_params: Vec<u64> = baseline
                .final_params
                .as_slice()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let other_params: Vec<u64> = other
                .final_params
                .as_slice()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            prop_assert_eq!(base_params, other_params, "{}: parameter bits diverged", label);
        }
    }

    /// Model gradients are additive over disjoint index sets — the property
    /// that makes sum-coding exact.
    #[test]
    fn gradient_additivity(seed in 0u64..100, split in 1usize..29) {
        let data = Dataset::gaussian_classification(30, 4, 3, 2.0, seed);
        let model = SoftmaxRegression::new(4, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let params = model.init_params(&mut rng);
        let left: Vec<usize> = (0..split).collect();
        let right: Vec<usize> = (split..30).collect();
        let all: Vec<usize> = (0..30).collect();
        let mut sum = model.gradient_sum(&params, &data, &left);
        sum.axpy(1.0, &model.gradient_sum(&params, &data, &right));
        let direct = model.gradient_sum(&params, &data, &all);
        prop_assert!((&sum - &direct).norm_inf() < 1e-12);
    }
}

// --- Multi-tenant scheduling properties (isgc-sched) ---

use isgc::sched::{JobOutcome, JobSpec, SchedError, Scheduler, SchedulerConfig};

/// A job's deterministic observables: recovery fingerprint plus the exact
/// bits of its loss curve and final parameters.
fn job_signature(outcome: &JobOutcome) -> (u64, Vec<u64>, Vec<u64>) {
    let report = outcome.result.as_ref().expect("job trained");
    (
        report.recovery_fingerprint(),
        report.loss_curve().iter().map(|l| l.to_bits()).collect(),
        report
            .final_params
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
    )
}

/// Runs one spec alone on a single-slot scheduler.
fn solo_signature(spec: &JobSpec) -> (u64, Vec<u64>, Vec<u64>) {
    let mut sched = Scheduler::new(SchedulerConfig::new(1, 0));
    sched.submit(spec.clone()).expect("solo submit");
    let outcomes = sched.run_to_completion();
    job_signature(&outcomes[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tenant isolation: a job's fingerprint, loss curve, and final
    /// parameters are bitwise independent of who it shares the scheduler
    /// with — co-tenant runs must equal solo runs exactly.
    #[test]
    fn job_observables_are_independent_of_cotenants(
        seeds in prop::collection::vec(0u64..10_000, 1..=4),
        stragglers in 0usize..3,
    ) {
        let placement = Placement::fractional(8, 2).expect("FR(8,2)");
        let specs: Vec<JobSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut spec = JobSpec::new(format!("tenant-{i}"), placement.clone(), seed);
                spec.max_steps = 5;
                spec.stragglers = stragglers;
                spec
            })
            .collect();

        let baselines: Vec<_> = specs.iter().map(solo_signature).collect();

        let mut sched = Scheduler::new(SchedulerConfig::new(specs.len(), 0));
        for spec in &specs {
            sched.submit(spec.clone()).expect("co-tenant submit");
        }
        let outcomes = sched.run_to_completion();
        prop_assert_eq!(outcomes.len(), specs.len());
        for (outcome, baseline) in outcomes.iter().zip(&baselines) {
            prop_assert_eq!(&job_signature(outcome), baseline);
        }
    }

    /// Fair queueing: any mix of slots and queue capacity admits exactly
    /// min(jobs, slots + queue) jobs, rejects the rest with the typed
    /// overflow error, and every admitted job runs to completion — no
    /// starvation under round-robin.
    #[test]
    fn fair_queueing_never_starves_and_rejects_overflow_typed(
        jobs in 1usize..=6,
        slots in 1usize..=3,
        queue in 0usize..=2,
    ) {
        let placement = Placement::fractional(4, 2).expect("FR(4,2)");
        let mut sched = Scheduler::new(SchedulerConfig::new(slots, queue));
        let mut admitted = 0usize;
        for i in 0..jobs {
            let mut spec = JobSpec::new(format!("q-{i}"), placement.clone(), i as u64);
            spec.max_steps = 3;
            match sched.submit(spec) {
                Ok(_) => admitted += 1,
                Err(SchedError::QueueFull {
                    max_concurrent,
                    queue_capacity,
                }) => {
                    prop_assert_eq!(max_concurrent, slots);
                    prop_assert_eq!(queue_capacity, queue);
                    prop_assert_eq!(admitted, slots + queue);
                }
                Err(e) => prop_assert!(false, "unexpected submit error: {e}"),
            }
        }
        prop_assert_eq!(admitted, jobs.min(slots + queue));
        let outcomes = sched.run_to_completion();
        prop_assert_eq!(outcomes.len(), admitted);
        for outcome in &outcomes {
            let report = outcome.result.as_ref().expect("job trained");
            prop_assert_eq!(report.step_count(), 3, "job {} starved", outcome.name);
        }
    }
}
