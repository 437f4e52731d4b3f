//! Reproduces paper Fig. 12: training performance vs. the number of waited
//! workers `w`, with n = 4 workers and c = 2.
//!
//! Paper setup: ResNet-18 on CIFAR-10, Google Cloud, batch 128, trained to a
//! loss threshold; average of 10 trials. Stand-in here: softmax regression
//! on a synthetic 4-class Gaussian dataset over a communication-dominated
//! simulated cluster (exponential upload jitter).
//!
//! Panels:
//!   (a) percentage of samples in the recovered gradients,
//!   (b) number of steps to reach the loss threshold,
//!   (c) average time per step,
//!   (d) total training time.
//!
//! Run with: `cargo run --release -p isgc-bench --bin fig12`
//! (add `-- --mlp` for the non-convex MLP variant of the workload)

use isgc_bench::cloud_cluster;
use isgc_bench::table::Table;
use isgc_core::Placement;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::{Mlp, SoftmaxRegression};
use isgc_obs::{buckets, Class, Registry};
use isgc_simnet::policy::WaitPolicy;
use isgc_simnet::trainer::{
    train, CodingScheme, GradientNormalization, TrainReport, TrainingConfig,
};

const N: usize = 4;
const C: usize = 2;
const TRIALS: u64 = 10;

fn main() {
    let use_mlp = std::env::args().any(|a| a == "--mlp");
    println!(
        "Fig. 12 — training to a loss threshold, n = {N}, c = {C}, {TRIALS} trials, model = {}\n",
        if use_mlp {
            "MLP(8-16-4)"
        } else {
            "softmax regression"
        }
    );

    let mut rows: Vec<(String, usize, Vec<TrainReport>)> = Vec::new();
    for w in 1..=N {
        rows.push((
            "IS-SGD".to_string(),
            w,
            run_trials(&CodingScheme::IgnoreStragglerSgd, w, use_mlp),
        ));
        let fr = Placement::fractional(N, C).expect("valid FR");
        rows.push((
            "IS-GC-FR".to_string(),
            w,
            run_trials(&CodingScheme::IsGc(fr), w, use_mlp),
        ));
        let cr = Placement::cyclic(N, C).expect("valid CR");
        rows.push((
            "IS-GC-CR".to_string(),
            w,
            run_trials(&CodingScheme::IsGc(cr), w, use_mlp),
        ));
    }
    // Reference points: classic GC needs w = n − c + 1 = 3; sync needs w = 4.
    rows.push((
        "GC-CR".to_string(),
        N - C + 1,
        run_trials(&CodingScheme::ClassicCr { c: C }, N - C + 1, use_mlp),
    ));
    rows.push((
        "SyncSGD".to_string(),
        N,
        run_trials(&CodingScheme::Synchronous, N, use_mlp),
    ));

    let mut table = Table::new(vec![
        "scheme",
        "w",
        "(a) recovered %",
        "(b) steps",
        "(c) time/step (s)",
        "(d) train time (s)",
    ]);
    // Every trial lands in a metrics registry, one labelled histogram per
    // panel; the table reads the snapshots' moment sums instead of keeping
    // private per-row accumulators.
    let registry = Registry::new();
    for (scheme, w, reports) in &rows {
        let w_label = w.to_string();
        let labels = [("scheme", scheme.as_str()), ("w", w_label.as_str())];
        for r in reports {
            registry.observe(
                "bench.fig12.recovered_pct",
                &labels,
                Class::Logical,
                &buckets::linear(0.0, 5.0, 20),
                100.0 * r.mean_recovered_fraction(),
            );
            registry.observe(
                "bench.fig12.steps",
                &labels,
                Class::Logical,
                &buckets::linear(0.0, 200.0, 20),
                r.step_count() as f64,
            );
            registry.observe(
                "bench.fig12.step_time_s",
                &labels,
                Class::Timing,
                &buckets::linear(0.0, 0.1, 20),
                r.mean_step_duration(),
            );
            registry.observe(
                "bench.fig12.train_time_s",
                &labels,
                Class::Timing,
                &buckets::linear(0.0, 25.0, 20),
                r.sim_time(),
            );
        }
        let hist = |name: &str| registry.histogram(name, &labels).expect("fig12 histogram");
        let recovered = hist("bench.fig12.recovered_pct").mean();
        let steps = hist("bench.fig12.steps").mean();
        let tps = hist("bench.fig12.step_time_s").mean();
        let total = hist("bench.fig12.train_time_s").mean();
        let converged = reports.iter().filter(|r| r.reached_threshold).count();
        table.add_row(vec![
            scheme.clone(),
            w.to_string(),
            format!("{recovered:.1}"),
            format!(
                "{steps:.0}{}",
                if converged < reports.len() { "*" } else { "" }
            ),
            format!("{tps:.3}"),
            format!("{total:.1}"),
        ]);
    }
    table.print();

    // Planner cross-check: does the analytic w-profile predict the measured
    // Fig. 12(d) optimum without running any training?
    use isgc_core::decode::FrDecoder;
    use isgc_simnet::planner::{best_wait_count, plan_wait_counts};
    let fr = Placement::fractional(N, C).expect("valid FR");
    let decoder = FrDecoder::new(&fr).expect("FR");
    let plans = plan_wait_counts(&fr, &decoder, cloud_cluster(N), 4000, 99);
    println!("\nplanner prediction (IS-GC-FR, no training executed):");
    for p in &plans {
        println!(
            "  w={}  E[step]={:.3}s  E[recovered]={:.2}  relative total={:.3}",
            p.w, p.step_time, p.recovered, p.relative_total_time
        );
    }
    println!("  → planner picks w = {}", best_wait_count(&plans));

    println!("\n(* = some trials hit the step cap before the loss threshold)");
    println!("Expected shape (paper): recovery rises with w and IS-GC > IS-SGD at");
    println!("every w (full recovery already at w = 3); steps fall as recovery");
    println!("rises (min at full recovery); time/step rises with w; total training");
    println!("time is U-shaped with the optimum at w = 2, where FR beats CR.");
}

fn run_trials(scheme: &CodingScheme, w: usize, use_mlp: bool) -> Vec<TrainReport> {
    // One fixed dataset (the paper trains one CIFAR-10); trials vary the
    // arrival, mini-batch, and initialization randomness only.
    let dataset = Dataset::gaussian_classification(512, 8, 4, 3.0, 777);
    (0..TRIALS)
        .map(|trial| {
            let config = TrainingConfig {
                batch_size: 32,
                learning_rate: 0.05,
                // The MLP starts from random init with a slightly higher
                // attainable loss floor; nudge the threshold accordingly.
                loss_threshold: if use_mlp { 0.24 } else { 0.205 },
                max_steps: 4000,
                seed: 9000 + trial * 31,
                normalization: GradientNormalization::SumOfPartitionMeans,
                ..Default::default()
            };
            let policy = WaitPolicy::WaitForCount(w);
            if use_mlp {
                let model = Mlp::new(8, 16, 4);
                train(&model, &dataset, scheme, &policy, cloud_cluster(N), &config)
            } else {
                let model = SoftmaxRegression::new(8, 4);
                train(&model, &dataset, scheme, &policy, cloud_cluster(N), &config)
            }
        })
        .collect()
}
