//! Ablations of the two design choices DESIGN.md calls out:
//!
//! 1. **Optimal vs. arrival-order decoding** (paper Fig. 3 / §V-B): how many
//!    gradients does the maximum-independent-set decoder recover beyond the
//!    naive greedy that accepts codewords in arrival order?
//! 2. **Gradient normalization** (Theorem 12): the paper's sum-of-partition-
//!    means update (step size scales with recovery) vs. a mean-over-recovered
//!    update (unbiased, recovery only changes variance).
//!
//! Run with: `cargo run --release -p isgc-bench --bin ablation`

use isgc_bench::cloud_cluster;
use isgc_bench::table::Table;
use isgc_core::Placement;
use isgc_ml::dataset::Dataset;
use isgc_ml::metrics::mean;
use isgc_ml::model::SoftmaxRegression;
use isgc_simnet::policy::WaitPolicy;
use isgc_simnet::trainer::{train, CodingScheme, GradientNormalization, TrainingConfig};

const TRIALS: u64 = 8;

fn main() {
    decoder_ablation();
    normalization_ablation();
}

/// Ablation 1: recovery and steps with the optimal decoder vs. the
/// arrival-order strawman, CR(8, 3), w ∈ {3, 4, 5}.
fn decoder_ablation() {
    println!("Ablation 1 — optimal (Alg. 2) vs. arrival-order decoding, CR(8,3)\n");
    let placement = Placement::cyclic(8, 3).expect("valid CR");
    let mut table = Table::new(vec![
        "decoder",
        "w",
        "recovered %",
        "steps",
        "train time (s)",
    ]);
    for w in [3usize, 4, 5] {
        for (name, scheme) in [
            ("optimal", CodingScheme::IsGc(placement.clone())),
            ("arrival", CodingScheme::IsGcArrivalOrder(placement.clone())),
        ] {
            let (rec, steps, time) = run(&scheme, w);
            table.add_row(vec![
                name.to_string(),
                w.to_string(),
                format!("{rec:.1}"),
                format!("{steps:.0}"),
                format!("{time:.1}"),
            ]);
        }
    }
    table.print();
    println!("\nExpected: the optimal decoder recovers strictly more at every w,");
    println!("so it needs fewer steps and less total time.\n");
}

/// Ablation 2: the two normalization rules at w = 2, CR(4, 2).
fn normalization_ablation() {
    println!("Ablation 2 — gradient normalization at w = 2, CR(4,2)\n");
    let placement = Placement::cyclic(4, 2).expect("valid CR");
    let mut table = Table::new(vec![
        "normalization",
        "steps",
        "final loss",
        "train time (s)",
    ]);
    for (name, norm) in [
        (
            "sum-of-partition-means",
            GradientNormalization::SumOfPartitionMeans,
        ),
        (
            "mean-over-recovered",
            GradientNormalization::MeanOverRecovered,
        ),
    ] {
        let dataset = Dataset::gaussian_classification(512, 8, 4, 3.0, 777);
        let model = SoftmaxRegression::new(8, 4);
        let mut steps = Vec::new();
        let mut times = Vec::new();
        let mut finals = Vec::new();
        for trial in 0..TRIALS {
            let config = TrainingConfig {
                batch_size: 32,
                learning_rate: 0.05,
                loss_threshold: 0.205,
                max_steps: 4000,
                seed: 40 + trial * 11,
                normalization: norm,
                ..Default::default()
            };
            let r = train(
                &model,
                &dataset,
                &CodingScheme::IsGc(placement.clone()),
                &WaitPolicy::WaitForCount(2),
                cloud_cluster(4),
                &config,
            );
            steps.push(r.step_count() as f64);
            times.push(r.sim_time());
            finals.push(r.final_loss());
        }
        table.add_row(vec![
            name.to_string(),
            format!("{:.0}", mean(&steps)),
            format!("{:.3}", mean(&finals)),
            format!("{:.1}", mean(&times)),
        ]);
    }
    table.print();
    println!("\nAt a fixed learning rate the paper's sum-of-partition-means update is");
    println!("|I| times larger than mean-over-recovered, so it reaches the threshold");
    println!("in proportionally fewer steps; the two rules coincide after retuning η.");
    println!("The sum rule is the one matching Theorem 12's η·|D_d| semantics and");
    println!("producing Fig. 12(b)'s recovery-dependent step counts.");
}

fn run(scheme: &CodingScheme, w: usize) -> (f64, f64, f64) {
    let dataset = Dataset::gaussian_classification(512, 8, 4, 3.0, 777);
    let model = SoftmaxRegression::new(8, 4);
    let mut rec = Vec::new();
    let mut steps = Vec::new();
    let mut times = Vec::new();
    for trial in 0..TRIALS {
        let config = TrainingConfig {
            batch_size: 32,
            learning_rate: 0.05,
            loss_threshold: 0.205,
            max_steps: 4000,
            seed: 70 + trial * 13,
            normalization: GradientNormalization::SumOfPartitionMeans,
            ..Default::default()
        };
        let r = train(
            &model,
            &dataset,
            scheme,
            &WaitPolicy::WaitForCount(w),
            cloud_cluster(8),
            &config,
        );
        rec.push(100.0 * r.mean_recovered_fraction());
        steps.push(r.step_count() as f64);
        times.push(r.sim_time());
    }
    (mean(&rec), mean(&steps), mean(&times))
}
