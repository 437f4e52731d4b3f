//! Reproduces paper Fig. 13: the FR↔CR tradeoff achieved by hybrid
//! repetition, with n = 8 workers, c = 4, g = 2 groups.
//!
//! Paper setup: ResNet-18 on CIFAR-10 with n = 8, learning rate 0.001,
//! batch 128, constructing HR(8, c₁, 4 − c₁) for c₁ ∈ {0..3}; c₁ = 0 is CR
//! and c₁ = 3 (≡ c₁ = 4) is FR.
//!
//! Panels:
//!   (a) recovered gradients vs. c₁ (more recovered as c₁ grows),
//!   (b) training loss vs. step at w = 2 (higher recovery trains faster).
//!
//! Run with: `cargo run --release -p isgc-bench --bin fig13`

use isgc_bench::cloud_cluster;
use isgc_bench::table::Table;
use isgc_core::decode::{Decoder, HrDecoder};
use isgc_core::{HrParams, Placement, WorkerSet};
use isgc_ml::dataset::Dataset;
use isgc_ml::metrics::mean;
use isgc_ml::model::SoftmaxRegression;
use isgc_simnet::policy::WaitPolicy;
use isgc_simnet::trainer::{train, CodingScheme, GradientNormalization, TrainingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 8;
const C: usize = 4;
const G: usize = 2;
const MC_TRIALS: usize = 20_000;
const TRAIN_TRIALS: u64 = 10;
const LOSS_STEPS: [usize; 6] = [0, 20, 40, 80, 120, 199];

fn main() {
    println!("Fig. 13 — HR(8, c1, 4−c1) tradeoff, n = {N}, c = {C}, g = {G}\n");
    panel_a();
    panel_b();
    println!("Expected shape (paper): recovered gradients increase with c1 (CR at");
    println!("c1 = 0 recovers least, FR at c1 = 3 most); at w = 2 the training");
    println!("loss at a given step decreases as c1 grows.");
}

/// Panel (a): Monte-Carlo expected recovery (% of partitions) when exactly
/// `w` uniformly random workers respond.
fn panel_a() {
    println!("(a) expected gradients recovered (% of n), Monte-Carlo over W'");
    let mut table = Table::new(vec!["placement", "w=2", "w=3", "w=4", "w=6"]);
    for c1 in 0..=3usize {
        let placement =
            Placement::hybrid(HrParams::new(N, G, c1, C - c1)).expect("Fig. 13 family is valid");
        let decoder = HrDecoder::new(&placement).expect("HR placement");
        let mut rng = StdRng::seed_from_u64(42 + c1 as u64);
        let mut cells = vec![label_for(c1)];
        for w in [2usize, 3, 4, 6] {
            let mut total = 0usize;
            for _ in 0..MC_TRIALS {
                let avail = WorkerSet::random_subset(N, w, &mut rng);
                total += decoder.decode(&avail, &mut rng).recovered_count();
            }
            let pct = 100.0 * total as f64 / (MC_TRIALS * N) as f64;
            cells.push(format!("{pct:.1}"));
        }
        table.add_row(cells);
    }
    table.print();
    println!();
}

/// Panel (b): training-loss curves at w = 2, averaged over trials.
fn panel_b() {
    let mut chart = isgc_bench::plot::AsciiChart::new(60, 12);
    println!("(b) training loss vs. step at w = 2 ({TRAIN_TRIALS} trials)");
    let model = SoftmaxRegression::new(8, 4);
    let dataset = Dataset::gaussian_classification(512, 8, 4, 3.0, 777);
    let mut header = vec!["placement".to_string()];
    header.extend(LOSS_STEPS.iter().map(|s| format!("step {s}")));
    let mut table = Table::new(header);
    for c1 in 0..=3usize {
        let placement =
            Placement::hybrid(HrParams::new(N, G, c1, C - c1)).expect("Fig. 13 family is valid");
        // Mean loss curve across trials (all run the full step budget).
        let mut curves: Vec<Vec<f64>> = Vec::new();
        for trial in 0..TRAIN_TRIALS {
            let config = TrainingConfig {
                batch_size: 32,
                learning_rate: 0.02,
                loss_threshold: 0.0, // run all steps; we compare curves
                max_steps: 200,
                seed: 500 + trial * 17,
                normalization: GradientNormalization::SumOfPartitionMeans,
                ..Default::default()
            };
            let report = train(
                &model,
                &dataset,
                &CodingScheme::IsGc(placement.clone()),
                &WaitPolicy::WaitForCount(2),
                cloud_cluster(N),
                &config,
            );
            curves.push(report.loss_curve());
        }
        let mut cells = vec![label_for(c1)];
        for &s in &LOSS_STEPS {
            let at_step: Vec<f64> = curves.iter().map(|c| c[s]).collect();
            cells.push(format!("{:.3}", mean(&at_step)));
        }
        table.add_row(cells);
        // Mean curve for the ASCII figure.
        let steps = curves[0].len();
        let mean_curve: Vec<f64> = (0..steps)
            .map(|s| mean(&curves.iter().map(|c| c[s]).collect::<Vec<_>>()))
            .collect();
        chart.add_series(
            char::from_digit(c1 as u32, 10).expect("single digit"),
            &mean_curve,
        );
    }
    table.print();
    println!("\nloss curves (marker = c1; higher c1 sits lower at every step):");
    print!("{}", chart.render());
    println!();
}

fn label_for(c1: usize) -> String {
    match c1 {
        0 => "HR(8,0,4) = CR".to_string(),
        3 => "HR(8,3,1) = FR".to_string(),
        _ => format!("HR(8,{c1},{})", C - c1),
    }
}
