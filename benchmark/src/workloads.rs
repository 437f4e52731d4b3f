//! The four workloads. Sizes were chosen on a 2-core host; `README.md` says
//! why each exists and which layer it stresses.

use std::time::Duration;

use isgc_core::Placement;
use isgc_engine::{EngineConfig, StepEngine};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::{Model, SoftmaxRegression};
use isgc_simnet::cluster::{ClusterConfig, StragglerSelection};
use isgc_simnet::delay::Delay;

/// Which placement family a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Fractional repetition.
    Fr,
    /// Cyclic repetition.
    Cr,
}

/// How a workload's steps are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Loopback TCP: `Master` on the main thread, `run_swarm` on a second.
    Tcp,
    /// `isgc_simnet::trainer`, single thread, no sockets.
    Sim,
}

/// One workload's fixed configuration; the seed supplies everything else.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// TCP or simulator.
    pub backend: Backend,
    /// FR or CR.
    pub scheme: Scheme,
    /// Workers (= partitions).
    pub n: usize,
    /// Partitions per worker.
    pub c: usize,
    /// Codewords the master waits for each step.
    pub w: usize,
    /// Softmax input features.
    pub features: usize,
    /// Softmax classes.
    pub classes: usize,
    /// Mini-batch per partition per step.
    pub batch: usize,
    /// Dataset size.
    pub samples: usize,
    /// SGD learning rate. The engine sums partition means, so the effective
    /// rate grows with n (and the gradient norm with the feature count):
    /// the large and the wide workload scale it down so the loss stays
    /// finite and falls, which the gate requires.
    pub learning_rate: f64,
    /// Whether the traced run also times [`FANIN_PROBE`], the n = 16 anchor
    /// of `net.fanin_efficiency` (only meaningful for the same model and
    /// batch at a larger n).
    pub fanin_probe: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Shape; 4] = [
    Shape {
        name: "fanin-n300",
        backend: Backend::Tcp,
        scheme: Scheme::Fr,
        n: 300,
        c: 2,
        w: 297,
        features: 8,
        classes: 4,
        batch: 8,
        samples: 8 * 300,
        learning_rate: 0.0005,
        fanin_probe: true,
    },
    Shape {
        name: "wide-d65k",
        backend: Backend::Tcp,
        scheme: Scheme::Fr,
        n: 16,
        c: 2,
        w: 15,
        features: 4096,
        classes: 16,
        batch: 1,
        samples: 128,
        learning_rate: 0.0005,
        fanin_probe: false,
    },
    Shape {
        name: "straggle-cr64",
        backend: Backend::Tcp,
        scheme: Scheme::Cr,
        n: 64,
        c: 4,
        w: 48,
        features: 8,
        classes: 4,
        batch: 8,
        samples: 8 * 64,
        learning_rate: 0.05,
        fanin_probe: false,
    },
    Shape {
        name: "sim-cr24",
        backend: Backend::Sim,
        scheme: Scheme::Cr,
        n: 24,
        c: 4,
        w: 18,
        features: 8,
        classes: 4,
        batch: 8,
        samples: 8 * 24,
        learning_rate: 0.05,
        fanin_probe: false,
    },
];

/// Workloads `--workload` accepts by name but `BENCHMARK.json` does not
/// list, so neither the suite nor the gate runs them. `fanin-n1000` is the
/// fan-in workload at ROADMAP item 2's target size; on the shared 2-core
/// reference host its ten-run spread (14-50 %) is wider than any bound the
/// benchmark may declare, so the gated workload is the same shape at n = 300
/// (README, "Measured noise").
pub const EXTRA: [Shape; 1] = [Shape {
    name: "fanin-n1000",
    backend: Backend::Tcp,
    scheme: Scheme::Fr,
    n: 1000,
    c: 2,
    w: 990,
    features: 8,
    classes: 4,
    batch: 8,
    samples: 8 * 1000,
    learning_rate: 0.0005,
    fanin_probe: true,
}];

/// The n = 16 probe that anchors `net.fanin_efficiency`: the fan-in
/// workload's model and batch at sixteen workers.
pub const FANIN_PROBE: Shape = Shape {
    name: "fanin-probe-n16",
    backend: Backend::Tcp,
    scheme: Scheme::Fr,
    n: 16,
    c: 2,
    w: 16,
    features: 8,
    classes: 4,
    batch: 8,
    samples: 8 * 16,
    learning_rate: 0.05,
    fanin_probe: false,
};

impl Shape {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Shape> {
        WORKLOADS
            .iter()
            .chain(&EXTRA)
            .copied()
            .find(|s| s.name == name)
    }

    /// The workload's placement.
    pub fn placement(&self) -> Placement {
        match self.scheme {
            Scheme::Fr => Placement::fractional(self.n, self.c),
            Scheme::Cr => Placement::cyclic(self.n, self.c),
        }
        .expect("workload shapes are valid placements")
    }

    /// The model every workload trains.
    pub fn model(&self) -> SoftmaxRegression {
        SoftmaxRegression::new(self.features, self.classes)
    }

    /// Parameter dimension (`features * classes + classes`).
    pub fn dim(&self) -> usize {
        self.features * self.classes + self.classes
    }

    /// The seeded dataset; master and swarm synthesise it independently
    /// from the same seed, as separate processes would.
    pub fn dataset(&self, seed: u64) -> Dataset {
        Dataset::gaussian_classification(self.samples, self.features, self.classes, 3.0, seed)
    }

    /// Full-dataset loss at the seed's initial parameters — what a run's
    /// final loss must stay below. Every backend starts from
    /// `StepEngine::initial_params`, a pure function of the seed.
    pub fn initial_loss(&self, seed: u64, dataset: &Dataset) -> f64 {
        let mut config = EngineConfig::new(self.placement());
        config.seed = seed;
        let engine = StepEngine::new(config).expect("workload shapes are valid engine configs");
        let model = self.model();
        let all: Vec<usize> = (0..dataset.len()).collect();
        model.loss_mean(&engine.initial_params(&model), dataset, &all)
    }

    /// The paper's Fig. 11 cluster at this workload's size: 0.2 s per
    /// partition, 0.05 s communication, U[0, 0.02) jitter, and Exp(mean
    /// 1.5 s) extra delay on a random half of the workers every step.
    pub fn fig11_cluster(&self) -> ClusterConfig {
        ClusterConfig {
            n: self.n,
            compute_time_per_partition: 0.2,
            comm_time: 0.05,
            jitter: Delay::Uniform { lo: 0.0, hi: 0.02 },
            straggler_delay: Delay::Exponential { mean: 1.5 },
            stragglers: StragglerSelection::RandomEachStep(self.n / 2),
        }
    }
}

/// How one run splits its measuring time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Independent sessions (each pays set-up, warm-up and teardown).
    pub sessions: usize,
    /// Measurement windows per session.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
    /// Unmeasured stepping before the first window of a session.
    pub warmup: Duration,
}

impl Plan {
    /// The untraced plan: 6 sessions × 2 windows sharing `seconds`. Many
    /// short sessions rather than few long ones, because on a shared 2-core
    /// host whole sessions run fast or slow together (±10 %), and a median
    /// is only as steady as the number of independent samples under it.
    pub fn untraced(seconds: f64) -> Plan {
        Plan {
            sessions: 6,
            windows: 2,
            window: Duration::from_secs_f64(seconds / 12.0),
            warmup: Duration::from_millis(500),
        }
    }

    /// The traced plan: 2 reference and 2 traced sessions, alternating, each
    /// of 2 windows as long as the untraced plan's.
    pub fn traced(seconds: f64) -> Plan {
        Plan {
            sessions: 2,
            ..Plan::untraced(seconds)
        }
    }

    /// `--smoke`: 1 session × 1 window × 1 s, same checks.
    pub fn smoke() -> Plan {
        Plan {
            sessions: 1,
            windows: 1,
            window: Duration::from_secs(1),
            warmup: Duration::from_millis(100),
        }
    }
}
