//! Partition-inclusion fairness (paper §IV).
//!
//! IS-GC promises that when worker speeds are i.i.d., every partition has
//! the *same* probability of appearing in `ĝ` — otherwise training would be
//! biased toward some regions of the dataset (the failure mode of IS-SGD
//! with an enduring straggler). This module estimates those probabilities by
//! Monte-Carlo simulation.

use rand::Rng;

use crate::decode::Decoder;
use crate::WorkerSet;

/// Empirical per-partition inclusion frequencies measured over repeated
/// decoding trials.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Per-partition frequency of appearing in `ĝ` (index = partition id).
    frequencies: Vec<f64>,
}

impl FairnessReport {
    /// Mean inclusion frequency across partitions.
    pub fn mean(&self) -> f64 {
        if self.frequencies.is_empty() {
            return 0.0;
        }
        self.frequencies.iter().sum::<f64>() / self.frequencies.len() as f64
    }

    /// Largest absolute deviation of any partition's frequency from the
    /// mean — the paper's fairness claim says this tends to 0.
    pub fn max_deviation(&self) -> f64 {
        let mean = self.mean();
        self.frequencies
            .iter()
            .fold(0.0, |m: f64, &f| m.max((f - mean).abs()))
    }
}

/// Estimates per-partition inclusion frequencies for `decoder` when exactly
/// `w` uniformly random workers are available each step.
///
/// # Panics
///
/// Panics if `w > decoder.n()` or `trials == 0`.
///
/// # Examples
///
/// ```
/// use isgc_core::decode::CrDecoder;
/// use isgc_core::fairness::measure_inclusion;
/// use isgc_core::Placement;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let p = Placement::cyclic(6, 2)?;
/// let d = CrDecoder::new(&p)?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let report = measure_inclusion(&d, 3, 2000, &mut rng);
/// assert!(report.max_deviation() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn measure_inclusion<R: Rng>(
    decoder: &dyn Decoder,
    w: usize,
    trials: usize,
    rng: &mut R,
) -> FairnessReport {
    let n = decoder.n();
    assert!(w <= n, "w={w} exceeds n={n}");
    assert!(trials > 0, "trials must be positive");
    let mut counts = vec![0usize; n];
    for _ in 0..trials {
        let available = WorkerSet::random_subset(n, w, rng);
        let result = decoder.decode(&available, rng);
        for &j in result.partitions() {
            counts[j] += 1;
        }
    }
    FairnessReport {
        frequencies: counts
            .into_iter()
            .map(|c| c as f64 / trials as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{CrDecoder, FrDecoder, HrDecoder};
    use crate::{HrParams, Placement};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_schemes_are_fair_under_iid_speeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let fr = Placement::fractional(8, 2).unwrap();
        let cr = Placement::cyclic(8, 2).unwrap();
        let hr = Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap();
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(FrDecoder::new(&fr).unwrap()),
            Box::new(CrDecoder::new(&cr).unwrap()),
            Box::new(HrDecoder::new(&hr).unwrap()),
        ];
        for d in &decoders {
            for w in [2usize, 4, 6] {
                let report = measure_inclusion(d.as_ref(), w, 3000, &mut rng);
                assert!(
                    report.max_deviation() < 0.05,
                    "w={w}: dev={} freqs={:?}",
                    report.max_deviation(),
                    report.frequencies
                );
            }
        }
    }

    #[test]
    fn full_availability_always_includes_everything_for_fr() {
        let fr = Placement::fractional(4, 2).unwrap();
        let d = FrDecoder::new(&fr).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let report = measure_inclusion(&d, 4, 100, &mut rng);
        assert!(report.frequencies.iter().all(|&f| f == 1.0));
        assert_eq!(report.max_deviation(), 0.0);
    }

    #[test]
    fn frequency_grows_with_w() {
        let cr = Placement::cyclic(8, 2).unwrap();
        let d = CrDecoder::new(&cr).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let f2 = measure_inclusion(&d, 2, 2000, &mut rng).mean();
        let f6 = measure_inclusion(&d, 6, 2000, &mut rng).mean();
        assert!(f2 < f6, "f2={f2}, f6={f6}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_w_panics() {
        let cr = Placement::cyclic(4, 2).unwrap();
        let d = CrDecoder::new(&cr).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = measure_inclusion(&d, 5, 10, &mut rng);
    }
}
