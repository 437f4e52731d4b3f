//! Approximate decoding below the Theorem 10 floor.
//!
//! The paper's decoders are exact: they select a maximum independent set of
//! the conflict graph and recover each covered partition's gradient once.
//! When the arrival set is so thin that even the optimal selection recovers
//! fewer partitions than a caller's coverage floor — or nothing at all — the
//! approximate-GC literature (Bitar et al., "Stochastic Gradient Coding for
//! Straggler Mitigation", 1905.05383; Glasgow–Wootters, 2006.09638) shows a
//! *bias-corrected partial estimate* of the full gradient is enough to keep
//! SGD converging.
//!
//! [`ApproxDecoder`] takes the conflict-free selection the exact decoder
//! already made and produces an [`ApproxReport`] describing the partial
//! estimate — which partitions are covered, how many replicas of each
//! arrived, and the normalization weights that make the partial sum an
//! unbiased estimate of the full-gradient sum under uniform coverage:
//! with `S` the covered partitions out of `k`, the corrected estimate is
//! `(k/|S|) · Σ_{p∈S} ḡ_p`, whose expectation over a uniformly random
//! covered set equals the exact sum `Σ_{p∈[k]} ḡ_p`.

use crate::{PartitionId, Placement, WorkerId, WorkerSet};

/// The partial-estimate description produced by [`ApproxDecoder`]: what a
/// degraded step can still recover, and how to weight it.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxReport {
    /// The conflict-free sub-collection of arrived workers whose codewords
    /// are summed (sorted; the same selection the exact decoder makes).
    pub selected: Vec<WorkerId>,
    /// Partitions covered by `selected`, sorted; each appears exactly once
    /// in the partial sum because the selection is conflict-free.
    pub covered: Vec<PartitionId>,
    /// `multiplicity[i]` = how many *arrived* workers hold `covered[i]`,
    /// counting replicas the conflict-free selection had to ignore. A
    /// multiplicity above 1 means redundancy arrived but could not raise
    /// coverage.
    pub multiplicity: Vec<usize>,
    /// Per-covered-partition bias-correction weight, `k / |covered|`:
    /// scaling each covered partition's mean gradient by this makes the
    /// partial sum an unbiased estimate of the full `k`-partition sum
    /// under uniform coverage (all weights are equal because the selection
    /// is conflict-free — each covered partition contributes exactly once).
    pub weights: Vec<f64>,
    /// Fraction of partitions covered, `|covered| / k` in `[0, 1]`.
    pub coverage: f64,
    /// The scalar applied to the summed partial gradient: `k / |covered|`,
    /// or `0.0` when nothing was covered (no estimate exists).
    pub bias_weight: f64,
}

impl ApproxReport {
    /// An empty report: nothing arrived, nothing covered, no estimate.
    pub fn empty() -> Self {
        ApproxReport {
            selected: Vec::new(),
            covered: Vec::new(),
            multiplicity: Vec::new(),
            weights: Vec::new(),
            coverage: 0.0,
            bias_weight: 0.0,
        }
    }
}

/// Partial-estimate accounting for steps below the coverage floor (see the
/// module docs), over one placement.
pub struct ApproxDecoder {
    placement: Placement,
}

impl ApproxDecoder {
    /// Builds the accounting for `placement`.
    pub fn new(placement: &Placement) -> Self {
        ApproxDecoder {
            placement: placement.clone(),
        }
    }

    /// Builds the [`ApproxReport`] for an already-chosen conflict-free
    /// selection — the path the step engine uses, since it has already run
    /// its own decode with the canonical per-step RNG. Deterministic: no
    /// randomness is consumed.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `selected` covers a partition twice
    /// (the selection must be conflict-free, as all in-tree decoders
    /// guarantee).
    pub fn report_for(&self, available: &WorkerSet, selected: &[WorkerId]) -> ApproxReport {
        let k = self.placement.n();
        let mut selected: Vec<WorkerId> = selected.to_vec();
        selected.sort_unstable();
        let mut covered: Vec<PartitionId> = selected
            .iter()
            .flat_map(|&w| self.placement.partitions_of(w).iter().copied())
            .collect();
        covered.sort_unstable();
        debug_assert!(
            covered.windows(2).all(|p| p[0] != p[1]),
            "approx selection must be conflict-free, got {selected:?}"
        );
        if covered.is_empty() {
            return ApproxReport::empty();
        }
        // Replica accounting over the *whole* arrival set: how many copies
        // of each covered partition reached the master, selected or not.
        let multiplicity = covered
            .iter()
            .map(|&p| {
                available
                    .iter()
                    .filter(|&w| self.placement.partitions_of(w).contains(&p))
                    .count()
            })
            .collect();
        let bias_weight = k as f64 / covered.len() as f64;
        ApproxReport {
            weights: vec![bias_weight; covered.len()],
            coverage: covered.len() as f64 / k as f64,
            bias_weight,
            selected,
            covered,
            multiplicity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decoder_for;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The report for `available` on top of the placement's exact decode —
    /// the step engine's path.
    fn report(p: &Placement, available: &WorkerSet) -> ApproxReport {
        let decoder = decoder_for(p).unwrap();
        let selected = decoder.decode(available, &mut StdRng::seed_from_u64(0));
        ApproxDecoder::new(p).report_for(available, selected.selected())
    }

    #[test]
    fn full_arrival_covers_everything_with_unit_bias() {
        let p = Placement::fractional(6, 2).unwrap();
        let r = report(&p, &WorkerSet::full(6));
        assert_eq!(r.covered, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.bias_weight, 1.0);
        assert_eq!(r.weights, vec![1.0; 6]);
        // Every partition has both FR replicas in the arrival set.
        assert_eq!(r.multiplicity, vec![2; 6]);
    }

    #[test]
    fn single_arrival_yields_partial_estimate_with_corrected_bias() {
        // FR(6,2): worker 0 holds partitions {0,1}; alone it covers 2 of 6.
        let p = Placement::fractional(6, 2).unwrap();
        let r = report(&p, &WorkerSet::from_indices(6, [0]));
        assert_eq!(r.selected, vec![0]);
        assert_eq!(r.covered, p.partitions_of(0).to_vec());
        assert!((r.coverage - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.bias_weight, 3.0);
        assert_eq!(r.weights, vec![3.0, 3.0]);
        assert_eq!(r.multiplicity, vec![1, 1]);
    }

    #[test]
    fn multiplicity_counts_unselected_replicas() {
        // FR(6,2): workers 0 and 1 mirror partitions {0,1}. Only one can be
        // selected (they conflict), but both replicas arrived.
        let p = Placement::fractional(6, 2).unwrap();
        let r = report(&p, &WorkerSet::from_indices(6, [0, 1]));
        assert_eq!(r.selected.len(), 1);
        assert_eq!(r.covered.len(), 2);
        assert_eq!(r.multiplicity, vec![2, 2]);
        assert_eq!(r.bias_weight, 3.0);
    }

    #[test]
    fn empty_arrival_yields_empty_report() {
        let p = Placement::fractional(4, 2).unwrap();
        let r = report(&p, &WorkerSet::empty(4));
        assert_eq!(r, ApproxReport::empty());
        assert_eq!(r.bias_weight, 0.0);
        assert_eq!(r.coverage, 0.0);
    }

    #[test]
    fn report_for_is_deterministic() {
        let p = Placement::cyclic(7, 3).unwrap();
        let avail = WorkerSet::from_indices(7, [0, 1, 4, 5]);
        let r = report(&p, &avail);
        assert_eq!(r, ApproxDecoder::new(&p).report_for(&avail, &r.selected));
    }

    #[test]
    fn bias_weight_times_coverage_is_one() {
        // The correction exactly cancels the coverage deficit, whatever the
        // placement family.
        for p in [
            Placement::fractional(8, 2).unwrap(),
            Placement::cyclic(9, 3).unwrap(),
        ] {
            for upto in 1..p.n() {
                let r = report(&p, &WorkerSet::from_indices(p.n(), 0..upto));
                if !r.covered.is_empty() {
                    assert!((r.bias_weight * r.coverage - 1.0).abs() < 1e-12);
                }
            }
        }
    }
}
