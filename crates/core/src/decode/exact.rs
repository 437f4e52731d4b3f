//! Exact maximum-independent-set decoder (reference oracle).

use std::fmt;
use std::time::{Duration, Instant};

use rand::RngCore;

use crate::decode::{assert_universe, DecodeResult, Decoder};
use crate::{ConflictGraph, Placement, WorkerSet};

/// The exact oracle's branch-and-bound exceeded its wall-clock budget.
///
/// Returned by [`ExactDecoder::decode_within`] instead of a possibly
/// non-maximum set; callers that used to silently skip the oracle above an
/// arbitrary size cutoff can now run it with a budget and report this typed
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleTimeout {
    /// The budget the search was given before it was cut off.
    pub budget: Duration,
}

impl fmt::Display for OracleTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exact-MIS oracle exceeded its {:?} budget before completing",
            self.budget
        )
    }
}

impl std::error::Error for OracleTimeout {}

/// A decoder that computes the exact maximum independent set by
/// branch-and-bound, for *any* placement.
///
/// Exponential in the worst case; used as the correctness oracle for the
/// paper's linear-time decoders and as the decoder for ad-hoc placements
/// that have no specialized algorithm. Deterministic: the `rng` argument is
/// unused.
///
/// # Examples
///
/// ```
/// use isgc_core::decode::{Decoder, ExactDecoder};
/// use isgc_core::{Placement, WorkerSet};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let p = Placement::cyclic(6, 2)?;
/// let d = ExactDecoder::new(&p);
/// let r = d.decode(&WorkerSet::full(6), &mut StdRng::seed_from_u64(0));
/// assert_eq!(r.selected().len(), 3); // n/c = 3 non-conflicting workers
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExactDecoder {
    placement: Placement,
    graph: ConflictGraph,
    budget: Option<Duration>,
}

impl ExactDecoder {
    /// Creates the oracle decoder for any placement.
    pub fn new(placement: &Placement) -> Self {
        Self {
            placement: placement.clone(),
            graph: ConflictGraph::from_placement(placement),
            budget: None,
        }
    }

    /// Creates the oracle with a wall-clock budget for each decode.
    ///
    /// [`ExactDecoder::decode_within`] aborts the branch-and-bound once the
    /// budget elapses and returns [`OracleTimeout`] instead of a possibly
    /// non-maximum selection. The [`Decoder::decode`] trait path ignores the
    /// budget and always runs to completion (it has no error channel).
    pub fn with_budget(placement: &Placement, budget: Duration) -> Self {
        Self {
            budget: Some(budget),
            ..Self::new(placement)
        }
    }

    /// Decodes one step under the configured budget.
    ///
    /// Without a budget (constructed via [`ExactDecoder::new`]) this is
    /// identical to [`Decoder::decode`] and never fails.
    ///
    /// # Errors
    ///
    /// [`OracleTimeout`] when the branch-and-bound did not finish within the
    /// budget; no partial result is returned because an interrupted search
    /// cannot certify maximality.
    ///
    /// # Panics
    ///
    /// Panics if `available.universe() != self.n()`.
    pub fn decode_within(&self, available: &WorkerSet) -> Result<DecodeResult, OracleTimeout> {
        assert_universe(self.n(), available);
        let deadline = self.budget.map(|b| Instant::now() + b);
        match self.graph.max_independent_set_within(available, deadline) {
            Some(selected) => Ok(DecodeResult::from_selected(&self.placement, selected)),
            None => Err(OracleTimeout {
                budget: self.budget.unwrap_or(Duration::ZERO),
            }),
        }
    }
}

impl Decoder for ExactDecoder {
    fn n(&self) -> usize {
        self.placement.n()
    }

    fn decode(&self, available: &WorkerSet, _rng: &mut dyn RngCore) -> DecodeResult {
        assert_universe(self.n(), available);
        let selected = self.graph.max_independent_set(available);
        DecodeResult::from_selected(&self.placement, selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HrParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_on_fr_equals_group_count() {
        let p = Placement::fractional(8, 2).unwrap();
        let d = ExactDecoder::new(&p);
        let mut rng = StdRng::seed_from_u64(0);
        let r = d.decode(&WorkerSet::full(8), &mut rng);
        assert_eq!(r.selected().len(), 4);
        assert_eq!(r.recovered_count(), 8);
    }

    #[test]
    fn works_on_hybrid() {
        let p = Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap();
        let d = ExactDecoder::new(&p);
        let mut rng = StdRng::seed_from_u64(0);
        let r = d.decode(&WorkerSet::full(8), &mut rng);
        assert_eq!(r.selected().len(), 2); // floor(n/c) = 2
        assert!(d.graph.is_independent(r.selected()));
    }

    #[test]
    fn decode_within_matches_unbudgeted_decode() {
        let p = Placement::cyclic(9, 3).unwrap();
        let generous = ExactDecoder::with_budget(&p, std::time::Duration::from_secs(30));
        let avail = WorkerSet::from_indices(9, [0, 2, 4, 5, 8]);
        let budgeted = generous.decode_within(&avail).unwrap();
        let exact = ExactDecoder::new(&p).decode(&avail, &mut StdRng::seed_from_u64(0));
        assert_eq!(budgeted, exact);
        // An unbudgeted decoder's decode_within also never times out.
        assert!(ExactDecoder::new(&p).decode_within(&avail).is_ok());
    }

    #[test]
    fn zero_budget_times_out_on_a_hard_graph() {
        // A scrambled balanced placement (three affine permutations of the
        // partitions, so each partition is stored by exactly c = 3 workers)
        // whose conflict graph is unstructured enough that the search needs
        // well over the 256 nodes between deadline checks.
        let n = 36;
        let data: Vec<Vec<usize>> = (0..n)
            .map(|w| vec![w, (17 * w + 5) % n, (25 * w + 11) % n])
            .collect();
        let p = Placement::custom(data).unwrap();
        let d = ExactDecoder::with_budget(&p, std::time::Duration::ZERO);
        match d.decode_within(&WorkerSet::full(n)) {
            Err(OracleTimeout { budget }) => assert_eq!(budget, std::time::Duration::ZERO),
            Ok(r) => panic!("zero-budget search completed: {r:?}"),
        }
    }

    #[test]
    fn deterministic_across_rng_seeds() {
        let p = Placement::cyclic(9, 3).unwrap();
        let d = ExactDecoder::new(&p);
        let avail = WorkerSet::from_indices(9, [0, 2, 4, 5, 8]);
        let r1 = d.decode(&avail, &mut StdRng::seed_from_u64(1));
        let r2 = d.decode(&avail, &mut StdRng::seed_from_u64(999));
        assert_eq!(r1, r2);
    }
}
