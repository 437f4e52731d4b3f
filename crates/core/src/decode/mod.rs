//! Decoding algorithms (paper §IV–§VI).
//!
//! A decoder receives the set `W'` of workers whose coded gradients arrived
//! and selects a subset `I ⊆ W'` of pairwise non-conflicting workers whose
//! codewords can be summed into `ĝ`. The paper proves linear-time decoders
//! that make `I` a **maximum** independent set of the induced conflict graph
//! for each placement family:
//!
//! | decoder | paper | placement |
//! |---|---|---|
//! | [`FrDecoder`] | Alg. 1 | fractional repetition |
//! | [`CrDecoder`] | Algs. 2 | cyclic repetition |
//! | [`HrDecoder`] | Algs. 3–4 | hybrid repetition |
//! | [`ExactDecoder`] | — | any placement (branch-and-bound oracle) |
//! | [`ArrivalOrderDecoder`] | Fig. 3 strawman | any placement (greedy, maximal only) |
//! | [`ApproxDecoder`] | approximate GC (1905.05383) | bias-corrected partial estimates below the Theorem 10 floor |

mod approx;
mod arrival;
mod cr;
mod exact;
mod fr;
mod hr;

pub use approx::{ApproxDecoder, ApproxReport};
pub use arrival::ArrivalOrderDecoder;
pub use cr::CrDecoder;
pub use exact::{ExactDecoder, OracleTimeout};
pub use fr::FrDecoder;
pub use hr::{hr_conflict, HrDecoder};

use rand::RngCore;

use crate::{Error, PartitionId, Placement, Scheme, WorkerId, WorkerSet};

/// Builds the paper's decoder for a placement's scheme: Alg. 1 for FR,
/// Alg. 2 for CR, Algs. 3–4 for HR, and the exact branch-and-bound oracle
/// for custom placements.
///
/// This is the single `Scheme → Decoder` dispatch point shared by the
/// runtime, simulator, network master, and CLI.
///
/// # Errors
///
/// Propagates the decoder constructors' validation errors (e.g. a placement
/// whose scheme tag does not match its layout).
///
/// # Examples
///
/// ```
/// use isgc_core::decode::decoder_for;
/// use isgc_core::Placement;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let p = Placement::cyclic(6, 2)?;
/// let d = decoder_for(&p)?;
/// assert_eq!(d.n(), 6);
/// # Ok(())
/// # }
/// ```
pub fn decoder_for(placement: &Placement) -> Result<Box<dyn Decoder>, Error> {
    Ok(match placement.scheme() {
        Scheme::Fractional => Box::new(FrDecoder::new(placement)?),
        Scheme::Cyclic => Box::new(CrDecoder::new(placement)?),
        Scheme::Hybrid => Box::new(HrDecoder::new(placement)?),
        Scheme::Custom => Box::new(ExactDecoder::new(placement)),
    })
}

/// The outcome of decoding one step: the selected workers `I` and the
/// partitions whose gradients `ĝ = Σ_{i∈I} g_i` contains.
///
/// # Examples
///
/// ```
/// use isgc_core::decode::{Decoder, FrDecoder};
/// use isgc_core::{Placement, WorkerSet};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let p = Placement::fractional(4, 2)?;
/// let d = FrDecoder::new(&p)?;
/// let r = d.decode(&WorkerSet::from_indices(4, [0, 1]), &mut StdRng::seed_from_u64(0));
/// assert_eq!(r.selected().len(), 1); // one representative of group {0,1}
/// assert_eq!(r.partitions(), &[0, 1]);
/// assert_eq!(r.recovered_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeResult {
    selected: Vec<WorkerId>,
    partitions: Vec<PartitionId>,
}

impl DecodeResult {
    /// Builds a result from the selected workers, collecting their
    /// partitions from `placement`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the selected workers conflict (duplicate
    /// partitions) — decoders must only select independent sets.
    pub fn from_selected(placement: &Placement, mut selected: Vec<WorkerId>) -> Self {
        selected.sort_unstable();
        let mut partitions: Vec<PartitionId> = selected
            .iter()
            .flat_map(|&w| placement.partitions_of(w).iter().copied())
            .collect();
        partitions.sort_unstable();
        debug_assert!(
            partitions.windows(2).all(|p| p[0] != p[1]),
            "selected workers conflict: duplicate partitions in {selected:?}"
        );
        Self {
            selected,
            partitions,
        }
    }

    /// Like [`DecodeResult::from_selected`], but validates the selection in
    /// **all** build profiles: every worker id must be in range and no two
    /// selected workers may share a partition.
    ///
    /// Use this for selections from untrusted sources (custom decoders,
    /// deserialized state); the in-tree decoders are proven to produce
    /// independent sets, so the hot path keeps the debug-only assert.
    ///
    /// # Errors
    ///
    /// [`Error::ConflictingSelection`] when two selected workers (or a
    /// duplicated worker id) share a partition, and
    /// [`Error::WorkerSetMismatch`] when a worker id is `>= placement.n()`.
    pub fn try_from_selected(
        placement: &Placement,
        mut selected: Vec<WorkerId>,
    ) -> Result<Self, Error> {
        selected.sort_unstable();
        if let Some(&w) = selected.iter().find(|&&w| w >= placement.n()) {
            return Err(Error::WorkerSetMismatch {
                expected: placement.n(),
                got: w + 1,
            });
        }
        let mut partitions: Vec<PartitionId> = selected
            .iter()
            .flat_map(|&w| placement.partitions_of(w).iter().copied())
            .collect();
        partitions.sort_unstable();
        if let Some(pair) = partitions.windows(2).find(|p| p[0] == p[1]) {
            return Err(Error::ConflictingSelection {
                selected,
                partition: pair[0],
            });
        }
        Ok(Self {
            selected,
            partitions,
        })
    }

    /// An empty result (nothing recovered this step).
    pub fn empty() -> Self {
        Self {
            selected: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// The selected workers `I`, sorted.
    pub fn selected(&self) -> &[WorkerId] {
        &self.selected
    }

    /// The recovered partitions, sorted.
    pub fn partitions(&self) -> &[PartitionId] {
        &self.partitions
    }

    /// Number of partitions recovered, `|I| · c` for IS-GC placements.
    pub fn recovered_count(&self) -> usize {
        self.partitions.len()
    }

    /// Returns `true` when nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.selected.is_empty()
    }
}

/// A placement-specific `Decode()` function (paper §IV).
///
/// Implementations select a maximum (for the paper's three algorithms) or
/// maximal (for the arrival-order strawman) independent set of the conflict
/// graph induced by the available workers.
pub trait Decoder {
    /// The number of workers this decoder was built for.
    fn n(&self) -> usize;

    /// Decodes one step: picks non-conflicting workers out of `available`.
    ///
    /// Randomness only affects *which* maximum independent set is returned
    /// (for fairness across partitions, §IV), never its size.
    ///
    /// # Panics
    ///
    /// Panics if `available.universe() != self.n()`.
    fn decode(&self, available: &WorkerSet, rng: &mut dyn RngCore) -> DecodeResult;
}

pub(crate) fn assert_universe(n: usize, available: &WorkerSet) {
    assert_eq!(
        available.universe(),
        n,
        "decoder built for n={n} but worker set has universe {}",
        available.universe()
    );
}

/// Walks the ring clockwise from `start`, greedily adding every available
/// vertex that conflicts with none of the already-chosen ones.
///
/// `conflicts(a, b)` must be the symmetric conflict relation. This is the
/// common core of paper Algs. 2 and 3; correctness (the returned set is
/// independent) holds for *any* conflict relation because candidates are
/// checked against the running neighbor mask, while the paper's
/// last-and-first check is equivalent for CR/HR conflict structure.
pub(crate) fn greedy_ring_walk(
    n: usize,
    start: WorkerId,
    available: &WorkerSet,
    neighbors: impl Fn(WorkerId) -> WorkerSet,
) -> Vec<WorkerId> {
    let mut chosen = vec![start];
    let mut blocked = neighbors(start);
    for j in 1..n {
        let cand = (start + j) % n;
        if available.contains(cand) && !blocked.contains(cand) && !chosen.contains(&cand) {
            blocked = blocked.union(&neighbors(cand));
            chosen.push(cand);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn decode_result_accessors() {
        let p = Placement::cyclic(4, 2).unwrap();
        let r = DecodeResult::from_selected(&p, vec![2, 0]);
        assert_eq!(r.selected(), &[0, 2]);
        assert_eq!(r.partitions(), &[0, 1, 2, 3]);
        assert_eq!(r.recovered_count(), 4);
        assert!(!r.is_empty());
        let e = DecodeResult::empty();
        assert!(e.is_empty());
        assert_eq!(e.recovered_count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "selected workers conflict")]
    fn conflicting_selection_panics_in_debug() {
        let p = Placement::cyclic(4, 2).unwrap();
        let _ = DecodeResult::from_selected(&p, vec![0, 1]);
    }

    #[test]
    fn try_from_selected_validates_in_release_too() {
        let p = Placement::cyclic(4, 2).unwrap();
        let ok = DecodeResult::try_from_selected(&p, vec![2, 0]).unwrap();
        assert_eq!(ok.selected(), &[0, 2]);
        match DecodeResult::try_from_selected(&p, vec![0, 1]) {
            Err(Error::ConflictingSelection {
                selected,
                partition,
            }) => {
                assert_eq!(selected, vec![0, 1]);
                assert_eq!(partition, 1);
            }
            other => panic!("expected ConflictingSelection, got {other:?}"),
        }
        // A duplicated worker id is a conflict with itself.
        assert!(DecodeResult::try_from_selected(&p, vec![2, 2]).is_err());
        // Out-of-range worker ids are rejected rather than panicking.
        assert!(matches!(
            DecodeResult::try_from_selected(&p, vec![7]),
            Err(Error::WorkerSetMismatch { expected: 4, .. })
        ));
    }

    #[test]
    fn decoder_for_matches_scheme() {
        for p in [
            Placement::fractional(4, 2).unwrap(),
            Placement::cyclic(5, 2).unwrap(),
            Placement::hybrid(crate::HrParams::new(8, 2, 2, 2)).unwrap(),
            Placement::custom(vec![vec![0, 1], vec![1, 2], vec![2, 0]]).unwrap(),
        ] {
            let d = decoder_for(&p).unwrap();
            assert_eq!(d.n(), p.n());
            let r = d.decode(
                &WorkerSet::full(p.n()),
                &mut rand::rngs::StdRng::seed_from_u64(0),
            );
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn greedy_ring_walk_collects_non_adjacent() {
        // Ring of 6, conflict = distance < 2 (hexagon cycle graph).
        let avail = WorkerSet::full(6);
        let neighbors = |v: usize| WorkerSet::from_indices(6, [(v + 1) % 6, (v + 5) % 6]);
        let got = greedy_ring_walk(6, 0, &avail, neighbors);
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn greedy_ring_walk_respects_availability() {
        let avail = WorkerSet::from_indices(6, [0, 1, 3]);
        let neighbors = |v: usize| WorkerSet::from_indices(6, [(v + 1) % 6, (v + 5) % 6]);
        // From 0: 1 is adjacent (skip), 2 unavailable, 3 ok, 4/5 unavailable.
        assert_eq!(greedy_ring_walk(6, 0, &avail, neighbors), vec![0, 3]);
    }
}
