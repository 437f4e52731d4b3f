//! The CR decoder (paper Algorithm 2).

use rand::RngCore;

use crate::conflict::ring_distance;
use crate::decode::{assert_universe, greedy_ring_walk, DecodeResult, Decoder};
use crate::{Error, Placement, Scheme, WorkerSet};

/// `Decode()` for cyclic repetition (paper Alg. 2).
///
/// The CR conflict graph is the circulant `C_n^{1..c−1}` (Theorem 1): workers
/// conflict iff their ring distance is below `c`. A single greedy clockwise
/// walk finds a *maximal* independent set (Theorem 2); running it from every
/// available vertex among `c` consecutive starting positions guarantees at
/// least one walk reaches a *maximum* independent set (Theorem 3).
///
/// Complexity: `O(c · |W'|/c) = O(|W'|)` amortized over the `≤ c` walks.
///
/// # Examples
///
/// ```
/// use isgc_core::decode::{CrDecoder, Decoder};
/// use isgc_core::{Placement, WorkerSet};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let p = Placement::cyclic(4, 2)?;
/// let d = CrDecoder::new(&p)?;
/// // Fig. 4(b) discussion: from {0, 1, 2}, the maximum is {0, 2}, which a
/// // walk starting at 1 alone would miss.
/// let r = d.decode(
///     &WorkerSet::from_indices(4, [0, 1, 2]),
///     &mut StdRng::seed_from_u64(3),
/// );
/// assert_eq!(r.selected(), &[0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrDecoder {
    placement: Placement,
}

impl CrDecoder {
    /// Creates a decoder for a cyclic-repetition placement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] if `placement` is not CR.
    pub fn new(placement: &Placement) -> Result<Self, Error> {
        if placement.scheme() != Scheme::Cyclic {
            return Err(Error::invalid(format!(
                "CrDecoder requires a CR placement, got {}",
                placement.scheme()
            )));
        }
        Ok(Self {
            placement: placement.clone(),
        })
    }

    /// The circulant neighbor set of `v`: all vertices at ring distance
    /// `1..c` from `v`.
    fn neighbor_set(&self, v: usize) -> WorkerSet {
        let (n, c) = (self.placement.n(), self.placement.c());
        let mut s = WorkerSet::empty(n);
        for d in 1..c {
            if d >= n {
                break;
            }
            s.insert((v + d) % n);
            s.insert((v + n - d % n) % n);
        }
        s
    }
}

impl Decoder for CrDecoder {
    fn n(&self) -> usize {
        self.placement.n()
    }

    fn decode(&self, available: &WorkerSet, rng: &mut dyn RngCore) -> DecodeResult {
        assert_universe(self.n(), available);
        let (n, c) = (self.placement.n(), self.placement.c());
        let Some(u) = available.choose(rng) else {
            return DecodeResult::empty();
        };
        // Theorem 3: among the ≤ c available vertices in positions
        // u, u+1, …, u+c−1 there is a start whose greedy walk is maximum.
        let mut best: Vec<usize> = Vec::new();
        for v in 0..c {
            let start = (u + v) % n;
            if !available.contains(start) {
                continue;
            }
            let walk = greedy_ring_walk(n, start, available, |w| self.neighbor_set(w));
            if walk.len() > best.len() {
                best = walk;
            }
        }
        debug_assert!(best
            .iter()
            .enumerate()
            .all(|(i, &a)| best[i + 1..].iter().all(|&b| ring_distance(n, a, b) >= c)));
        DecodeResult::from_selected(&self.placement, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_cr_placement() {
        let fr = Placement::fractional(4, 2).unwrap();
        assert!(CrDecoder::new(&fr).is_err());
    }

    #[test]
    fn neighbor_set_is_circulant_band() {
        let p = Placement::cyclic(8, 3).unwrap();
        let d = CrDecoder::new(&p).unwrap();
        assert_eq!(d.neighbor_set(0).to_vec(), vec![1, 2, 6, 7]);
        assert_eq!(d.neighbor_set(7).to_vec(), vec![0, 1, 5, 6]);
    }

    #[test]
    fn neighbor_set_matches_conflict_graph() {
        for (n, c) in [(4usize, 2usize), (7, 3), (9, 4), (6, 6), (5, 1)] {
            let p = Placement::cyclic(n, c).unwrap();
            let d = CrDecoder::new(&p).unwrap();
            let g = ConflictGraph::from_placement(&p);
            for v in 0..n {
                assert_eq!(
                    d.neighbor_set(v).to_vec(),
                    g.neighbors(v).to_vec(),
                    "n={n}, c={c}, v={v}"
                );
            }
        }
    }

    #[test]
    fn fig1d_example_two_opposite_workers_recover_everything() {
        // Fig. 1(d): workers 0 and 2 available in CR(4, 2) recover all of g.
        let p = Placement::cyclic(4, 2).unwrap();
        let d = CrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let r = d.decode(&WorkerSet::from_indices(4, [0, 2]), &mut rng);
        assert_eq!(r.selected(), &[0, 2]);
        assert_eq!(r.partitions(), &[0, 1, 2, 3]);
    }

    #[test]
    fn empty_availability() {
        let p = Placement::cyclic(5, 2).unwrap();
        let d = CrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(d
            .decode(&WorkerSet::empty(5), &mut rng)
            .selected()
            .is_empty());
    }

    #[test]
    fn c_equals_one_selects_all_available() {
        // With c = 1 (IS-SGD degenerate case) there are no conflicts.
        let p = Placement::cyclic(6, 1).unwrap();
        let d = CrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let avail = WorkerSet::from_indices(6, [0, 2, 3, 5]);
        let r = d.decode(&avail, &mut rng);
        assert_eq!(r.selected(), &[0, 2, 3, 5]);
    }

    #[test]
    fn always_optimal_exhaustively() {
        // Alg. 2 must return a maximum independent set for every subset W'
        // of every small CR instance, for every random seed choice.
        for n in 2..=10usize {
            for c in 1..=n {
                let p = Placement::cyclic(n, c).unwrap();
                let d = CrDecoder::new(&p).unwrap();
                let g = ConflictGraph::from_placement(&p);
                let mut rng = StdRng::seed_from_u64(5);
                for mask in 0u32..(1 << n) {
                    let avail =
                        WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                    let r = d.decode(&avail, &mut rng);
                    assert!(
                        g.is_independent(r.selected()),
                        "n={n}, c={c}, mask={mask:b}"
                    );
                    assert_eq!(
                        r.selected().len(),
                        g.alpha(&avail),
                        "n={n}, c={c}, mask={mask:b}, selected={:?}",
                        r.selected()
                    );
                }
            }
        }
    }

    #[test]
    fn optimal_on_larger_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n = 11 + (trial % 14); // n in 11..25
            let c = 1 + (trial % (n / 2));
            let p = Placement::cyclic(n, c).unwrap();
            let d = CrDecoder::new(&p).unwrap();
            let g = ConflictGraph::from_placement(&p);
            let w = trial % (n + 1);
            let avail = WorkerSet::random_subset(n, w, &mut rng);
            let r = d.decode(&avail, &mut rng);
            assert!(g.is_independent(r.selected()));
            assert_eq!(r.selected().len(), g.alpha(&avail), "n={n}, c={c}, w={w}");
        }
    }
}
