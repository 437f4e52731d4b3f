//! The FR decoder (paper Algorithm 1).

use rand::RngCore;

use crate::decode::{assert_universe, DecodeResult, Decoder};
use crate::hash::{mix64, GOLDEN_GAMMA};
use crate::{Error, Placement, Scheme, WorkerSet};

/// `Decode()` for fractional repetition (paper Alg. 1).
///
/// Workers of the same group store identical partitions, so exactly one
/// worker per *surviving* group (a group with ≥ 1 available worker) can join
/// `I`; the representative is chosen uniformly at random so every worker —
/// hence every partition — has an equal chance of contributing to `ĝ`.
///
/// Complexity: `O(|W'|)`.
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
/// let p = Placement::fractional(6, 2)?;
/// let d = FrDecoder::new(&p)?;
/// // Groups {0,1}, {2,3}, {4,5}; workers 1, 2, 3 available.
/// let r = d.decode(
///     &WorkerSet::from_indices(6, [1, 2, 3]),
///     &mut StdRng::seed_from_u64(0),
/// );
/// // One of {2,3} plus worker 1: two groups survive, 4 partitions recovered.
/// assert_eq!(r.selected().len(), 2);
/// assert_eq!(r.recovered_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrDecoder {
    placement: Placement,
}

impl FrDecoder {
    /// Creates a decoder for a fractional-repetition placement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] if `placement` is not FR.
    pub fn new(placement: &Placement) -> Result<Self, Error> {
        if placement.scheme() != Scheme::Fractional {
            return Err(Error::invalid(format!(
                "FrDecoder requires an FR placement, got {}",
                placement.scheme()
            )));
        }
        Ok(Self {
            placement: placement.clone(),
        })
    }
}

impl Decoder for FrDecoder {
    fn n(&self) -> usize {
        self.placement.n()
    }

    fn decode(&self, available: &WorkerSet, rng: &mut dyn RngCore) -> DecodeResult {
        assert_universe(self.n(), available);
        let (n, c) = (self.placement.n(), self.placement.c());
        // One RNG draw per decode, then a per-group hash: group `g`'s
        // representative depends only on `(base, g)` and the group's own
        // survivors, never on the other groups. A sub-master decoding just
        // its shard of groups (with the same seed-derived RNG) therefore
        // picks exactly the representatives the flat decoder would — the
        // decomposability that 2-level hierarchical aggregation relies on.
        // A streamed `choose(rng)` per group would break this: the RNG
        // position at group `g` would depend on how many earlier groups
        // survived.
        let base = rng.next_u64();
        let mut selected = Vec::with_capacity(n / c);
        for group in 0..n / c {
            let members = WorkerSet::from_indices(n, group * c..(group + 1) * c);
            let survivors = available.intersection(&members).to_vec();
            if !survivors.is_empty() {
                // SplitMix64 decorrelates the pick from the group index so
                // neighbouring groups don't share low-bit patterns.
                let z = (base ^ group as u64).wrapping_add(GOLDEN_GAMMA);
                let pick = mix64(z) as usize % survivors.len();
                selected.push(survivors[pick]);
            }
        }
        DecodeResult::from_selected(&self.placement, selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConflictGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_non_fr_placement() {
        let cr = Placement::cyclic(4, 2).unwrap();
        assert!(FrDecoder::new(&cr).is_err());
    }

    #[test]
    fn one_representative_per_surviving_group() {
        let p = Placement::fractional(8, 2).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Groups: {0,1}, {2,3}, {4,5}, {6,7}. Available: 0, 1, 4.
        let r = d.decode(&WorkerSet::from_indices(8, [0, 1, 4]), &mut rng);
        assert_eq!(r.selected().len(), 2);
        assert!(r.selected().contains(&4));
        assert!(r.selected().contains(&0) ^ r.selected().contains(&1));
        assert_eq!(r.recovered_count(), 4);
    }

    #[test]
    fn empty_availability_recovers_nothing() {
        let p = Placement::fractional(4, 2).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = d.decode(&WorkerSet::empty(4), &mut rng);
        assert!(r.selected().is_empty());
    }

    #[test]
    fn full_availability_recovers_everything() {
        let p = Placement::fractional(6, 3).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r = d.decode(&WorkerSet::full(6), &mut rng);
        assert_eq!(r.selected().len(), 2);
        assert_eq!(r.partitions(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn always_optimal_exhaustively() {
        // Alg. 1 must return a *maximum* independent set for every subset.
        for (n, c) in [(4usize, 2usize), (6, 2), (6, 3), (8, 4)] {
            let p = Placement::fractional(n, c).unwrap();
            let d = FrDecoder::new(&p).unwrap();
            let g = ConflictGraph::from_placement(&p);
            let mut rng = StdRng::seed_from_u64(7);
            for mask in 0u32..(1 << n) {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let r = d.decode(&avail, &mut rng);
                assert!(g.is_independent(r.selected()));
                assert_eq!(
                    r.selected().len(),
                    g.alpha(&avail),
                    "n={n}, c={c}, mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn representative_choice_is_uniform() {
        let p = Placement::fractional(4, 2).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let avail = WorkerSet::full(4);
        let trials = 4000;
        let mut count0 = 0usize;
        for _ in 0..trials {
            let r = d.decode(&avail, &mut rng);
            if r.selected().contains(&0) {
                count0 += 1;
            }
        }
        let freq = count0 as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.05, "freq={freq}");
    }

    #[test]
    fn decode_decomposes_over_group_aligned_shards() {
        // Sub-masters decode only their shard's groups; with the same RNG
        // seed, the union of shard decodes must equal the flat decode.
        let (n, c) = (16usize, 2usize);
        let p = Placement::fractional(n, c).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        for seed in 0..20u64 {
            for mask in [0xFFFFu32, 0xA5C3, 0x0F0F, 0x1234, 0xFFFE, 0x8001] {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let flat = d
                    .decode(&avail, &mut StdRng::seed_from_u64(seed))
                    .selected()
                    .to_vec();
                let mut union = Vec::new();
                for (lo, hi) in [(0usize, 8usize), (8, 16)] {
                    let shard = WorkerSet::from_indices(n, lo..hi);
                    let r = d.decode(
                        &avail.intersection(&shard),
                        &mut StdRng::seed_from_u64(seed),
                    );
                    union.extend_from_slice(r.selected());
                }
                union.sort_unstable();
                assert_eq!(union, flat, "seed={seed}, mask={mask:x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn universe_mismatch_panics() {
        let p = Placement::fractional(4, 2).unwrap();
        let d = FrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = d.decode(&WorkerSet::empty(5), &mut rng);
    }
}
