//! The HR decoder (paper Algorithms 3–4).

use rand::RngCore;

use crate::conflict::ring_distance;
use crate::decode::{assert_universe, greedy_ring_walk, DecodeResult, Decoder};
use crate::{ConflictGraph, Error, HrParams, Placement, Scheme, WorkerId, WorkerSet};

/// `Decode()` for hybrid repetition (paper Alg. 3).
///
/// The greedy clockwise walk of the CR decoder carries over, with two
/// changes (paper §VI-C):
///
/// 1. the starting vertices are all available workers of one random *group*
///    (Theorem 8 shows some maximum independent set touches any given
///    group's available workers);
/// 2. the conflict test is the HR `CONFLICT` predicate (Alg. 4) instead of
///    plain ring distance — implemented here via the precomputed
///    ground-truth conflict graph, with the closed form exposed as
///    [`hr_conflict`] and tested equivalent.
///
/// # Examples
///
/// ```
/// use isgc_core::decode::{Decoder, HrDecoder};
/// use isgc_core::{HrParams, Placement, WorkerSet};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// // Fig. 13 midpoint: HR(8, 2, 2) with two groups.
/// let p = Placement::hybrid(HrParams::new(8, 2, 2, 2))?;
/// let d = HrDecoder::new(&p)?;
/// let r = d.decode(
///     &WorkerSet::from_indices(8, [0, 1, 4, 5]),
///     &mut StdRng::seed_from_u64(0),
/// );
/// // One worker per group can join I (in-group workers conflict).
/// assert!(!r.selected().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HrDecoder {
    placement: Placement,
    params: HrParams,
    graph: ConflictGraph,
}

impl HrDecoder {
    /// Creates a decoder for a hybrid-repetition placement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] if `placement` is not HR.
    pub fn new(placement: &Placement) -> Result<Self, Error> {
        if placement.scheme() != Scheme::Hybrid {
            return Err(Error::invalid(format!(
                "HrDecoder requires an HR placement, got {}",
                placement.scheme()
            )));
        }
        let params = *placement
            .hr_params()
            .expect("hybrid placement always records its parameters");
        Ok(Self {
            placement: placement.clone(),
            params,
            graph: ConflictGraph::from_placement(placement),
        })
    }
}

impl Decoder for HrDecoder {
    fn n(&self) -> usize {
        self.placement.n()
    }

    fn decode(&self, available: &WorkerSet, rng: &mut dyn RngCore) -> DecodeResult {
        assert_universe(self.n(), available);
        let n = self.params.n();
        let n0 = self.params.n0();
        if available.is_empty() {
            return DecodeResult::empty();
        }
        // Alg. 3 line 2: a random group with at least one available worker.
        // Picking a random available worker and taking its whole group is
        // equivalent up to group weighting and keeps fairness per worker.
        let u = available
            .choose(rng)
            .expect("non-empty availability checked above");
        let starts: Vec<WorkerId> = if self.params.c1() == 0 {
            // Degenerate CR placement: fall back to Alg. 2's start rule of
            // c consecutive positions (groups are meaningless here).
            let c = self.params.c();
            (0..c)
                .map(|v| (u + v) % n)
                .filter(|&s| available.contains(s))
                .collect()
        } else {
            let group = u / n0;
            (group * n0..(group + 1) * n0)
                .filter(|&s| available.contains(s))
                .collect()
        };
        let mut best: Vec<WorkerId> = Vec::new();
        for start in starts {
            let walk = greedy_ring_walk(n, start, available, |w| self.graph.neighbors(w).clone());
            if walk.len() > best.len() {
                best = walk;
            }
        }
        DecodeResult::from_selected(&self.placement, best)
    }
}

/// The closed-form `CONFLICT` predicate of paper Alg. 4, symmetrized.
///
/// Returns `true` iff workers `i1` and `i2` of the placement `HR(n, c₁, c₂)`
/// store a common partition:
///
/// - `c₁ = 0` degenerates to CR, where conflict is ring distance `< c`;
/// - otherwise workers of the same group always conflict (Theorem 6), and
///   workers of clockwise-adjacent groups conflict iff the earlier worker's
///   global cyclic rows reach the later worker's partitions — the paper's
///   condition `j₁ ≥ n₀ − c₂ + 1 ∧ (i₂ − i₁) mod n < c` (1-indexed).
///
/// This is `O(1)` and is property-tested equivalent to the ground-truth
/// "shares a partition" relation for every valid parameter set.
///
/// # Panics
///
/// Panics if either worker index is `>= params.n()`.
pub fn hr_conflict(params: &HrParams, i1: WorkerId, i2: WorkerId) -> bool {
    let n = params.n();
    assert!(i1 < n && i2 < n, "worker index out of range");
    if i1 == i2 {
        return true;
    }
    if params.c1() == 0 {
        return ring_distance(n, i1, i2) < params.c();
    }
    conflict_one_way(params, i1, i2) || conflict_one_way(params, i2, i1)
}

/// Alg. 4 proper: detects whether `i1`'s placement reaches `i2`'s, where
/// `i2` is in the same or the clockwise-next group of `i1`.
fn conflict_one_way(params: &HrParams, i1: WorkerId, i2: WorkerId) -> bool {
    let n = params.n();
    let n0 = params.n0();
    let g = params.g();
    let (c1, c2) = (params.c1(), params.c2());
    let c = c1 + c2;
    let (g1, g2) = (i1 / n0, i2 / n0);
    if g1 == g2 {
        // Theorem 6: all workers of a group pairwise conflict when c1 > 0.
        return true;
    }
    if (g2 + g - g1) % g == 1 {
        // i1's global cyclic rows cover partitions i1..i1+c2−1; they enter
        // the next group iff j1 + c2 − 1 ≥ n0, i.e. i1 is one of the
        // rightmost c2 − 1 workers of its group (matching the paper's prose
        // "only the c2 − 1 workers on the right can conflict with workers in
        // the next group"). Given that, the covered prefix of the next group
        // meets i2's partitions iff (i2 − i1) mod n < c (paper Alg. 4).
        let j1 = i1 % n0;
        if c2 > 0 && j1 + c2 > n0 && (i2 + n - i1) % n < c {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every HR parameter set that is valid with n ≤ 12 (plus the paper's
    /// Fig. 13 family), for exhaustive testing.
    fn small_valid_params() -> Vec<HrParams> {
        let mut out = Vec::new();
        for n in 2..=12usize {
            for g in 1..=n {
                if n % g != 0 {
                    continue;
                }
                for c1 in 0..=n {
                    for c2 in 0..=n {
                        let p = HrParams::new(n, g, c1, c2);
                        if p.validate().is_ok() {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn rejects_non_hr_placement() {
        let cr = Placement::cyclic(4, 2).unwrap();
        assert!(HrDecoder::new(&cr).is_err());
    }

    #[test]
    fn alg4_closed_form_matches_ground_truth_for_all_small_params() {
        for params in small_valid_params() {
            let placement = Placement::hybrid(params).unwrap();
            for i1 in 0..params.n() {
                for i2 in 0..params.n() {
                    assert_eq!(
                        hr_conflict(&params, i1, i2),
                        placement.conflicts(i1, i2),
                        "params={params:?}, i1={i1}, i2={i2}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_always_independent_exhaustively() {
        for params in small_valid_params() {
            let n = params.n();
            if n > 10 {
                continue; // keep the 2^n loop cheap
            }
            let placement = Placement::hybrid(params).unwrap();
            let decoder = HrDecoder::new(&placement).unwrap();
            let graph = ConflictGraph::from_placement(&placement);
            let mut rng = StdRng::seed_from_u64(3);
            for mask in 0u32..(1 << n) {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let r = decoder.decode(&avail, &mut rng);
                assert!(
                    graph.is_independent(r.selected()),
                    "params={params:?}, mask={mask:b}"
                );
                assert!(r.selected().iter().all(|&v| avail.contains(v)));
            }
        }
    }

    #[test]
    fn decoder_always_optimal_exhaustively() {
        // Theorems 8-9: the grouped greedy search reaches a *maximum*
        // independent set for every availability pattern.
        for params in small_valid_params() {
            let n = params.n();
            if n > 10 {
                continue;
            }
            let placement = Placement::hybrid(params).unwrap();
            let decoder = HrDecoder::new(&placement).unwrap();
            let graph = ConflictGraph::from_placement(&placement);
            let mut rng = StdRng::seed_from_u64(17);
            for mask in 0u32..(1 << n) {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let r = decoder.decode(&avail, &mut rng);
                assert_eq!(
                    r.selected().len(),
                    graph.alpha(&avail),
                    "params={params:?}, mask={mask:b}, selected={:?}",
                    r.selected()
                );
            }
        }
    }

    #[test]
    fn fig13_family_decodes_optimally() {
        let mut rng = StdRng::seed_from_u64(23);
        for c1 in 0..=4usize {
            let params = HrParams::new(8, 2, c1, 4 - c1);
            let placement = Placement::hybrid(params).unwrap();
            let decoder = HrDecoder::new(&placement).unwrap();
            let graph = ConflictGraph::from_placement(&placement);
            for mask in 0u32..(1 << 8) {
                let avail = WorkerSet::from_indices(8, (0..8).filter(|&i| mask & (1 << i) != 0));
                let r = decoder.decode(&avail, &mut rng);
                assert_eq!(
                    r.selected().len(),
                    graph.alpha(&avail),
                    "c1={c1}, mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn empty_availability() {
        let p = Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap();
        let d = HrDecoder::new(&p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(d
            .decode(&WorkerSet::empty(8), &mut rng)
            .selected()
            .is_empty());
    }

    #[test]
    fn hr_conflict_symmetry() {
        for params in small_valid_params() {
            for a in 0..params.n() {
                for b in 0..params.n() {
                    assert_eq!(
                        hr_conflict(&params, a, b),
                        hr_conflict(&params, b, a),
                        "params={params:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hr_conflict_c1_zero_is_cr_distance() {
        let params = HrParams::new(8, 2, 0, 3);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(
                    hr_conflict(&params, a, b),
                    a == b || ring_distance(8, a, b) < 3
                );
            }
        }
    }
}
