//! Recovery bounds (paper §VII-A, Theorems 10–11).
//!
//! With `w = |W'|` available workers out of `n`, storage factor `c`, the
//! independence number of the induced conflict graph — and hence the number
//! of selectable workers — satisfies
//!
//! ```text
//! min(⌈w/c⌉, ⌊n/c⌋)  ≤  α(G[W'])  ≤  min(w, ⌊n/c⌋)
//! ```
//!
//! for FR and CR (and the `c₁ = 0` HR degeneration, which *is* CR).
//! A genuine hybrid (`c₁ > 0`) has a different extremal structure — its `g`
//! groups of `n₀ ≥ c` pairwise-conflicting workers cap `α` at `g`, which sits
//! *below* `⌊n/c⌋` whenever `n₀ > c` — so the placement-aware
//! [`alpha_bounds_of`] / [`recovery_bounds_of`] entry points dispatch on the
//! scheme and are what the engine and harnesses should use. Multiplying by
//! `c` turns worker counts into recovered-partition counts.

/// Theorem 10: the worst-case number of selectable workers,
/// `min(⌈w/c⌉, ⌊n/c⌋)`.
///
/// # Panics
///
/// Panics if `c == 0` or `w > n`.
///
/// # Examples
///
/// ```
/// // 3 of 4 workers arrive with c = 2: at least 2 workers always combine.
/// assert_eq!(isgc_core::bounds::alpha_lower_bound(4, 2, 3), 2);
/// ```
pub fn alpha_lower_bound(n: usize, c: usize, w: usize) -> usize {
    assert!(c > 0, "c must be positive");
    assert!(w <= n, "w={w} cannot exceed n={n}");
    (w.div_ceil(c)).min(n / c)
}

/// Theorem 11: the best-case number of selectable workers, `min(w, ⌊n/c⌋)`.
///
/// # Panics
///
/// Panics if `c == 0` or `w > n`.
///
/// # Examples
///
/// ```
/// // Even with all 4 workers up, at most n/c = 2 non-conflicting workers
/// // exist when c = 2.
/// assert_eq!(isgc_core::bounds::alpha_upper_bound(4, 2, 4), 2);
/// ```
pub fn alpha_upper_bound(n: usize, c: usize, w: usize) -> usize {
    assert!(c > 0, "c must be positive");
    assert!(w <= n, "w={w} cannot exceed n={n}");
    w.min(n / c)
}

/// Worst-case number of recovered partitions, `c · alpha_lower_bound`.
///
/// # Panics
///
/// Panics if `c == 0` or `w > n`.
pub fn recovery_lower_bound(n: usize, c: usize, w: usize) -> usize {
    c * alpha_lower_bound(n, c, w)
}

/// One decode checked against Theorems 10–11: the bound interval and the
/// observed recovery, bundled as an emit-ready record — the engine copies
/// it into every step report and the metrics layer turns it into bound
/// histograms and violation counters without recomputing the theorems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundCheck {
    /// Theorem 10 floor on recovered partitions for this arrival count.
    pub lo: usize,
    /// Theorem 11 ceiling on recovered partitions for this arrival count.
    pub hi: usize,
    /// Partitions the decode actually recovered.
    pub recovered: usize,
}

impl BoundCheck {
    /// Whether the observed recovery sits inside `[lo, hi]`.
    pub fn within(&self) -> bool {
        (self.lo..=self.hi).contains(&self.recovered)
    }
}

/// Placement-aware bracket on the number of selectable workers `α(G[W'])`,
/// as `(lower, upper)`.
///
/// For FR and CR this is exactly Theorems 10–11,
/// `min(⌈w/c⌉, ⌊n/c⌋) ≤ α ≤ min(w, ⌊n/c⌋)`. For a *genuine* hybrid
/// (`c₁ > 0`) the Theorem 6 constraint `n₀ ≤ c + c₁` makes workers within a
/// group pairwise conflict, while workers in different groups conflict only
/// through the `c₂` global cyclic rows (circular distance `< c₂ < n₀`), so
///
/// ```text
/// ⌈w/n₀⌉  ≤  α(G[W'])  ≤  min(w, g)
/// ```
///
/// with both ends attained (an adversary packs arrivals into ⌈w/n₀⌉ full
/// groups; a friend spreads one arrival per group, `n₀ > c₂` apart). At the
/// `n₀ = c` FR corner this is Theorems 10–11 verbatim (`g = n/c`). The naive
/// `⌊n/c⌋` ceiling — and the `⌈w/c⌉` floor it caps — is *wrong* for
/// `n₀ > c` hybrids, which the full Theorem 6-range decoder sweep exposed;
/// `hr_bounds_exhaustive_over_theorem6_range` below verifies the hybrid
/// bracket against the exact `α` on every availability pattern of every
/// valid small shape.
///
/// # Panics
///
/// Panics if `w > n`.
///
/// # Examples
///
/// ```
/// use isgc_core::{bounds, HrParams, Placement};
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// // Genuine hybrid HR(14, c₁=3, c₂=1): g = 2 groups of n₀ = 7 > c = 4.
/// // α is capped at g = 2, below ⌊n/c⌋ = 3 — with all 14 workers up the
/// // naive Theorem 10 floor min(⌈14/4⌉, 3) = 3 already exceeds it.
/// let p = Placement::hybrid(HrParams::new(14, 2, 3, 1))?;
/// assert_eq!(bounds::alpha_bounds_of(&p, 14), (2, 2));
/// assert_eq!(bounds::alpha_bounds_of(&p, 3), (1, 2));
/// # Ok(())
/// # }
/// ```
pub fn alpha_bounds_of(placement: &crate::Placement, w: usize) -> (usize, usize) {
    let n = placement.n();
    assert!(w <= n, "w={w} cannot exceed n={n}");
    match placement.hr_params() {
        Some(prm) if prm.c1() > 0 => (w.div_ceil(prm.n0()), w.min(prm.g())),
        _ => {
            let c = placement.c();
            (alpha_lower_bound(n, c, w), alpha_upper_bound(n, c, w))
        }
    }
}

/// Placement-aware recovered-partition bracket: `c · alpha_bounds_of`,
/// ceiling capped at `n`.
///
/// # Panics
///
/// Panics if `w > n`.
pub fn recovery_bounds_of(placement: &crate::Placement, w: usize) -> (usize, usize) {
    let c = placement.c();
    let (lo, hi) = alpha_bounds_of(placement, w);
    (c * lo, (c * hi).min(placement.n()))
}

/// Whether `recovered` partitions from `w` available workers is consistent
/// with the placement-aware bracket of [`recovery_bounds_of`].
///
/// # Panics
///
/// Panics if `w > n`.
pub fn recovery_within_bounds_of(placement: &crate::Placement, w: usize, recovered: usize) -> bool {
    let (lo, hi) = recovery_bounds_of(placement, w);
    (lo..=hi).contains(&recovered)
}

/// Checks one decode against the placement-aware bracket and returns the
/// full [`BoundCheck`] record — what the step engine emits on every decode.
///
/// # Panics
///
/// Panics if `w > n`.
pub fn check_recovery_of(placement: &crate::Placement, w: usize, recovered: usize) -> BoundCheck {
    let (lo, hi) = recovery_bounds_of(placement, w);
    BoundCheck { lo, hi, recovered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{CrDecoder, Decoder, FrDecoder, HrDecoder};
    use crate::{HrParams, Placement, WorkerSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounds_are_consistent() {
        for n in 1..=16 {
            for c in 1..=n {
                for w in 0..=n {
                    let lo = alpha_lower_bound(n, c, w);
                    let hi = alpha_upper_bound(n, c, w);
                    assert!(lo <= hi, "n={n}, c={c}, w={w}");
                    assert!(recovery_lower_bound(n, c, w) <= n);
                }
            }
        }
    }

    #[test]
    fn zero_available_recovers_zero() {
        assert_eq!(alpha_lower_bound(8, 2, 0), 0);
        assert_eq!(alpha_upper_bound(8, 2, 0), 0);
    }

    #[test]
    fn full_availability_hits_n_over_c() {
        assert_eq!(alpha_lower_bound(8, 2, 8), 4);
        assert_eq!(alpha_upper_bound(8, 2, 8), 4);
        assert_eq!(recovery_lower_bound(8, 2, 8), 8);
        // Non-divisible case: CR(7, 3) can select at most 2 workers.
        assert_eq!(alpha_upper_bound(7, 3, 7), 2);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn w_above_n_panics() {
        alpha_lower_bound(4, 2, 5);
    }

    /// Every decoder's output must fall within the placement-aware bounds
    /// for every availability pattern of exhaustive small instances —
    /// including genuine hybrids with `n₀ > c`, where the naive Theorems
    /// 10–11 formulas do not apply.
    #[test]
    fn decoders_respect_bounds_exhaustively() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut cases: Vec<(Placement, Box<dyn Decoder>)> = Vec::new();
        for (n, c) in [(6usize, 2usize), (6, 3), (8, 2), (8, 4)] {
            let fr = Placement::fractional(n, c).unwrap();
            cases.push((fr.clone(), Box::new(FrDecoder::new(&fr).unwrap())));
            let cr = Placement::cyclic(n, c).unwrap();
            cases.push((cr.clone(), Box::new(CrDecoder::new(&cr).unwrap())));
        }
        for c1 in 0..=4usize {
            let hr = Placement::hybrid(HrParams::new(8, 2, c1, 4 - c1)).unwrap();
            cases.push((hr.clone(), Box::new(HrDecoder::new(&hr).unwrap())));
        }
        // Genuine n₀ > c hybrids (full-range shapes the FR corner misses).
        for prm in [HrParams::new(6, 2, 1, 1), HrParams::new(10, 2, 3, 1)] {
            prm.validate().unwrap();
            let hr = Placement::hybrid(prm).unwrap();
            cases.push((hr.clone(), Box::new(HrDecoder::new(&hr).unwrap())));
        }
        for (placement, decoder) in &cases {
            let n = placement.n();
            for mask in 0u32..(1 << n) {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let w = avail.len();
                let got = decoder.decode(&avail, &mut rng).selected().len();
                let (lo, hi) = alpha_bounds_of(placement, w);
                assert!(
                    got >= lo,
                    "{} n={n} mask={mask:b}: {got} < lower {lo}",
                    placement.scheme()
                );
                assert!(
                    got <= hi,
                    "{} n={n} mask={mask:b}: {got} > upper {hi}",
                    placement.scheme()
                );
            }
        }
    }

    /// The hybrid bracket `⌈w/n₀⌉ ≤ α(G[W']) ≤ min(w, g)` against the exact
    /// independence number, exhaustively over every availability pattern of
    /// every valid genuine-HR shape with `n ≤ 12` (the Theorem 6 range
    /// `c ≤ n₀ ≤ 2c − 1`, every admissible `c₁ > 0`) — and both ends must be
    /// attained somewhere whenever the bracket is non-degenerate.
    #[test]
    fn hr_bounds_exhaustive_over_theorem6_range() {
        let mut shapes = 0usize;
        for g in 2usize..=3 {
            for c in 2usize..=4 {
                for n0 in c..=(2 * c - 1) {
                    let n = g * n0;
                    if n > 12 {
                        continue;
                    }
                    for c1 in 1..=c.min(n0) {
                        let prm = HrParams::new(n, g, c1, c - c1);
                        if prm.validate().is_err() {
                            continue;
                        }
                        let placement = Placement::hybrid(prm).unwrap();
                        let graph = crate::ConflictGraph::from_placement(&placement);
                        for w in 1..=n {
                            let (lo, hi) = alpha_bounds_of(&placement, w);
                            let mut lo_attained = false;
                            let mut hi_attained = false;
                            let mut mask: u32 = (1 << w) - 1;
                            let limit: u32 = 1 << n;
                            while mask < limit {
                                let avail = WorkerSet::from_indices(
                                    n,
                                    (0..n).filter(|&i| mask & (1 << i) != 0),
                                );
                                let alpha = graph.alpha(&avail);
                                assert!(
                                    (lo..=hi).contains(&alpha),
                                    "{prm:?} w={w} mask={mask:b}: alpha={alpha} outside [{lo}, {hi}]"
                                );
                                lo_attained |= alpha == lo;
                                hi_attained |= alpha == hi;
                                // Next mask with the same popcount.
                                let c0 = mask & mask.wrapping_neg();
                                let r = mask + c0;
                                mask = (((r ^ mask) >> 2) / c0) | r;
                            }
                            assert!(lo_attained, "{prm:?} w={w}: floor {lo} never attained");
                            assert!(hi_attained, "{prm:?} w={w}: ceiling {hi} never attained");
                        }
                        shapes += 1;
                    }
                }
            }
        }
        assert!(
            shapes >= 10,
            "exhaustive sweep covered only {shapes} shapes"
        );
    }

    /// On FR and CR the placement-aware entry points agree exactly with the
    /// raw Theorem 10–11 formulas, and a decode is within bounds exactly when
    /// it lands in the inclusive bracket — both ends attained, one past
    /// either end not.
    #[test]
    fn placement_aware_bounds_match_formulas_on_fr_cr() {
        for (n, c) in [(6usize, 2usize), (8, 4), (9, 3), (7, 3)] {
            let mut placements = vec![Placement::cyclic(n, c).unwrap()];
            if n.is_multiple_of(c) {
                placements.push(Placement::fractional(n, c).unwrap());
                // c₁ = 0 HR is CR by construction.
                placements.push(Placement::hybrid(HrParams::new(n, 1, 0, c)).unwrap());
            }
            for p in &placements {
                for w in 0..=n {
                    assert_eq!(
                        alpha_bounds_of(p, w),
                        (alpha_lower_bound(n, c, w), alpha_upper_bound(n, c, w)),
                        "{} n={n} c={c} w={w}",
                        p.scheme()
                    );
                    let (lo, hi) = recovery_bounds_of(p, w);
                    assert_eq!(lo, recovery_lower_bound(n, c, w));
                    assert_eq!(hi, (c * alpha_upper_bound(n, c, w)).min(n));
                    for recovered in 0..=n + 1 {
                        let check = check_recovery_of(p, w, recovered);
                        assert_eq!((check.lo, check.hi, check.recovered), (lo, hi, recovered));
                        assert_eq!(check.within(), (lo..=hi).contains(&recovered));
                        assert_eq!(check.within(), recovery_within_bounds_of(p, w, recovered));
                    }
                }
            }
        }
    }

    /// The most stragglers every one of whose patterns still leaves `n/c`
    /// non-conflicting workers, i.e. recovers all `n` partitions — found by
    /// computing `α` on every availability pattern (`n ≤ 16`).
    fn full_recovery_tolerance(placement: &Placement) -> usize {
        let (n, c) = (placement.n(), placement.c());
        if !n.is_multiple_of(c) {
            return 0; // c ∤ n: even all workers can't tile the partitions
        }
        let graph = crate::ConflictGraph::from_placement(placement);
        let fewest_losing_stragglers = (0u32..1 << n)
            .filter(|&mask| {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                graph.alpha(&avail) < n / c
            })
            .map(|mask| n - mask.count_ones() as usize)
            .min()
            .expect("with every worker straggling nothing is recovered");
        fewest_losing_stragglers - 1
    }

    /// IS-GC's guaranteed full-recovery tolerance equals classic GC's c − 1
    /// for FR and CR alike (the paper's "same guarantee, graceful beyond").
    #[test]
    fn guaranteed_tolerance_equals_classic_gc() {
        let tol = full_recovery_tolerance;
        for (n, c) in [(4usize, 2usize), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)] {
            let fr = Placement::fractional(n, c).unwrap();
            assert_eq!(tol(&fr), c - 1, "FR({n},{c})");
            let cr = Placement::cyclic(n, c).unwrap();
            assert_eq!(tol(&cr), c - 1, "CR({n},{c})");
        }
        // HR too (Fig. 13 family).
        let hr = Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap();
        assert_eq!(tol(&hr), 3, "HR(8,2,2)");
        // c ∤ n: full tiling impossible, tolerance 0.
        let cr = Placement::cyclic(7, 3).unwrap();
        assert_eq!(tol(&cr), 0);
        // Degenerate c = 1: any single straggler loses its partition.
        let sync = Placement::cyclic(5, 1).unwrap();
        assert_eq!(tol(&sync), 0);
    }

    /// Both bounds are tight: some availability pattern attains each.
    #[test]
    fn bounds_are_attained() {
        let n = 8;
        let c = 2;
        let placement = Placement::cyclic(n, c).unwrap();
        let decoder = CrDecoder::new(&placement).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // Worst case: consecutive workers.
        let consecutive = WorkerSet::from_indices(n, 0..4);
        let got = decoder.decode(&consecutive, &mut rng).selected().len();
        assert_eq!(got, alpha_lower_bound(n, c, 4));
        // Best case: spread workers.
        let spread = WorkerSet::from_indices(n, [0, 2, 4, 6]);
        let got = decoder.decode(&spread, &mut rng).selected().len();
        assert_eq!(got, alpha_upper_bound(n, c, 4));
    }
}
