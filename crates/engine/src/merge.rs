//! Canonical gradient aggregation: one balanced pairwise reduction shape
//! shared by flat masters, sub-masters, and the tree root.
//!
//! IS-GC codewords are plain partial sums, so they compose associatively in
//! exact arithmetic — but `f64` addition is *not* associative, and the
//! determinism contract ("a job's loss curve is bitwise identical under flat
//! or 2-level aggregation") requires every topology to add the same numbers
//! in the same order. This module fixes that order once:
//!
//! - [`pairwise_sum`] reduces worker slots `[0, n)` by a balanced binary
//!   recursion (split at `lo + (hi - lo) / 2`), skipping absent slots as
//!   exact identities (never adding a literal `0.0`, which could still
//!   perturb signed zeros / NaN payloads).
//! - [`shard_ranges`] cuts `[0, n)` at that same recursion's nodes at depth
//!   `log2(shards)`, so each sub-master owns a *subtree* of the flat
//!   reduction.
//! - A root that [`pairwise_sum`]s the per-shard partials therefore computes
//!   exactly the remaining top levels of the flat tree: flat and tree runs
//!   produce bit-identical sums, not merely close ones.
//! - [`decode_shard`] is what a sub-master does with its shard's arrivals —
//!   the one shard-local decode the in-process and the TCP tree share.

use isgc_core::decode::Decoder;
use isgc_core::WorkerSet;
use isgc_linalg::{kernels, Vector};

use crate::step_rng;

/// Balanced pairwise sum over optional slot contributions.
///
/// `slots[w]` is worker `w`'s (already coefficient-scaled) codeword, or
/// `None` if `w` contributed nothing this step. Returns `None` when every
/// slot is absent. The reduction order depends only on `slots.len()`, never
/// on which slots are present — the property the flat-vs-tree bitwise
/// equality rests on.
pub fn pairwise_sum(slots: &[Option<Vector>]) -> Option<Vector> {
    let refs: Vec<Option<&Vector>> = slots.iter().map(Option::as_ref).collect();
    pairwise_sum_of(&refs)
}

/// [`pairwise_sum`] over borrowed slots — the allocation-free form the
/// engine feeds directly with the decoded codeword references, no
/// per-slot clone.
///
/// Dense runs of present slots collapse into a single pass of
/// [`kernels::sum_into`], whose balanced bracketing mirrors this
/// recursion's floor-mid splits exactly, so the fast path is bitwise
/// identical to the naive clone-and-axpy reduction.
pub fn pairwise_sum_of(slots: &[Option<&Vector>]) -> Option<Vector> {
    fn reduce(slots: &[Option<&Vector>], lo: usize, hi: usize) -> Option<Vector> {
        match hi - lo {
            0 => None,
            1 => slots[lo].cloned(),
            _ => {
                if let Some(srcs) = dense_sources(&slots[lo..hi]) {
                    let mut out = Vector::zeros(srcs[0].len());
                    kernels::sum_into(out.as_mut_slice(), &srcs);
                    return Some(out);
                }
                let mid = lo + (hi - lo) / 2;
                match (reduce(slots, lo, mid), reduce(slots, mid, hi)) {
                    (Some(mut a), Some(b)) => {
                        a.axpy(1.0, &b);
                        Some(a)
                    }
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                }
            }
        }
    }
    reduce(slots, 0, slots.len())
}

/// When every slot in the range is present, returns their data slices in
/// order (the precondition for the [`kernels::sum_into`] fast path).
fn dense_sources<'a>(slots: &[Option<&'a Vector>]) -> Option<Vec<&'a [f64]>> {
    slots
        .iter()
        .map(|s| s.map(Vector::as_slice))
        .collect::<Option<Vec<_>>>()
}

/// The shard boundaries a 2-level tree must use so that per-shard
/// [`pairwise_sum`]s followed by a root [`pairwise_sum`] over the partials
/// reproduce the flat reduction bit-for-bit: the nodes of the balanced
/// recursion over `[0, n)` at depth `log2(shards)`.
///
/// `shards` must be a power of two and at most `n`; the ranges are
/// contiguous, non-empty, and cover `[0, n)` in order.
///
/// # Panics
///
/// If `shards` is zero, not a power of two, or exceeds `n`.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(
        shards > 0 && shards.is_power_of_two(),
        "shard count must be a positive power of two, got {shards}"
    );
    assert!(shards <= n, "cannot cut {n} workers into {shards} shards");
    let mut ranges = vec![(0, n)];
    while ranges.len() < shards {
        let mut next = Vec::with_capacity(ranges.len() * 2);
        for (lo, hi) in ranges {
            let mid = lo + (hi - lo) / 2;
            next.push((lo, mid));
            next.push((mid, hi));
        }
        ranges = next;
    }
    ranges
}

/// One shard's slice of a step, as its sub-master reports it upstream.
#[derive(Debug)]
pub struct ShardDecode {
    /// The shard-local independent set (global worker ids, ascending).
    pub selected: Vec<usize>,
    /// Partitions the selection recovers.
    pub recovered: usize,
    /// [`pairwise_sum`] of the selected codewords over the shard's range,
    /// or `None` when the shard recovered nothing.
    pub partial: Option<Vector>,
}

/// The shard-local decode of a 2-level tree: decodes shard `[lo, hi)`'s
/// `arrivals` (global ids) as availability over the full `n`-worker
/// universe, with the same `(seed, step)`-derived RNG a flat master uses —
/// the FR decoder's per-group hash then picks exactly the flat
/// representatives — and sums the selected workers' codewords, each
/// obtained from `codeword` (called once per selected worker, ascending),
/// with the canonical reduction over the shard's [`shard_ranges`] slice.
pub fn decode_shard(
    decoder: &dyn Decoder,
    n: usize,
    (lo, hi): (usize, usize),
    arrivals: &[usize],
    (seed, step): (u64, u64),
    mut codeword: impl FnMut(usize) -> Vector,
) -> ShardDecode {
    let available = WorkerSet::from_indices(n, arrivals.iter().copied());
    let result = decoder.decode(&available, &mut step_rng(seed, step));
    let mut slots: Vec<Option<Vector>> = vec![None; hi - lo];
    for &w in result.selected() {
        slots[w - lo] = Some(codeword(w));
    }
    ShardDecode {
        selected: result.selected().to_vec(),
        recovered: result.recovered_count(),
        partial: pairwise_sum(&slots),
    }
}

/// A pre-decoded step collected through sub-masters: the root receives the
/// shard-local decode results and partial codeword sums instead of raw
/// per-worker codewords, merges with [`pairwise_sum`], and the engine then
/// bound-checks, normalizes, and applies SGD exactly as in the flat path.
#[derive(Debug)]
pub struct ShardedDecode {
    /// Union of the shard-local independent sets (each shard decoded its
    /// own conflict-graph slice; for FR with shard boundaries on group
    /// multiples the union is exactly the flat decoder's selection).
    pub selected: Vec<usize>,
    /// Total partitions recovered across shards.
    pub recovered: usize,
    /// `partials[s]` is shard `s`'s pairwise partial sum over its
    /// [`shard_ranges`] slice, or `None` if the shard recovered nothing
    /// (or its sub-master was lost this step).
    pub partials: Vec<Option<Vector>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x, x * 2.0])
    }

    #[test]
    fn empty_and_singleton() {
        assert!(pairwise_sum(&[]).is_none());
        assert!(pairwise_sum(&[None, None, None]).is_none());
        let got = pairwise_sum(&[None, Some(v(3.0)), None]).unwrap();
        assert_eq!(got.as_slice(), v(3.0).as_slice());
    }

    #[test]
    fn matches_plain_sum_on_exact_values() {
        // Integer-valued f64s add exactly, so any order agrees with the sum.
        let slots: Vec<Option<Vector>> = (0..7).map(|w| Some(v(w as f64))).collect();
        let got = pairwise_sum(&slots).unwrap();
        assert_eq!(got.as_slice(), [21.0, 42.0]);
    }

    #[test]
    fn absent_slots_do_not_change_the_tree_shape() {
        // With non-representable values the association matters; a present
        // subset must reduce exactly as the same subset inside a full set.
        let xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let full: Vec<Option<Vector>> = xs.iter().map(|&x| Some(v(x))).collect();
        // Drop slots 1 and 6 from the full reduction both ways.
        let sparse: Vec<Option<Vector>> = xs
            .iter()
            .enumerate()
            .map(|(w, &x)| (w != 1 && w != 6).then(|| v(x)))
            .collect();
        // Reference: reduce the sparse set with the same recursion but the
        // absent values replaced by an exact identity (skipping).
        let got = pairwise_sum(&sparse).unwrap();
        // ((0+ )+(2+3)) + ((4+5)+( +7)) with 1 and 6 skipped:
        let left = {
            let mut a = v(xs[0]);
            let mut b = v(xs[2]);
            b.axpy(1.0, &v(xs[3]));
            a.axpy(1.0, &b);
            a
        };
        let right = {
            let mut a = v(xs[4]);
            a.axpy(1.0, &v(xs[5]));
            a.axpy(1.0, &v(xs[7]));
            a
        };
        let mut want = left;
        want.axpy(1.0, &right);
        assert_eq!(got.as_slice(), want.as_slice());
        let _ = full;
    }

    /// The recursion with the dense `sum_into` fast path disabled — the
    /// reference the fast path must match bitwise.
    fn naive_reduce(slots: &[Option<Vector>], lo: usize, hi: usize) -> Option<Vector> {
        match hi - lo {
            0 => None,
            1 => slots[lo].clone(),
            _ => {
                let mid = lo + (hi - lo) / 2;
                match (naive_reduce(slots, lo, mid), naive_reduce(slots, mid, hi)) {
                    (Some(mut a), Some(b)) => {
                        a.axpy(1.0, &b);
                        Some(a)
                    }
                    (Some(a), None) => Some(a),
                    (None, b) => b,
                }
            }
        }
    }

    #[test]
    fn dense_fast_path_is_bitwise_naive() {
        // Long vectors (crossing sum_into's block size) with
        // non-representable values, at every density pattern for n <= 10.
        for n in 1..=10usize {
            for mask in 0..(1u32 << n) {
                let slots: Vec<Option<Vector>> = (0..n)
                    .map(|w| {
                        (mask >> w & 1 == 1)
                            .then(|| Vector::from_fn(301, |i| 0.1 * (w * 301 + i) as f64 + 0.7))
                    })
                    .collect();
                let want = naive_reduce(&slots, 0, n);
                let got = pairwise_sum(&slots);
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        for i in 0..301 {
                            assert_eq!(g[i].to_bits(), w[i].to_bits(), "n={n} mask={mask} i={i}");
                        }
                    }
                    _ => panic!("presence mismatch at n={n} mask={mask}"),
                }
            }
        }
    }

    #[test]
    fn shard_ranges_cover_in_order() {
        assert_eq!(shard_ranges(16, 1), vec![(0, 16)]);
        assert_eq!(shard_ranges(16, 2), vec![(0, 8), (8, 16)]);
        assert_eq!(shard_ranges(16, 4), vec![(0, 4), (4, 8), (8, 12), (12, 16)]);
        assert_eq!(shard_ranges(6, 2), vec![(0, 3), (3, 6)]);
        // Odd split keeps the floor-mid convention at every level.
        assert_eq!(shard_ranges(10, 4), vec![(0, 2), (2, 5), (5, 7), (7, 10)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shard_ranges_rejects_non_power_of_two() {
        shard_ranges(16, 3);
    }

    #[test]
    fn sharded_reduction_is_bitwise_flat() {
        // The headline property: per-shard partials + root merge == flat.
        let xs = [0.1, 0.7, 0.3, 0.9, 0.5, 0.11, 0.13, 0.17, 0.19, 0.23];
        let n = xs.len();
        let slots: Vec<Option<Vector>> = xs
            .iter()
            .enumerate()
            .map(|(w, &x)| (w % 3 != 1).then(|| v(x)))
            .collect();
        let flat = pairwise_sum(&slots).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let ranges = shard_ranges(n, shards);
            let partials: Vec<Option<Vector>> = ranges
                .iter()
                .map(|&(lo, hi)| pairwise_sum(&slots[lo..hi]))
                .collect();
            let tree = pairwise_sum(&partials).unwrap();
            assert_eq!(
                tree.as_slice(),
                flat.as_slice(),
                "shards={shards} diverged from flat"
            );
        }
    }

    #[test]
    fn shard_decodes_union_to_the_flat_decode_bitwise() {
        use isgc_core::decode::decoder_for;
        use isgc_core::Placement;

        let (n, seed) = (8, 2023);
        let placement = Placement::fractional(n, 2).unwrap();
        let decoder = decoder_for(&placement).unwrap();
        let codeword = |w: usize| Vector::from_fn(5, |i| 0.1 * (w * 5 + i) as f64 + 0.7);
        let arrival_sets: [&[usize]; 5] = [
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[1, 2, 5, 6],
            &[0, 1, 7],
            &[3],
            &[],
        ];
        for (step, arrivals) in arrival_sets.into_iter().enumerate() {
            let step = step as u64;
            let flat = decoder.decode(
                &WorkerSet::from_indices(n, arrivals.iter().copied()),
                &mut step_rng(seed, step),
            );
            let mut flat_slots: Vec<Option<Vector>> = vec![None; n];
            for &w in flat.selected() {
                flat_slots[w] = Some(codeword(w));
            }
            let flat_sum = pairwise_sum(&flat_slots);

            for shards in [2usize, 4] {
                let mut selected = Vec::new();
                let mut recovered = 0;
                let mut partials = Vec::new();
                for (lo, hi) in shard_ranges(n, shards) {
                    let own: Vec<usize> = arrivals
                        .iter()
                        .copied()
                        .filter(|w| (lo..hi).contains(w))
                        .collect();
                    let shard =
                        decode_shard(decoder.as_ref(), n, (lo, hi), &own, (seed, step), codeword);
                    selected.extend(shard.selected);
                    recovered += shard.recovered;
                    partials.push(shard.partial);
                }
                assert_eq!(selected, flat.selected(), "step {step}, {shards} shards");
                assert_eq!(recovered, flat.recovered_count());
                let bits = |v: Option<Vector>| {
                    v.map(|v| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                assert_eq!(bits(pairwise_sum(&partials)), bits(flat_sum.clone()));
            }
        }
    }
}
