//! Canonical gradient aggregation: one balanced pairwise reduction shape.
//!
//! IS-GC codewords are plain partial sums, so they compose associatively in
//! exact arithmetic — but `f64` addition is *not* associative, and the
//! determinism contract ("a run's loss curve is a bitwise function of its
//! configuration, seed and arrival sets, whichever backend collected them")
//! requires every backend to add the same numbers in the same order.
//! [`pairwise_sum_of`] fixes that order once: it reduces worker slots
//! `[0, n)` by a balanced binary recursion (split at `lo + (hi - lo) / 2`),
//! skipping absent slots as exact identities (never adding a literal `0.0`,
//! which could still perturb signed zeros / NaN payloads).

use isgc_linalg::{kernels, Vector};

/// Balanced pairwise sum over optional borrowed slot contributions.
///
/// `slots[w]` is worker `w`'s (already coefficient-scaled) codeword, or
/// `None` if `w` contributed nothing this step; the engine feeds the decoded
/// codeword references directly, no per-slot clone. Returns `None` when
/// every slot is absent. The reduction order depends only on `slots.len()`,
/// never on which slots are present.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// [`pairwise_sum_of`] over owned slots.
    fn pairwise_sum(slots: &[Option<Vector>]) -> Option<Vector> {
        let refs: Vec<Option<&Vector>> = slots.iter().map(Option::as_ref).collect();
        pairwise_sum_of(&refs)
    }

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
}
