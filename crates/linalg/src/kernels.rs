//! Blocked compute kernels: the numeric hot path of the reproduction.
//!
//! Everything a training step does to a dense vector funnels through this
//! module — codeword aggregation (`Σ axpy` at the master), the fused
//! normalize + SGD tail, and the per-sample dot products inside the model
//! gradients. The kernels come in two determinism classes:
//!
//! - **Elementwise** ([`axpy`], [`scale`], [`scaled_into`],
//!   [`scale_axpy`]): each output element depends on exactly one input
//!   element per operand, and the per-element operation sequence is
//!   identical to the plain scalar loop — results are **bitwise identical**
//!   to the scalar reference for every input, NaN payloads included. These
//!   are written as straight zip loops on purpose: LLVM vectorizes them
//!   4-wide, and a manual 4× unroll measured ~2× *slower* than the
//!   auto-vectorized loop. Vectorization only reorders
//!   *independent* elements, never the arithmetic within one.
//! - **Reductions** ([`dot`], [`sum`], [`sum_into`]): `f64` addition is not
//!   associative, so a blocked reduction is a *different* (faster, usually
//!   more accurate) result than the sequential fold. Each reduction pins
//!   **one canonical order**, documented on the function, which is the
//!   repo-wide reduction order: every call site — TCP master, simulator,
//!   model code — reduces in exactly this order, so
//!   cross-backend runs stay bitwise comparable. One exception: when a
//!   reduction adds two NaNs, Rust does not specify which payload the sum
//!   carries, and optimised code may commute the add. A NaN result is
//!   therefore NaN in every build, but its payload bits are not pinned;
//!   the property tests compare reductions as "both NaN" there.
//!
//! # The canonical lane order (scalar reductions)
//!
//! [`dot`] and [`sum`] split the index space into full blocks of
//! [`LANES`] = 4 consecutive elements plus a tail. Lane `l` accumulates the
//! elements at block offset `l` across all full blocks, in index order; the
//! four lane accumulators then combine pairwise as
//! `(acc0 + acc1) + (acc2 + acc3)`, and the tail elements (fewer than
//! [`LANES`]) fold in sequentially, in index order, after the lane combine.
//! Each lane starts at `-0.0` — the additive identity the standard
//! library's `Iterator::sum::<f64>()` folds from (`-0.0 + x` is bitwise
//! `x` for every `x`, including `-0.0`) — so inputs shorter than one block
//! reduce exactly like the historical sequential fold, sign-of-zero cases
//! included.
//!
//! # The canonical slot order (n-ary accumulation)
//!
//! [`sum_into`] adds `k` equal-length sources in the **balanced pairwise
//! bracketing**: split the source list at `k / 2` (floor), recurse into
//! both halves, add the two partial results elementwise. This is precisely
//! the bracketing `isgc_engine::merge::pairwise_sum_of` commits to for
//! codeword aggregation — [`sum_into`] is its single-pass dense
//! realization, so a master that aggregates 16 codewords reads each source
//! exactly once instead of materializing log₂ 16 intermediate vectors.

/// Number of independent accumulator lanes in the blocked reductions.
///
/// Part of the canonical reduction order: changing it changes every
/// reduction result in the repo and requires a one-time golden re-bless.
pub const LANES: usize = 4;

/// Block length (in elements) of [`sum_into`]'s stack scratch.
const BLOCK: usize = 128;

/// Below this output length [`sum_into`] evaluates the bracketing tree per
/// element instead of per block: zeroing a [`BLOCK`]-element temporary at
/// every tree node would dwarf the arithmetic on short parameter vectors.
const SMALL: usize = 32;

/// In-place `y[i] += alpha * x[i]` (BLAS `axpy`). Elementwise: bitwise
/// identical to the scalar loop.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place `y[i] *= alpha`. Elementwise: bitwise identical to the scalar
/// loop.
pub fn scale(y: &mut [f64], alpha: f64) {
    for yi in y {
        *yi *= alpha;
    }
}

/// Overwrite `out[i] = x[i] * s`. Elementwise: bitwise identical to a
/// scalar copy-then-scale.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn scaled_into(out: &mut [f64], x: &[f64], s: f64) {
    assert_eq!(out.len(), x.len(), "scaled_into: length mismatch");
    for (o, xi) in out.iter_mut().zip(x) {
        *o = xi * s;
    }
}

/// Fused in-place `y[i] += alpha * (x[i] * s)` — the normalize + SGD step
/// collapsed to one pass. Per element this is exactly `t = x[i] * s` (the
/// normalization rounding) followed by `y[i] += alpha * t` (the update
/// rounding): bitwise identical to scaling a gradient copy and then
/// applying `axpy`, without materializing the copy.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn scale_axpy(y: &mut [f64], alpha: f64, x: &[f64], s: f64) {
    assert_eq!(y.len(), x.len(), "scale_axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * (xi * s);
    }
}

/// Blocked dot product in the canonical lane order (see the module docs).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n4 = a.len() - a.len() % LANES;
    let (a4, at) = a.split_at(n4);
    let (b4, bt) = b.split_at(n4);
    let mut acc = [-0.0f64; LANES];
    for (ac, bc) in a4.chunks_exact(LANES).zip(b4.chunks_exact(LANES)) {
        acc[0] += ac[0] * bc[0];
        acc[1] += ac[1] * bc[1];
        acc[2] += ac[2] * bc[2];
        acc[3] += ac[3] * bc[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (ai, bi) in at.iter().zip(bt) {
        s += ai * bi;
    }
    s
}

/// Blocked sum in the canonical lane order (see the module docs).
pub fn sum(a: &[f64]) -> f64 {
    let n4 = a.len() - a.len() % LANES;
    let (a4, at) = a.split_at(n4);
    let mut acc = [-0.0f64; LANES];
    for ac in a4.chunks_exact(LANES) {
        acc[0] += ac[0];
        acc[1] += ac[1];
        acc[2] += ac[2];
        acc[3] += ac[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for ai in at {
        s += ai;
    }
    s
}

/// Single-pass n-ary slot accumulation: overwrites `out` with the sum of
/// the `srcs` slices in the **canonical balanced pairwise bracketing**
/// (split the source list at `len / 2`, recurse, add the halves). This is
/// the same bracketing `isgc_engine::merge::pairwise_sum_of` uses, so a
/// dense run of present codeword slots can be folded in one pass over
/// memory with a bitwise-identical result.
///
/// Each source is read exactly once; intermediate partials live in a small
/// stack block, never on the heap.
///
/// # Panics
///
/// Panics if `srcs` is empty or any source length differs from `out`.
pub fn sum_into(out: &mut [f64], srcs: &[&[f64]]) {
    assert!(!srcs.is_empty(), "sum_into: no sources");
    for s in srcs {
        assert_eq!(s.len(), out.len(), "sum_into: length mismatch");
    }
    match srcs {
        [a] => out.copy_from_slice(a),
        [a, b] => {
            for ((o, x), y) in out.iter_mut().zip(*a).zip(*b) {
                *o = x + y;
            }
        }
        _ if out.len() <= SMALL => {
            for (i, o) in out.iter_mut().enumerate() {
                *o = tree_at(srcs, i);
            }
        }
        _ => {
            let mut start = 0;
            while start < out.len() {
                let len = BLOCK.min(out.len() - start);
                block_combine(srcs, start, &mut out[start..start + len]);
                start += len;
            }
        }
    }
}

/// The canonical balanced pairwise bracketing evaluated at one element
/// index — the scalar view of [`block_combine`]'s recursion.
fn tree_at(srcs: &[&[f64]], i: usize) -> f64 {
    match srcs {
        [] => unreachable!("sum_into rejects empty sources"),
        [a] => a[i],
        [a, b] => a[i] + b[i],
        _ => {
            let mid = srcs.len() / 2;
            tree_at(&srcs[..mid], i) + tree_at(&srcs[mid..], i)
        }
    }
}

/// Writes into `out` the balanced pairwise sum of `srcs[..][start..]`
/// restricted to `out.len()` elements, preserving the canonical bracketing
/// at every recursion level.
fn block_combine(srcs: &[&[f64]], start: usize, out: &mut [f64]) {
    match srcs {
        [a] => out.copy_from_slice(&a[start..start + out.len()]),
        [a, b] => {
            for ((o, x), y) in out.iter_mut().zip(&a[start..]).zip(&b[start..]) {
                *o = x + y;
            }
        }
        _ => {
            let mid = srcs.len() / 2;
            block_combine(&srcs[..mid], start, out);
            let mut tmp = [0.0f64; BLOCK];
            let tmp = &mut tmp[..out.len()];
            block_combine(&srcs[mid..], start, tmp);
            for (o, t) in out.iter_mut().zip(tmp.iter()) {
                *o += t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_loop_bitwise() {
        let x: Vec<f64> = (0..13).map(|i| 0.1 * i as f64 - 0.55).collect();
        let mut y: Vec<f64> = (0..13).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut want = y.clone();
        for (w, xi) in want.iter_mut().zip(&x) {
            *w += 1.7 * xi;
        }
        axpy(&mut y, 1.7, &x);
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn short_reductions_match_the_sequential_fold() {
        // Below one full block the blocked order degenerates to the
        // sequential fold: the historical results are preserved exactly.
        for len in 0..LANES {
            let a: Vec<f64> = (0..len).map(|i| 0.3 + i as f64 * 0.7).collect();
            let b: Vec<f64> = (0..len).map(|i| 1.1 - i as f64 * 0.2).collect();
            let seq_dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let seq_sum: f64 = a.iter().sum();
            assert_eq!(dot(&a, &b).to_bits(), seq_dot.to_bits());
            assert_eq!(sum(&a).to_bits(), seq_sum.to_bits());
        }
    }

    #[test]
    fn dot_follows_the_documented_lane_order() {
        let a: Vec<f64> = (0..11).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..11).map(|i| (i as f64).cos()).collect();
        let mut acc = [0.0f64; 4];
        for k in 0..2 {
            for l in 0..4 {
                acc[l] += a[4 * k + l] * b[4 * k + l];
            }
        }
        let mut want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in 8..11 {
            want += a[i] * b[i];
        }
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
    }

    #[test]
    fn sum_into_matches_pairwise_bracketing() {
        // k = 5 brackets as (s0 + s1) + (s2 + (s3 + s4)).
        let srcs: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..300).map(|i| 0.1 * (s * 300 + i) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0.0; 300];
        sum_into(&mut out, &refs);
        for i in 0..300 {
            let want = (srcs[0][i] + srcs[1][i]) + (srcs[2][i] + (srcs[3][i] + srcs[4][i]));
            assert_eq!(out[i].to_bits(), want.to_bits(), "element {i}");
        }
    }

    #[test]
    fn sum_into_small_path_matches_blocked_bracketing() {
        // Short outputs take the per-element tree path; the bracketing is
        // the same, so a prefix of a long (blocked) run must agree.
        let srcs: Vec<Vec<f64>> = (0..7)
            .map(|s| (0..200).map(|i| ((s * 200 + i) as f64).sin()).collect())
            .collect();
        let long: Vec<&[f64]> = srcs.iter().map(|v| v.as_slice()).collect();
        let short: Vec<&[f64]> = srcs.iter().map(|v| &v[..SMALL]).collect();
        let mut want = vec![0.0; 200];
        sum_into(&mut want, &long);
        let mut got = vec![0.0; SMALL];
        sum_into(&mut got, &short);
        for i in 0..SMALL {
            assert_eq!(got[i].to_bits(), want[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn sum_into_single_source_copies() {
        let a = [1.0, f64::NAN, -0.0];
        let mut out = [9.0; 3];
        sum_into(&mut out, &[&a]);
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan());
        assert_eq!(out[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sum_into_rejects_ragged_sources() {
        let mut out = [0.0; 2];
        sum_into(&mut out, &[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn fused_kernels_match_their_two_pass_references() {
        let x: Vec<f64> = (0..9).map(|i| 0.25 * i as f64 - 1.0).collect();
        let y0: Vec<f64> = (0..9).map(|i| 2.0 - 0.5 * i as f64).collect();

        // scale_axpy == scaled copy then axpy.
        let mut fused = y0.clone();
        scale_axpy(&mut fused, -0.05, &x, 0.125);
        let mut scaled = vec![0.0; 9];
        scaled_into(&mut scaled, &x, 0.125);
        let mut two_pass = y0.clone();
        axpy(&mut two_pass, -0.05, &scaled);
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            two_pass.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
