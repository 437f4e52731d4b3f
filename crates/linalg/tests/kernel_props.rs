//! Property tests for the blocked compute kernels: elementwise kernels must
//! be **bitwise identical** to their scalar reference loops for arbitrary
//! bit patterns (NaN payloads, signed zeros, subnormals, infinities
//! included — mirroring `frame_reassembly.rs`'s bit-level style), and the
//! blocked reductions must follow their pinned canonical order at every
//! input length and agree across every call site that claims to use it.
//!
//! A reduction adds two running values, and when both are NaN Rust does not
//! specify which payload the sum carries: optimised code may commute the
//! add. So reduction results compare bitwise when they are not NaN, and as
//! "both NaN" when they are (see `reduction_bits`).

use isgc_linalg::{kernels, Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a raw IEEE-754 bit pattern — covers NaN payloads, ±0, ±∞,
/// and subnormals, none of which a numeric range strategy would generate.
fn bits() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

/// Strategy: a finite value in a tame range (for reduction-order tests
/// whose references use algebraically rearranged but order-identical ops).
fn tame() -> impl Strategy<Value = f64> {
    -100.0..100.0f64
}

fn vec_of(elem: impl Strategy<Value = f64>, len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(elem, len)
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A reduction result's bits, with every NaN mapped to one canonical NaN:
/// which payload a NaN + NaN sum carries is unspecified.
fn reduction_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

// --- scalar references: the historical loops the kernels replaced -------

fn axpy_ref(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn scale_axpy_ref(y: &mut [f64], alpha: f64, x: &[f64], s: f64) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * (xi * s);
    }
}

/// The canonical lane order, written independently of the kernel: lane `l`
/// sums elements `l, l+4, l+8, …` of the full-block prefix from `-0.0`,
/// lanes combine as `(0+1)+(2+3)`, tail folds in sequentially.
fn dot_canonical(a: &[f64], b: &[f64]) -> f64 {
    let full = a.len() - a.len() % 4;
    let mut acc = [-0.0f64; 4];
    for i in 0..full {
        acc[i % 4] += a[i] * b[i];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in full..a.len() {
        s += a[i] * b[i];
    }
    s
}

fn sum_canonical(a: &[f64]) -> f64 {
    let full = a.len() - a.len() % 4;
    let mut acc = [-0.0f64; 4];
    for (i, &x) in a[..full].iter().enumerate() {
        acc[i % 4] += x;
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &x in &a[full..] {
        s += x;
    }
    s
}

/// The canonical balanced pairwise bracketing over sources, written as the
/// direct recursion the engine's merge commits to.
fn sum_into_canonical(srcs: &[&[f64]]) -> Vec<f64> {
    match srcs {
        [] => unreachable!("sum_into requires sources"),
        [a] => a.to_vec(),
        _ => {
            let mid = srcs.len() / 2;
            let left = sum_into_canonical(&srcs[..mid]);
            let right = sum_into_canonical(&srcs[mid..]);
            left.iter().zip(&right).map(|(x, y)| x + y).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Elementwise kernels vs their scalar loops, at lengths spanning the
    /// unroll boundary, on arbitrary bit patterns: bitwise identical.
    #[test]
    fn elementwise_kernels_are_bitwise_scalar(
        len in 0usize..40,
        seed in vec_of(bits(), 80),
        alpha in bits(),
        s in bits(),
    ) {
        let x = &seed[..len];
        let y0 = &seed[40..40 + len];

        let mut got = y0.to_vec();
        kernels::axpy(&mut got, alpha, x);
        let mut want = y0.to_vec();
        axpy_ref(&mut want, alpha, x);
        prop_assert_eq!(to_bits(&got), to_bits(&want), "axpy len={}", len);

        let mut got = y0.to_vec();
        kernels::scale(&mut got, alpha);
        let want: Vec<f64> = y0.iter().map(|v| v * alpha).collect();
        prop_assert_eq!(to_bits(&got), to_bits(&want), "scale len={}", len);

        let mut got = vec![0.0; len];
        kernels::scaled_into(&mut got, x, s);
        let want: Vec<f64> = x.iter().map(|v| v * s).collect();
        prop_assert_eq!(to_bits(&got), to_bits(&want), "scaled_into len={}", len);

        let mut got = y0.to_vec();
        kernels::scale_axpy(&mut got, alpha, x, s);
        let mut want = y0.to_vec();
        scale_axpy_ref(&mut want, alpha, x, s);
        prop_assert_eq!(to_bits(&got), to_bits(&want), "scale_axpy len={}", len);
    }

    /// The fused step kernel is bitwise the two-pass normalize-then-update,
    /// on arbitrary bit patterns — the engine-tail fusion contract.
    #[test]
    fn fused_step_is_bitwise_two_pass(
        len in 0usize..40,
        seed in vec_of(bits(), 80),
        lr in bits(),
        prescale in bits(),
    ) {
        let grad = &seed[..len];
        let params0 = &seed[40..40 + len];

        let mut fused = params0.to_vec();
        kernels::scale_axpy(&mut fused, -lr, grad, prescale);

        let mut scaled = vec![0.0; len];
        kernels::scaled_into(&mut scaled, grad, prescale);
        let mut two_pass = params0.to_vec();
        kernels::axpy(&mut two_pass, -lr, &scaled);

        prop_assert_eq!(to_bits(&fused), to_bits(&two_pass));
    }

    /// Blocked reductions follow the pinned canonical order at every
    /// length, on arbitrary bit patterns: bitwise unless the result is NaN.
    #[test]
    fn reductions_follow_canonical_order(
        len in 0usize..67,
        seed in vec_of(bits(), 134),
    ) {
        let a = &seed[..len];
        let b = &seed[67..67 + len];
        prop_assert_eq!(
            reduction_bits(kernels::dot(a, b)),
            reduction_bits(dot_canonical(a, b)),
            "dot len={}", len
        );
        prop_assert_eq!(
            reduction_bits(kernels::sum(a)),
            reduction_bits(sum_canonical(a)),
            "sum len={}", len
        );
    }

    /// Every call site that claims the canonical reduction order really
    /// uses it: `Vector::dot`, `Vector::sum`, a 1-row `Matrix::matvec`, and
    /// `matvec_into` all reduce identically to the raw kernel.
    #[test]
    fn reduction_order_is_identical_across_call_sites(
        av in vec_of(tame(), 23),
        bv in vec_of(tame(), 23),
    ) {
        let want_dot = kernels::dot(&av, &bv).to_bits();
        let a = Vector::from_slice(&av);
        let b = Vector::from_slice(&bv);
        prop_assert_eq!(a.dot(&b).to_bits(), want_dot);
        prop_assert_eq!(a.sum().to_bits(), kernels::sum(&av).to_bits());

        let row = Matrix::from_vec(1, av.len(), av.clone());
        prop_assert_eq!(row.matvec(&b)[0].to_bits(), want_dot);
        let mut out = Vector::zeros(1);
        row.matvec_into(&b, &mut out);
        prop_assert_eq!(out[0].to_bits(), want_dot);
    }

    /// `sum_into` reproduces the canonical balanced pairwise bracketing for
    /// every source count (crossing both its small-k specializations and
    /// its internal block size), on arbitrary bit patterns: bitwise unless
    /// an element is NaN.
    #[test]
    fn sum_into_matches_canonical_bracketing(
        k in 1usize..12,
        len_idx in 0usize..7,
        fill in bits(),
        seed in vec_of(bits(), 64),
    ) {
        // Lengths straddling the empty/singleton cases and the kernel's
        // internal 128-element block boundary.
        let len = [0usize, 1, 5, 127, 128, 129, 300][len_idx];
        // Cheap deterministic spread of the generated entropy across k
        // sources of the chosen length.
        let srcs: Vec<Vec<f64>> = (0..k)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        let v = seed[(s * 31 + i * 7) % seed.len()];
                        if (s + i) % 5 == 0 { fill } else { v }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut got = vec![1.25; len];
        kernels::sum_into(&mut got, &refs);
        let want = sum_into_canonical(&refs);
        let bits = |v: &[f64]| v.iter().map(|&x| reduction_bits(x)).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want), "k={} len={}", k, len);
    }
}
