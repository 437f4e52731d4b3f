//! Classic gradient coding (paper §III; Tandon et al., ICML 2017).
//!
//! The baseline IS-GC is measured against: workers upload *coefficient-coded*
//! combinations of their partition gradients, chosen so that the exact full
//! gradient `g` is recoverable from **any** `n − c + 1` workers — and
//! nothing is recoverable from fewer. Two constructions are provided,
//! matching the paper's FR and CR placements.

use isgc_linalg::{solve_consistent, Matrix, Vector};
use rand::Rng;

use crate::{Error, Placement, WorkerId, WorkerSet};

/// Residual tolerance for accepting a decoding vector.
const DECODE_TOL: f64 = 1e-6;

/// A classic gradient code: a coefficient matrix `B ∈ R^{n×n}` whose row `i`
/// is supported on worker `i`'s partitions, built so the all-ones vector
/// lies in the row span of any `n − c + 1` rows.
///
/// # Examples
///
/// ```
/// use isgc_core::classic::ClassicGc;
/// use isgc_core::WorkerSet;
/// use isgc_linalg::Vector;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let gc = ClassicGc::cyclic(4, 2, &mut rng)?;
/// // Per-partition gradients (dimension 1 for brevity): g_j = j + 1.
/// let grads: Vec<Vector> = (0..4).map(|j| Vector::from_slice(&[j as f64 + 1.0])).collect();
/// let codewords: Vec<Vector> = (0..4).map(|w| gc.encode(w, &grads)).collect();
/// // Any 3 workers suffice to recover g = 1 + 2 + 3 + 4 = 10.
/// let avail = WorkerSet::from_indices(4, [0, 2, 3]);
/// let g = gc.recover(&avail, |w| codewords[w].clone(), 1)?;
/// assert!((g[0] - 10.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClassicGc {
    placement: Placement,
    b: Matrix,
}

impl ClassicGc {
    /// Builds the FR construction: each worker's codeword is the plain sum
    /// of its group's partition gradients (all coefficients 1), so any
    /// group representative contributes its group's slice of `g`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] under the same conditions as
    /// [`Placement::fractional`].
    pub fn fractional(n: usize, c: usize) -> Result<Self, Error> {
        let placement = Placement::fractional(n, c)?;
        let mut b = Matrix::zeros(n, n);
        for w in 0..n {
            for &j in placement.partitions_of(w) {
                b[(w, j)] = 1.0;
            }
        }
        Ok(Self { placement, b })
    }

    /// Builds the CR construction of Tandon et al. (their Algorithm 2):
    /// random coefficients on cyclic supports, chosen in the null space of a
    /// random `(c−1)×n` matrix `H` with zero row sums, which guarantees
    /// (with probability 1) that any `n − c + 1` rows span the all-ones
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameters`] under the same conditions as
    /// [`Placement::cyclic`], or if the random `H` produced a singular
    /// sub-system (probability zero; retry with another seed).
    pub fn cyclic<R: Rng + ?Sized>(n: usize, c: usize, rng: &mut R) -> Result<Self, Error> {
        let placement = Placement::cyclic(n, c)?;
        let s = c - 1;
        let mut b = Matrix::zeros(n, n);
        if s == 0 {
            // No redundancy: B = I, plain synchronous SGD.
            for i in 0..n {
                b[(i, i)] = 1.0;
            }
            return Ok(Self { placement, b });
        }
        // H ∈ R^{s×n}: random, with the last column fixed so each row sums
        // to zero — this puts the all-ones vector in null(H).
        let mut h = Matrix::random_normal(s, n, 0.0, 1.0, rng);
        for r in 0..s {
            let sum: f64 = (0..n - 1).map(|j| h[(r, j)]).sum();
            h[(r, n - 1)] = -sum;
        }
        // Row i of B: support {i, …, i+s} (mod n), leading coefficient 1,
        // remaining s coefficients solve H · bᵢ = 0.
        for i in 0..n {
            let support: Vec<usize> = (0..c).map(|t| (i + t) % n).collect();
            let rhs = Vector::from_fn(s, |r| -h[(r, support[0])]);
            let sub = Matrix::from_fn(s, s, |r, k| h[(r, support[k + 1])]);
            let coeffs = isgc_linalg::lu_solve(&sub, &rhs).map_err(|e| {
                Error::invalid(format!("degenerate random H in Tandon construction: {e}"))
            })?;
            b[(i, support[0])] = 1.0;
            for k in 0..s {
                b[(i, support[k + 1])] = coeffs[k];
            }
        }
        Ok(Self { placement, b })
    }

    /// The placement underlying this code.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Minimum number of workers classic GC needs: `n − c + 1` (it tolerates
    /// at most `c − 1` stragglers).
    pub fn min_workers(&self) -> usize {
        self.placement.n() - self.placement.c() + 1
    }

    /// Encodes worker `worker`'s codeword `Σ_j B[w][j] · g_j` from the full
    /// list of per-partition gradients (only the worker's own partitions are
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if `gradients.len() != n`, dimensions are inconsistent, or
    /// `worker >= n`.
    pub fn encode(&self, worker: WorkerId, gradients: &[Vector]) -> Vector {
        let n = self.placement.n();
        assert_eq!(gradients.len(), n, "need all {n} partition gradients");
        let dim = gradients[0].len();
        let mut out = Vector::zeros(dim);
        for &j in self.placement.partitions_of(worker) {
            out.axpy(self.b[(worker, j)], &gradients[j]);
        }
        out
    }

    /// Computes the decoding vector `a` with `aᵀ B_{W'} = 1ᵀ`, i.e. the
    /// combination of available codewords that reconstructs the exact full
    /// gradient.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyStragglers`] when the all-ones vector is not
    /// in the span of the available rows — by construction, exactly when
    /// fewer than `n − c + 1` workers are available.
    pub fn decoding_vector(&self, available: &WorkerSet) -> Result<Vec<(WorkerId, f64)>, Error> {
        let n = self.placement.n();
        assert_eq!(available.universe(), n, "worker set universe mismatch");
        let workers = available.to_vec();
        if workers.is_empty() {
            return Err(Error::TooManyStragglers {
                available: 0,
                required: self.min_workers(),
            });
        }
        // Solve the consistent system Bᵀ_{W'} a = 1 exactly; inconsistency
        // means the all-ones vector is outside the span, i.e. too many
        // stragglers.
        let bt = self.b.select_rows(&workers).transposed(); // n × |W'|
        let ones = Vector::filled(n, 1.0);
        let a = solve_consistent(&bt, &ones).map_err(|_| Error::TooManyStragglers {
            available: workers.len(),
            required: self.min_workers(),
        })?;
        let residual = (&bt.matvec(&a) - &ones).norm_inf();
        if residual > DECODE_TOL {
            return Err(Error::TooManyStragglers {
                available: workers.len(),
                required: self.min_workers(),
            });
        }
        Ok(workers.into_iter().zip(a.into_vec()).collect())
    }

    /// Recovers the exact full gradient `g = Σ_j g_j` from the available
    /// codewords.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyStragglers`] when decoding is impossible (see
    /// [`ClassicGc::decoding_vector`]).
    ///
    /// # Panics
    ///
    /// Panics if a codeword's dimension differs from `dim`.
    pub fn recover(
        &self,
        available: &WorkerSet,
        mut codewords: impl FnMut(WorkerId) -> Vector,
        dim: usize,
    ) -> Result<Vector, Error> {
        let decoding = self.decoding_vector(available)?;
        let mut g = Vector::zeros(dim);
        for (w, coeff) in decoding {
            let cw = codewords(w);
            assert_eq!(cw.len(), dim, "codeword of worker {w} has wrong dimension");
            g.axpy(coeff, &cw);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn partition_gradients(n: usize, dim: usize) -> Vec<Vector> {
        (0..n)
            .map(|j| Vector::from_fn(dim, |d| (j * dim + d) as f64 + 1.0))
            .collect()
    }

    fn full_gradient(grads: &[Vector]) -> Vector {
        let mut g = Vector::zeros(grads[0].len());
        for gj in grads {
            g.axpy(1.0, gj);
        }
        g
    }

    #[test]
    fn b_rows_have_cyclic_support() {
        let mut rng = StdRng::seed_from_u64(0);
        let gc = ClassicGc::cyclic(6, 3, &mut rng).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let on_support = (0..3).any(|t| (i + t) % 6 == j);
                if !on_support {
                    assert_eq!(gc.b[(i, j)], 0.0, "B[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn b_has_rank_n_minus_c_plus_one() {
        // Classic GC's B has full row span of null(H): rank n − c + 1.
        let mut rng = StdRng::seed_from_u64(12);
        for (n, c) in [(5usize, 2usize), (6, 3), (8, 2)] {
            let gc = ClassicGc::cyclic(n, c, &mut rng).unwrap();
            assert_eq!(
                gc.b.rank(1e-9),
                n - c + 1,
                "classic GC rank at n={n}, c={c}"
            );
        }
    }

    #[test]
    fn cyclic_recovers_from_any_minimal_subset() {
        let mut rng = StdRng::seed_from_u64(42);
        for (n, c) in [(4usize, 2usize), (5, 2), (6, 3), (7, 3), (8, 4)] {
            let gc = ClassicGc::cyclic(n, c, &mut rng).unwrap();
            let grads = partition_gradients(n, 2);
            let codewords: Vec<Vector> = (0..n).map(|w| gc.encode(w, &grads)).collect();
            let expected = full_gradient(&grads);
            let k = n - c + 1;
            assert_eq!(gc.min_workers(), k);
            // All subsets of size exactly k.
            for mask in 0u32..(1 << n) {
                if (mask.count_ones() as usize) != k {
                    continue;
                }
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let g = gc
                    .recover(&avail, |w| codewords[w].clone(), 2)
                    .unwrap_or_else(|e| panic!("n={n}, c={c}, mask={mask:b}: {e}"));
                assert!(
                    (&g - &expected).norm_inf() < 1e-6,
                    "n={n}, c={c}, mask={mask:b}"
                );
            }
        }
    }

    #[test]
    fn cyclic_fails_with_too_many_stragglers() {
        let mut rng = StdRng::seed_from_u64(7);
        let gc = ClassicGc::cyclic(6, 2, &mut rng).unwrap();
        // Only 4 < n - c + 1 = 5 workers: must fail for every such subset.
        for mask in 0u32..(1 << 6) {
            if (mask.count_ones() as usize) != 4 {
                continue;
            }
            let avail = WorkerSet::from_indices(6, (0..6).filter(|&i| mask & (1 << i) != 0));
            assert!(matches!(
                gc.decoding_vector(&avail),
                Err(Error::TooManyStragglers { .. })
            ));
        }
    }

    #[test]
    fn fractional_recovers_with_group_coverage() {
        let gc = ClassicGc::fractional(6, 2).unwrap();
        let grads = partition_gradients(6, 3);
        let codewords: Vec<Vector> = (0..6).map(|w| gc.encode(w, &grads)).collect();
        let expected = full_gradient(&grads);
        // One worker from each group {0,1}, {2,3}, {4,5}.
        let avail = WorkerSet::from_indices(6, [1, 2, 5]);
        let g = gc.recover(&avail, |w| codewords[w].clone(), 3).unwrap();
        assert!((&g - &expected).norm_inf() < 1e-6);
        // All subsets of size n - c + 1 = 5 cover every group (pigeonhole).
        for mask in 0u32..(1 << 6) {
            if (mask.count_ones() as usize) != 5 {
                continue;
            }
            let avail = WorkerSet::from_indices(6, (0..6).filter(|&i| mask & (1 << i) != 0));
            let g = gc.recover(&avail, |w| codewords[w].clone(), 3).unwrap();
            assert!((&g - &expected).norm_inf() < 1e-6, "mask={mask:b}");
        }
    }

    #[test]
    fn fractional_fails_when_a_group_is_dark() {
        let gc = ClassicGc::fractional(4, 2).unwrap();
        // Both available workers in group 0; group 1's partitions are lost.
        let avail = WorkerSet::from_indices(4, [0, 1]);
        assert!(matches!(
            gc.decoding_vector(&avail),
            Err(Error::TooManyStragglers { .. })
        ));
    }

    #[test]
    fn c_equals_one_is_synchronous_sgd() {
        let mut rng = StdRng::seed_from_u64(3);
        let gc = ClassicGc::cyclic(4, 1, &mut rng).unwrap();
        assert_eq!(gc.min_workers(), 4);
        let grads = partition_gradients(4, 1);
        let codewords: Vec<Vector> = (0..4).map(|w| gc.encode(w, &grads)).collect();
        // All workers needed.
        let g = gc
            .recover(&WorkerSet::full(4), |w| codewords[w].clone(), 1)
            .unwrap();
        assert!((&g - &full_gradient(&grads)).norm_inf() < 1e-9);
        assert!(gc
            .decoding_vector(&WorkerSet::from_indices(4, [0, 1, 2]))
            .is_err());
    }

    #[test]
    fn empty_availability_fails_cleanly() {
        let gc = ClassicGc::fractional(4, 2).unwrap();
        assert!(matches!(
            gc.decoding_vector(&WorkerSet::empty(4)),
            Err(Error::TooManyStragglers {
                available: 0,
                required: 3
            })
        ));
    }

    #[test]
    fn extra_workers_beyond_minimum_still_decode() {
        let mut rng = StdRng::seed_from_u64(11);
        let gc = ClassicGc::cyclic(6, 3, &mut rng).unwrap();
        let grads = partition_gradients(6, 2);
        let codewords: Vec<Vector> = (0..6).map(|w| gc.encode(w, &grads)).collect();
        let g = gc
            .recover(&WorkerSet::full(6), |w| codewords[w].clone(), 2)
            .unwrap();
        assert!((&g - &full_gradient(&grads)).norm_inf() < 1e-6);
    }

    #[test]
    fn paper_fig1b_style_identity() {
        // Fig. 1(b): with n=4, c=2, any 3 codewords combine to g.
        let mut rng = StdRng::seed_from_u64(1);
        let gc = ClassicGc::cyclic(4, 2, &mut rng).unwrap();
        let grads = partition_gradients(4, 1);
        let codewords: Vec<Vector> = (0..4).map(|w| gc.encode(w, &grads)).collect();
        let avail = WorkerSet::from_indices(4, [0, 2, 3]); // W2 straggles
        let g = gc.recover(&avail, |w| codewords[w].clone(), 1).unwrap();
        assert!((g[0] - full_gradient(&grads)[0]).abs() < 1e-6);
    }
}
