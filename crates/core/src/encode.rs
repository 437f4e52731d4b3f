//! Sum-encoding of gradients and assembly of `ĝ` (paper §IV).
//!
//! IS-GC's encoder is deliberately trivial: each worker uploads the *plain
//! sum* of the gradients it computed on its `c` partitions. The paper shows
//! any non-unit coefficients would force joint decoding across specific
//! workers and destroy the freedom to ignore an arbitrary straggler set.

use isgc_linalg::Vector;

use crate::decode::DecodeResult;
use crate::{Placement, WorkerId};

/// The IS-GC encoder: sums per-partition gradients on each worker.
///
/// # Examples
///
/// ```
/// use isgc_core::encode::SumEncoder;
/// use isgc_core::Placement;
/// use isgc_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let placement = Placement::cyclic(4, 2)?;
/// let encoder = SumEncoder::new(&placement);
/// // Worker 0 stores partitions {0, 1}; its codeword is g0 + g1.
/// let g0 = Vector::from_slice(&[1.0, 0.0]);
/// let g1 = Vector::from_slice(&[0.0, 2.0]);
/// let coded = encoder.encode(0, &[g0, g1]);
/// assert_eq!(coded.as_slice(), &[1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SumEncoder {
    placement: Placement,
}

impl SumEncoder {
    /// Creates an encoder for `placement`.
    pub fn new(placement: &Placement) -> Self {
        Self {
            placement: placement.clone(),
        }
    }

    /// Encodes worker `worker`'s codeword: the sum of its per-partition
    /// gradients, given in the same order as
    /// [`Placement::partitions_of`]`(worker)`.
    ///
    /// # Panics
    ///
    /// Panics if `gradients.len() != c`, the gradients have inconsistent
    /// dimensions, or `worker >= n`.
    pub fn encode(&self, worker: WorkerId, gradients: &[Vector]) -> Vector {
        assert_eq!(
            gradients.len(),
            self.placement.c(),
            "worker {worker} must provide c={} gradients",
            self.placement.c()
        );
        let mut sum = gradients[0].clone();
        for g in &gradients[1..] {
            sum.axpy(1.0, g);
        }
        sum
    }

    /// Assembles `ĝ = Σ_{i∈I} codeword_i` from a decode outcome.
    ///
    /// `codewords(i)` must return the codeword uploaded by worker `i`; it is
    /// only called for the selected workers. Returns the zero vector of
    /// dimension `dim` when nothing was selected.
    ///
    /// # Panics
    ///
    /// Panics if any codeword's dimension differs from `dim`.
    pub fn assemble(
        &self,
        result: &DecodeResult,
        dim: usize,
        mut codewords: impl FnMut(WorkerId) -> Vector,
    ) -> Vector {
        let mut g_hat = Vector::zeros(dim);
        for &w in result.selected() {
            let cw = codewords(w);
            assert_eq!(cw.len(), dim, "codeword of worker {w} has wrong dimension");
            g_hat.axpy(1.0, &cw);
        }
        g_hat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{CrDecoder, Decoder, ExactDecoder};
    use crate::{HrParams, WorkerSet};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthesizes distinguishable per-partition gradients: partition j has
    /// gradient [j+1, (j+1)^2].
    fn partition_gradient(j: usize) -> Vector {
        let v = (j + 1) as f64;
        Vector::from_slice(&[v, v * v])
    }

    fn worker_codeword(placement: &Placement, encoder: &SumEncoder, w: usize) -> Vector {
        let grads: Vec<Vector> = placement
            .partitions_of(w)
            .iter()
            .map(|&j| partition_gradient(j))
            .collect();
        encoder.encode(w, &grads)
    }

    #[test]
    fn encode_sums_gradients() {
        let p = Placement::cyclic(4, 2).unwrap();
        let e = SumEncoder::new(&p);
        let coded = e.encode(1, &[partition_gradient(1), partition_gradient(2)]);
        assert_eq!(coded.as_slice(), &[5.0, 13.0]); // [2+3, 4+9]
    }

    #[test]
    #[should_panic(expected = "must provide c=")]
    fn encode_wrong_arity_panics() {
        let p = Placement::cyclic(4, 2).unwrap();
        SumEncoder::new(&p).encode(0, &[partition_gradient(0)]);
    }

    #[test]
    fn assembled_g_hat_equals_sum_of_recovered_partitions() {
        // The central IS-GC identity: ĝ from selected codewords equals the
        // direct sum of the recovered partitions' gradients, exactly.
        let mut rng = StdRng::seed_from_u64(77);
        let placements = vec![
            Placement::fractional(8, 2).unwrap(),
            Placement::cyclic(8, 3).unwrap(),
            Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap(),
        ];
        for placement in &placements {
            let n = placement.n();
            let encoder = SumEncoder::new(placement);
            let decoder = ExactDecoder::new(placement);
            for _ in 0..50 {
                let w = rng.random_range(0..=n);
                let avail = WorkerSet::random_subset(n, w, &mut rng);
                let result = decoder.decode(&avail, &mut rng);
                let g_hat =
                    encoder.assemble(&result, 2, |wid| worker_codeword(placement, &encoder, wid));
                let mut expected = Vector::zeros(2);
                for &j in result.partitions() {
                    expected.axpy(1.0, &partition_gradient(j));
                }
                assert_eq!(g_hat.as_slice(), expected.as_slice());
            }
        }
    }

    #[test]
    fn full_availability_recovers_full_gradient() {
        let placement = Placement::cyclic(6, 2).unwrap();
        let encoder = SumEncoder::new(&placement);
        let decoder = CrDecoder::new(&placement).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let result = decoder.decode(&WorkerSet::full(6), &mut rng);
        assert_eq!(result.recovered_count(), 6);
        let g_hat = encoder.assemble(&result, 2, |w| worker_codeword(&placement, &encoder, w));
        let mut full: Vector = Vector::zeros(2);
        for j in 0..6 {
            full.axpy(1.0, &partition_gradient(j));
        }
        assert_eq!(g_hat.as_slice(), full.as_slice());
    }

    #[test]
    fn coding_matrix_ranks_match_theory() {
        use isgc_linalg::Matrix;
        // IS-GC's 0/1 matrix (row i = indicator of worker i's partitions) for
        // CR is circulant with c ones per row; it is full rank unless the
        // all-ones filter has a zero eigenvalue — in particular FR's B has
        // rank n/c (one distinct row per group).
        let fr = Placement::fractional(8, 2).unwrap();
        let b = Matrix::from_fn(8, 8, |w, j| {
            f64::from(u8::from(fr.partitions_of(w).contains(&j)))
        });
        assert_eq!(b.rank(1e-9), 4);
    }

    #[test]
    fn empty_decode_assembles_zero() {
        let placement = Placement::cyclic(4, 2).unwrap();
        let encoder = SumEncoder::new(&placement);
        let g_hat = encoder.assemble(&DecodeResult::empty(), 3, |_| unreachable!());
        assert_eq!(g_hat.as_slice(), &[0.0, 0.0, 0.0]);
    }
}
