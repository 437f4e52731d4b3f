//! Plain SGD (the `torch.optim.SGD` stand-in at its defaults).

use isgc_linalg::{kernels, Vector};

/// Mini-batch SGD, `θ ← θ − ηg` — the update of the paper's Theorem 12 and
/// its reference implementation, whose only optimizer argument is `lr`.
///
/// # Examples
///
/// ```
/// use isgc_linalg::Vector;
/// use isgc_ml::optimizer::Sgd;
///
/// let mut params = Vector::from_slice(&[1.0]);
/// let grad = Vector::from_slice(&[0.5]);
/// let mut opt = Sgd::new(0.1);
/// opt.step(&mut params, &grad);
/// assert!((params[0] - 0.95).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f64,
    /// Reusable effective-gradient buffer for [`Sgd::step_prescaled`]'s
    /// extra-scale path, so no step allocates.
    scratch: Option<Vector>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not finite and positive.
    pub fn new(learning_rate: f64) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate > 0.0,
            "learning rate must be positive"
        );
        Self {
            learning_rate,
            scratch: None,
        }
    }

    /// Applies one update `θ ← θ − ηg` in place.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != params.len()`.
    pub fn step(&mut self, params: &mut Vector, grad: &Vector) {
        assert_eq!(params.len(), grad.len(), "parameter/gradient mismatch");
        params.axpy(-self.learning_rate, grad);
    }

    /// Applies one update treating `prescale * grad` (further multiplied by
    /// `extra_scale` when given) as the gradient — the master's
    /// normalization, degrade bias-weight, and SGD update fused into one
    /// call, with no full-vector temporaries on the common path.
    ///
    /// Bitwise contract: identical to scaling a copy of `grad` by
    /// `prescale` (then by `extra_scale`) and calling [`Sgd::step`] on it —
    /// the per-element rounding sequence is preserved, only the passes over
    /// memory are fused. Without an extra scale the update runs as a single
    /// fused [`kernels::scale_axpy`]; with one, the effective gradient is
    /// built in a scratch buffer that is reused across steps.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != params.len()`.
    pub fn step_prescaled(
        &mut self,
        params: &mut Vector,
        grad: &Vector,
        prescale: f64,
        extra_scale: Option<f64>,
    ) {
        assert_eq!(params.len(), grad.len(), "parameter/gradient mismatch");
        let Some(b) = extra_scale else {
            kernels::scale_axpy(
                params.as_mut_slice(),
                -self.learning_rate,
                grad.as_slice(),
                prescale,
            );
            return;
        };
        if self
            .scratch
            .as_ref()
            .is_none_or(|s| s.len() != params.len())
        {
            self.scratch = Some(Vector::zeros(params.len()));
        }
        let g = self.scratch.as_mut().expect("scratch just ensured");
        kernels::scaled_into(g.as_mut_slice(), grad.as_slice(), prescale);
        kernels::scale(g.as_mut_slice(), b);
        kernels::axpy(params.as_mut_slice(), -self.learning_rate, g.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut p = Vector::from_slice(&[1.0, -2.0]);
        let g = Vector::from_slice(&[10.0, -10.0]);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut p, &g);
        assert_eq!(p.as_slice(), &[0.9, -1.9]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_negative_lr() {
        let _ = Sgd::new(-0.1);
    }

    #[test]
    fn step_prescaled_matches_scale_then_step_bitwise() {
        let grad = Vector::from_fn(9, |i| 0.4 * i as f64 - 1.3);
        for extra in [None, Some(0.75), Some(0.3)] {
            let mut fused = Sgd::new(0.1);
            let mut reference = Sgd::new(0.1);
            let mut p1 = Vector::from_fn(9, |i| (i as f64).cos());
            let mut p2 = p1.clone();
            for _ in 0..4 {
                fused.step_prescaled(&mut p1, &grad, 0.125, extra);
                let mut g = grad.scaled(0.125);
                if let Some(b) = extra {
                    g.scale(b);
                }
                reference.step(&mut p2, &g);
            }
            for i in 0..9 {
                assert_eq!(
                    p1[i].to_bits(),
                    p2[i].to_bits(),
                    "elem {i}, extra {extra:?}"
                );
            }
        }
    }
}
