//! An adaptive wait controller (paper §IV: "we may also choose to receive
//! gradients from fewer workers at the beginning to save time, and then from
//! more workers afterwards until convergence").
//!
//! Unlike the open-loop [`crate::policy::WaitPolicy::Ramp`], the controller
//! closes the loop on the *training loss*: it waits for few workers while
//! the loss is falling quickly, and raises `w` whenever progress stalls —
//! the stall signals that gradient quality, not step rate, has become the
//! bottleneck.

/// Closed-loop controller choosing `w` from observed training losses.
///
/// Strategy: track the mean loss over consecutive windows; when one window
/// improves on the previous by less than `rel_improvement` (relative), raise
/// `w` by one (up to `max_w`) and start fresh.
///
/// # Examples
///
/// ```
/// use isgc_simnet::adaptive::AdaptiveWaitController;
///
/// let mut ctl = AdaptiveWaitController::new(1, 4, 5, 0.05);
/// assert_eq!(ctl.current_w(), 1);
/// // Stalled loss for a full window triggers an escalation.
/// for _ in 0..10 {
///     ctl.observe(1.0);
/// }
/// assert!(ctl.current_w() > 1);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveWaitController {
    max_w: usize,
    window: usize,
    rel_improvement: f64,
    current_w: usize,
    current_window: Vec<f64>,
    previous_mean: Option<f64>,
    w_history: Vec<usize>,
}

impl AdaptiveWaitController {
    /// Creates a controller starting at `min_w`.
    ///
    /// - `window`: number of steps per loss window;
    /// - `rel_improvement`: minimum relative improvement between consecutive
    ///   windows counted as progress (e.g. `0.05` = 5%).
    ///
    /// # Panics
    ///
    /// Panics if `min_w == 0`, `min_w > max_w`, `window == 0`, or
    /// `rel_improvement` is not in `[0, 1)`.
    pub fn new(min_w: usize, max_w: usize, window: usize, rel_improvement: f64) -> Self {
        assert!(min_w >= 1, "min_w must be at least 1");
        assert!(min_w <= max_w, "min_w must not exceed max_w");
        assert!(window >= 1, "window must be at least 1");
        assert!(
            (0.0..1.0).contains(&rel_improvement),
            "rel_improvement must be in [0, 1)"
        );
        Self {
            max_w,
            window,
            rel_improvement,
            current_w: min_w,
            current_window: Vec::with_capacity(window),
            previous_mean: None,
            w_history: Vec::new(),
        }
    }

    /// The wait count the controller currently recommends.
    pub fn current_w(&self) -> usize {
        self.current_w
    }

    /// The `w` used at each observed step so far.
    pub fn w_history(&self) -> &[usize] {
        &self.w_history
    }

    /// Feeds one step's training loss; possibly escalates `w`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is NaN.
    pub fn observe(&mut self, loss: f64) {
        assert!(!loss.is_nan(), "NaN loss");
        self.w_history.push(self.current_w);
        self.current_window.push(loss);
        if self.current_window.len() < self.window {
            return;
        }
        let mean = self.current_window.iter().sum::<f64>() / self.window as f64;
        self.current_window.clear();
        if let Some(prev) = self.previous_mean {
            let improved = prev - mean >= self.rel_improvement * prev.abs();
            if !improved && self.current_w < self.max_w {
                self.current_w += 1;
                // Fresh baseline after escalating: the next window is
                // compared against post-escalation behavior.
                self.previous_mean = None;
                return;
            }
        }
        self.previous_mean = Some(mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_low_while_improving() {
        let mut ctl = AdaptiveWaitController::new(2, 6, 4, 0.05);
        let mut loss = 10.0;
        for _ in 0..40 {
            ctl.observe(loss);
            loss *= 0.9; // 10% improvement per step: never stalls
        }
        assert_eq!(ctl.current_w(), 2);
        assert_eq!(ctl.w_history().len(), 40);
    }

    #[test]
    fn escalates_on_stall_up_to_max() {
        let mut ctl = AdaptiveWaitController::new(1, 3, 2, 0.05);
        for _ in 0..40 {
            ctl.observe(5.0); // flat loss
        }
        assert_eq!(ctl.current_w(), 3); // capped at max_w
                                        // History is non-decreasing.
        for pair in ctl.w_history().windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }

    #[test]
    fn escalation_requires_two_windows() {
        let mut ctl = AdaptiveWaitController::new(1, 4, 3, 0.05);
        for _ in 0..3 {
            ctl.observe(1.0); // first window only sets the baseline
        }
        assert_eq!(ctl.current_w(), 1);
        for _ in 0..3 {
            ctl.observe(1.0); // second flat window triggers escalation
        }
        assert_eq!(ctl.current_w(), 2);
    }

    #[test]
    #[should_panic(expected = "min_w must not exceed")]
    fn rejects_inverted_range() {
        let _ = AdaptiveWaitController::new(4, 2, 1, 0.05);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_loss() {
        AdaptiveWaitController::new(1, 2, 1, 0.0).observe(f64::NAN);
    }
}
