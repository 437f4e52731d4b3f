//! The chaos engine's own tiny deterministic RNG.
//!
//! Fault schedules must replay byte-for-byte from a seed, across processes
//! and platforms, forever — so the generator is a self-contained SplitMix64
//! with a stable output sequence, not a re-exported library RNG whose
//! algorithm could drift under us. `fork` derives independent child streams
//! from string labels, so "which worker flaps" and "which byte gets flipped"
//! draw from unrelated sequences even though both come from one seed.

use isgc_core::hash::{fnv1a, mix64, FNV_BASIS, GOLDEN_GAMMA};

/// A seeded SplitMix64 stream with labeled forking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// A uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift mapping; bias is < 2^-32 for the small bounds the
        // chaos planner uses (worker counts, step counts, byte offsets).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p.clamp(0.0, 1.0)
    }

    /// An independent child stream derived from this stream's seed and a
    /// string label. Forking does not advance the parent.
    pub fn fork(&self, label: &str) -> ChaosRng {
        // FNV-1a over the label, mixed into the current state.
        let h = fnv1a(FNV_BASIS, label.as_bytes());
        ChaosRng {
            state: self.state ^ h.wrapping_mul(GOLDEN_GAMMA),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn sequence_is_pinned() {
        // Golden values: the fault-schedule format depends on this exact
        // stream; if this test fails, seeded plans stopped replaying.
        let mut r = ChaosRng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut r = ChaosRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let r = ChaosRng::new(9);
        let mut a1 = r.fork("faults");
        let mut a2 = r.fork("faults");
        let mut b = r.fork("bytes");
        assert_eq!(a1.next_u64(), a2.next_u64(), "same label, same stream");
        assert_ne!(a1.next_u64(), b.next_u64(), "labels separate streams");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = ChaosRng::new(3);
        assert!(!r.next_bool(0.0));
        assert!(r.next_bool(1.0));
    }
}
