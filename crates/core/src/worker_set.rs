//! A compact bitset over worker identifiers.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

/// A set of workers out of a fixed universe `0..n`, stored as a bitset.
///
/// This is the `W'` of the paper: the subset of workers whose coded gradients
/// reached the master before it stopped waiting. All decoder entry points take
/// a `WorkerSet`.
///
/// # Examples
///
/// ```
/// use isgc_core::WorkerSet;
///
/// let mut w = WorkerSet::empty(6);
/// w.insert(0);
/// w.insert(4);
/// assert_eq!(w.len(), 2);
/// assert!(w.contains(4));
/// assert_eq!(w.iter().collect::<Vec<_>>(), vec![0, 4]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WorkerSet {
    /// Universe size `n`; members are `< n`.
    n: usize,
    /// Bit `i` of word `i / 64` set ⇔ worker `i` present.
    words: Vec<u64>,
}

impl WorkerSet {
    /// Creates an empty set over the universe `0..n`.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Creates the full set `{0, …, n−1}`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Creates a set over `0..n` from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn from_indices(n: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(n);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Samples a uniformly random subset of exactly `k` workers.
    ///
    /// This models `k` arrivals when worker speeds are i.i.d. — the setting of
    /// the paper's fairness claim.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn random_subset<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Self {
        assert!(k <= n, "cannot sample {k} workers out of {n}");
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        Self::from_indices(n, ids.into_iter().take(k))
    }

    /// Universe size `n` this set ranges over (not the member count).
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of workers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when no workers are present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.n, "worker {i} outside universe 0..{}", self.n);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes worker `i` if present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.n, "worker {i} outside universe 0..{}", self.n);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns `true` when worker `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.n, "worker {i} outside universe 0..{}", self.n);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &WorkerSet) -> WorkerSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        WorkerSet {
            n: self.n,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Set union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &WorkerSet) -> WorkerSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        WorkerSet {
            n: self.n,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &WorkerSet) -> WorkerSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        WorkerSet {
            n: self.n,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// Complement within the universe.
    pub fn complement(&self) -> WorkerSet {
        let mut out = WorkerSet {
            n: self.n,
            words: self.words.iter().map(|w| !w).collect(),
        };
        // Clear phantom bits beyond `n`.
        let tail = self.n % 64;
        if tail != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    /// Collects the members into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Picks a uniformly random member, or `None` if empty.
    pub fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let k = self.len();
        if k == 0 {
            return None;
        }
        let target = rng.random_range(0..k);
        self.iter().nth(target)
    }
}

/// Iterator over the members of a [`WorkerSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a WorkerSet,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.next < self.set.n {
            let i = self.next;
            self.next += 1;
            if self.set.contains(i) {
                return Some(i);
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a WorkerSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkerSet(n={}, {{", self.n)?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn insert_remove_contains() {
        let mut s = WorkerSet::empty(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        // Removing an absent member is a no-op.
        s.remove(63);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        WorkerSet::empty(4).insert(4);
    }

    #[test]
    fn full_and_complement() {
        let f = WorkerSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.complement().is_empty());
        let e = WorkerSet::empty(70);
        assert_eq!(e.complement(), f);
        let s = WorkerSet::from_indices(70, [1, 65]);
        let c = s.complement();
        assert_eq!(c.len(), 68);
        assert!(!c.contains(65));
        assert!(c.contains(0));
    }

    #[test]
    fn set_algebra() {
        let a = WorkerSet::from_indices(10, [1, 2, 3]);
        let b = WorkerSet::from_indices(10, [3, 4]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert!(a
            .intersection(&WorkerSet::from_indices(10, [0, 9]))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn algebra_universe_mismatch_panics() {
        WorkerSet::empty(4).union(&WorkerSet::empty(5));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = WorkerSet::from_indices(128, [127, 0, 64, 63]);
        assert_eq!(s.to_vec(), vec![0, 63, 64, 127]);
        let via_intoiter: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(via_intoiter, s.to_vec());
    }

    #[test]
    fn random_subset_has_exact_size() {
        let mut rng = StdRng::seed_from_u64(5);
        for k in 0..=8 {
            let s = WorkerSet::random_subset(8, k, &mut rng);
            assert_eq!(s.len(), k);
            assert_eq!(s.universe(), 8);
        }
    }

    #[test]
    fn random_subset_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 4000;
        let mut counts = [0usize; 6];
        for _ in 0..trials {
            for i in WorkerSet::random_subset(6, 3, &mut rng).iter() {
                counts[i] += 1;
            }
        }
        // Each worker should appear in about half the subsets.
        for (i, &cnt) in counts.iter().enumerate() {
            let freq = cnt as f64 / trials as f64;
            assert!((freq - 0.5).abs() < 0.05, "worker {i}: freq={freq}");
        }
    }

    #[test]
    fn choose_returns_member() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = WorkerSet::from_indices(32, [5, 17, 31]);
        for _ in 0..50 {
            let m = s.choose(&mut rng).unwrap();
            assert!(s.contains(m));
        }
        assert_eq!(WorkerSet::empty(3).choose(&mut rng), None);
    }

    #[test]
    fn choose_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = WorkerSet::from_indices(8, [1, 4, 6]);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..3000 {
            *counts.entry(s.choose(&mut rng).unwrap()).or_insert(0usize) += 1;
        }
        for &c in counts.values() {
            assert!((c as f64 / 3000.0 - 1.0 / 3.0).abs() < 0.05);
        }
    }

    #[test]
    fn debug_format_lists_members() {
        let s = WorkerSet::from_indices(5, [0, 3]);
        assert_eq!(format!("{s:?}"), "WorkerSet(n=5, {0, 3})");
        assert_eq!(format!("{:?}", WorkerSet::empty(2)), "WorkerSet(n=2, {})");
    }

    #[test]
    fn zero_universe_edge_case() {
        let s = WorkerSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.complement().len(), 0);
        assert_eq!(s.iter().count(), 0);
    }
}
