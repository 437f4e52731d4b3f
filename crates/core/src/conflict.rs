//! Conflict graphs (paper §V-A).
//!
//! Two workers *conflict* when they store a common partition: their summed
//! codewords both contain that partition's gradient, so adding them would
//! double-count it. The master can therefore only combine codewords from an
//! *independent set* of the conflict graph, and maximizing the recovered
//! gradients means finding a **maximum independent set** of the subgraph
//! induced by the available workers `W'`.

use std::time::Instant;

use crate::{Placement, WorkerId, WorkerSet};

/// The conflict graph `G = (W, E)` of a placement: vertices are workers,
/// `(a, b) ∈ E` iff workers `a` and `b` share a partition.
///
/// Stores dense bitset adjacency, so edge queries are `O(1)` and neighbor
/// masking during decoding is word-parallel.
///
/// # Examples
///
/// ```
/// use isgc_core::{ConflictGraph, Placement};
///
/// # fn main() -> Result<(), isgc_core::Error> {
/// let g = ConflictGraph::from_placement(&Placement::cyclic(4, 2)?);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2)); // opposite sides of the ring don't conflict
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    n: usize,
    adjacency: Vec<WorkerSet>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `placement` from the ground-truth
    /// "shares a partition" relation.
    pub fn from_placement(placement: &Placement) -> Self {
        let n = placement.n();
        let mut adjacency = vec![WorkerSet::empty(n); n];
        // Workers conflict iff they co-store some partition, so it suffices
        // to link all co-storers of each partition: O(n * c^2).
        for j in 0..n {
            let workers = placement.workers_of(j);
            for (idx, &a) in workers.iter().enumerate() {
                for &b in &workers[idx + 1..] {
                    adjacency[a].insert(b);
                    adjacency[b].insert(a);
                }
            }
        }
        Self { n, adjacency }
    }

    /// Builds a graph directly from an edge list (used in tests and for
    /// synthetic graphs).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(WorkerId, WorkerId)]) -> Self {
        let mut adjacency = vec![WorkerSet::empty(n); n];
        for &(a, b) in edges {
            assert!(a != b, "self-loop ({a},{a}) not allowed");
            adjacency[a].insert(b);
            adjacency[b].insert(a);
        }
        Self { n, adjacency }
    }

    /// Number of vertices (workers).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` when workers `a` and `b` conflict.
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= n`.
    pub fn has_edge(&self, a: WorkerId, b: WorkerId) -> bool {
        self.adjacency[a].contains(b)
    }

    /// The neighbor set of worker `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n`.
    pub fn neighbors(&self, a: WorkerId) -> &WorkerSet {
        &self.adjacency[a]
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(WorkerSet::len).sum::<usize>() / 2
    }

    /// All edges as `(a, b)` pairs with `a < b`, sorted.
    pub fn edges(&self) -> Vec<(WorkerId, WorkerId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for a in 0..self.n {
            for b in self.adjacency[a].iter() {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Returns `true` when every edge of `self` is also an edge of `other`
    /// (the `E ⊆ E'` relation of Theorems 4 and 7).
    ///
    /// # Panics
    ///
    /// Panics if the vertex counts differ.
    pub fn is_subgraph_of(&self, other: &ConflictGraph) -> bool {
        assert_eq!(self.n, other.n, "vertex count mismatch");
        (0..self.n).all(|a| self.adjacency[a].difference(&other.adjacency[a]).is_empty())
    }

    /// Returns `true` when `set` is an independent set: no two members
    /// adjacent.
    pub fn is_independent(&self, set: &[WorkerId]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if a == b || self.has_edge(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks Theorem 1: is this graph the circulant `C_n^{1..c−1}`, i.e.
    /// `(a, b) ∈ E ⇔ ring-distance(a, b) < c`?
    pub fn is_circulant_with_span(&self, c: usize) -> bool {
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                let d = ring_distance(self.n, a, b);
                if self.has_edge(a, b) != (d < c) {
                    return false;
                }
            }
        }
        true
    }

    /// Computes a **maximum** independent set of the subgraph induced by
    /// `available`, by branch-and-bound.
    ///
    /// This is the exact oracle the paper's linear-time decoders are tested
    /// against; exponential in the worst case but fast at experiment scale
    /// (`n ≤ 64`).
    ///
    /// # Panics
    ///
    /// Panics if `available.universe() != self.n()`.
    pub fn max_independent_set(&self, available: &WorkerSet) -> Vec<WorkerId> {
        self.max_independent_set_within(available, None)
            .expect("unbudgeted search always completes")
    }

    /// [`ConflictGraph::max_independent_set`] under an optional wall-clock
    /// deadline: `None` means the search ran to completion and the result
    /// is the exact maximum; `Some(deadline)` aborts the branch-and-bound
    /// once the deadline passes (checked every 256 search nodes, so the
    /// overshoot is bounded) and returns `None` instead of a possibly
    /// non-maximum set.
    ///
    /// # Panics
    ///
    /// Panics if `available.universe() != self.n()`.
    pub fn max_independent_set_within(
        &self,
        available: &WorkerSet,
        deadline: Option<Instant>,
    ) -> Option<Vec<WorkerId>> {
        assert_eq!(
            available.universe(),
            self.n,
            "available-set universe mismatch"
        );
        let mut best: Vec<WorkerId> = Vec::new();
        let mut current: Vec<WorkerId> = Vec::new();
        let mut budget = MisBudget { nodes: 0, deadline };
        if !self.mis_recurse(available.clone(), &mut current, &mut best, &mut budget) {
            return None;
        }
        best.sort_unstable();
        Some(best)
    }

    /// The independence number `α(G[W'])` of the induced subgraph.
    ///
    /// # Panics
    ///
    /// Panics if `available.universe() != self.n()`.
    pub fn alpha(&self, available: &WorkerSet) -> usize {
        self.max_independent_set(available).len()
    }

    /// One branch-and-bound node. Returns `false` when the budget expired
    /// mid-search (the partial `best` must then be discarded — it may not
    /// be maximum).
    fn mis_recurse(
        &self,
        mut remaining: WorkerSet,
        current: &mut Vec<WorkerId>,
        best: &mut Vec<WorkerId>,
        budget: &mut MisBudget,
    ) -> bool {
        if !budget.charge() {
            return false;
        }
        // Bound: even taking every remaining vertex cannot beat `best`.
        if current.len() + remaining.len() <= best.len() {
            return true;
        }
        // Pick the remaining vertex of maximum induced degree; vertices of
        // induced degree zero are always optimal to take immediately.
        let mut pick: Option<WorkerId> = None;
        let mut pick_deg = 0usize;
        let mut isolated: Vec<WorkerId> = Vec::new();
        for v in remaining.iter() {
            let deg = self.adjacency[v].intersection(&remaining).len();
            if deg == 0 {
                isolated.push(v);
            } else if pick.is_none() || deg > pick_deg {
                pick = Some(v);
                pick_deg = deg;
            }
        }
        let taken_isolated = isolated.len();
        for &v in &isolated {
            current.push(v);
            remaining.remove(v);
        }
        let mut completed = true;
        match pick {
            None => {
                if current.len() > best.len() {
                    *best = current.clone();
                }
            }
            Some(v) => {
                // Branch 1: include v (dropping its neighbors).
                let mut without_nbrs = remaining.difference(&self.adjacency[v]);
                without_nbrs.remove(v);
                current.push(v);
                completed = self.mis_recurse(without_nbrs, current, best, budget);
                current.pop();
                // Branch 2: exclude v.
                if completed {
                    let mut without_v = remaining.clone();
                    without_v.remove(v);
                    completed = self.mis_recurse(without_v, current, best, budget);
                }
            }
        }
        for _ in 0..taken_isolated {
            current.pop();
        }
        completed
    }
}

/// Budget state threaded through [`ConflictGraph::mis_recurse`]: the
/// deadline is consulted only every 256 nodes, so the clock read never
/// dominates the search and the overshoot past the deadline stays bounded.
struct MisBudget {
    nodes: u64,
    deadline: Option<Instant>,
}

impl MisBudget {
    /// Accounts one search node; `false` means the deadline has passed.
    fn charge(&mut self) -> bool {
        self.nodes += 1;
        match self.deadline {
            None => true,
            Some(deadline) => !self.nodes.is_multiple_of(256) || Instant::now() < deadline,
        }
    }
}

/// The ring distance `d(a, b) = min(|a−b|, n−|a−b|)` of paper Theorem 1.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use isgc_core::conflict::ring_distance;
///
/// assert_eq!(ring_distance(10, 1, 9), 2);
/// assert_eq!(ring_distance(10, 2, 6), 4);
/// ```
pub fn ring_distance(n: usize, a: WorkerId, b: WorkerId) -> usize {
    assert!(n > 0, "ring of size zero");
    let diff = a.abs_diff(b) % n;
    diff.min(n - diff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HrParams, Placement};

    #[test]
    fn ring_distance_basic() {
        assert_eq!(ring_distance(4, 0, 0), 0);
        assert_eq!(ring_distance(4, 0, 1), 1);
        assert_eq!(ring_distance(4, 0, 2), 2);
        assert_eq!(ring_distance(4, 0, 3), 1);
        assert_eq!(ring_distance(5, 1, 4), 2);
    }

    #[test]
    fn fig4a_fr_conflict_graph() {
        // FR(4,2): two disjoint edges {0,1} and {2,3}.
        let g = ConflictGraph::from_placement(&Placement::fractional(4, 2).unwrap());
        assert_eq!(g.edges(), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn fig4b_cr_conflict_graph() {
        // CR(4,2): the 4-cycle.
        let g = ConflictGraph::from_placement(&Placement::cyclic(4, 2).unwrap());
        assert_eq!(g.edges(), vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn theorem1_cr_is_circulant() {
        // The CR conflict graph is the circulant C_n^{1..c-1} for all n, c.
        for n in 2..=14 {
            for c in 1..=n {
                let g = ConflictGraph::from_placement(&Placement::cyclic(n, c).unwrap());
                assert!(g.is_circulant_with_span(c), "n={n}, c={c}");
            }
        }
    }

    #[test]
    fn theorem1_circulant_span_caps_at_half_ring() {
        // When 2(c-1) >= n the graph is complete; span check with cap
        // ceil(n/2) must still hold (d < ceil(n/2) always true off-diagonal
        // except antipodal points... verify via explicit completeness).
        let g = ConflictGraph::from_placement(&Placement::cyclic(4, 4).unwrap());
        assert_eq!(g.edge_count(), 6); // K4
    }

    #[test]
    fn theorem4_fr_subset_of_cr_subset_of_larger_cr() {
        for (n, c) in [(4usize, 2usize), (6, 2), (6, 3), (8, 4), (12, 3)] {
            let fr = ConflictGraph::from_placement(&Placement::fractional(n, c).unwrap());
            let cr = ConflictGraph::from_placement(&Placement::cyclic(n, c).unwrap());
            assert!(fr.is_subgraph_of(&cr), "FR({n},{c}) ⊆ CR({n},{c})");
            for c_next in c..=n {
                let cr_next = ConflictGraph::from_placement(&Placement::cyclic(n, c_next).unwrap());
                assert!(
                    cr.is_subgraph_of(&cr_next),
                    "CR({n},{c}) ⊆ CR({n},{c_next})"
                );
            }
        }
    }

    #[test]
    fn theorem5_hr_full_c1_conflict_graph_equals_fr() {
        // HR(8, 4, 0) with g=2 has the same conflict graph as FR(8, 4).
        let hr =
            ConflictGraph::from_placement(&Placement::hybrid(HrParams::new(8, 2, 4, 0)).unwrap());
        let fr = ConflictGraph::from_placement(&Placement::fractional(8, 4).unwrap());
        assert_eq!(hr.edges(), fr.edges());
    }

    #[test]
    fn theorem7_hr_edge_chain_is_monotone_in_c2() {
        // E_HR(n,c,0) ⊆ E_HR(n,c-1,1) ⊆ ... ⊆ E_HR(n,0,c) for the Fig. 13
        // family (n=8, g=2, c=4).
        let graphs: Vec<ConflictGraph> = (0..=4usize)
            .rev() // c1 = 4, 3, 2, 1, 0
            .map(|c1| {
                ConflictGraph::from_placement(
                    &Placement::hybrid(HrParams::new(8, 2, c1, 4 - c1)).unwrap(),
                )
            })
            .collect();
        for pair in graphs.windows(2) {
            assert!(pair[0].is_subgraph_of(&pair[1]));
        }
        // Endpoints are FR and CR.
        let fr = ConflictGraph::from_placement(&Placement::fractional(8, 4).unwrap());
        let cr = ConflictGraph::from_placement(&Placement::cyclic(8, 4).unwrap());
        assert_eq!(graphs[0].edges(), fr.edges());
        assert_eq!(graphs[4].edges(), cr.edges());
    }

    #[test]
    fn independence_checks() {
        let g = ConflictGraph::from_placement(&Placement::cyclic(4, 2).unwrap());
        assert!(g.is_independent(&[0, 2]));
        assert!(g.is_independent(&[1, 3]));
        assert!(!g.is_independent(&[0, 1]));
        assert!(!g.is_independent(&[0, 0])); // repeats are not independent
        assert!(g.is_independent(&[]));
        assert!(g.is_independent(&[2]));
    }

    #[test]
    fn exact_mis_on_known_graphs() {
        // 4-cycle: alpha = 2.
        let g = ConflictGraph::from_placement(&Placement::cyclic(4, 2).unwrap());
        let full = WorkerSet::full(4);
        assert_eq!(g.alpha(&full), 2);
        let mis = g.max_independent_set(&full);
        assert!(g.is_independent(&mis));
        assert_eq!(mis.len(), 2);

        // Complete graph: alpha = 1.
        let k4 = ConflictGraph::from_placement(&Placement::cyclic(4, 4).unwrap());
        assert_eq!(k4.alpha(&full), 1);

        // Edgeless graph: alpha = n.
        let e = ConflictGraph::from_edges(5, &[]);
        assert_eq!(e.alpha(&WorkerSet::full(5)), 5);
    }

    #[test]
    fn exact_mis_respects_available_mask() {
        let g = ConflictGraph::from_placement(&Placement::cyclic(6, 2).unwrap());
        // Only consecutive workers 0,1,2 available: alpha of induced path = 2.
        let avail = WorkerSet::from_indices(6, [0, 1, 2]);
        assert_eq!(g.alpha(&avail), 2);
        let mis = g.max_independent_set(&avail);
        assert!(mis.iter().all(|&v| avail.contains(v)));
        // Empty availability.
        assert_eq!(g.alpha(&WorkerSet::empty(6)), 0);
    }

    #[test]
    fn exact_mis_matches_brute_force_enumeration() {
        // Exhaustive cross-check on all subsets for small CR and HR graphs.
        let cases: Vec<ConflictGraph> = vec![
            ConflictGraph::from_placement(&Placement::cyclic(7, 3).unwrap()),
            ConflictGraph::from_placement(&Placement::fractional(6, 2).unwrap()),
            ConflictGraph::from_placement(&Placement::hybrid(HrParams::new(8, 2, 2, 2)).unwrap()),
        ];
        for g in &cases {
            let n = g.n();
            for mask in 0u32..(1 << n) {
                let avail = WorkerSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let exact = g.alpha(&avail);
                // Brute force over subsets of avail.
                let members = avail.to_vec();
                let mut best = 0usize;
                for sub in 0u32..(1 << members.len()) {
                    let set: Vec<usize> = members
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| sub & (1 << k) != 0)
                        .map(|(_, &v)| v)
                        .collect();
                    if g.is_independent(&set) {
                        best = best.max(set.len());
                    }
                }
                assert_eq!(exact, best, "graph n={n}, mask={mask:b}");
            }
        }
    }

    #[test]
    fn from_edges_and_queries() {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2)]);
        assert!(g.has_edge(1, 0));
        assert_eq!(g.neighbors(1).to_vec(), vec![0, 2]);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.n(), 4);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_edges_rejects_self_loop() {
        ConflictGraph::from_edges(3, &[(1, 1)]);
    }
}
