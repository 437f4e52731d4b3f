//! The schedule cursor: deterministic depth-first enumeration of choice
//! points with canonical-state pruning.
//!
//! The checker is a *stateless* model checker: the collector state machines
//! under test cannot be snapshotted, so every interleaving is produced by
//! re-running the whole step loop from scratch while a recorded decision
//! vector replays the prefix of choices and the first undecided point takes
//! its lowest option. Backtracking increments the deepest decision that
//! still has untried options and truncates everything after it.
//!
//! Pruning: at a fresh *branching* point (two or more options) the virtual
//! network hashes its canonical state — per-connection delivered history
//! and pending queues, modeled-worker states, the chosen fault schedule so
//! far. Per-connection delivery is FIFO (TCP semantics), and for the
//! configurations the checker runs the master's post-step state is a
//! function of the per-connection delivered *sequences*, not of their
//! interleaving, so two paths with equal canonical hashes have identical
//! futures and the subtree is explored once. The hash set persists across
//! runs; a revisit poisons the run, which the driver counts as pruned
//! rather than as a terminal.

use std::collections::HashSet;

use crate::plan::Fault;
use isgc_core::hash::{fnv1a, FNV_BASIS};

/// Sentinel carried through [`isgc_net::NetError::Protocol`] when a run is
/// cut short because its state was already explored.
pub(crate) const PRUNE: &str = "__mc_prune__";

/// Sentinel carried through [`isgc_net::NetError::Protocol`] when the
/// collector polls an empty virtual network: every queued frame was
/// delivered yet the state machine still waits — a deadlock.
pub(crate) const STUCK: &str = "__mc_stuck__";

/// Why a run was poisoned mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Poison {
    /// Canonical state already visited; subtree explored elsewhere.
    Prune,
    /// The collector waits on events no schedule can deliver.
    Stuck,
}

/// The decision vector and its cursor.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// Option chosen at each decision point of the current path.
    decisions: Vec<usize>,
    /// Number of options that were available at each point (capped to 1
    /// beyond the depth bound, so bounded tails are never backtracked).
    options: Vec<usize>,
    cursor: usize,
    depth: usize,
}

impl Schedule {
    pub(crate) fn new(depth: usize) -> Schedule {
        Schedule {
            decisions: Vec::new(),
            options: Vec::new(),
            cursor: 0,
            depth,
        }
    }

    /// Replays the next recorded decision, if the cursor is still inside
    /// the prefix.
    fn replay(&mut self, num_options: usize) -> Option<usize> {
        if self.cursor < self.decisions.len() {
            let choice = self.decisions[self.cursor];
            debug_assert!(
                choice < num_options,
                "schedule replay diverged: choice {choice} of {num_options}"
            );
            self.cursor += 1;
            Some(choice.min(num_options - 1))
        } else {
            None
        }
    }

    /// Records a fresh decision point (always option 0). Beyond the depth
    /// bound the point is recorded as having a single option, so the
    /// default choice is kept but never revisited.
    fn commit(&mut self, num_options: usize) -> usize {
        let recorded = if self.decisions.len() >= self.depth {
            1
        } else {
            num_options
        };
        self.decisions.push(0);
        self.options.push(recorded);
        self.cursor += 1;
        0
    }

    /// Advances to the next unexplored path: increments the deepest
    /// decision with untried options and truncates the tail. Returns false
    /// when the whole bounded tree is exhausted.
    pub(crate) fn backtrack(&mut self) -> bool {
        while let (Some(&chosen), Some(&avail)) = (self.decisions.last(), self.options.last()) {
            if chosen + 1 < avail {
                *self.decisions.last_mut().expect("non-empty") += 1;
                self.cursor = 0;
                return true;
            }
            self.decisions.pop();
            self.options.pop();
        }
        false
    }

    pub(crate) fn rewind(&mut self) {
        self.cursor = 0;
    }
}

/// Exploration state of one run's virtual transport, and — for the
/// schedule, visited set and counters — across runs.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub schedule: Schedule,
    visited: HashSet<u64>,
    /// Canonical-state pruning; the search always prunes, and unit tests
    /// switch it off to enumerate the raw decision tree.
    pub prune: bool,
    /// Total non-`Compute` actions a free exploration may script per run.
    pub max_faults: usize,
    /// Steps the run executes (bounds fault options, e.g. a `Duplicate` at
    /// the final step would be unobservable).
    pub steps: u64,
    // Per-run state, reset by `reset_run`:
    /// The fault schedule of the current run — chosen by the explorer in
    /// free mode, scripted in directed mode.
    pub faults: Vec<Fault>,
    /// Directed mode: the scripted plan; workers take exactly these faults.
    pub forced: Option<Vec<Fault>>,
    pub poison: Option<Poison>,
    /// Per-phase (registration, then one slot per step) order-insensitive
    /// accumulator of delivered-event hashes: the run's "delivered
    /// multiset" key for the fingerprint-determinism check.
    pub delivered: Vec<u64>,
    // Counters, persistent across runs:
    pub branch_states: u64,
    pub events_delivered: u64,
}

impl Ctx {
    pub(crate) fn new(depth: usize, max_faults: usize, steps: u64, prune: bool) -> Ctx {
        Ctx {
            schedule: Schedule::new(depth),
            visited: HashSet::new(),
            prune,
            max_faults,
            steps,
            faults: Vec::new(),
            forced: None,
            poison: None,
            delivered: vec![0],
            branch_states: 0,
            events_delivered: 0,
        }
    }

    /// Resets per-run state; the schedule prefix, visited set and counters
    /// survive.
    pub(crate) fn reset_run(&mut self) {
        self.faults = self.forced.clone().unwrap_or_default();
        self.poison = None;
        self.delivered = vec![0];
        self.schedule.rewind();
    }

    /// One decision with `num_options` options; `state` is the canonical
    /// hash of the deciding world, consulted only at fresh branching
    /// points. `None` means the run is poisoned (pruned) — the caller must
    /// surface an error so the collector loop aborts.
    pub(crate) fn choose(&mut self, num_options: usize, state: u64) -> Option<usize> {
        debug_assert!(num_options >= 1);
        if self.poison.is_some() {
            return None;
        }
        if let Some(choice) = self.schedule.replay(num_options) {
            return Some(choice);
        }
        if num_options > 1 {
            if self.prune && !self.visited.insert(state) {
                self.poison = Some(Poison::Prune);
                return None;
            }
            self.branch_states += 1;
        }
        Some(self.schedule.commit(num_options))
    }

    /// The scripted fault for `(worker, step)` in directed mode, if any.
    pub(crate) fn forced_fault(&self, worker: usize, step: u64) -> Option<Fault> {
        self.forced
            .as_ref()?
            .iter()
            .find(|f| f.worker == worker && f.step == step)
            .copied()
    }

    /// Folds a delivered-event hash into the current phase's multiset
    /// accumulator (wrapping sum: order-insensitive by construction).
    pub(crate) fn record_delivery(&mut self, phase: usize, event_hash: u64) {
        if self.delivered.len() <= phase {
            self.delivered.resize(phase + 1, 0);
        }
        self.delivered[phase] = self.delivered[phase].wrapping_add(event_hash);
        self.events_delivered += 1;
    }

    /// The run's delivered-multiset key: phases in order, each an
    /// order-insensitive sum of its event hashes.
    pub(crate) fn delivered_key(&self) -> u64 {
        let mut h = FNV_BASIS;
        for &phase in &self.delivered {
            h = fnv_u64(h, phase);
        }
        h
    }
}

pub(crate) fn fnv_u64(h: u64, value: u64) -> u64 {
    fnv1a(h, &value.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_enumerates_the_whole_bounded_tree() {
        // Two decision points with 2 and 3 options: 6 leaves.
        let mut ctx = Ctx::new(16, 0, 1, false);
        let mut leaves = Vec::new();
        loop {
            ctx.reset_run();
            let a = ctx.choose(2, 0).unwrap();
            let b = ctx.choose(3, 0).unwrap();
            leaves.push((a, b));
            if !ctx.schedule.backtrack() {
                break;
            }
        }
        assert_eq!(leaves.len(), 6);
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), 6, "every leaf distinct");
    }

    #[test]
    fn depth_bound_caps_branching() {
        let mut ctx = Ctx::new(1, 0, 1, false);
        let mut leaves = 0;
        loop {
            ctx.reset_run();
            let _ = ctx.choose(3, 0).unwrap();
            let _ = ctx.choose(3, 0).unwrap(); // beyond depth: forced to 0
            leaves += 1;
            if !ctx.schedule.backtrack() {
                break;
            }
        }
        assert_eq!(leaves, 3, "only the first point branches");
    }

    #[test]
    fn visited_states_prune() {
        let mut ctx = Ctx::new(16, 0, 1, true);
        assert_eq!(ctx.choose(2, 42), Some(0), "first fresh point records 42");
        ctx.schedule.backtrack();
        ctx.reset_run();
        // The first point replays (choice 1) — replays never prune. The
        // *next* fresh branching point hashes to the already-visited 42,
        // so the subtree was explored elsewhere and the run is poisoned.
        assert_eq!(ctx.choose(2, 42), Some(1));
        assert_eq!(ctx.choose(2, 42), None, "same canonical state prunes");
        assert_eq!(ctx.poison, Some(Poison::Prune));
    }
}
