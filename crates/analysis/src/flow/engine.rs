//! The generic monotone-fixpoint engine and the `TermId`-keyed fact memo.
//!
//! Two caches with different shapes back the flow analyses:
//!
//! - [`Fixpoint`] solves mutually recursive dataflow equations over an
//!   arbitrary join-semilattice with a deterministic worklist (always the
//!   smallest pending key), recording which keys each transfer function
//!   read so later invalidations re-solve only the affected region.
//! - [`FactMemo`] memoizes *context-independent* per-term facts keyed on
//!   hash-consed `TermId`s: two structurally identical subterms share one
//!   entry, so re-analyzing an edited definition only pays for the nodes
//!   the edit actually created.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use hazel_lang::store::TermId;

/// A join-semilattice of dataflow facts.
///
/// Contracts (checked by the engine's debug assertions and the unit
/// tests): `join_from` is monotone (the receiver only grows), idempotent,
/// commutative up to equality, and returns whether the receiver changed.
pub trait Lattice: Clone + PartialEq {
    /// The least element.
    fn bottom() -> Self;
    /// Joins `other` into `self`; returns `true` iff `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;
}

/// Aggregate statistics from one [`Fixpoint::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Transfer-function evaluations performed.
    pub evaluations: u64,
    /// Evaluations whose result changed the stored fact.
    pub changed: u64,
}

/// A demand-driven monotone-fixpoint solver over keys `K` and facts `L`.
///
/// Keys are processed smallest-first, so a solve over the same equations
/// visits the same keys in the same order regardless of how the dirty set
/// was discovered.
#[derive(Debug, Clone)]
pub struct Fixpoint<K: Ord + Copy, L: Lattice> {
    facts: BTreeMap<K, L>,
    /// Reverse dependencies: `rdeps[k]` = keys whose transfer read `k`.
    rdeps: BTreeMap<K, BTreeSet<K>>,
}

impl<K: Ord + Copy, L: Lattice> Default for Fixpoint<K, L> {
    fn default() -> Self {
        Fixpoint {
            facts: BTreeMap::new(),
            rdeps: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy, L: Lattice> Fixpoint<K, L> {
    /// An empty solver.
    pub fn new() -> Self {
        Fixpoint::default()
    }

    /// The current fact for `k` (bottom if never computed).
    pub fn fact(&self, k: &K) -> L {
        self.facts.get(k).cloned().unwrap_or_else(L::bottom)
    }

    /// Resets the facts for `dirty` keys to bottom and returns the set of
    /// keys whose transfer functions must re-run: the dirty keys plus
    /// everything transitively depending on them.
    pub fn invalidate(&mut self, dirty: impl IntoIterator<Item = K>) -> BTreeSet<K> {
        let mut worklist: Vec<K> = dirty.into_iter().collect();
        let mut affected = BTreeSet::new();
        while let Some(k) = worklist.pop() {
            if !affected.insert(k) {
                continue;
            }
            self.facts.remove(&k);
            if let Some(readers) = self.rdeps.get(&k) {
                worklist.extend(readers.iter().copied());
            }
        }
        for k in &affected {
            self.rdeps.remove(k);
        }
        affected
    }

    /// Drops all facts and dependencies.
    pub fn clear(&mut self) {
        self.facts.clear();
        self.rdeps.clear();
    }

    /// Solves the system seeded at `seeds`. `transfer` computes the fact
    /// for one key given a resolver for other keys' current facts; every
    /// resolver call is recorded as a dependency edge, so a later
    /// [`Fixpoint::invalidate`] knows exactly which keys to re-run.
    ///
    /// Facts only grow (joins are monotone), so the worklist terminates
    /// for lattices of finite height.
    pub fn solve<F>(&mut self, seeds: impl IntoIterator<Item = K>, mut transfer: F) -> SolveStats
    where
        F: FnMut(K, &mut dyn FnMut(K) -> L) -> L,
    {
        let mut stats = SolveStats::default();
        let mut worklist: BTreeSet<K> = seeds.into_iter().collect();
        while let Some(&k) = worklist.iter().next() {
            worklist.remove(&k);
            stats.evaluations += 1;
            let mut reads: BTreeSet<K> = BTreeSet::new();
            let new = {
                let facts = &self.facts;
                let mut resolver = |dep: K| {
                    reads.insert(dep);
                    facts.get(&dep).cloned().unwrap_or_else(L::bottom)
                };
                transfer(k, &mut resolver)
            };
            for dep in reads {
                self.rdeps.entry(dep).or_default().insert(k);
            }
            let entry = self.facts.entry(k).or_insert_with(L::bottom);
            if entry.join_from(&new) {
                stats.changed += 1;
                if let Some(readers) = self.rdeps.get(&k) {
                    worklist.extend(readers.iter().copied());
                }
            }
        }
        stats
    }
}

/// Tallies from a batch of [`FactMemo`] queries, kept per unit; the
/// driver aggregates and reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactTally {
    /// Facts computed fresh.
    pub computed: u64,
    /// Facts served from the memo.
    pub reused: u64,
}

impl FactTally {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: FactTally) {
        self.computed += other.computed;
        self.reused += other.reused;
    }
}

/// A memo of per-term facts keyed on hash-consed `TermId`s.
///
/// Facts stored here must be context-independent (a function of the term
/// alone), which is what makes the `TermId` a sound key: hash-consing
/// guarantees equal ids mean structurally equal terms.
#[derive(Debug, Clone, Default)]
pub struct FactMemo<F> {
    map: HashMap<TermId, Arc<F>>,
}

impl<F> FactMemo<F> {
    /// An empty memo.
    pub fn new() -> Self {
        FactMemo {
            map: HashMap::new(),
        }
    }

    /// The memoized fact for `t`, if present.
    pub fn get(&self, t: TermId) -> Option<&Arc<F>> {
        self.map.get(&t)
    }

    /// Stores the fact for `t`.
    pub fn insert(&mut self, t: TermId, fact: Arc<F>) {
        self.map.insert(t, fact);
    }

    /// Merges a batch of facts computed against a snapshot of this memo
    /// (one unit's overlay). Insertion order is the caller's
    /// responsibility to keep deterministic; entries already present win,
    /// which is sound because facts are a pure function of the term.
    pub fn absorb(&mut self, batch: Vec<(TermId, Arc<F>)>) {
        for (t, fact) in batch {
            self.map.entry(t).or_insert(fact);
        }
    }

    /// The number of memoized facts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every memoized fact.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reachability: the classic two-point lattice.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Reach(bool);

    impl Lattice for Reach {
        fn bottom() -> Self {
            Reach(false)
        }
        fn join_from(&mut self, other: &Self) -> bool {
            let changed = other.0 && !self.0;
            self.0 |= other.0;
            changed
        }
    }

    #[test]
    fn solves_reachability_over_a_cycle() {
        // 0 -> 1 -> 2 -> 1 (cycle), 3 isolated; 0 is the root.
        let preds: Vec<Vec<usize>> = vec![vec![], vec![0, 2], vec![1], vec![]];
        let mut fx: Fixpoint<usize, Reach> = Fixpoint::new();
        let stats = fx.solve(0..4usize, |k, resolve| {
            if k == 0 {
                return Reach(true);
            }
            Reach(preds[k].iter().any(|&p| resolve(p).0))
        });
        assert!(fx.fact(&0).0 && fx.fact(&1).0 && fx.fact(&2).0);
        assert!(!fx.fact(&3).0);
        assert!(stats.evaluations >= 4);
    }

    #[test]
    fn invalidation_is_transitive_over_recorded_reads() {
        let preds: Vec<Vec<usize>> = vec![vec![], vec![0], vec![1], vec![]];
        let mut fx: Fixpoint<usize, Reach> = Fixpoint::new();
        fx.solve(0..4usize, |k, resolve| {
            if k == 0 {
                return Reach(true);
            }
            Reach(preds[k].iter().any(|&p| resolve(p).0))
        });
        // Dirtying 0 must re-run 1 and 2 (1 read 0, 2 read 1), not 3.
        let affected = fx.invalidate([0]);
        assert_eq!(affected, [0, 1, 2].into_iter().collect());
        assert!(!fx.fact(&1).0, "invalidated facts reset to bottom");
    }

    #[test]
    fn solve_is_deterministic_in_seed_order() {
        let preds: Vec<Vec<usize>> = vec![vec![1], vec![0], vec![0, 1]];
        let run = |seeds: Vec<usize>| {
            let mut fx: Fixpoint<usize, Reach> = Fixpoint::new();
            fx.solve(seeds, |k, resolve| {
                if k == 0 {
                    return Reach(true);
                }
                Reach(preds[k].iter().any(|&p| resolve(p).0))
            });
            (0..3).map(|k| fx.fact(&k).0).collect::<Vec<_>>()
        };
        assert_eq!(run(vec![0, 1, 2]), run(vec![2, 1, 0]));
    }
}
