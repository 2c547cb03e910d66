//! Static analyses and scratch structures backing the environment machine
//! (`crate::machine`).
//!
//! The machine charges evaluation steps exactly as the substitution-based
//! tree evaluator (the spec oracle) does, so that `EvalSteps` (and fuel
//! exhaustion points) stay bit-identical to it. The one place this
//! requires real work is variable lookup: where the tree evaluator
//! *re-evaluates* the value it substituted in (a final term, so
//! re-evaluation returns it unchanged but still consumes steps), the
//! machine returns the bound value in O(1) and charges the steps the
//! re-evaluation would have cost. That
//! cost — the *replay cost* of a final term — is a pure function of the
//! term, computed here iteratively over the hash-consed DAG and memoized
//! per `TermId`.

use std::collections::HashMap;

use crate::store::{Node, TermId, TermStore};

/// Memoized replay costs: the number of evaluation steps the big-step
/// tree evaluator spends re-evaluating a *final* term.
///
/// Re-evaluating a final term returns it unchanged: literals and lambdas
/// cost one step; constructors cost one step plus their components;
/// indeterminate elimination forms cost one step plus their principal
/// position only (stuck branches and arms are preserved, not evaluated);
/// hole closures cost one step plus the replay of each *closed* σ entry
/// (open entries are kept as-is by `eval_sigma`). Replay never descends
/// under binders, mirroring big-step evaluation.
#[derive(Debug, Default)]
pub struct ReplayCosts {
    memo: HashMap<TermId, u64>,
}

impl ReplayCosts {
    /// Creates an empty memo.
    pub fn new() -> ReplayCosts {
        ReplayCosts::default()
    }

    /// The steps a big-step evaluator consumes re-evaluating final term
    /// `t`. Computed iteratively (deep list spines and redex chains must
    /// not recurse on the host stack) and memoized per id; sound because
    /// the store is append-only, so an id's node never changes.
    pub fn cost(&mut self, store: &TermStore, t: TermId) -> u64 {
        if let Some(&c) = self.memo.get(&t) {
            return c;
        }
        // Two-phase DFS: first visit pushes the node back and then its
        // replay-relevant children; second visit folds their memoized
        // costs. `false` = expand, `true` = fold.
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        let mut children: Vec<TermId> = Vec::new();
        while let Some((id, fold)) = stack.pop() {
            if self.memo.contains_key(&id) {
                continue;
            }
            children.clear();
            replay_children(store, id, &mut children);
            if fold {
                let mut cost: u64 = 1;
                for &c in &children {
                    cost = cost.saturating_add(self.memo[&c]);
                }
                self.memo.insert(id, cost);
            } else {
                stack.push((id, true));
                for &c in &children {
                    if !self.memo.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
            }
        }
        self.memo[&t]
    }
}

/// Pushes the children of `t` that big-step evaluation visits when
/// re-evaluating a final term: all components of constructors, but only
/// the principal position of elimination forms, and only the *closed*
/// entries of hole-closure environments.
fn replay_children(store: &TermStore, t: TermId, out: &mut Vec<TermId>) {
    match store.node(t) {
        // Leaves and binder-guarded forms: one step, no descent. `Var` and
        // `Fix` never sit at an evaluation position of a closed final
        // term; they are covered defensively.
        Node::Var(_)
        | Node::Lam(..)
        | Node::Fix(..)
        | Node::Int(_)
        | Node::Float(_)
        | Node::Bool(_)
        | Node::Str(_)
        | Node::Unit
        | Node::Nil(_)
        | Node::ULet(..)
        | Node::UAsc(..)
        | Node::ULivelit(..)
        | Node::UEmptyHole(_)
        | Node::UNonEmptyHole(..) => {}
        Node::Tuple(fields) => out.extend(fields.iter().map(|(_, e)| *e)),
        Node::Ap(f, a) => out.extend([*f, *a]),
        Node::Bin(_, a, b) => out.extend([*a, *b]),
        Node::Cons(h, tl) => out.extend([*h, *tl]),
        Node::If(c, _, _) => out.push(*c),
        Node::Proj(s, _) => out.push(*s),
        Node::Case(s, _) => out.push(*s),
        Node::ListCase(s, _, _, _, _) => out.push(*s),
        Node::Inj(_, _, e) | Node::Roll(_, e) | Node::Unroll(e) => out.push(*e),
        Node::EmptyHole(_, sigma) => {
            out.extend(
                sigma
                    .iter()
                    .filter(|&&(_, e)| store.is_closed(e))
                    .map(|&(_, e)| e),
            );
        }
        Node::NonEmptyHole(_, sigma, inner) => {
            out.extend(
                sigma
                    .iter()
                    .filter(|&&(_, e)| store.is_closed(e))
                    .map(|&(_, e)| e),
            );
            out.push(*inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::BinOp;
    use crate::typ::Typ;

    #[test]
    fn literals_cost_one() {
        let mut store = TermStore::new();
        let t = store.intern(Node::Int(7));
        let mut costs = ReplayCosts::new();
        assert_eq!(costs.cost(&store, t), 1);
    }

    #[test]
    fn stuck_if_charges_scrutinee_only() {
        // If(⦇⦈, 1+1, 2+2): replay = 1 (if) + 1 (hole) — branches are
        // preserved unevaluated, so their redexes cost nothing.
        let mut store = TermStore::new();
        let hole = store.intern(Node::EmptyHole(crate::ident::HoleName(0), Box::new([])));
        let one = store.intern(Node::Int(1));
        let two = store.intern(Node::Int(2));
        let t1 = store.intern(Node::Bin(BinOp::Add, one, one));
        let t2 = store.intern(Node::Bin(BinOp::Add, two, two));
        let stuck = store.intern(Node::If(hole, t1, t2));
        let mut costs = ReplayCosts::new();
        assert_eq!(costs.cost(&store, stuck), 2);
    }

    #[test]
    fn deep_spines_fold_iteratively() {
        // A 100k-long cons spine must not recurse on the host stack.
        let mut store = TermStore::new();
        let mut t = store.intern(Node::Nil(Typ::Int));
        let one = store.intern(Node::Int(1));
        for _ in 0..100_000 {
            t = store.intern(Node::Cons(one, t));
        }
        let mut costs = ReplayCosts::new();
        assert_eq!(costs.cost(&store, t), 2 * 100_000 + 1);
    }
}
