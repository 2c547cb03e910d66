//! Context-independent per-term facts, memoized by hash-consed `TermId`.
//!
//! Every fact here is a pure function of the term itself — free-variable
//! use counts, hole inventories, effect bits — which is what makes the
//! `TermId` a sound memo key and lets structurally shared subterms (the
//! common case after a small edit, thanks to hash-consing) be analyzed
//! exactly once across definitions and runs.

use std::collections::HashMap;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hazel_lang::ident::{HoleName, LivelitName};
use hazel_lang::store::{Node, TermId, TermStore, VarId};

use super::engine::{FactMemo, FactTally};

/// The facts computed for one term.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermFacts {
    /// Free-variable occurrence counts (shadowing-aware): how many times
    /// each free variable is referenced by the term.
    pub use_counts: BTreeMap<VarId, u32>,
    /// Fillable holes in the term — empty and non-empty hole contexts,
    /// the positions through which liveness facts must flow (`LL07xx`).
    pub holes: BTreeSet<HoleName>,
    /// Holes occupied by livelit invocations (not fillable contexts).
    pub livelit_holes: BTreeSet<HoleName>,
    /// Livelits the term invokes.
    pub livelits: BTreeSet<LivelitName>,
    /// Whether the term contains general recursion (`fix`).
    pub has_fix: bool,
}

impl TermFacts {
    /// The use count for `x` (0 if unused).
    pub fn uses(&self, x: VarId) -> u32 {
        self.use_counts.get(&x).copied().unwrap_or(0)
    }

    fn merge(&mut self, other: &TermFacts) {
        for (x, n) in &other.use_counts {
            *self.use_counts.entry(*x).or_insert(0) += n;
        }
        self.holes.extend(other.holes.iter().copied());
        self.livelit_holes
            .extend(other.livelit_holes.iter().copied());
        self.livelits.extend(other.livelits.iter().cloned());
        self.has_fix |= other.has_fix;
    }

    /// Merges `other` with binders `bound` removed — occurrences of a
    /// bound variable inside the binder's scope are not free uses.
    fn merge_bound(&mut self, other: &TermFacts, bound: &[VarId]) {
        for (x, n) in &other.use_counts {
            if bound.contains(x) {
                continue;
            }
            *self.use_counts.entry(*x).or_insert(0) += n;
        }
        self.holes.extend(other.holes.iter().copied());
        self.livelit_holes
            .extend(other.livelit_holes.iter().copied());
        self.livelits.extend(other.livelits.iter().cloned());
        self.has_fix |= other.has_fix;
    }
}

/// A fact walker over one store: reads a shared base memo, writes fresh
/// facts to a local overlay, and tallies computed/reused counts locally.
///
/// The split keeps tallies per unit: each unit is analyzed against the
/// *pre-run* memo (so its tallies depend only on the unit itself), and
/// the driver absorbs the overlays in unit order afterwards.
pub struct FactScout<'a> {
    store: &'a TermStore,
    base: &'a FactMemo<TermFacts>,
    local: HashMap<TermId, Arc<TermFacts>>,
    /// Insertion order of the overlay, for deterministic absorption.
    order: Vec<TermId>,
    /// Local computed/reused tallies.
    pub tally: FactTally,
}

impl<'a> FactScout<'a> {
    /// A scout over `store` reading `base`.
    pub fn new(store: &'a TermStore, base: &'a FactMemo<TermFacts>) -> FactScout<'a> {
        FactScout {
            store,
            base,
            local: HashMap::new(),
            order: Vec::new(),
            tally: FactTally::default(),
        }
    }

    fn lookup(&self, t: TermId) -> Option<Arc<TermFacts>> {
        self.local.get(&t).or_else(|| self.base.get(t)).cloned()
    }

    /// The facts for `t`, computing (and memoizing locally) as needed.
    pub fn facts(&mut self, root: TermId) -> Arc<TermFacts> {
        if let Some(f) = self.lookup(root) {
            self.tally.reused += 1;
            return f;
        }
        // Iterative post-order so deep programs cannot overflow the stack.
        let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                if self.local.contains_key(&t) {
                    continue;
                }
                let f = self.compute(t);
                self.local.insert(t, Arc::new(f));
                self.order.push(t);
                self.tally.computed += 1;
                continue;
            }
            if self.lookup(t).is_some() {
                if t != root {
                    self.tally.reused += 1;
                }
                continue;
            }
            stack.push((t, true));
            for c in children(self.store.node(t)) {
                stack.push((c, false));
            }
        }
        self.lookup(root).expect("post-order computed the root")
    }

    /// Computes one node's facts from its children's memoized facts.
    fn compute(&self, t: TermId) -> TermFacts {
        let child = |c: TermId| -> Arc<TermFacts> {
            self.lookup(c).expect("children computed before parents")
        };
        let mut f = TermFacts::default();
        match self.store.node(t) {
            Node::Var(x) => {
                f.use_counts.insert(*x, 1);
            }
            Node::Int(_) | Node::Float(_) | Node::Bool(_) | Node::Str(_) | Node::Unit => {}
            Node::Nil(_) => {}
            Node::Lam(x, _, b) => f.merge_bound(&child(*b), &[*x]),
            Node::Fix(x, _, b) => {
                f.merge_bound(&child(*b), &[*x]);
                f.has_fix = true;
            }
            Node::Ap(a, b) | Node::Bin(_, a, b) | Node::Cons(a, b) => {
                f.merge(&child(*a));
                f.merge(&child(*b));
            }
            Node::If(c, a, b) => {
                f.merge(&child(*c));
                f.merge(&child(*a));
                f.merge(&child(*b));
            }
            Node::Tuple(fields) => {
                for (_, e) in fields {
                    f.merge(&child(*e));
                }
            }
            Node::Proj(e, _) | Node::Inj(_, _, e) | Node::Roll(_, e) | Node::Unroll(e) => {
                f.merge(&child(*e));
            }
            Node::UAsc(e, _) => f.merge(&child(*e)),
            Node::Case(scrut, arms) => {
                f.merge(&child(*scrut));
                for (_, x, body) in arms {
                    f.merge_bound(&child(*body), &[*x]);
                }
            }
            Node::ListCase(scrut, nil, h, tl, cons) => {
                f.merge(&child(*scrut));
                f.merge(&child(*nil));
                f.merge_bound(&child(*cons), &[*h, *tl]);
            }
            Node::EmptyHole(u, sigma) => {
                f.holes.insert(*u);
                for (_, e) in sigma {
                    f.merge(&child(*e));
                }
            }
            Node::NonEmptyHole(u, sigma, e) => {
                f.holes.insert(*u);
                for (_, se) in sigma {
                    f.merge(&child(*se));
                }
                f.merge(&child(*e));
            }
            Node::ULet(x, _, d, b) => {
                f.merge(&child(*d));
                f.merge_bound(&child(*b), &[*x]);
            }
            Node::ULivelit(name, splices, u) => {
                f.livelits.insert(name.clone());
                f.livelit_holes.insert(*u);
                for (e, _) in splices {
                    f.merge(&child(*e));
                }
            }
            Node::UEmptyHole(u) => {
                f.holes.insert(*u);
            }
            Node::UNonEmptyHole(u, e) => {
                f.holes.insert(*u);
                f.merge(&child(*e));
            }
        }
        f
    }

    /// Consumes the scout, returning the overlay of freshly computed
    /// facts in computation order (deterministic for a given unit).
    pub fn into_overlay(self) -> (Vec<(TermId, Arc<TermFacts>)>, FactTally) {
        let FactScout {
            local,
            order,
            tally,
            ..
        } = self;
        let mut local = local;
        let overlay = order
            .into_iter()
            .filter_map(|t| local.remove(&t).map(|f| (t, f)))
            .collect();
        (overlay, tally)
    }
}

/// The child term ids of one node, in syntactic order.
pub fn children(node: &Node) -> Vec<TermId> {
    match node {
        Node::Var(_)
        | Node::Int(_)
        | Node::Float(_)
        | Node::Bool(_)
        | Node::Str(_)
        | Node::Unit
        | Node::Nil(_)
        | Node::UEmptyHole(_) => Vec::new(),
        Node::Lam(_, _, b) | Node::Fix(_, _, b) => vec![*b],
        Node::Ap(a, b) | Node::Bin(_, a, b) | Node::Cons(a, b) => vec![*a, *b],
        Node::If(c, a, b) => vec![*c, *a, *b],
        Node::Tuple(fields) => fields.iter().map(|(_, e)| *e).collect(),
        Node::Proj(e, _) | Node::Inj(_, _, e) | Node::Roll(_, e) | Node::Unroll(e) => vec![*e],
        Node::UAsc(e, _) | Node::UNonEmptyHole(_, e) => vec![*e],
        Node::Case(scrut, arms) => std::iter::once(*scrut)
            .chain(arms.iter().map(|(_, _, b)| *b))
            .collect(),
        Node::ListCase(scrut, nil, _, _, cons) => vec![*scrut, *nil, *cons],
        Node::EmptyHole(_, sigma) => sigma.iter().map(|(_, e)| *e).collect(),
        Node::NonEmptyHole(_, sigma, e) => sigma
            .iter()
            .map(|(_, se)| *se)
            .chain(std::iter::once(*e))
            .collect(),
        Node::ULet(_, _, d, b) => vec![*d, *b],
        Node::ULivelit(_, splices, _) => splices.iter().map(|(e, _)| *e).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::parse::parse_uexp;

    fn facts_of(src: &str) -> TermFacts {
        let e = parse_uexp(src).unwrap();
        let mut store = TermStore::new();
        let root = store.intern_uexp_skeleton(&e);
        let memo = FactMemo::new();
        let mut scout = FactScout::new(&store, &memo);
        let f = scout.facts(root);
        (*f).clone()
    }

    #[test]
    fn use_counts_respect_shadowing() {
        let f = facts_of("fun x : Int -> x + x");
        assert!(f.use_counts.is_empty(), "binder occurrences are not free");
        let f = facts_of("let y = x in x + y");
        // x occurs free twice (def + body); y is bound.
        assert_eq!(f.use_counts.values().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn holes_and_fix_are_collected() {
        let f = facts_of("let f = fix g : (Int -> Int) -> fun n : Int -> g n in ?1");
        assert!(f.has_fix);
        assert_eq!(f.holes.len(), 1);
    }

    #[test]
    fn shared_subterms_hit_the_memo() {
        let e = parse_uexp("(1 + 2) * (1 + 2)").unwrap();
        let mut store = TermStore::new();
        let root = store.intern_uexp_skeleton(&e);
        let memo = FactMemo::new();
        let mut scout = FactScout::new(&store, &memo);
        scout.facts(root);
        // `1 + 2` interned once; its second occurrence is a reuse.
        assert!(scout.tally.reused >= 1, "tally: {:?}", scout.tally);
    }
}
