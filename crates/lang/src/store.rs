//! A hash-consed term store: shared, interned internal expressions.
//!
//! [`IExp`] is a `Box`-based tree, so every substitution deep-clones the
//! subtree it rebuilds — the dominant cost of fill-and-resume and live
//! splice evaluation at scale. [`TermStore`] interns structurally identical
//! subterms to a compact [`TermId`] (a `u32`) at construction time, so:
//!
//! - structural equality is `id == id`,
//! - subterm sharing is free (a substitution rebuilds only the changed
//!   spine — *path copying* — and shares every unchanged subtree),
//! - per-node facts are computed once at intern time and cached by id:
//!   the exact free-variable set (plus a 64-bit bloom mask for fast
//!   disjointness tests) and the value/indeterminate/unfinished
//!   [`Classification`], making `is_final` and `is_closed` O(1),
//! - substitution is memoized on `(term, var, replacement)` ids, which
//!   collapses the repeated identical substitutions produced by fixpoint
//!   unrolling.
//!
//! The store is a strict *accelerator*: results converted back through
//! [`TermStore::to_iexp`] are bit-identical to what tree substitution
//! ([`crate::internal::IExp::subst`], and the tree evaluator the
//! integration tests keep as the spec) produces, including the recorded
//! substitutions σ on hole closures and the exact alpha-renaming scheme
//! (`base%i`). This invariant is gated by
//! the `interned ≡ seed` property suite in the integration tests.
//!
//! # Id layout and invariants
//!
//! - `TermId(u32)` indexes an append-only node table; ids are assigned in
//!   first-intern order and never change or move, so they are stable for
//!   the lifetime of the store and deterministic for a deterministic
//!   construction sequence.
//! - Hash-consing invariant: at all times, two ids are equal iff their
//!   subtrees are structurally equal (floats compare by bit pattern, which
//!   is strictly finer than `f64` equality and therefore sound for
//!   caching).
//! - Children are always interned before parents, so a node's children
//!   have strictly smaller ids and recursion over ids terminates.
//!
//! # Memo eviction policy
//!
//! The substitution memo is keyed on ids only and is sound for the
//! lifetime of the store. To bound memory in long-lived stores (the
//! editor engine, collection environments) it is cleared wholesale when it
//! exceeds [`SUBST_MEMO_CAP`] entries — an epoch eviction that costs at
//! most one lost generation of hits and keeps the common case allocation
//! free.

use std::collections::HashMap;

use crate::final_form::Classification;
use crate::ident::{HoleName, Label, LivelitName, Var};
use crate::internal::{ICaseArm, IExp, Sigma};
use crate::ops::BinOp;
use crate::typ::Typ;
use crate::unexpanded::UExp;

/// A compact handle to an interned term. Equal ids ⇔ structurally equal
/// terms (within one store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

/// A compact handle to an interned variable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// Clear the substitution memo once it holds this many entries.
pub const SUBST_MEMO_CAP: usize = 1 << 20;

/// An interned term node: the [`IExp`] constructors over [`TermId`]
/// children, plus the model-erased [`UExp`] skeleton constructors the
/// editor's incremental engine interns program skeletons with.
///
/// Floats are stored as raw bits so nodes are `Eq + Hash`; the conversion
/// is lossless in both directions. Hole-closure substitutions are stored
/// as slices ordered by variable name, mirroring [`Sigma`]'s `BTreeMap`
/// iteration order so evaluation order is preserved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A variable.
    Var(VarId),
    /// A lambda.
    Lam(VarId, Typ, TermId),
    /// Application.
    Ap(TermId, TermId),
    /// A fixpoint.
    Fix(VarId, Typ, TermId),
    /// An integer literal.
    Int(i64),
    /// A float literal, stored as its IEEE-754 bit pattern.
    Float(u64),
    /// A boolean literal.
    Bool(bool),
    /// A string literal.
    Str(String),
    /// The unit value.
    Unit,
    /// A primitive binary operation.
    Bin(BinOp, TermId, TermId),
    /// A conditional.
    If(TermId, TermId, TermId),
    /// A labeled tuple.
    Tuple(Box<[(Label, TermId)]>),
    /// Tuple projection.
    Proj(TermId, Label),
    /// Sum injection.
    Inj(Typ, Label, TermId),
    /// Sum case analysis: scrutinee and `(label, payload var, body)` arms.
    Case(TermId, Box<[(Label, VarId, TermId)]>),
    /// The empty list.
    Nil(Typ),
    /// List cons.
    Cons(TermId, TermId),
    /// List case analysis: scrutinee, nil body, head/tail vars, cons body.
    ListCase(TermId, TermId, VarId, VarId, TermId),
    /// Recursive-type introduction.
    Roll(Typ, TermId),
    /// Recursive-type elimination.
    Unroll(TermId),
    /// An empty hole closure; entries are ordered by variable name.
    EmptyHole(HoleName, Box<[(VarId, TermId)]>),
    /// A non-empty hole closure around an erroneous subterm.
    NonEmptyHole(HoleName, Box<[(VarId, TermId)]>, TermId),
    /// Skeleton: a `let` binding (unexpanded sort only).
    ULet(VarId, Option<Typ>, TermId, TermId),
    /// Skeleton: a type ascription (unexpanded sort only).
    UAsc(TermId, Typ),
    /// Skeleton: a livelit invocation with its model erased — the
    /// cc-expansion depends only on name, splices, and hole.
    ULivelit(LivelitName, Box<[(TermId, Typ)]>, HoleName),
    /// Skeleton: an empty hole (no closure in the unexpanded sort).
    UEmptyHole(HoleName),
    /// Skeleton: a non-empty hole (no closure in the unexpanded sort).
    UNonEmptyHole(HoleName, TermId),
}

/// Occupancy and hit/miss counters, surfaced through `livelit-trace` and
/// `hazel stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Interner lookups that found an existing node.
    pub interner_hits: u64,
    /// Interner lookups that appended a new node.
    pub interner_misses: u64,
    /// Substitution-memo lookups that found a cached result.
    pub subst_memo_hits: u64,
    /// Substitution-memo lookups that had to compute.
    pub subst_memo_misses: u64,
}

/// An append-only hash-consing interner for internal expressions (and
/// editor skeletons), with cached free-variable sets, cached finality
/// classification, and memoized path-copying substitution.
#[derive(Debug, Clone, Default)]
pub struct TermStore {
    nodes: Vec<Node>,
    index: HashMap<Node, TermId>,
    /// Exact free variables per node, sorted by `VarId`.
    fvs: Vec<Box<[VarId]>>,
    /// 64-bit bloom mask over the free variables (bit `v mod 64`).
    fv_masks: Vec<u64>,
    class: Vec<Classification>,
    vars: Vec<Var>,
    var_index: HashMap<Var, VarId>,
    /// Memo for singleton substitution `[r/x]t`, keyed on ids. Sound
    /// because every singleton substitution in the seed semantics uses
    /// `avoid = fv(r)`, which the key determines.
    subst_memo: HashMap<(TermId, VarId, TermId), TermId>,
    counters: StoreCounters,
    reported: StoreCounters,
}

fn is_final_class(c: Classification) -> bool {
    matches!(c, Classification::Value | Classification::Indet)
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> TermStore {
        TermStore::default()
    }

    /// The number of distinct interned nodes (occupancy).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Counter deltas since the last call, for periodic reporting to the
    /// process tracer (one aggregate report per top-level operation keeps
    /// trace streams small).
    pub fn take_counter_deltas(&mut self) -> StoreCounters {
        let now = self.counters;
        let last = self.reported;
        self.reported = now;
        StoreCounters {
            interner_hits: now.interner_hits - last.interner_hits,
            interner_misses: now.interner_misses - last.interner_misses,
            subst_memo_hits: now.subst_memo_hits - last.subst_memo_hits,
            subst_memo_misses: now.subst_memo_misses - last.subst_memo_misses,
        }
    }

    /// Reports counter deltas since the last report to the process tracer.
    pub fn report_trace_counters(&mut self) {
        use livelit_trace::Counter;
        let d = self.take_counter_deltas();
        for (counter, delta) in [
            (Counter::InternerHits, d.interner_hits),
            (Counter::InternerMisses, d.interner_misses),
            (Counter::SubstMemoHits, d.subst_memo_hits),
            (Counter::SubstMemoMisses, d.subst_memo_misses),
        ] {
            if delta > 0 {
                livelit_trace::count(counter, delta);
            }
        }
    }

    /// The node for `t`.
    pub fn node(&self, t: TermId) -> &Node {
        &self.nodes[t.0 as usize]
    }

    /// The interned variable name for `x`.
    pub fn var(&self, x: VarId) -> &Var {
        &self.vars[x.0 as usize]
    }

    /// Interns a variable name.
    pub fn intern_var(&mut self, x: &Var) -> VarId {
        if let Some(&id) = self.var_index.get(x.as_str()) {
            return id;
        }
        let id = VarId(u32::try_from(self.vars.len()).expect("var table overflow"));
        self.vars.push(x.clone());
        self.var_index.insert(x.clone(), id);
        id
    }

    /// The exact free variables of `t`, sorted by [`VarId`].
    pub fn free_vars(&self, t: TermId) -> &[VarId] {
        &self.fvs[t.0 as usize]
    }

    /// Whether `t` has no free variables. O(1).
    pub fn is_closed(&self, t: TermId) -> bool {
        self.free_vars(t).is_empty()
    }

    /// Whether `x` is free in `t`.
    pub fn fv_contains(&self, t: TermId, x: VarId) -> bool {
        let i = t.0 as usize;
        let mask = 1u64 << (x.0 & 63);
        self.fv_masks[i] & mask != 0 && self.fvs[i].binary_search(&x).is_ok()
    }

    /// The cached finality classification of `t`. O(1).
    pub fn classification(&self, t: TermId) -> Classification {
        self.class[t.0 as usize]
    }

    /// Whether `t` is final (a value or indeterminate). O(1).
    pub fn is_final(&self, t: TermId) -> bool {
        is_final_class(self.classification(t))
    }

    /// Interns a node, returning the existing id when a structurally equal
    /// node is already present.
    pub fn intern(&mut self, node: Node) -> TermId {
        if let Some(&id) = self.index.get(&node) {
            self.counters.interner_hits += 1;
            return id;
        }
        self.counters.interner_misses += 1;
        let (fvs, mask) = self.node_fvs(&node);
        let class = self.classify_node(&node);
        let id = TermId(u32::try_from(self.len()).expect("term table overflow"));
        self.index.insert(node.clone(), id);
        self.nodes.push(node);
        self.fvs.push(fvs);
        self.fv_masks.push(mask);
        self.class.push(class);
        id
    }

    fn node_fvs(&self, node: &Node) -> (Box<[VarId]>, u64) {
        use Node::*;
        let mut out: Vec<VarId> = Vec::new();
        let push_child = |out: &mut Vec<VarId>, t: TermId| {
            out.extend_from_slice(self.free_vars(t));
        };
        let push_minus = |out: &mut Vec<VarId>, fvs: &[VarId], binders: &[VarId]| {
            out.extend(fvs.iter().copied().filter(|v| !binders.contains(v)));
        };
        match node {
            Var(x) => out.push(*x),
            Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | UEmptyHole(_) => {}
            Lam(x, _, b) | Fix(x, _, b) => {
                push_minus(&mut out, self.free_vars(*b), &[*x]);
            }
            Ap(a, b) | Bin(_, a, b) | Cons(a, b) => {
                push_child(&mut out, *a);
                push_child(&mut out, *b);
            }
            If(c, t, e) => {
                push_child(&mut out, *c);
                push_child(&mut out, *t);
                push_child(&mut out, *e);
            }
            Tuple(fields) => {
                for (_, e) in fields {
                    push_child(&mut out, *e);
                }
            }
            Proj(e, _)
            | Inj(_, _, e)
            | Roll(_, e)
            | Unroll(e)
            | UAsc(e, _)
            | UNonEmptyHole(_, e) => {
                push_child(&mut out, *e);
            }
            Case(scrut, arms) => {
                push_child(&mut out, *scrut);
                for (_, v, body) in arms {
                    push_minus(&mut out, self.free_vars(*body), &[*v]);
                }
            }
            ListCase(scrut, nil, h, t, cons) => {
                push_child(&mut out, *scrut);
                push_child(&mut out, *nil);
                push_minus(&mut out, self.free_vars(*cons), &[*h, *t]);
            }
            EmptyHole(_, sigma) => {
                for (_, e) in sigma {
                    push_child(&mut out, *e);
                }
            }
            NonEmptyHole(_, sigma, inner) => {
                for (_, e) in sigma {
                    push_child(&mut out, *e);
                }
                push_child(&mut out, *inner);
            }
            ULet(x, _, a, b) => {
                push_child(&mut out, *a);
                push_minus(&mut out, self.free_vars(*b), &[*x]);
            }
            ULivelit(_, splices, _) => {
                for (e, _) in splices {
                    push_child(&mut out, *e);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        let mut mask = 0u64;
        for v in &out {
            mask |= 1u64 << (v.0 & 63);
        }
        (out.into_boxed_slice(), mask)
    }

    /// Mirrors [`crate::final_form::classify`] compositionally: the
    /// classification of a node depends only on its head and its
    /// children's cached classifications and head forms.
    fn classify_node(&self, node: &Node) -> Classification {
        use Classification::{Indet, Unfinished, Value};
        use Node::*;
        let class = |t: &TermId| self.classification(*t);
        match node {
            Lam(..) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) => Value,
            EmptyHole(..) => Indet,
            NonEmptyHole(_, _, inner) => {
                if is_final_class(class(inner)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Ap(f, a) => {
                if class(f) == Indet
                    && !matches!(self.node(*f), Lam(..))
                    && is_final_class(class(a))
                {
                    Indet
                } else {
                    Unfinished
                }
            }
            Bin(_, a, b) => {
                let (ca, cb) = (class(a), class(b));
                if is_final_class(ca) && is_final_class(cb) && (ca == Indet || cb == Indet) {
                    Indet
                } else {
                    Unfinished
                }
            }
            If(c, _, _) => {
                if class(c) == Indet && !matches!(self.node(*c), Bool(_)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Tuple(fields) => {
                let mut out = Value;
                for (_, e) in fields {
                    match class(e) {
                        Value => {}
                        Indet => out = Indet,
                        Unfinished => return Unfinished,
                    }
                }
                out
            }
            Proj(scrut, _) => {
                if class(scrut) == Indet && !matches!(self.node(*scrut), Tuple(_)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Inj(_, _, e) | Roll(_, e) => class(e),
            Case(scrut, _) => {
                if class(scrut) == Indet && !matches!(self.node(*scrut), Inj(..)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Cons(h, t) => {
                let (ch, ct) = (class(h), class(t));
                if ch == Value && ct == Value {
                    Value
                } else if is_final_class(ch) && is_final_class(ct) {
                    Indet
                } else {
                    Unfinished
                }
            }
            ListCase(scrut, ..) => {
                if class(scrut) == Indet && !matches!(self.node(*scrut), Nil(_) | Cons(..)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Unroll(e) => {
                if class(e) == Indet && !matches!(self.node(*e), Roll(..)) {
                    Indet
                } else {
                    Unfinished
                }
            }
            Var(_) | Fix(..) => Unfinished,
            ULet(..) | UAsc(..) | ULivelit(..) | UEmptyHole(_) | UNonEmptyHole(..) => Unfinished,
        }
    }

    /// Interns an internal expression tree.
    pub fn intern_iexp(&mut self, e: &IExp) -> TermId {
        let node = match e {
            IExp::Var(x) => Node::Var(self.intern_var(x)),
            IExp::Lam(x, t, b) => {
                let b = self.intern_iexp(b);
                Node::Lam(self.intern_var(x), t.clone(), b)
            }
            IExp::Ap(a, b) => Node::Ap(self.intern_iexp(a), self.intern_iexp(b)),
            IExp::Fix(x, t, b) => {
                let b = self.intern_iexp(b);
                Node::Fix(self.intern_var(x), t.clone(), b)
            }
            IExp::Int(n) => Node::Int(*n),
            IExp::Float(x) => Node::Float(x.to_bits()),
            IExp::Bool(b) => Node::Bool(*b),
            IExp::Str(s) => Node::Str(s.clone()),
            IExp::Unit => Node::Unit,
            IExp::Bin(op, a, b) => Node::Bin(*op, self.intern_iexp(a), self.intern_iexp(b)),
            IExp::If(c, t, e) => Node::If(
                self.intern_iexp(c),
                self.intern_iexp(t),
                self.intern_iexp(e),
            ),
            IExp::Tuple(fields) => Node::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), self.intern_iexp(e)))
                    .collect(),
            ),
            IExp::Proj(e, l) => Node::Proj(self.intern_iexp(e), l.clone()),
            IExp::Inj(t, l, e) => Node::Inj(t.clone(), l.clone(), self.intern_iexp(e)),
            IExp::Case(scrut, arms) => Node::Case(
                self.intern_iexp(scrut),
                arms.iter()
                    .map(|arm| {
                        let body = self.intern_iexp(&arm.body);
                        (arm.label.clone(), self.intern_var(&arm.var), body)
                    })
                    .collect(),
            ),
            IExp::Nil(t) => Node::Nil(t.clone()),
            IExp::Cons(a, b) => Node::Cons(self.intern_iexp(a), self.intern_iexp(b)),
            IExp::ListCase(scrut, nil, h, t, cons) => {
                let scrut = self.intern_iexp(scrut);
                let nil = self.intern_iexp(nil);
                let cons = self.intern_iexp(cons);
                Node::ListCase(scrut, nil, self.intern_var(h), self.intern_var(t), cons)
            }
            IExp::Roll(t, e) => Node::Roll(t.clone(), self.intern_iexp(e)),
            IExp::Unroll(e) => Node::Unroll(self.intern_iexp(e)),
            IExp::EmptyHole(u, sigma) => Node::EmptyHole(*u, self.intern_sigma(sigma)),
            IExp::NonEmptyHole(u, sigma, inner) => {
                let sigma = self.intern_sigma(sigma);
                Node::NonEmptyHole(*u, sigma, self.intern_iexp(inner))
            }
        };
        self.intern(node)
    }

    /// Interns a hole-closure substitution, preserving its variable-name
    /// ordering.
    pub fn intern_sigma(&mut self, sigma: &Sigma) -> Box<[(VarId, TermId)]> {
        sigma
            .iter()
            .map(|(x, e)| {
                let e = self.intern_iexp(e);
                (self.intern_var(x), e)
            })
            .collect()
    }

    /// Reconstructs the expression tree for `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is an editor-skeleton node, which has no internal
    /// expression form.
    pub fn to_iexp(&self, t: TermId) -> IExp {
        match self.node(t) {
            Node::Var(x) => IExp::Var(self.var(*x).clone()),
            Node::Lam(x, ty, b) => {
                IExp::Lam(self.var(*x).clone(), ty.clone(), Box::new(self.to_iexp(*b)))
            }
            Node::Ap(a, b) => IExp::Ap(Box::new(self.to_iexp(*a)), Box::new(self.to_iexp(*b))),
            Node::Fix(x, ty, b) => {
                IExp::Fix(self.var(*x).clone(), ty.clone(), Box::new(self.to_iexp(*b)))
            }
            Node::Int(n) => IExp::Int(*n),
            Node::Float(bits) => IExp::Float(f64::from_bits(*bits)),
            Node::Bool(b) => IExp::Bool(*b),
            Node::Str(s) => IExp::Str(s.clone()),
            Node::Unit => IExp::Unit,
            Node::Bin(op, a, b) => {
                IExp::Bin(*op, Box::new(self.to_iexp(*a)), Box::new(self.to_iexp(*b)))
            }
            Node::If(c, t, e) => IExp::If(
                Box::new(self.to_iexp(*c)),
                Box::new(self.to_iexp(*t)),
                Box::new(self.to_iexp(*e)),
            ),
            Node::Tuple(fields) => IExp::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), self.to_iexp(*e)))
                    .collect(),
            ),
            Node::Proj(e, l) => IExp::Proj(Box::new(self.to_iexp(*e)), l.clone()),
            Node::Inj(ty, l, e) => IExp::Inj(ty.clone(), l.clone(), Box::new(self.to_iexp(*e))),
            Node::Case(scrut, arms) => IExp::Case(
                Box::new(self.to_iexp(*scrut)),
                arms.iter()
                    .map(|(l, v, body)| ICaseArm {
                        label: l.clone(),
                        var: self.var(*v).clone(),
                        body: self.to_iexp(*body),
                    })
                    .collect(),
            ),
            Node::Nil(ty) => IExp::Nil(ty.clone()),
            Node::Cons(a, b) => IExp::Cons(Box::new(self.to_iexp(*a)), Box::new(self.to_iexp(*b))),
            Node::ListCase(scrut, nil, h, t, cons) => IExp::ListCase(
                Box::new(self.to_iexp(*scrut)),
                Box::new(self.to_iexp(*nil)),
                self.var(*h).clone(),
                self.var(*t).clone(),
                Box::new(self.to_iexp(*cons)),
            ),
            Node::Roll(ty, e) => IExp::Roll(ty.clone(), Box::new(self.to_iexp(*e))),
            Node::Unroll(e) => IExp::Unroll(Box::new(self.to_iexp(*e))),
            Node::EmptyHole(u, sigma) => IExp::EmptyHole(*u, self.sigma_to_tree(sigma)),
            Node::NonEmptyHole(u, sigma, inner) => IExp::NonEmptyHole(
                *u,
                self.sigma_to_tree(sigma),
                Box::new(self.to_iexp(*inner)),
            ),
            Node::ULet(..)
            | Node::UAsc(..)
            | Node::ULivelit(..)
            | Node::UEmptyHole(_)
            | Node::UNonEmptyHole(..) => {
                panic!("editor-skeleton node has no internal expression form")
            }
        }
    }

    /// Reconstructs a [`Sigma`] from interned closure entries.
    pub fn sigma_to_tree(&self, sigma: &[(VarId, TermId)]) -> Sigma {
        sigma
            .iter()
            .map(|(x, e)| (self.var(*x).clone(), self.to_iexp(*e)))
            .collect()
    }

    /// Interns the model-erased skeleton of an unexpanded expression: the
    /// part of the program the cc-expansion depends on. Two programs get
    /// the same id here iff they differ at most in livelit models.
    pub fn intern_uexp_skeleton(&mut self, e: &UExp) -> TermId {
        let node = match e {
            UExp::Var(x) => Node::Var(self.intern_var(x)),
            UExp::Lam(x, t, b) => {
                let b = self.intern_uexp_skeleton(b);
                Node::Lam(self.intern_var(x), t.clone(), b)
            }
            UExp::Ap(a, b) => Node::Ap(self.intern_uexp_skeleton(a), self.intern_uexp_skeleton(b)),
            UExp::Let(x, t, a, b) => {
                let a = self.intern_uexp_skeleton(a);
                let b = self.intern_uexp_skeleton(b);
                Node::ULet(self.intern_var(x), t.clone(), a, b)
            }
            UExp::Fix(x, t, b) => {
                let b = self.intern_uexp_skeleton(b);
                Node::Fix(self.intern_var(x), t.clone(), b)
            }
            UExp::Int(n) => Node::Int(*n),
            UExp::Float(x) => Node::Float(x.to_bits()),
            UExp::Bool(b) => Node::Bool(*b),
            UExp::Str(s) => Node::Str(s.clone()),
            UExp::Unit => Node::Unit,
            UExp::Bin(op, a, b) => Node::Bin(
                *op,
                self.intern_uexp_skeleton(a),
                self.intern_uexp_skeleton(b),
            ),
            UExp::If(c, t, e) => Node::If(
                self.intern_uexp_skeleton(c),
                self.intern_uexp_skeleton(t),
                self.intern_uexp_skeleton(e),
            ),
            UExp::Tuple(fields) => Node::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), self.intern_uexp_skeleton(e)))
                    .collect(),
            ),
            UExp::Proj(e, l) => Node::Proj(self.intern_uexp_skeleton(e), l.clone()),
            UExp::Inj(t, l, e) => Node::Inj(t.clone(), l.clone(), self.intern_uexp_skeleton(e)),
            UExp::Case(scrut, arms) => Node::Case(
                self.intern_uexp_skeleton(scrut),
                arms.iter()
                    .map(|arm| {
                        let body = self.intern_uexp_skeleton(&arm.body);
                        (arm.label.clone(), self.intern_var(&arm.var), body)
                    })
                    .collect(),
            ),
            UExp::Nil(t) => Node::Nil(t.clone()),
            UExp::Cons(a, b) => {
                Node::Cons(self.intern_uexp_skeleton(a), self.intern_uexp_skeleton(b))
            }
            UExp::ListCase(scrut, nil, h, t, cons) => {
                let scrut = self.intern_uexp_skeleton(scrut);
                let nil = self.intern_uexp_skeleton(nil);
                let cons = self.intern_uexp_skeleton(cons);
                Node::ListCase(scrut, nil, self.intern_var(h), self.intern_var(t), cons)
            }
            UExp::Roll(t, e) => Node::Roll(t.clone(), self.intern_uexp_skeleton(e)),
            UExp::Unroll(e) => Node::Unroll(self.intern_uexp_skeleton(e)),
            UExp::Asc(e, t) => Node::UAsc(self.intern_uexp_skeleton(e), t.clone()),
            UExp::EmptyHole(u) => Node::UEmptyHole(*u),
            UExp::NonEmptyHole(u, e) => Node::UNonEmptyHole(*u, self.intern_uexp_skeleton(e)),
            UExp::Livelit(ap) => Node::ULivelit(
                ap.name.clone(),
                ap.splices
                    .iter()
                    .map(|s| (self.intern_uexp_skeleton(&s.exp), s.ty.clone()))
                    .collect(),
                ap.hole,
            ),
        };
        self.intern(node)
    }

    /// Single capture-avoiding substitution `[r/x]t`, path-copying and
    /// memoized. The result id denotes exactly the tree
    /// `to_iexp(t).subst(var(x), to_iexp(r))` would produce.
    pub fn subst_one(&mut self, t: TermId, x: VarId, r: TermId) -> TermId {
        self.subst_one_rec(t, x, r)
    }

    fn memo_insert(&mut self, key: (TermId, VarId, TermId), value: TermId) {
        if self.subst_memo.len() >= SUBST_MEMO_CAP {
            self.subst_memo.clear();
        }
        self.subst_memo.insert(key, value);
    }

    fn subst_one_rec(&mut self, t: TermId, x: VarId, r: TermId) -> TermId {
        // The seed substitution rebuilds a structurally identical tree when
        // the variable is not free (its `applies` check suppresses
        // renaming in that case), so sharing the subtree is bit-exact.
        if !self.fv_contains(t, x) {
            return t;
        }
        if let Some(&cached) = self.subst_memo.get(&(t, x, r)) {
            self.counters.subst_memo_hits += 1;
            return cached;
        }
        self.counters.subst_memo_misses += 1;
        let node = self.node(t).clone();
        let out_node = match node {
            Node::Var(_) => {
                // `x` is free in a variable node ⇒ the node *is* `x`.
                self.memo_insert((t, x, r), r);
                return r;
            }
            Node::Lam(y, ty, body) => {
                // `x` free in the lambda ⇒ `y != x`.
                let (binders, body) = self.subst_one_under(&[y], body, x, r);
                Node::Lam(binders[0], ty, body)
            }
            Node::Fix(y, ty, body) => {
                let (binders, body) = self.subst_one_under(&[y], body, x, r);
                Node::Fix(binders[0], ty, body)
            }
            Node::Ap(a, b) => Node::Ap(self.subst_one_rec(a, x, r), self.subst_one_rec(b, x, r)),
            Node::Bin(op, a, b) => {
                Node::Bin(op, self.subst_one_rec(a, x, r), self.subst_one_rec(b, x, r))
            }
            Node::Cons(a, b) => {
                Node::Cons(self.subst_one_rec(a, x, r), self.subst_one_rec(b, x, r))
            }
            Node::If(c, th, el) => Node::If(
                self.subst_one_rec(c, x, r),
                self.subst_one_rec(th, x, r),
                self.subst_one_rec(el, x, r),
            ),
            Node::Tuple(fields) => Node::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), self.subst_one_rec(*e, x, r)))
                    .collect(),
            ),
            Node::Proj(e, l) => Node::Proj(self.subst_one_rec(e, x, r), l),
            Node::Inj(ty, l, e) => Node::Inj(ty, l, self.subst_one_rec(e, x, r)),
            Node::Case(scrut, arms) => Node::Case(
                self.subst_one_rec(scrut, x, r),
                arms.iter()
                    .map(|(l, v, body)| {
                        let (binders, body) = self.subst_one_under(&[*v], *body, x, r);
                        (l.clone(), binders[0], body)
                    })
                    .collect(),
            ),
            Node::ListCase(scrut, nil, h, tl, cons) => {
                let scrut = self.subst_one_rec(scrut, x, r);
                let nil = self.subst_one_rec(nil, x, r);
                let (binders, cons) = self.subst_one_under(&[h, tl], cons, x, r);
                Node::ListCase(scrut, nil, binders[0], binders[1], cons)
            }
            Node::Roll(ty, e) => Node::Roll(ty, self.subst_one_rec(e, x, r)),
            Node::Unroll(e) => Node::Unroll(self.subst_one_rec(e, x, r)),
            Node::EmptyHole(u, sigma) => Node::EmptyHole(
                u,
                sigma
                    .iter()
                    .map(|(v, e)| (*v, self.subst_one_rec(*e, x, r)))
                    .collect(),
            ),
            Node::NonEmptyHole(u, sigma, inner) => {
                let sigma = sigma
                    .iter()
                    .map(|(v, e)| (*v, self.subst_one_rec(*e, x, r)))
                    .collect();
                Node::NonEmptyHole(u, sigma, self.subst_one_rec(inner, x, r))
            }
            Node::Int(_)
            | Node::Float(_)
            | Node::Bool(_)
            | Node::Str(_)
            | Node::Unit
            | Node::Nil(_) => unreachable!("literals have no free variables"),
            Node::ULet(..)
            | Node::UAsc(..)
            | Node::ULivelit(..)
            | Node::UEmptyHole(_)
            | Node::UNonEmptyHole(..) => {
                panic!("substitution into editor-skeleton node")
            }
        };
        let out = self.intern(out_node);
        self.memo_insert((t, x, r), out);
        out
    }

    /// Binder handling for singleton substitution, mirroring the seed's
    /// `subst_under_binders`: the caller guarantees `x` is free in the
    /// enclosing node, but `x` may be shadowed by (or absent under) these
    /// particular binders.
    fn subst_one_under(
        &mut self,
        binders: &[VarId],
        body: TermId,
        x: VarId,
        r: TermId,
    ) -> (Vec<VarId>, TermId) {
        if binders.contains(&x) {
            // The binder shadows the substitution: `map2` is empty.
            return (binders.to_vec(), body);
        }
        if binders.iter().any(|b| self.fv_contains(r, *b)) {
            // Some binder clashes with a free variable of the replacement.
            // Rename only if the substitution actually applies in the body.
            if self.fv_contains(body, x) {
                let mut out_binders = Vec::with_capacity(binders.len());
                let mut renamed = body;
                for &b in binders {
                    if self.fv_contains(r, b) {
                        let fresh = self.fresh_var(b, r, renamed);
                        let fresh_term = self.intern(Node::Var(fresh));
                        renamed = self.subst_one_rec(renamed, b, fresh_term);
                        out_binders.push(fresh);
                    } else {
                        out_binders.push(b);
                    }
                }
                let substituted = self.subst_one_rec(renamed, x, r);
                return (out_binders, substituted);
            }
            return (binders.to_vec(), body);
        }
        (binders.to_vec(), self.subst_one_rec(body, x, r))
    }

    /// Picks `base%i` (smallest `i ≥ 1`) not free in the replacement or
    /// the body — the seed's `fresh_var`, with `avoid = fv(r)`.
    fn fresh_var(&mut self, base: VarId, r: TermId, body: TermId) -> VarId {
        let base_str = self.var(base).as_str().to_owned();
        let mut i = 1u32;
        loop {
            let candidate = format!("{base_str}%{i}");
            match self.var_index.get(candidate.as_str()).copied() {
                Some(vid) => {
                    if !self.fv_contains(r, vid) && !self.fv_contains(body, vid) {
                        return vid;
                    }
                }
                None => return self.intern_var(&Var::new(candidate)),
            }
            i += 1;
        }
    }

    /// Simultaneous capture-avoiding substitution over interned terms —
    /// [`Sigma::apply`] / [`IExp::subst_all`] on ids. Path-copying (no
    /// per-pair memo; the free-variable skip already prunes untouched
    /// subtrees).
    pub fn subst_many(&mut self, t: TermId, pairs: &[(VarId, TermId)]) -> TermId {
        if pairs.is_empty() {
            return t;
        }
        // avoid = union of the free variables of *all* replacements, as in
        // the seed's `subst_all`.
        let mut avoid: Vec<VarId> = Vec::new();
        for (_, r) in pairs {
            avoid.extend_from_slice(self.free_vars(*r));
        }
        avoid.sort_unstable();
        avoid.dedup();
        let mut avoid_mask = 0u64;
        for v in &avoid {
            avoid_mask |= 1u64 << (v.0 & 63);
        }
        let mut sorted: Vec<(VarId, TermId)> = pairs.to_vec();
        sorted.sort_unstable_by_key(|(v, _)| *v);
        sorted.dedup_by_key(|(v, _)| *v);
        self.subst_many_rec(t, &sorted, &avoid, avoid_mask)
    }

    fn dom_applies(&self, t: TermId, pairs: &[(VarId, TermId)]) -> bool {
        // Whether any key of `pairs` is free in `t`.
        pairs.iter().any(|(v, _)| self.fv_contains(t, *v))
    }

    fn subst_many_rec(
        &mut self,
        t: TermId,
        pairs: &[(VarId, TermId)],
        avoid: &[VarId],
        avoid_mask: u64,
    ) -> TermId {
        if !self.dom_applies(t, pairs) {
            return t;
        }
        let node = self.node(t).clone();
        let out_node = match node {
            Node::Var(y) => match pairs.binary_search_by_key(&y, |(v, _)| *v) {
                Ok(i) => return pairs[i].1,
                Err(_) => unreachable!("dom_applies held for a variable node"),
            },
            Node::Lam(y, ty, body) => {
                let (binders, body) = self.subst_many_under(&[y], body, pairs, avoid, avoid_mask);
                Node::Lam(binders[0], ty, body)
            }
            Node::Fix(y, ty, body) => {
                let (binders, body) = self.subst_many_under(&[y], body, pairs, avoid, avoid_mask);
                Node::Fix(binders[0], ty, body)
            }
            Node::Ap(a, b) => Node::Ap(
                self.subst_many_rec(a, pairs, avoid, avoid_mask),
                self.subst_many_rec(b, pairs, avoid, avoid_mask),
            ),
            Node::Bin(op, a, b) => Node::Bin(
                op,
                self.subst_many_rec(a, pairs, avoid, avoid_mask),
                self.subst_many_rec(b, pairs, avoid, avoid_mask),
            ),
            Node::Cons(a, b) => Node::Cons(
                self.subst_many_rec(a, pairs, avoid, avoid_mask),
                self.subst_many_rec(b, pairs, avoid, avoid_mask),
            ),
            Node::If(c, th, el) => Node::If(
                self.subst_many_rec(c, pairs, avoid, avoid_mask),
                self.subst_many_rec(th, pairs, avoid, avoid_mask),
                self.subst_many_rec(el, pairs, avoid, avoid_mask),
            ),
            Node::Tuple(fields) => Node::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), self.subst_many_rec(*e, pairs, avoid, avoid_mask)))
                    .collect(),
            ),
            Node::Proj(e, l) => Node::Proj(self.subst_many_rec(e, pairs, avoid, avoid_mask), l),
            Node::Inj(ty, l, e) => {
                Node::Inj(ty, l, self.subst_many_rec(e, pairs, avoid, avoid_mask))
            }
            Node::Case(scrut, arms) => Node::Case(
                self.subst_many_rec(scrut, pairs, avoid, avoid_mask),
                arms.iter()
                    .map(|(l, v, body)| {
                        let (binders, body) =
                            self.subst_many_under(&[*v], *body, pairs, avoid, avoid_mask);
                        (l.clone(), binders[0], body)
                    })
                    .collect(),
            ),
            Node::ListCase(scrut, nil, h, tl, cons) => {
                let scrut = self.subst_many_rec(scrut, pairs, avoid, avoid_mask);
                let nil = self.subst_many_rec(nil, pairs, avoid, avoid_mask);
                let (binders, cons) =
                    self.subst_many_under(&[h, tl], cons, pairs, avoid, avoid_mask);
                Node::ListCase(scrut, nil, binders[0], binders[1], cons)
            }
            Node::Roll(ty, e) => Node::Roll(ty, self.subst_many_rec(e, pairs, avoid, avoid_mask)),
            Node::Unroll(e) => Node::Unroll(self.subst_many_rec(e, pairs, avoid, avoid_mask)),
            Node::EmptyHole(u, sigma) => Node::EmptyHole(
                u,
                sigma
                    .iter()
                    .map(|(v, e)| (*v, self.subst_many_rec(*e, pairs, avoid, avoid_mask)))
                    .collect(),
            ),
            Node::NonEmptyHole(u, sigma, inner) => {
                let sigma = sigma
                    .iter()
                    .map(|(v, e)| (*v, self.subst_many_rec(*e, pairs, avoid, avoid_mask)))
                    .collect();
                Node::NonEmptyHole(
                    u,
                    sigma,
                    self.subst_many_rec(inner, pairs, avoid, avoid_mask),
                )
            }
            Node::Int(_)
            | Node::Float(_)
            | Node::Bool(_)
            | Node::Str(_)
            | Node::Unit
            | Node::Nil(_) => unreachable!("literals have no free variables"),
            Node::ULet(..)
            | Node::UAsc(..)
            | Node::ULivelit(..)
            | Node::UEmptyHole(_)
            | Node::UNonEmptyHole(..) => {
                panic!("substitution into editor-skeleton node")
            }
        };
        self.intern(out_node)
    }

    fn subst_many_under(
        &mut self,
        binders: &[VarId],
        body: TermId,
        pairs: &[(VarId, TermId)],
        avoid: &[VarId],
        avoid_mask: u64,
    ) -> (Vec<VarId>, TermId) {
        let shadowed = pairs.iter().any(|(v, _)| binders.contains(v));
        let reduced: Vec<(VarId, TermId)>;
        let pairs2: &[(VarId, TermId)] = if shadowed {
            reduced = pairs
                .iter()
                .filter(|(v, _)| !binders.contains(v))
                .copied()
                .collect();
            &reduced
        } else {
            pairs
        };
        if pairs2.is_empty() {
            return (binders.to_vec(), body);
        }
        let in_avoid =
            |b: VarId| avoid_mask & (1u64 << (b.0 & 63)) != 0 && avoid.binary_search(&b).is_ok();
        if binders.iter().any(|&b| in_avoid(b)) {
            if self.dom_applies(body, pairs2) {
                let mut out_binders = Vec::with_capacity(binders.len());
                let mut renamed = body;
                for &b in binders {
                    if in_avoid(b) {
                        let fresh = self.fresh_var_many(b, avoid, avoid_mask, renamed);
                        let fresh_term = self.intern(Node::Var(fresh));
                        renamed = self.subst_one_rec(renamed, b, fresh_term);
                        out_binders.push(fresh);
                    } else {
                        out_binders.push(b);
                    }
                }
                let substituted = self.subst_many_rec(renamed, pairs2, avoid, avoid_mask);
                return (out_binders, substituted);
            }
            return (binders.to_vec(), body);
        }
        (
            binders.to_vec(),
            self.subst_many_rec(body, pairs2, avoid, avoid_mask),
        )
    }

    fn fresh_var_many(
        &mut self,
        base: VarId,
        avoid: &[VarId],
        avoid_mask: u64,
        body: TermId,
    ) -> VarId {
        let base_str = self.var(base).as_str().to_owned();
        let mut i = 1u32;
        loop {
            let candidate = format!("{base_str}%{i}");
            match self.var_index.get(candidate.as_str()).copied() {
                Some(vid) => {
                    let avoided = avoid_mask & (1u64 << (vid.0 & 63)) != 0
                        && avoid.binary_search(&vid).is_ok();
                    if !avoided && !self.fv_contains(body, vid) {
                        return vid;
                    }
                }
                None => return self.intern_var(&Var::new(candidate)),
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn v(x: &str) -> IExp {
        IExp::Var(Var::new(x))
    }

    fn lam(x: &str, body: IExp) -> IExp {
        IExp::Lam(Var::new(x), Typ::Int, Box::new(body))
    }

    fn roundtrip(e: &IExp) -> IExp {
        let mut store = TermStore::new();
        let t = store.intern_iexp(e);
        store.to_iexp(t)
    }

    #[test]
    fn intern_roundtrips_all_forms() {
        let samples = vec![
            IExp::Int(42),
            IExp::Float(1.5),
            IExp::Float(f64::NAN),
            IExp::Str("hi".into()),
            IExp::Unit,
            lam(
                "x",
                IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("y"))),
            ),
            IExp::EmptyHole(
                HoleName(3),
                Sigma::from_iter([(Var::new("a"), IExp::Int(1)), (Var::new("b"), v("c"))]),
            ),
            IExp::Case(
                Box::new(v("s")),
                vec![ICaseArm {
                    label: Label::new("Some"),
                    var: Var::new("n"),
                    body: v("n"),
                }],
            ),
            IExp::ListCase(
                Box::new(v("xs")),
                Box::new(IExp::Int(0)),
                Var::new("h"),
                Var::new("t"),
                Box::new(v("h")),
            ),
        ];
        for e in &samples {
            let back = roundtrip(e);
            // NaN-safe comparison via debug formatting.
            assert_eq!(format!("{back:?}"), format!("{e:?}"));
        }
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let mut store = TermStore::new();
        let a = store.intern_iexp(&lam("x", v("x")));
        let b = store.intern_iexp(&lam("x", v("x")));
        let c = store.intern_iexp(&lam("y", v("y")));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(store.counters().interner_hits > 0);
    }

    #[test]
    fn interning_is_deterministic_across_stores() {
        let program = IExp::Ap(
            Box::new(lam(
                "x",
                IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(IExp::Int(1))),
            )),
            Box::new(IExp::Int(2)),
        );
        let mut s1 = TermStore::new();
        let mut s2 = TermStore::new();
        let t1 = s1.intern_iexp(&program);
        let t2 = s2.intern_iexp(&program);
        assert_eq!(t1, t2, "same construction sequence must assign same ids");
        assert_eq!(s1.len(), s2.len());
        // And re-interning in the same store is a pure hit.
        let misses_before = s1.counters().interner_misses;
        let t1b = s1.intern_iexp(&program);
        assert_eq!(t1, t1b);
        assert_eq!(s1.counters().interner_misses, misses_before);
    }

    #[test]
    fn free_vars_and_closedness_match_tree() {
        let cases = vec![
            lam(
                "x",
                IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("y"))),
            ),
            IExp::EmptyHole(HoleName(0), Sigma::identity([&Var::new("q")])),
            IExp::EmptyHole(
                HoleName(0),
                Sigma::from_iter([(Var::new("q"), IExp::Int(3))]),
            ),
            IExp::ListCase(
                Box::new(v("xs")),
                Box::new(v("z")),
                Var::new("h"),
                Var::new("t"),
                Box::new(IExp::Bin(BinOp::Add, Box::new(v("h")), Box::new(v("w")))),
            ),
        ];
        for e in &cases {
            let mut store = TermStore::new();
            let t = store.intern_iexp(e);
            let tree_fvs = e.free_vars();
            let store_fvs: std::collections::BTreeSet<Var> = store
                .free_vars(t)
                .iter()
                .map(|x| store.var(*x).clone())
                .collect();
            assert_eq!(store_fvs, tree_fvs, "fvs mismatch for {e:?}");
            assert_eq!(store.is_closed(t), e.is_closed());
        }
    }

    #[test]
    fn classification_matches_tree() {
        use crate::final_form::classify;
        let hole = IExp::EmptyHole(HoleName(0), Sigma::empty());
        let cases = vec![
            IExp::Int(1),
            hole.clone(),
            IExp::Bin(BinOp::Add, Box::new(IExp::Int(1)), Box::new(hole.clone())),
            IExp::Ap(Box::new(hole.clone()), Box::new(IExp::Int(1))),
            IExp::Ap(Box::new(lam("x", v("x"))), Box::new(IExp::Int(1))),
            IExp::If(
                Box::new(hole.clone()),
                Box::new(IExp::Int(1)),
                Box::new(IExp::Int(2)),
            ),
            IExp::Cons(Box::new(IExp::Int(1)), Box::new(hole.clone())),
            IExp::Tuple(vec![
                (Label::positional(0), IExp::Int(1)),
                (Label::positional(1), hole.clone()),
            ]),
            IExp::NonEmptyHole(HoleName(1), Sigma::empty(), Box::new(IExp::Bool(true))),
            IExp::Unroll(Box::new(hole)),
        ];
        for e in &cases {
            let mut store = TermStore::new();
            let t = store.intern_iexp(e);
            assert_eq!(
                store.classification(t),
                classify(e),
                "class mismatch for {e:?}"
            );
        }
    }

    #[test]
    fn subst_one_matches_tree_subst() {
        let x = Var::new("x");
        let cases = vec![
            // Simple replacement.
            (v("x"), x.clone(), IExp::Int(1)),
            // Shadowed binder: no-op.
            (lam("x", v("x")), x.clone(), IExp::Int(1)),
            // Capture avoidance: [y/x](fun y -> x) renames y.
            (lam("y", v("x")), x.clone(), v("y")),
            // Closure recording.
            (
                IExp::EmptyHole(HoleName(0), Sigma::identity([&x])),
                x.clone(),
                IExp::Int(5),
            ),
            // Nested binders with partial shadowing.
            (
                lam(
                    "y",
                    lam(
                        "x",
                        IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("y"))),
                    ),
                ),
                x.clone(),
                IExp::Int(7),
            ),
            // Renaming must cascade: [y/x](fun y -> fun y%1 -> x + y).
            (
                lam(
                    "y",
                    lam(
                        "y%1",
                        IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("y"))),
                    ),
                ),
                x.clone(),
                v("y"),
            ),
        ];
        for (e, var, r) in &cases {
            let expected = e.subst(var, r);
            let mut store = TermStore::new();
            let te = store.intern_iexp(e);
            let tr = store.intern_iexp(r);
            let vx = store.intern_var(var);
            let out = store.subst_one(te, vx, tr);
            assert_eq!(
                store.to_iexp(out),
                expected,
                "subst mismatch for [{r:?}/{var:?}]{e:?}"
            );
        }
    }

    #[test]
    fn subst_memo_hits_on_repeated_substitution() {
        let mut store = TermStore::new();
        let body = IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("x")));
        let t = store.intern_iexp(&body);
        let x = store.intern_var(&Var::new("x"));
        let r = store.intern_iexp(&IExp::Int(9));
        let first = store.subst_one(t, x, r);
        let misses = store.counters().subst_memo_misses;
        let second = store.subst_one(t, x, r);
        assert_eq!(first, second);
        assert_eq!(
            store.counters().subst_memo_misses,
            misses,
            "second identical substitution must be a pure memo hit"
        );
        assert!(store.counters().subst_memo_hits > 0);
    }

    #[test]
    fn subst_memo_is_keyed_on_replacement_and_var() {
        // Under shadowing/capture the same body id is substituted with
        // different (var, replacement) keys; results must not bleed.
        let mut store = TermStore::new();
        let body = store.intern_iexp(&v("x"));
        let x = store.intern_var(&Var::new("x"));
        let y = store.intern_var(&Var::new("y"));
        let one = store.intern_iexp(&IExp::Int(1));
        let two = store.intern_iexp(&IExp::Int(2));
        assert_eq!(store.subst_one(body, x, one), one);
        assert_eq!(store.subst_one(body, x, two), two);
        assert_eq!(store.subst_one(body, y, one), body);
    }

    #[test]
    fn subst_many_matches_tree_subst_all() {
        // Simultaneous, not sequential: [y/x, 1/y](x, y) = (y, 1).
        let e = IExp::Tuple(vec![
            (Label::positional(0), v("x")),
            (Label::positional(1), v("y")),
        ]);
        let map = BTreeMap::from([(Var::new("x"), v("y")), (Var::new("y"), IExp::Int(1))]);
        let expected = e.subst_all(&map);
        let mut store = TermStore::new();
        let t = store.intern_iexp(&e);
        let pairs: Vec<(VarId, TermId)> = map
            .iter()
            .map(|(k, r)| {
                let r = store.intern_iexp(r);
                (store.intern_var(k), r)
            })
            .collect();
        let out = store.subst_many(t, &pairs);
        assert_eq!(store.to_iexp(out), expected);
    }

    #[test]
    fn subst_many_capture_avoidance_matches_tree() {
        // [y/x](fun y -> x + z) through the simultaneous path.
        let e = lam(
            "y",
            IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("z"))),
        );
        let map = BTreeMap::from([(Var::new("x"), v("y")), (Var::new("z"), IExp::Int(3))]);
        let expected = e.subst_all(&map);
        let mut store = TermStore::new();
        let t = store.intern_iexp(&e);
        let pairs: Vec<(VarId, TermId)> = map
            .iter()
            .map(|(k, r)| {
                let r = store.intern_iexp(r);
                (store.intern_var(k), r)
            })
            .collect();
        let out = store.subst_many(t, &pairs);
        assert_eq!(store.to_iexp(out), expected);
    }

    #[test]
    fn skeleton_interning_distinguishes_structure_not_models() {
        use crate::unexpanded::{LivelitAp, Splice};
        let inv = |model: IExp, splice: i64| {
            UExp::Livelit(Box::new(LivelitAp {
                name: LivelitName::new("$slider"),
                model,
                splices: vec![Splice::new(UExp::Int(splice), Typ::Int)],
                hole: HoleName(0),
            }))
        };
        let mut store = TermStore::new();
        let a = store.intern_uexp_skeleton(&inv(IExp::Int(10), 1));
        let b = store.intern_uexp_skeleton(&inv(IExp::Int(99), 1));
        let c = store.intern_uexp_skeleton(&inv(IExp::Int(10), 2));
        assert_eq!(a, b, "model changes must not change the skeleton id");
        assert_ne!(a, c, "splice changes must change the skeleton id");
    }

    #[test]
    fn fresh_var_scheme_matches_seed() {
        // [y/x](fun y -> x + y%1): y%1 is taken, so the binder becomes y%2.
        let e = lam(
            "y",
            IExp::Bin(BinOp::Add, Box::new(v("x")), Box::new(v("y%1"))),
        );
        let expected = e.subst(&Var::new("x"), &v("y"));
        let mut store = TermStore::new();
        let t = store.intern_iexp(&e);
        let x = store.intern_var(&Var::new("x"));
        let r = store.intern_iexp(&v("y"));
        let out = store.subst_one(t, x, r);
        assert_eq!(store.to_iexp(out), expected);
        match store.to_iexp(out) {
            IExp::Lam(binder, _, _) => assert_eq!(binder, Var::new("y%2")),
            other => panic!("expected lambda, got {other:?}"),
        }
    }
}
