//! Typing for external expressions: `Γ ⊢ e : τ` (Sec. 4.1).
//!
//! The paper's typing judgement is declarative; to make it algorithmic this
//! module implements it bidirectionally, splitting it into synthesis
//! ([`syn`]) and analysis ([`ana`]). Empty holes synthesize nothing but
//! analyze against any type — checking also *outputs* the hole context Δ
//! recording `u :: τ[Γ]` for every hole encountered, which is the interface
//! elaboration and closure collection rely on.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::external::EExp;
use crate::ident::{HoleName, Label, Var};
use crate::typ::Typ;

/// A typing context `Γ`: a persistent map from variables to types.
///
/// Γ is a persistent AVL tree whose nodes are shared through [`Arc`]. The
/// checker snapshots Γ into Δ at every hole (the `u :: τ[Γ]` hypotheses)
/// and extends it at every binder, so both must be cheap: a snapshot is a
/// clone, one reference-count bump; [`Ctx::extend`] is O(log n), copying
/// only the nodes on the path to the new binding and sharing every other
/// subtree, and every binding's type, with the context it extends. Lookup
/// is O(log n) and [`Ctx::len`] is O(1).
#[derive(Clone, Default)]
pub struct Ctx {
    root: Tree,
    len: usize,
}

type Tree = Option<Arc<Node>>;

struct Node {
    /// `x : τ`, shared by every copy of this node.
    binding: Arc<(Var, Typ)>,
    /// The number of nodes on the longest path down from this one.
    height: u8,
    left: Tree,
    right: Tree,
}

fn height(t: &Tree) -> u8 {
    t.as_ref().map_or(0, |n| n.height)
}

fn node(binding: Arc<(Var, Typ)>, left: Tree, right: Tree) -> Arc<Node> {
    let height = 1 + height(&left).max(height(&right));
    Arc::new(Node {
        binding,
        height,
        left,
        right,
    })
}

/// Builds a node over two subtrees whose heights differ by at most two,
/// rotating once or twice so that they differ by at most one.
fn balance(binding: Arc<(Var, Typ)>, left: Tree, right: Tree) -> Arc<Node> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        let l = left.as_deref().expect("taller side is non-empty");
        if height(&l.left) >= height(&l.right) {
            let top = node(binding, l.right.clone(), right);
            node(l.binding.clone(), l.left.clone(), Some(top))
        } else {
            let lr = l.right.as_deref().expect("taller side is non-empty");
            let low = node(l.binding.clone(), l.left.clone(), lr.left.clone());
            let high = node(binding, lr.right.clone(), right);
            node(lr.binding.clone(), Some(low), Some(high))
        }
    } else if hr > hl + 1 {
        let r = right.as_deref().expect("taller side is non-empty");
        if height(&r.right) >= height(&r.left) {
            let top = node(binding, left, r.left.clone());
            node(r.binding.clone(), Some(top), r.right.clone())
        } else {
            let rl = r.left.as_deref().expect("taller side is non-empty");
            let low = node(binding, left, rl.left.clone());
            let high = node(r.binding.clone(), rl.right.clone(), r.right.clone());
            node(rl.binding.clone(), Some(low), Some(high))
        }
    } else {
        node(binding, left, right)
    }
}

/// `t` with `binding` inserted (replacing any binding of its variable),
/// path-copied; `added` records whether the variable was new.
fn insert(t: &Tree, binding: Arc<(Var, Typ)>, added: &mut bool) -> Arc<Node> {
    let Some(n) = t else {
        *added = true;
        return node(binding, None, None);
    };
    match binding.0.cmp(&n.binding.0) {
        Ordering::Less => {
            let left = insert(&n.left, binding, added);
            balance(n.binding.clone(), Some(left), n.right.clone())
        }
        Ordering::Greater => {
            let right = insert(&n.right, binding, added);
            balance(n.binding.clone(), n.left.clone(), Some(right))
        }
        Ordering::Equal => node(binding, n.left.clone(), n.right.clone()),
    }
}

impl Ctx {
    /// The empty context.
    pub fn empty() -> Ctx {
        Ctx::default()
    }

    /// Creates a context from bindings; a later binding of a variable
    /// shadows an earlier one.
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Var, Typ)>) -> Ctx {
        bindings
            .into_iter()
            .fold(Ctx::empty(), |ctx, (x, ty)| ctx.extend(x, ty))
    }

    /// Looks up a variable.
    pub fn get(&self, x: &Var) -> Option<&Typ> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            cur = match x.cmp(&n.binding.0) {
                Ordering::Less => n.left.as_deref(),
                Ordering::Greater => n.right.as_deref(),
                Ordering::Equal => return Some(&n.binding.1),
            };
        }
        None
    }

    /// Extends the context with `x : τ`, shadowing any existing binding.
    pub fn extend(&self, x: Var, ty: Typ) -> Ctx {
        let mut added = false;
        let root = insert(&self.root, Arc::new((x, ty)), &mut added);
        Ctx {
            root: Some(root),
            len: self.len + usize::from(added),
        }
    }

    /// Iterates over bindings in variable order. A shadowed binding is not
    /// visited.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Typ)> {
        let mut iter = Iter {
            stack: Vec::with_capacity(usize::from(height(&self.root))),
        };
        iter.descend(self.root.as_deref());
        iter
    }

    /// The variables bound in this context, in order.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.iter().map(|(x, _)| x)
    }

    /// The number of bindings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// In-order traversal with an explicit stack of the nodes whose left
/// subtrees are done.
struct Iter<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iter<'a> {
    fn descend(&mut self, mut cur: Option<&'a Node>) {
        while let Some(n) = cur {
            self.stack.push(n);
            cur = n.left.as_deref();
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Var, &'a Typ);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        self.descend(n.right.as_deref());
        Some((&n.binding.0, &n.binding.1))
    }
}

impl PartialEq for Ctx {
    fn eq(&self, other: &Ctx) -> bool {
        let same_root = match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_root || (self.len == other.len && self.iter().eq(other.iter()))
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One hole typing hypothesis `u :: τ[Γ]`.
#[derive(Debug, Clone, PartialEq)]
pub struct HoleHyp {
    /// The type the hole must be filled at.
    pub ty: Typ,
    /// The typing context at the hole's location.
    pub ctx: Ctx,
}

/// A hole context `Δ`: a finite set of hypotheses `u :: τ[Γ]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    map: BTreeMap<HoleName, HoleHyp>,
}

impl Delta {
    /// The empty hole context.
    pub fn empty() -> Delta {
        Delta::default()
    }

    /// Looks up a hole's hypothesis.
    pub fn get(&self, u: HoleName) -> Option<&HoleHyp> {
        self.map.get(&u)
    }

    /// Records `u :: τ[Γ]`.
    ///
    /// # Errors
    ///
    /// Hole names must be unique in external expressions (Sec. 4.1); a
    /// second, *different* hypothesis for the same hole is a
    /// [`TypeError::DuplicateHole`].
    pub fn insert(&mut self, u: HoleName, ty: Typ, ctx: Ctx) -> Result<(), TypeError> {
        match self.map.get(&u) {
            Some(existing) if existing.ty == ty && existing.ctx == ctx => Ok(()),
            Some(_) => Err(TypeError::DuplicateHole(u)),
            None => {
                self.map.insert(u, HoleHyp { ty, ctx });
                Ok(())
            }
        }
    }

    /// Merges another hole context into this one.
    pub fn merge(&mut self, other: Delta) -> Result<(), TypeError> {
        for (u, hyp) in other.map {
            self.insert(u, hyp.ty, hyp.ctx)?;
        }
        Ok(())
    }

    /// Iterates over hypotheses in hole-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&HoleName, &HoleHyp)> {
        self.map.iter()
    }

    /// The number of hypotheses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no hypotheses.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A static (type) error.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// An unbound variable.
    UnboundVar(Var),
    /// Expected one type, found another.
    Mismatch {
        /// The type required by the context.
        expected: Typ,
        /// The type the expression synthesized.
        found: Typ,
    },
    /// Applied a non-function.
    NotAFunction(Typ),
    /// Projected from a non-product or a product lacking the field.
    BadProjection(Typ, Label),
    /// Injected into a non-sum type or a missing arm.
    BadInjection(Typ, Label),
    /// Case analysis on a non-sum.
    NotASum(Typ),
    /// A `case` whose arms do not exactly cover the sum's constructors.
    InexhaustiveCase {
        /// The sum type being analyzed.
        scrutinee: Typ,
    },
    /// List case analysis on a non-list.
    NotAList(Typ),
    /// `roll` at a non-recursive type, or `unroll` of one.
    NotRecursive(Typ),
    /// An expression form that cannot synthesize a type (e.g. a bare hole in
    /// synthetic position) — add an annotation or ascription.
    CannotSynthesize(&'static str),
    /// Two hypotheses for one hole name.
    DuplicateHole(HoleName),
    /// A tuple analyzed against a product with different labels or arity.
    TupleShape {
        /// The product type expected.
        expected: Typ,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVar(x) => write!(f, "unbound variable {x}"),
            TypeError::Mismatch { expected, found } => {
                write!(f, "expected type {expected}, found {found}")
            }
            TypeError::NotAFunction(t) => write!(f, "cannot apply expression of type {t}"),
            TypeError::BadProjection(t, l) => {
                write!(f, "type {t} has no field .{l}")
            }
            TypeError::BadInjection(t, l) => write!(f, "type {t} has no constructor .{l}"),
            TypeError::NotASum(t) => write!(f, "cannot case on non-sum type {t}"),
            TypeError::InexhaustiveCase { scrutinee } => {
                write!(f, "case arms do not match constructors of {scrutinee}")
            }
            TypeError::NotAList(t) => write!(f, "cannot list-case on non-list type {t}"),
            TypeError::NotRecursive(t) => write!(f, "type {t} is not recursive"),
            TypeError::CannotSynthesize(form) => {
                write!(f, "cannot synthesize a type for {form}; add an annotation")
            }
            TypeError::DuplicateHole(u) => write!(f, "duplicate hole name {u}"),
            TypeError::TupleShape { expected } => {
                write!(f, "tuple does not match product type {expected}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Synthesizes a type for `e` under `Γ`, producing the hole context Δ.
///
/// # Errors
///
/// Returns a [`TypeError`] if the expression is ill-typed or a hole-bearing
/// form appears where a type must be synthesized without an annotation.
pub fn syn(ctx: &Ctx, e: &EExp) -> Result<(Typ, Delta), TypeError> {
    let mut delta = Delta::empty();
    let ty = syn_in(ctx, e, &mut delta)?;
    Ok((ty, delta))
}

/// Analyzes `e` against `τ` under `Γ`, producing the hole context Δ.
///
/// # Errors
///
/// Returns a [`TypeError`] if the expression cannot have type `τ`.
pub fn ana(ctx: &Ctx, e: &EExp, ty: &Typ) -> Result<Delta, TypeError> {
    let mut delta = Delta::empty();
    ana_in(ctx, e, ty, &mut delta)?;
    Ok(delta)
}

fn syn_in(ctx: &Ctx, e: &EExp, delta: &mut Delta) -> Result<Typ, TypeError> {
    match e {
        EExp::Var(x) => ctx
            .get(x)
            .cloned()
            .ok_or_else(|| TypeError::UnboundVar(x.clone())),
        EExp::Lam(x, t, body) => {
            let body_ty = syn_in(&ctx.extend(x.clone(), t.clone()), body, delta)?;
            Ok(Typ::arrow(t.clone(), body_ty))
        }
        EExp::Ap(f, a) => {
            let f_ty = syn_in(ctx, f, delta)?;
            match f_ty {
                Typ::Arrow(dom, cod) => {
                    ana_in(ctx, a, &dom, delta)?;
                    Ok(*cod)
                }
                other => Err(TypeError::NotAFunction(other)),
            }
        }
        EExp::Let(x, ann, def, body) => {
            let def_ty = match ann {
                Some(t) => {
                    ana_in(ctx, def, t, delta)?;
                    t.clone()
                }
                None => syn_in(ctx, def, delta)?,
            };
            syn_in(&ctx.extend(x.clone(), def_ty), body, delta)
        }
        EExp::Fix(x, t, body) => {
            ana_in(&ctx.extend(x.clone(), t.clone()), body, t, delta)?;
            Ok(t.clone())
        }
        EExp::Int(_) => Ok(Typ::Int),
        EExp::Float(_) => Ok(Typ::Float),
        EExp::Bool(_) => Ok(Typ::Bool),
        EExp::Str(_) => Ok(Typ::Str),
        EExp::Unit => Ok(Typ::Unit),
        EExp::Bin(op, a, b) => {
            let operand = op.operand_typ();
            ana_in(ctx, a, &operand, delta)?;
            ana_in(ctx, b, &operand, delta)?;
            Ok(op.result_typ())
        }
        EExp::If(c, t, e2) => {
            ana_in(ctx, c, &Typ::Bool, delta)?;
            let then_ty = syn_in(ctx, t, delta)?;
            ana_in(ctx, e2, &then_ty, delta)?;
            Ok(then_ty)
        }
        EExp::Tuple(fields) => {
            let mut tys = Vec::with_capacity(fields.len());
            for (l, fe) in fields {
                tys.push((l.clone(), syn_in(ctx, fe, delta)?));
            }
            Ok(Typ::Prod(tys))
        }
        EExp::Proj(scrut, l) => {
            let scrut_ty = syn_in(ctx, scrut, delta)?;
            scrut_ty
                .field(l)
                .cloned()
                .ok_or_else(|| TypeError::BadProjection(scrut_ty.clone(), l.clone()))
        }
        EExp::Inj(sum_ty, l, payload) => {
            let payload_ty = sum_ty
                .arm(l)
                .ok_or_else(|| TypeError::BadInjection(sum_ty.clone(), l.clone()))?;
            ana_in(ctx, payload, payload_ty, delta)?;
            Ok(sum_ty.clone())
        }
        EExp::Case(scrut, arms) => {
            let scrut_ty = syn_in(ctx, scrut, delta)?;
            let arm_tys = case_arm_typs(&scrut_ty, arms.iter().map(|a| &a.label))?;
            let mut result: Option<Typ> = None;
            for (arm, payload_ty) in arms.iter().zip(arm_tys) {
                let arm_ctx = ctx.extend(arm.var.clone(), payload_ty.clone());
                match &result {
                    None => result = Some(syn_in(&arm_ctx, &arm.body, delta)?),
                    Some(t) => ana_in(&arm_ctx, &arm.body, t, delta)?,
                }
            }
            result.ok_or(TypeError::CannotSynthesize("a case with no arms"))
        }
        EExp::Nil(t) => Ok(Typ::list(t.clone())),
        EExp::Cons(h, t) => {
            let h_ty = syn_in(ctx, h, delta)?;
            let list_ty = Typ::list(h_ty);
            ana_in(ctx, t, &list_ty, delta)?;
            Ok(list_ty)
        }
        EExp::ListCase(scrut, nil, h, t, cons) => {
            let scrut_ty = syn_in(ctx, scrut, delta)?;
            let elem_ty = match &scrut_ty {
                Typ::List(elem) => (**elem).clone(),
                other => return Err(TypeError::NotAList(other.clone())),
            };
            let nil_ty = syn_in(ctx, nil, delta)?;
            let cons_ctx = ctx
                .extend(h.clone(), elem_ty)
                .extend(t.clone(), scrut_ty.clone());
            ana_in(&cons_ctx, cons, &nil_ty, delta)?;
            Ok(nil_ty)
        }
        EExp::Roll(rec_ty, body) => {
            let unrolled = rec_ty
                .unroll()
                .ok_or_else(|| TypeError::NotRecursive(rec_ty.clone()))?;
            ana_in(ctx, body, &unrolled, delta)?;
            Ok(rec_ty.clone())
        }
        EExp::Unroll(body) => {
            let rec_ty = syn_in(ctx, body, delta)?;
            rec_ty.unroll().ok_or(TypeError::NotRecursive(rec_ty))
        }
        EExp::Asc(inner, t) => {
            ana_in(ctx, inner, t, delta)?;
            Ok(t.clone())
        }
        EExp::EmptyHole(_) => Err(TypeError::CannotSynthesize("an empty hole")),
        EExp::NonEmptyHole(_, _) => Err(TypeError::CannotSynthesize("a non-empty hole")),
    }
}

fn ana_in(ctx: &Ctx, e: &EExp, expected: &Typ, delta: &mut Delta) -> Result<(), TypeError> {
    match (e, expected) {
        // Holes analyze against any type, recording u :: τ[Γ] in Δ.
        (EExp::EmptyHole(u), _) => delta.insert(*u, expected.clone(), ctx.clone()),
        // A non-empty hole also analyzes against any type; its contents must
        // merely synthesize *some* type (the error is already marked).
        (EExp::NonEmptyHole(u, inner), _) => {
            let _inner_ty = syn_in(ctx, inner, delta)?;
            delta.insert(*u, expected.clone(), ctx.clone())
        }
        (EExp::Lam(x, ann, body), Typ::Arrow(dom, cod)) => {
            if ann != dom.as_ref() {
                return Err(TypeError::Mismatch {
                    expected: (**dom).clone(),
                    found: ann.clone(),
                });
            }
            ana_in(&ctx.extend(x.clone(), ann.clone()), body, cod, delta)
        }
        (EExp::Let(x, ann, def, body), _) => {
            let def_ty = match ann {
                Some(t) => {
                    ana_in(ctx, def, t, delta)?;
                    t.clone()
                }
                None => syn_in(ctx, def, delta)?,
            };
            ana_in(&ctx.extend(x.clone(), def_ty), body, expected, delta)
        }
        (EExp::If(c, t, e2), _) => {
            ana_in(ctx, c, &Typ::Bool, delta)?;
            ana_in(ctx, t, expected, delta)?;
            ana_in(ctx, e2, expected, delta)
        }
        (EExp::Tuple(fields), Typ::Prod(expected_fields)) => {
            if fields.len() != expected_fields.len()
                || fields
                    .iter()
                    .zip(expected_fields)
                    .any(|((l1, _), (l2, _))| l1 != l2)
            {
                return Err(TypeError::TupleShape {
                    expected: expected.clone(),
                });
            }
            for ((_, fe), (_, ft)) in fields.iter().zip(expected_fields) {
                ana_in(ctx, fe, ft, delta)?;
            }
            Ok(())
        }
        (EExp::Case(scrut, arms), _) => {
            let scrut_ty = syn_in(ctx, scrut, delta)?;
            let arm_tys = case_arm_typs(&scrut_ty, arms.iter().map(|a| &a.label))?;
            for (arm, payload_ty) in arms.iter().zip(arm_tys) {
                let arm_ctx = ctx.extend(arm.var.clone(), payload_ty.clone());
                ana_in(&arm_ctx, &arm.body, expected, delta)?;
            }
            Ok(())
        }
        (EExp::ListCase(scrut, nil, h, t, cons), _) => {
            let scrut_ty = syn_in(ctx, scrut, delta)?;
            let elem_ty = match &scrut_ty {
                Typ::List(elem) => (**elem).clone(),
                other => return Err(TypeError::NotAList(other.clone())),
            };
            ana_in(ctx, nil, expected, delta)?;
            let cons_ctx = ctx
                .extend(h.clone(), elem_ty)
                .extend(t.clone(), scrut_ty.clone());
            ana_in(&cons_ctx, cons, expected, delta)
        }
        (EExp::Nil(elem), Typ::List(expected_elem)) if elem == expected_elem.as_ref() => Ok(()),
        (EExp::Cons(h, t), Typ::List(elem)) => {
            ana_in(ctx, h, elem, delta)?;
            ana_in(ctx, t, expected, delta)
        }
        // Subsumption: everything else synthesizes and must match exactly.
        _ => {
            let found = syn_in(ctx, e, delta)?;
            if &found == expected {
                Ok(())
            } else {
                Err(TypeError::Mismatch {
                    expected: expected.clone(),
                    found,
                })
            }
        }
    }
}

/// Checks that `arms` exactly covers the constructors of sum type
/// `scrut_ty`, in order, and returns the payload type for each arm.
fn case_arm_typs<'a>(
    scrut_ty: &Typ,
    arms: impl ExactSizeIterator<Item = &'a Label>,
) -> Result<Vec<Typ>, TypeError> {
    let sum_arms = match scrut_ty {
        Typ::Sum(sum_arms) => sum_arms,
        other => return Err(TypeError::NotASum(other.clone())),
    };
    if arms.len() != sum_arms.len() {
        return Err(TypeError::InexhaustiveCase {
            scrutinee: scrut_ty.clone(),
        });
    }
    let mut out = Vec::with_capacity(sum_arms.len());
    for (label, (sum_label, payload_ty)) in arms.zip(sum_arms) {
        if label != sum_label {
            return Err(TypeError::InexhaustiveCase {
                scrutinee: scrut_ty.clone(),
            });
        }
        out.push(payload_ty.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    /// Checks the AVL invariants below `t` and returns its height.
    fn check_balanced(t: &Tree) -> u8 {
        let Some(n) = t else { return 0 };
        let (hl, hr) = (check_balanced(&n.left), check_balanced(&n.right));
        assert!(hl.abs_diff(hr) <= 1, "unbalanced at {}", n.binding.0);
        assert_eq!(n.height, 1 + hl.max(hr), "stale height at {}", n.binding.0);
        n.height
    }

    #[test]
    fn ctx_stays_balanced_and_shares_unchanged_subtrees() {
        // Ascending names, the worst insertion order for an unbalanced tree
        // (and the order a chain of `def x1 ... def xn` binds them in).
        let mut ctx = Ctx::empty();
        for i in 0..1000 {
            ctx = ctx.extend(Var::new(format!("x{i:04}")), Typ::Int);
        }
        let height = check_balanced(&ctx.root);
        // An AVL tree over n nodes is at most 1.44 log2(n + 2) high.
        assert!(height <= 15, "height {height} for 1000 bindings");
        let shadowed = ctx.extend(Var::new("x0500"), Typ::Bool);
        check_balanced(&shadowed.root);
        assert_eq!(shadowed.len(), 1000);
        let (old, new) = (ctx.root.as_deref(), shadowed.root.as_deref());
        let (old, new) = (old.expect("non-empty"), new.expect("non-empty"));
        // The path to the new binding is copied; at least one of the root's
        // subtrees is not on it and is shared.
        let shared = |a: &Tree, b: &Tree| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert!(shared(&old.left, &new.left) || shared(&old.right, &new.right));
        assert_eq!(ctx.get(&Var::new("x0500")), Some(&Typ::Int));
        assert_eq!(shadowed.get(&Var::new("x0500")), Some(&Typ::Bool));
    }

    fn option_int() -> Typ {
        Typ::sum([
            (Label::new("Some"), Typ::Int),
            (Label::new("None"), Typ::Unit),
        ])
    }

    #[test]
    fn syn_literals() {
        let ctx = Ctx::empty();
        assert_eq!(syn(&ctx, &int(3)).unwrap().0, Typ::Int);
        assert_eq!(syn(&ctx, &float(1.5)).unwrap().0, Typ::Float);
        assert_eq!(syn(&ctx, &boolean(true)).unwrap().0, Typ::Bool);
        assert_eq!(syn(&ctx, &string("hi")).unwrap().0, Typ::Str);
        assert_eq!(syn(&ctx, &unit()).unwrap().0, Typ::Unit);
    }

    #[test]
    fn syn_lambda_and_application() {
        let ctx = Ctx::empty();
        let e = ap(lam("x", Typ::Int, add(var("x"), int(1))), int(41));
        assert_eq!(syn(&ctx, &e).unwrap().0, Typ::Int);
    }

    #[test]
    fn unbound_var_fails() {
        assert_eq!(
            syn(&Ctx::empty(), &var("nope")),
            Err(TypeError::UnboundVar(Var::new("nope")))
        );
    }

    #[test]
    fn applying_non_function_fails() {
        let e = ap(int(1), int(2));
        assert_eq!(
            syn(&Ctx::empty(), &e),
            Err(TypeError::NotAFunction(Typ::Int))
        );
    }

    #[test]
    fn hole_records_type_and_context() {
        // let x : Int = ⦇⦈0 in x  — the hole gets Int under the outer Γ.
        let outer = Ctx::from_bindings([(Var::new("outer"), Typ::Bool)]);
        let e = elet_ty("x", Typ::Int, hole(0), var("x"));
        let (ty, delta) = syn(&outer, &e).unwrap();
        assert_eq!(ty, Typ::Int);
        let hyp = delta.get(HoleName(0)).expect("hole recorded");
        assert_eq!(hyp.ty, Typ::Int);
        assert_eq!(hyp.ctx.get(&Var::new("outer")), Some(&Typ::Bool));
    }

    #[test]
    fn bare_hole_cannot_synthesize() {
        assert!(matches!(
            syn(&Ctx::empty(), &hole(0)),
            Err(TypeError::CannotSynthesize(_))
        ));
        // But ascription fixes it.
        assert_eq!(
            syn(&Ctx::empty(), &asc(hole(0), Typ::Int)).unwrap().0,
            Typ::Int
        );
    }

    #[test]
    fn duplicate_hole_names_at_different_types_rejected() {
        let e = tuple([asc(hole(0), Typ::Int), asc(hole(0), Typ::Bool)]);
        assert_eq!(
            syn(&Ctx::empty(), &e),
            Err(TypeError::DuplicateHole(HoleName(0)))
        );
    }

    #[test]
    fn case_checks_exhaustiveness() {
        let scrut = inj(option_int(), "Some", int(1));
        let good = case(
            scrut.clone(),
            [("Some", "n", var("n")), ("None", "w", int(0))],
        );
        assert_eq!(syn(&Ctx::empty(), &good).unwrap().0, Typ::Int);

        let missing = case(scrut, [("Some", "n", var("n"))]);
        assert!(matches!(
            syn(&Ctx::empty(), &missing),
            Err(TypeError::InexhaustiveCase { .. })
        ));
    }

    #[test]
    fn labeled_tuple_projection() {
        let e = proj(record([("r", int(57)), ("g", int(107))]), "g");
        assert_eq!(syn(&Ctx::empty(), &e).unwrap().0, Typ::Int);
        let bad = proj(record([("r", int(57))]), "q");
        assert!(matches!(
            syn(&Ctx::empty(), &bad),
            Err(TypeError::BadProjection(..))
        ));
    }

    #[test]
    fn list_forms_type_check() {
        let e = list(Typ::Float, [float(1.0), float(2.0)]);
        assert_eq!(syn(&Ctx::empty(), &e).unwrap().0, Typ::list(Typ::Float));

        let sum_it = lcase(e, float(0.0), "h", "t", var("h"));
        assert_eq!(syn(&Ctx::empty(), &sum_it).unwrap().0, Typ::Float);
    }

    #[test]
    fn fix_types_at_annotation() {
        // fix f : Int -> Int -> fun n : Int -> if n <= 0 then 0 else f (n - 1)
        let fty = Typ::arrow(Typ::Int, Typ::Int);
        let e = fix(
            "f",
            fty.clone(),
            lam(
                "n",
                Typ::Int,
                ite(
                    bin(crate::ops::BinOp::Le, var("n"), int(0)),
                    int(0),
                    ap(var("f"), sub(var("n"), int(1))),
                ),
            ),
        );
        assert_eq!(syn(&Ctx::empty(), &e).unwrap().0, fty);
    }

    #[test]
    fn roll_unroll_recursive_type() {
        // nat = mu t. [.Z | .S 't]
        let nat = Typ::rec(
            "t",
            Typ::sum([
                (Label::new("Z"), Typ::Unit),
                (Label::new("S"), Typ::Var(crate::ident::TVar::new("t"))),
            ]),
        );
        let unrolled = nat.unroll().unwrap();
        let zero = roll(nat.clone(), inj(unrolled.clone(), "Z", unit()));
        assert_eq!(syn(&Ctx::empty(), &zero).unwrap().0, nat);
        let one = roll(nat.clone(), inj(unrolled, "S", zero));
        assert_eq!(syn(&Ctx::empty(), &one).unwrap().0, nat);
    }

    #[test]
    fn ana_tuple_against_labeled_product() {
        let color = Typ::prod([(Label::new("r"), Typ::Int), (Label::new("g"), Typ::Int)]);
        let ok = record([("r", int(1)), ("g", int(2))]);
        assert!(ana(&Ctx::empty(), &ok, &color).is_ok());
        // Holes allowed componentwise in analytic position.
        let holey = record([("r", int(1)), ("g", hole(3))]);
        let delta = ana(&Ctx::empty(), &holey, &color).unwrap();
        assert_eq!(delta.get(HoleName(3)).unwrap().ty, Typ::Int);
        // Wrong labels rejected.
        let bad = record([("g", int(1)), ("r", int(2))]);
        assert!(matches!(
            ana(&Ctx::empty(), &bad, &color),
            Err(TypeError::TupleShape { .. })
        ));
    }

    #[test]
    fn shadowing_uses_innermost_binding() {
        let e = elet("x", int(1), elet("x", boolean(true), var("x")));
        assert_eq!(syn(&Ctx::empty(), &e).unwrap().0, Typ::Bool);
    }

    #[test]
    fn non_empty_hole_types_like_empty_hole() {
        // A non-empty hole marking `true` used where Int is expected.
        let marked = EExp::NonEmptyHole(HoleName(1), Box::new(boolean(true)));
        let delta = ana(&Ctx::empty(), &marked, &Typ::Int).unwrap();
        assert_eq!(delta.get(HoleName(1)).unwrap().ty, Typ::Int);
    }
}
