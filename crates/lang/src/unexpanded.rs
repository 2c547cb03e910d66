//! Unexpanded expressions, `ê` in Fig. 4.
//!
//! Unexpanded expressions mirror external expressions but additionally
//! include livelit invocations `$a⟨d_model; {ψi}^(i<n)⟩u`: a livelit name, a
//! persisted model value, a splice list, and the name of the hole the
//! invocation conceptually fills. This is the sort the program *editor*
//! manipulates; typed expansion (in `livelit-core`) maps it to external
//! expressions.

use std::collections::BTreeSet;
use std::fmt;

use crate::external::{CaseArm, EExp};
use crate::ident::{HoleName, Label, LivelitName, Var};
use crate::internal::IExp;
use crate::ops::BinOp;
use crate::typ::Typ;

/// A splice `ψ = ê : τ`: a spliced unexpanded expression paired with the
/// type the livelit assigned when it created the splice (Sec. 3.2.1).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Splice {
    /// The spliced expression. May itself contain livelit invocations
    /// ("livelits are compositional", Sec. 2.4.2).
    pub exp: UExp,
    /// The splice's expected type.
    pub ty: Typ,
}

impl Splice {
    /// Creates a splice.
    pub fn new(exp: UExp, ty: Typ) -> Splice {
        Splice { exp, ty }
    }
}

/// A livelit invocation `$a⟨d_model; {ψi}⟩u`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LivelitAp {
    /// The livelit being invoked.
    pub name: LivelitName,
    /// The current model value. Only the model is persisted when a program
    /// is saved (Sec. 3.2.5); the expansion is regenerated on demand.
    pub model: IExp,
    /// The splice list. Parameters are passed as leading splices
    /// ("parameters operate like splices", Sec. 2.4.1).
    pub splices: Vec<Splice>,
    /// The hole this invocation conceptually fills.
    pub hole: HoleName,
}

/// One arm of an unexpanded `case`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct UCaseArm {
    /// The sum constructor this arm matches.
    pub label: Label,
    /// The variable bound to the payload.
    pub var: Var,
    /// The arm body.
    pub body: UExp,
}

/// An unexpanded expression.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum UExp {
    /// A variable.
    Var(Var),
    /// A lambda.
    Lam(Var, Typ, Box<UExp>),
    /// Application.
    Ap(Box<UExp>, Box<UExp>),
    /// A let binding with optional annotation.
    Let(Var, Option<Typ>, Box<UExp>, Box<UExp>),
    /// A fixpoint.
    Fix(Var, Typ, Box<UExp>),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A boolean literal.
    Bool(bool),
    /// A string literal.
    Str(String),
    /// The unit value.
    Unit,
    /// A primitive binary operation.
    Bin(BinOp, Box<UExp>, Box<UExp>),
    /// A conditional.
    If(Box<UExp>, Box<UExp>, Box<UExp>),
    /// A labeled tuple.
    Tuple(Vec<(Label, UExp)>),
    /// Tuple projection.
    Proj(Box<UExp>, Label),
    /// Sum injection.
    Inj(Typ, Label, Box<UExp>),
    /// Sum case analysis.
    Case(Box<UExp>, Vec<UCaseArm>),
    /// Empty list.
    Nil(Typ),
    /// List cons.
    Cons(Box<UExp>, Box<UExp>),
    /// List case analysis.
    ListCase(Box<UExp>, Box<UExp>, Var, Var, Box<UExp>),
    /// Recursive-type introduction.
    Roll(Typ, Box<UExp>),
    /// Recursive-type elimination.
    Unroll(Box<UExp>),
    /// Type ascription.
    Asc(Box<UExp>, Typ),
    /// An empty hole.
    EmptyHole(HoleName),
    /// A non-empty hole (error marker).
    NonEmptyHole(HoleName, Box<UExp>),
    /// A livelit invocation.
    Livelit(Box<LivelitAp>),
}

impl UExp {
    /// Injects an external expression into the unexpanded sort (external
    /// expressions are a subset of unexpanded expressions).
    pub fn from_eexp(e: &EExp) -> UExp {
        match e {
            EExp::Var(x) => UExp::Var(x.clone()),
            EExp::Lam(x, t, b) => UExp::Lam(x.clone(), t.clone(), Box::new(UExp::from_eexp(b))),
            EExp::Ap(a, b) => UExp::Ap(Box::new(UExp::from_eexp(a)), Box::new(UExp::from_eexp(b))),
            EExp::Let(x, t, a, b) => UExp::Let(
                x.clone(),
                t.clone(),
                Box::new(UExp::from_eexp(a)),
                Box::new(UExp::from_eexp(b)),
            ),
            EExp::Fix(x, t, b) => UExp::Fix(x.clone(), t.clone(), Box::new(UExp::from_eexp(b))),
            EExp::Int(n) => UExp::Int(*n),
            EExp::Float(x) => UExp::Float(*x),
            EExp::Bool(b) => UExp::Bool(*b),
            EExp::Str(s) => UExp::Str(s.clone()),
            EExp::Unit => UExp::Unit,
            EExp::Bin(op, a, b) => UExp::Bin(
                *op,
                Box::new(UExp::from_eexp(a)),
                Box::new(UExp::from_eexp(b)),
            ),
            EExp::If(c, t, e) => UExp::If(
                Box::new(UExp::from_eexp(c)),
                Box::new(UExp::from_eexp(t)),
                Box::new(UExp::from_eexp(e)),
            ),
            EExp::Tuple(fields) => UExp::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| (l.clone(), UExp::from_eexp(e)))
                    .collect(),
            ),
            EExp::Proj(e, l) => UExp::Proj(Box::new(UExp::from_eexp(e)), l.clone()),
            EExp::Inj(t, l, e) => UExp::Inj(t.clone(), l.clone(), Box::new(UExp::from_eexp(e))),
            EExp::Case(scrut, arms) => UExp::Case(
                Box::new(UExp::from_eexp(scrut)),
                arms.iter()
                    .map(|arm| UCaseArm {
                        label: arm.label.clone(),
                        var: arm.var.clone(),
                        body: UExp::from_eexp(&arm.body),
                    })
                    .collect(),
            ),
            EExp::Nil(t) => UExp::Nil(t.clone()),
            EExp::Cons(a, b) => {
                UExp::Cons(Box::new(UExp::from_eexp(a)), Box::new(UExp::from_eexp(b)))
            }
            EExp::ListCase(scrut, nil, h, t, cons) => UExp::ListCase(
                Box::new(UExp::from_eexp(scrut)),
                Box::new(UExp::from_eexp(nil)),
                h.clone(),
                t.clone(),
                Box::new(UExp::from_eexp(cons)),
            ),
            EExp::Roll(t, e) => UExp::Roll(t.clone(), Box::new(UExp::from_eexp(e))),
            EExp::Unroll(e) => UExp::Unroll(Box::new(UExp::from_eexp(e))),
            EExp::Asc(e, t) => UExp::Asc(Box::new(UExp::from_eexp(e)), t.clone()),
            EExp::EmptyHole(u) => UExp::EmptyHole(*u),
            EExp::NonEmptyHole(u, e) => UExp::NonEmptyHole(*u, Box::new(UExp::from_eexp(e))),
        }
    }

    /// Converts to an external expression if no livelit invocations remain.
    ///
    /// # Errors
    ///
    /// Returns the name of the first livelit invocation encountered if any
    /// remain — such an expression needs expansion, not conversion.
    pub fn to_eexp(&self) -> Result<EExp, LivelitName> {
        match self {
            UExp::Var(x) => Ok(EExp::Var(x.clone())),
            UExp::Lam(x, t, b) => Ok(EExp::Lam(x.clone(), t.clone(), Box::new(b.to_eexp()?))),
            UExp::Ap(a, b) => Ok(EExp::Ap(Box::new(a.to_eexp()?), Box::new(b.to_eexp()?))),
            UExp::Let(x, t, a, b) => Ok(EExp::Let(
                x.clone(),
                t.clone(),
                Box::new(a.to_eexp()?),
                Box::new(b.to_eexp()?),
            )),
            UExp::Fix(x, t, b) => Ok(EExp::Fix(x.clone(), t.clone(), Box::new(b.to_eexp()?))),
            UExp::Int(n) => Ok(EExp::Int(*n)),
            UExp::Float(x) => Ok(EExp::Float(*x)),
            UExp::Bool(b) => Ok(EExp::Bool(*b)),
            UExp::Str(s) => Ok(EExp::Str(s.clone())),
            UExp::Unit => Ok(EExp::Unit),
            UExp::Bin(op, a, b) => Ok(EExp::Bin(
                *op,
                Box::new(a.to_eexp()?),
                Box::new(b.to_eexp()?),
            )),
            UExp::If(c, t, e) => Ok(EExp::If(
                Box::new(c.to_eexp()?),
                Box::new(t.to_eexp()?),
                Box::new(e.to_eexp()?),
            )),
            UExp::Tuple(fields) => Ok(EExp::Tuple(
                fields
                    .iter()
                    .map(|(l, e)| Ok((l.clone(), e.to_eexp()?)))
                    .collect::<Result<_, LivelitName>>()?,
            )),
            UExp::Proj(e, l) => Ok(EExp::Proj(Box::new(e.to_eexp()?), l.clone())),
            UExp::Inj(t, l, e) => Ok(EExp::Inj(t.clone(), l.clone(), Box::new(e.to_eexp()?))),
            UExp::Case(scrut, arms) => Ok(EExp::Case(
                Box::new(scrut.to_eexp()?),
                arms.iter()
                    .map(|arm| {
                        Ok(CaseArm {
                            label: arm.label.clone(),
                            var: arm.var.clone(),
                            body: arm.body.to_eexp()?,
                        })
                    })
                    .collect::<Result<_, LivelitName>>()?,
            )),
            UExp::Nil(t) => Ok(EExp::Nil(t.clone())),
            UExp::Cons(a, b) => Ok(EExp::Cons(Box::new(a.to_eexp()?), Box::new(b.to_eexp()?))),
            UExp::ListCase(scrut, nil, h, t, cons) => Ok(EExp::ListCase(
                Box::new(scrut.to_eexp()?),
                Box::new(nil.to_eexp()?),
                h.clone(),
                t.clone(),
                Box::new(cons.to_eexp()?),
            )),
            UExp::Roll(t, e) => Ok(EExp::Roll(t.clone(), Box::new(e.to_eexp()?))),
            UExp::Unroll(e) => Ok(EExp::Unroll(Box::new(e.to_eexp()?))),
            UExp::Asc(e, t) => Ok(EExp::Asc(Box::new(e.to_eexp()?), t.clone())),
            UExp::EmptyHole(u) => Ok(EExp::EmptyHole(*u)),
            UExp::NonEmptyHole(u, e) => Ok(EExp::NonEmptyHole(*u, Box::new(e.to_eexp()?))),
            UExp::Livelit(ap) => Err(ap.name.clone()),
        }
    }

    /// Calls `f` on this expression and all subexpressions (pre-order),
    /// descending into splices.
    pub fn visit(&self, f: &mut impl FnMut(&UExp)) {
        use UExp::*;
        f(self);
        match self {
            Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | EmptyHole(_) => {}
            Lam(_, _, e)
            | Fix(_, _, e)
            | Proj(e, _)
            | Inj(_, _, e)
            | Roll(_, e)
            | Unroll(e)
            | Asc(e, _)
            | NonEmptyHole(_, e) => e.visit(f),
            Ap(a, b) | Bin(_, a, b) | Cons(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Let(_, _, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            If(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
            Tuple(fields) => {
                for (_, e) in fields {
                    e.visit(f);
                }
            }
            Case(scrut, arms) => {
                scrut.visit(f);
                for arm in arms {
                    arm.body.visit(f);
                }
            }
            ListCase(scrut, nil, _, _, cons) => {
                scrut.visit(f);
                nil.visit(f);
                cons.visit(f);
            }
            Livelit(ap) => {
                for splice in &ap.splices {
                    splice.exp.visit(f);
                }
            }
        }
    }

    /// Rewrites this expression bottom-up with `f` (applied post-order).
    pub fn map(&self, f: &mut impl FnMut(UExp) -> UExp) -> UExp {
        use UExp::*;
        let rebuilt = match self {
            Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | EmptyHole(_) => {
                self.clone()
            }
            Lam(x, t, e) => Lam(x.clone(), t.clone(), Box::new(e.map(f))),
            Fix(x, t, e) => Fix(x.clone(), t.clone(), Box::new(e.map(f))),
            Proj(e, l) => Proj(Box::new(e.map(f)), l.clone()),
            Inj(t, l, e) => Inj(t.clone(), l.clone(), Box::new(e.map(f))),
            Roll(t, e) => Roll(t.clone(), Box::new(e.map(f))),
            Unroll(e) => Unroll(Box::new(e.map(f))),
            Asc(e, t) => Asc(Box::new(e.map(f)), t.clone()),
            NonEmptyHole(u, e) => NonEmptyHole(*u, Box::new(e.map(f))),
            Ap(a, b) => Ap(Box::new(a.map(f)), Box::new(b.map(f))),
            Bin(op, a, b) => Bin(*op, Box::new(a.map(f)), Box::new(b.map(f))),
            Cons(a, b) => Cons(Box::new(a.map(f)), Box::new(b.map(f))),
            Let(x, t, a, b) => Let(x.clone(), t.clone(), Box::new(a.map(f)), Box::new(b.map(f))),
            If(c, t, e) => If(Box::new(c.map(f)), Box::new(t.map(f)), Box::new(e.map(f))),
            Tuple(fields) => Tuple(fields.iter().map(|(l, e)| (l.clone(), e.map(f))).collect()),
            Case(scrut, arms) => Case(
                Box::new(scrut.map(f)),
                arms.iter()
                    .map(|arm| UCaseArm {
                        label: arm.label.clone(),
                        var: arm.var.clone(),
                        body: arm.body.map(f),
                    })
                    .collect(),
            ),
            ListCase(scrut, nil, h, t, cons) => ListCase(
                Box::new(scrut.map(f)),
                Box::new(nil.map(f)),
                h.clone(),
                t.clone(),
                Box::new(cons.map(f)),
            ),
            Livelit(ap) => Livelit(Box::new(LivelitAp {
                name: ap.name.clone(),
                model: ap.model.clone(),
                splices: ap
                    .splices
                    .iter()
                    .map(|s| Splice::new(s.exp.map(f), s.ty.clone()))
                    .collect(),
                hole: ap.hole,
            })),
        };
        f(rebuilt)
    }

    /// All livelit invocations in this expression, pre-order, including
    /// those nested in splices.
    pub fn livelit_aps(&self) -> Vec<&LivelitAp> {
        let mut out = Vec::new();
        collect_livelits(self, &mut out);
        out
    }

    /// All hole names used anywhere in this expression (holes and livelit
    /// invocation holes), for fresh-name generation.
    pub fn hole_names(&self) -> BTreeSet<HoleName> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| match e {
            UExp::EmptyHole(u) | UExp::NonEmptyHole(u, _) => {
                out.insert(*u);
            }
            UExp::Livelit(ap) => {
                out.insert(ap.hole);
            }
            _ => {}
        });
        out
    }

    /// A hole name strictly greater than any used in this expression.
    pub fn next_hole_name(&self) -> HoleName {
        HoleName(self.hole_names().iter().map(|u| u.0 + 1).max().unwrap_or(0))
    }

    /// The nesting depth: the number of nodes on the longest path from this
    /// node down to a leaf, splices included.
    pub fn depth(&self) -> usize {
        use UExp::*;
        1 + match self {
            Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | EmptyHole(_) => 0,
            Lam(_, _, e)
            | Fix(_, _, e)
            | Proj(e, _)
            | Inj(_, _, e)
            | Roll(_, e)
            | Unroll(e)
            | Asc(e, _)
            | NonEmptyHole(_, e) => e.depth(),
            Ap(a, b) | Bin(_, a, b) | Cons(a, b) | Let(_, _, a, b) => a.depth().max(b.depth()),
            If(a, b, c) | ListCase(a, b, _, _, c) => a.depth().max(b.depth()).max(c.depth()),
            Tuple(fields) => fields.iter().map(|(_, e)| e.depth()).max().unwrap_or(0),
            Case(scrut, arms) => arms
                .iter()
                .map(|arm| arm.body.depth())
                .fold(scrut.depth(), usize::max),
            Livelit(ap) => ap.splices.iter().map(|s| s.exp.depth()).max().unwrap_or(0),
        }
    }

    /// The number of AST nodes (splices included).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

fn collect_livelits<'a>(e: &'a UExp, out: &mut Vec<&'a LivelitAp>) {
    // `visit` cannot return references into nested boxes with the right
    // lifetime through a closure, so livelit collection is a direct
    // traversal.
    use UExp::*;
    match e {
        Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) | EmptyHole(_) => {}
        Lam(_, _, b)
        | Fix(_, _, b)
        | Proj(b, _)
        | Inj(_, _, b)
        | Roll(_, b)
        | Unroll(b)
        | Asc(b, _)
        | NonEmptyHole(_, b) => collect_livelits(b, out),
        Ap(a, b) | Bin(_, a, b) | Cons(a, b) => {
            collect_livelits(a, out);
            collect_livelits(b, out);
        }
        Let(_, _, a, b) => {
            collect_livelits(a, out);
            collect_livelits(b, out);
        }
        If(c, t, e2) => {
            collect_livelits(c, out);
            collect_livelits(t, out);
            collect_livelits(e2, out);
        }
        Tuple(fields) => {
            for (_, e2) in fields {
                collect_livelits(e2, out);
            }
        }
        Case(scrut, arms) => {
            collect_livelits(scrut, out);
            for arm in arms {
                collect_livelits(&arm.body, out);
            }
        }
        ListCase(scrut, nil, _, _, cons) => {
            collect_livelits(scrut, out);
            collect_livelits(nil, out);
            collect_livelits(cons, out);
        }
        Livelit(ap) => {
            out.push(ap);
            for splice in &ap.splices {
                collect_livelits(&splice.exp, out);
            }
        }
    }
}

impl From<EExp> for UExp {
    fn from(e: EExp) -> UExp {
        UExp::from_eexp(&e)
    }
}

impl fmt::Display for UExp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::print_uexp(self, 80))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    fn color_invocation() -> UExp {
        UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$color"),
            model: IExp::Unit,
            splices: vec![
                Splice::new(UExp::Int(57), Typ::Int),
                Splice::new(UExp::Int(107), Typ::Int),
            ],
            hole: HoleName(0),
        }))
    }

    #[test]
    fn eexp_roundtrips_through_uexp() {
        let e = elet("x", int(1), add(var("x"), int(2)));
        let u = UExp::from_eexp(&e);
        assert_eq!(u.to_eexp().expect("no livelits"), e);
    }

    #[test]
    fn to_eexp_rejects_livelits() {
        let u = color_invocation();
        assert_eq!(u.to_eexp().unwrap_err(), LivelitName::new("color"));
    }

    #[test]
    fn livelit_aps_finds_nested_invocations() {
        // A livelit whose splice contains another livelit (Fig. 1b: $percent
        // inside $color's alpha splice).
        let inner = color_invocation();
        let outer = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$outer"),
            model: IExp::Unit,
            splices: vec![Splice::new(inner, Typ::Int)],
            hole: HoleName(1),
        }));
        let aps = outer.livelit_aps();
        assert_eq!(aps.len(), 2);
        assert_eq!(aps[0].name, LivelitName::new("outer"));
        assert_eq!(aps[1].name, LivelitName::new("color"));
    }

    #[test]
    fn next_hole_name_is_fresh() {
        let u = UExp::Tuple(vec![
            (Label::positional(0), UExp::EmptyHole(HoleName(4))),
            (Label::positional(1), color_invocation()),
        ]);
        assert_eq!(u.next_hole_name(), HoleName(5));
        assert_eq!(UExp::Int(1).next_hole_name(), HoleName(0));
    }

    #[test]
    fn map_rewrites_inside_splices() {
        let u = color_invocation();
        let doubled = u.map(&mut |e| match e {
            UExp::Int(n) => UExp::Int(n * 2),
            other => other,
        });
        match doubled {
            UExp::Livelit(ap) => {
                assert_eq!(ap.splices[0].exp, UExp::Int(114));
                assert_eq!(ap.splices[1].exp, UExp::Int(214));
            }
            other => panic!("expected livelit, got {other:?}"),
        }
    }
}
