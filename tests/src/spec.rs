//! The substitution-based tree evaluator: the specification of `d ⇓ d′`
//! (Sec. 4.1) that the suites and benches hold the environment machine
//! to.
//!
//! [`Evaluator`] transcribes the big-step rules directly: it substitutes
//! at every β/fix/case step and recurses on redex depth, so deep programs
//! need [`crate::on_big_stack`]. Its fuel counts recursive evaluation
//! steps, not machine transitions, so only results and error classes are
//! comparable across the two evaluators, never fuel exhaustion points.
//! Production code evaluates on [`hazel::lang::machine::MachineEvaluator`]
//! only.

use std::collections::BTreeMap;

use hazel::lang::eval::EvalError;
use hazel::lang::final_form::is_final;
use hazel::lang::internal::{ICaseArm, IExp, Sigma};
use hazel::lang::ops::BinOp;

/// The fuel-limited tree evaluator: the specification (see the module
/// docs). Its fuel counts recursive evaluation steps.
#[derive(Debug, Clone)]
pub struct Evaluator {
    fuel: u64,
    steps: u64,
}

impl Evaluator {
    /// Creates an evaluator with the given fuel budget.
    pub fn with_fuel(fuel: u64) -> Evaluator {
        Evaluator { fuel, steps: 0 }
    }

    /// Evaluates `d` to a final expression.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn eval(&mut self, d: &IExp) -> Result<IExp, EvalError> {
        self.steps += 1;
        if self.steps > self.fuel {
            return Err(EvalError::OutOfFuel);
        }
        use IExp::*;
        match d {
            Var(x) => Err(EvalError::FreeVariable(x.clone())),
            Lam(..) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) => Ok(d.clone()),
            Fix(x, _, body) => {
                // fix x.d ⇓ [fix x.d / x]d ⇓ ...
                let unrolled = body.subst(x, d);
                self.eval(&unrolled)
            }
            Ap(f, a) => {
                let df = self.eval(f)?;
                let da = self.eval(a)?;
                match df {
                    Lam(x, _, body) => {
                        let applied = body.subst(&x, &da);
                        self.eval(&applied)
                    }
                    _ if is_final(&df) => Ok(Ap(Box::new(df), Box::new(da))),
                    other => Err(EvalError::IllTyped(format!(
                        "application of non-function: {other:?}"
                    ))),
                }
            }
            Bin(op, a, b) => {
                let da = self.eval(a)?;
                let db = self.eval(b)?;
                eval_bin(*op, da, db)
            }
            If(c, t, e) => {
                let dc = self.eval(c)?;
                match dc {
                    Bool(true) => self.eval(t),
                    Bool(false) => self.eval(e),
                    _ if is_final(&dc) => {
                        // Branches are preserved unevaluated (they may be
                        // open under nothing, but evaluating both would
                        // change cost and termination behavior).
                        Ok(If(Box::new(dc), t.clone(), e.clone()))
                    }
                    other => Err(EvalError::IllTyped(format!("if on non-boolean: {other:?}"))),
                }
            }
            Tuple(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (l, e) in fields {
                    out.push((l.clone(), self.eval(e)?));
                }
                Ok(Tuple(out))
            }
            Proj(scrut, l) => {
                let ds = self.eval(scrut)?;
                match ds {
                    Tuple(fields) => fields
                        .into_iter()
                        .find(|(fl, _)| fl == l)
                        .map(|(_, e)| e)
                        .ok_or_else(|| EvalError::IllTyped(format!("projection .{l} missing"))),
                    _ if is_final(&ds) => Ok(Proj(Box::new(ds), l.clone())),
                    other => Err(EvalError::IllTyped(format!(
                        "projection from non-tuple: {other:?}"
                    ))),
                }
            }
            Inj(t, l, e) => {
                let de = self.eval(e)?;
                Ok(Inj(t.clone(), l.clone(), Box::new(de)))
            }
            Case(scrut, arms) => {
                let ds = self.eval(scrut)?;
                match &ds {
                    Inj(_, l, payload) => {
                        let arm = arms
                            .iter()
                            .find(|arm| &arm.label == l)
                            .ok_or_else(|| EvalError::IllTyped(format!("no case arm for .{l}")))?;
                        let body = arm.body.subst(&arm.var, payload);
                        self.eval(&body)
                    }
                    _ if is_final(&ds) => Ok(Case(Box::new(ds), arms.clone())),
                    other => Err(EvalError::IllTyped(format!(
                        "case on non-injection: {other:?}"
                    ))),
                }
            }
            Cons(h, t) => {
                let dh = self.eval(h)?;
                let dt = self.eval(t)?;
                Ok(Cons(Box::new(dh), Box::new(dt)))
            }
            ListCase(scrut, nil, hv, tv, cons) => {
                let ds = self.eval(scrut)?;
                match ds {
                    Nil(_) => self.eval(nil),
                    Cons(h, t) => {
                        let body = cons.subst(hv, &h).subst(tv, &t);
                        self.eval(&body)
                    }
                    _ if is_final(&ds) => Ok(ListCase(
                        Box::new(ds),
                        nil.clone(),
                        hv.clone(),
                        tv.clone(),
                        cons.clone(),
                    )),
                    other => Err(EvalError::IllTyped(format!(
                        "list case on non-list: {other:?}"
                    ))),
                }
            }
            Roll(t, e) => {
                let de = self.eval(e)?;
                Ok(Roll(t.clone(), Box::new(de)))
            }
            Unroll(e) => {
                let de = self.eval(e)?;
                match de {
                    Roll(_, inner) => Ok(*inner),
                    _ if is_final(&de) => Ok(Unroll(Box::new(de))),
                    other => Err(EvalError::IllTyped(format!(
                        "unroll of non-roll: {other:?}"
                    ))),
                }
            }
            // Hole closures are final, but their recorded environments are
            // part of the result: closed entries are kept evaluated
            // (environment resumption, Def. 4.7, is folded into evaluation
            // so that fill-and-resume normalizes entries that hole filling
            // turned into redexes). Open entries — identity mappings under
            // binders that were never applied — are left as-is.
            EmptyHole(u, sigma) => Ok(EmptyHole(*u, self.eval_sigma(sigma)?)),
            NonEmptyHole(u, sigma, inner) => {
                let sigma = self.eval_sigma(sigma)?;
                let dinner = self.eval(inner)?;
                Ok(NonEmptyHole(*u, sigma, Box::new(dinner)))
            }
        }
    }
}

impl Evaluator {
    /// Evaluates the closed entries of a hole closure's environment
    /// (Def. 4.7 clauses 2–3, folded into evaluation).
    fn eval_sigma(&mut self, sigma: &Sigma) -> Result<Sigma, EvalError> {
        let mut out = BTreeMap::new();
        for (x, entry) in sigma.iter() {
            let v = if entry.is_closed() {
                self.eval(entry)?
            } else {
                entry.clone()
            };
            out.insert(x.clone(), v);
        }
        Ok(Sigma(out))
    }
}

fn eval_bin(op: BinOp, da: IExp, db: IExp) -> Result<IExp, EvalError> {
    use IExp::*;
    match (op, &da, &db) {
        (BinOp::Add, Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
        (BinOp::Sub, Int(a), Int(b)) => Ok(Int(a.wrapping_sub(*b))),
        (BinOp::Mul, Int(a), Int(b)) => Ok(Int(a.wrapping_mul(*b))),
        (BinOp::Div, Int(_), Int(0)) => Err(EvalError::DivisionByZero),
        (BinOp::Div, Int(a), Int(b)) => Ok(Int(a.wrapping_div(*b))),
        (BinOp::FAdd, Float(a), Float(b)) => Ok(Float(a + b)),
        (BinOp::FSub, Float(a), Float(b)) => Ok(Float(a - b)),
        (BinOp::FMul, Float(a), Float(b)) => Ok(Float(a * b)),
        (BinOp::FDiv, Float(a), Float(b)) => Ok(Float(a / b)),
        (BinOp::Lt, Int(a), Int(b)) => Ok(Bool(a < b)),
        (BinOp::Le, Int(a), Int(b)) => Ok(Bool(a <= b)),
        (BinOp::Gt, Int(a), Int(b)) => Ok(Bool(a > b)),
        (BinOp::Ge, Int(a), Int(b)) => Ok(Bool(a >= b)),
        (BinOp::Eq, Int(a), Int(b)) => Ok(Bool(a == b)),
        (BinOp::FLt, Float(a), Float(b)) => Ok(Bool(a < b)),
        (BinOp::FLe, Float(a), Float(b)) => Ok(Bool(a <= b)),
        (BinOp::FGt, Float(a), Float(b)) => Ok(Bool(a > b)),
        (BinOp::FGe, Float(a), Float(b)) => Ok(Bool(a >= b)),
        (BinOp::FEq, Float(a), Float(b)) => Ok(Bool(a == b)),
        (BinOp::And, Bool(a), Bool(b)) => Ok(Bool(*a && *b)),
        (BinOp::Or, Bool(a), Bool(b)) => Ok(Bool(*a || *b)),
        (BinOp::Concat, Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
        (BinOp::StrEq, Str(a), Str(b)) => Ok(Bool(a == b)),
        _ => {
            if is_final(&da) && is_final(&db) {
                Ok(Bin(op, Box::new(da), Box::new(db)))
            } else {
                Err(EvalError::IllTyped(format!(
                    "binary op {op} on {da:?} and {db:?}"
                )))
            }
        }
    }
}

/// Deeply normalizes `d`: evaluates it if closed, then recursively
/// normalizes every subterm (including hole-closure environments, stuck
/// branch bodies, and other positions big-step evaluation does not reach).
///
/// Evaluation results may contain redexes in unevaluatable positions after
/// hole filling — e.g. inside the arms of a `case` stuck on a hole, where
/// `fillΩ` replaced a livelit hole with its parameterized expansion. Those
/// redexes reduce as soon as the position is forced, so results related by
/// Theorem 4.9 (post-collection resumption) are equal *up to* this
/// normalization; executable statements of that theorem compare
/// `normalize`d results.
///
/// # Errors
///
/// See [`EvalError`].
pub fn normalize(d: &IExp, fuel: u64) -> Result<IExp, EvalError> {
    use IExp::*;
    let d = if d.is_closed() {
        Evaluator::with_fuel(fuel).eval(d)?
    } else {
        d.clone()
    };
    Ok(match &d {
        Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) => d.clone(),
        Lam(x, t, b) => Lam(x.clone(), t.clone(), Box::new(normalize(b, fuel)?)),
        Fix(x, t, b) => Fix(x.clone(), t.clone(), Box::new(normalize(b, fuel)?)),
        Ap(a, b) => Ap(Box::new(normalize(a, fuel)?), Box::new(normalize(b, fuel)?)),
        Bin(op, a, b) => Bin(
            *op,
            Box::new(normalize(a, fuel)?),
            Box::new(normalize(b, fuel)?),
        ),
        If(c, t, e) => If(
            Box::new(normalize(c, fuel)?),
            Box::new(normalize(t, fuel)?),
            Box::new(normalize(e, fuel)?),
        ),
        Tuple(fields) => Tuple(
            fields
                .iter()
                .map(|(l, e)| Ok((l.clone(), normalize(e, fuel)?)))
                .collect::<Result<_, EvalError>>()?,
        ),
        Proj(e, l) => Proj(Box::new(normalize(e, fuel)?), l.clone()),
        Inj(t, l, e) => Inj(t.clone(), l.clone(), Box::new(normalize(e, fuel)?)),
        Case(scrut, arms) => Case(
            Box::new(normalize(scrut, fuel)?),
            arms.iter()
                .map(|arm| {
                    Ok(ICaseArm {
                        label: arm.label.clone(),
                        var: arm.var.clone(),
                        body: normalize(&arm.body, fuel)?,
                    })
                })
                .collect::<Result<_, EvalError>>()?,
        ),
        Cons(a, b) => Cons(Box::new(normalize(a, fuel)?), Box::new(normalize(b, fuel)?)),
        ListCase(scrut, nil, h, t, cons) => ListCase(
            Box::new(normalize(scrut, fuel)?),
            Box::new(normalize(nil, fuel)?),
            h.clone(),
            t.clone(),
            Box::new(normalize(cons, fuel)?),
        ),
        Roll(t, e) => Roll(t.clone(), Box::new(normalize(e, fuel)?)),
        Unroll(e) => Unroll(Box::new(normalize(e, fuel)?)),
        EmptyHole(u, sigma) => {
            let mut out = BTreeMap::new();
            for (x, entry) in sigma.iter() {
                out.insert(x.clone(), normalize(entry, fuel)?);
            }
            EmptyHole(*u, Sigma(out))
        }
        NonEmptyHole(u, sigma, inner) => {
            let mut out = BTreeMap::new();
            for (x, entry) in sigma.iter() {
                out.insert(x.clone(), normalize(entry, fuel)?);
            }
            NonEmptyHole(*u, Sigma(out), Box::new(normalize(inner, fuel)?))
        }
    })
}
