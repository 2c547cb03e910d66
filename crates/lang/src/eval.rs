//! Big-step evaluation of internal expressions: `d ⇓ d′` (Sec. 4.1).
//!
//! Evaluation is substitution-based and call-by-value, and — following
//! Hazelnut Live — proceeds *around* holes: an elimination form whose
//! principal position is indeterminate becomes an indeterminate (but final)
//! expression rather than an error. Each substitution that occurs around a
//! hole closure is recorded in the closure's substitution σ; those recorded
//! environments are what closure collection (Sec. 4.3) harvests.
//!
//! Evaluation is fuel-limited so that divergent fixpoints surface as
//! [`EvalError::OutOfFuel`] rather than hanging the editor.
//!
//! [`Evaluator`] transcribes the rules directly and recurses on redex
//! depth; it is the specification the tests hold the environment machine
//! to. Production code evaluates through [`eval_traced`], which runs
//! [`crate::machine::MachineEvaluator`] on the caller's thread.

use std::fmt;

use crate::final_form::is_final;
use crate::internal::{IExp, Sigma};
use crate::ops::BinOp;
use crate::store::TermStore;

/// Default evaluation fuel (number of recursive evaluation steps).
pub const DEFAULT_FUEL: u64 = 4_000_000;

/// A run-time error.
///
/// In Hazel proper, run-time errors manifest as run-time holes (Sec. 5.1);
/// the editor layer converts these errors into non-empty holes. The calculus
/// core reports them directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Evaluation exceeded its fuel; the program may diverge.
    OutOfFuel,
    /// Integer division by zero.
    DivisionByZero,
    /// A free variable was encountered — the input was not closed.
    FreeVariable(crate::ident::Var),
    /// An invariant of well-typed programs was violated (e.g. applying an
    /// integer). Reaching this from a type-checked program is a bug; it is
    /// reachable when evaluating unchecked expansions, which is why
    /// expansion validation (premise 5 of ELivelit) exists.
    IllTyped(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::OutOfFuel => write!(f, "evaluation ran out of fuel"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::FreeVariable(x) => write!(f, "free variable {x} during evaluation"),
            EvalError::IllTyped(msg) => write!(f, "ill-typed expression during evaluation: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The fuel-limited tree evaluator: the specification (see the module
/// docs).
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

    /// The number of evaluation steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
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
        let mut out = std::collections::BTreeMap::new();
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

/// Evaluates `d` with an explicit fuel budget under a `"eval"` trace span,
/// reporting the consumed steps to the
/// [`EvalSteps`](livelit_trace::Counter::EvalSteps) counter.
///
/// This is the entry point every production evaluation routes through. It
/// interns `d` into a fresh [`TermStore`], runs the environment machine
/// ([`crate::machine::MachineEvaluator`]) on the caller's thread, and
/// converts the result back to a tree. The machine keeps its control
/// state on an explicit frame arena, so deep object-language recursion
/// never grows the host stack. The result is bit-identical to
/// [`Evaluator::eval`]'s, including recorded σ and step counts
/// (property-tested in the integration suite).
///
/// # Errors
///
/// See [`EvalError`].
pub fn eval_traced(d: &IExp, fuel: u64) -> Result<IExp, EvalError> {
    let mut store = TermStore::new();
    let t = store.intern_iexp(d);
    let result = {
        let _span = livelit_trace::span("eval");
        let mut evaluator = crate::machine::MachineEvaluator::with_fuel(&mut store, fuel);
        let result = evaluator.eval(t);
        livelit_trace::count(livelit_trace::Counter::EvalSteps, evaluator.steps());
        report_machine_counters(evaluator.counters());
        store.report_trace_counters();
        result
    };
    result.map(|id| store.to_iexp(id))
}

/// Reports machine work counters to the trace layer (zero counters are
/// skipped, so traces carry no zero-delta events).
pub fn report_machine_counters(c: crate::machine::MachineCounters) {
    if c.transitions > 0 {
        livelit_trace::count(livelit_trace::Counter::MachineSteps, c.transitions);
    }
    if c.allocs > 0 {
        livelit_trace::count(livelit_trace::Counter::MachineAllocs, c.allocs);
    }
    if c.env_reuse > 0 {
        livelit_trace::count(livelit_trace::Counter::MachineEnvReuse, c.env_reuse);
    }
}

/// Evaluates `d` with the default fuel budget on the tree evaluator — the
/// spec oracle the tests compare the machine against.
///
/// The tree evaluator recurses on redex depth; production code evaluates
/// through [`eval_traced`], whose machine never grows the host stack.
///
/// # Errors
///
/// See [`EvalError`].
pub fn eval(d: &IExp) -> Result<IExp, EvalError> {
    Evaluator::with_fuel(DEFAULT_FUEL).eval(d)
}

/// Hole filling `⟦d_fill/u⟧d` (Sec. 4.3.2).
///
/// Every closure for hole `u` in `d` is replaced by `d_fill` with the
/// closure's recorded environment applied as a substitution — "the delayed
/// substitutions captured in the environment are realized". Unlike
/// substitution, hole filling is not capture-avoiding; in the livelit
/// setting the filled term is a closed parameterized expansion, so filling
/// amounts to syntactic replacement plus environment application.
///
/// `d_fill` must not itself contain holes named `u`.
pub fn fill(d: &IExp, u: crate::ident::HoleName, d_fill: &IExp) -> IExp {
    use IExp::*;
    match d {
        EmptyHole(u2, sigma) if *u2 == u => {
            let sigma = sigma.map_codomain(|e| fill(e, u, d_fill));
            sigma.apply(d_fill)
        }
        EmptyHole(u2, sigma) => EmptyHole(*u2, sigma.map_codomain(|e| fill(e, u, d_fill))),
        NonEmptyHole(u2, sigma, inner) => NonEmptyHole(
            *u2,
            sigma.map_codomain(|e| fill(e, u, d_fill)),
            Box::new(fill(inner, u, d_fill)),
        ),
        Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) => d.clone(),
        Lam(x, t, b) => Lam(x.clone(), t.clone(), Box::new(fill(b, u, d_fill))),
        Fix(x, t, b) => Fix(x.clone(), t.clone(), Box::new(fill(b, u, d_fill))),
        Ap(a, b) => Ap(Box::new(fill(a, u, d_fill)), Box::new(fill(b, u, d_fill))),
        Bin(op, a, b) => Bin(
            *op,
            Box::new(fill(a, u, d_fill)),
            Box::new(fill(b, u, d_fill)),
        ),
        If(c, t, e) => If(
            Box::new(fill(c, u, d_fill)),
            Box::new(fill(t, u, d_fill)),
            Box::new(fill(e, u, d_fill)),
        ),
        Tuple(fields) => Tuple(
            fields
                .iter()
                .map(|(l, e)| (l.clone(), fill(e, u, d_fill)))
                .collect(),
        ),
        Proj(e, l) => Proj(Box::new(fill(e, u, d_fill)), l.clone()),
        Inj(t, l, e) => Inj(t.clone(), l.clone(), Box::new(fill(e, u, d_fill))),
        Case(scrut, arms) => Case(
            Box::new(fill(scrut, u, d_fill)),
            arms.iter()
                .map(|arm| crate::internal::ICaseArm {
                    label: arm.label.clone(),
                    var: arm.var.clone(),
                    body: fill(&arm.body, u, d_fill),
                })
                .collect(),
        ),
        Cons(a, b) => Cons(Box::new(fill(a, u, d_fill)), Box::new(fill(b, u, d_fill))),
        ListCase(scrut, nil, h, t, cons) => ListCase(
            Box::new(fill(scrut, u, d_fill)),
            Box::new(fill(nil, u, d_fill)),
            h.clone(),
            t.clone(),
            Box::new(fill(cons, u, d_fill)),
        ),
        Roll(t, e) => Roll(t.clone(), Box::new(fill(e, u, d_fill))),
        Unroll(e) => Unroll(Box::new(fill(e, u, d_fill))),
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
                    Ok(crate::internal::ICaseArm {
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
            let mut out = std::collections::BTreeMap::new();
            for (x, entry) in sigma.iter() {
                out.insert(x.clone(), normalize(entry, fuel)?);
            }
            EmptyHole(*u, Sigma(out))
        }
        NonEmptyHole(u, sigma, inner) => {
            let mut out = std::collections::BTreeMap::new();
            for (x, entry) in sigma.iter() {
                out.insert(x.clone(), normalize(entry, fuel)?);
            }
            NonEmptyHole(*u, Sigma(out), Box::new(normalize(inner, fuel)?))
        }
    })
}

/// Applies [`fill`] for every `(u, d_fill)` pair in `fills`.
pub fn fill_all(
    d: &IExp,
    fills: &std::collections::BTreeMap<crate::ident::HoleName, IExp>,
) -> IExp {
    let mut out = d.clone();
    for (u, d_fill) in fills {
        out = fill(&out, *u, d_fill);
    }
    out
}

/// Environment resumption `resume(σ)` (Def. 4.7): resumes evaluation for
/// all *closed* expressions in σ; open entries (identity mappings under
/// binders that were never applied) are left as-is.
///
/// # Errors
///
/// Propagates evaluation errors from resumed entries.
pub fn resume_sigma(sigma: &Sigma, fuel: u64) -> Result<Sigma, EvalError> {
    let mut out = std::collections::BTreeMap::new();
    for (x, d) in sigma.iter() {
        let resumed = resume(d, fuel)?;
        out.insert(x.clone(), resumed);
    }
    Ok(Sigma(out))
}

/// [`resume_sigma`] on the environment machine, reporting the machine work
/// counters it accumulated (including those of a failing entry) to the
/// trace layer.
///
/// Results are bit-identical to [`resume_sigma`]'s (property-tested). Each
/// entry gets a fresh `fuel` budget, exactly as [`resume`] gives each entry
/// a fresh evaluator.
///
/// # Errors
///
/// Propagates evaluation errors from resumed entries.
pub fn resume_sigma_counted(sigma: &Sigma, fuel: u64) -> Result<Sigma, EvalError> {
    let mut counters = crate::machine::MachineCounters::default();
    let mut store = TermStore::new();
    let mut resume_entry = |d: &IExp| {
        if !d.is_closed() {
            return Ok(d.clone());
        }
        let t = store.intern_iexp(d);
        let mut machine = crate::machine::MachineEvaluator::with_fuel(&mut store, fuel);
        let result = machine.eval(t);
        counters.merge(machine.counters());
        result.map(|id| store.to_iexp(id))
    };
    let resumed: Result<std::collections::BTreeMap<_, _>, EvalError> = sigma
        .iter()
        .map(|(x, d)| Ok((x.clone(), resume_entry(d)?)))
        .collect();
    report_machine_counters(counters);
    resumed.map(Sigma)
}

/// Expression resumption (Def. 4.7, clauses 2 and 3): evaluates `d` if it
/// is closed, otherwise returns it unchanged.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn resume(d: &IExp, fuel: u64) -> Result<IExp, EvalError> {
    if d.is_closed() {
        Evaluator::with_fuel(fuel).eval(d)
    } else {
        Ok(d.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::elab::elab_syn;
    use crate::final_form::{is_indet, is_value};
    use crate::ident::{HoleName, Var};
    use crate::typ::Typ;
    use crate::typing::Ctx;

    fn run(e: &crate::external::EExp) -> IExp {
        let (d, _, _) = elab_syn(&Ctx::empty(), e).expect("elaborates");
        eval(&d).expect("evaluates")
    }

    #[test]
    fn arithmetic_evaluates() {
        assert_eq!(run(&add(int(2), mul(int(3), int(4)))), IExp::Int(14));
        assert_eq!(run(&fadd(float(1.5), float(2.5))), IExp::Float(4.0));
        assert_eq!(
            run(&bin(crate::ops::BinOp::Concat, string("a"), string("b"))),
            IExp::Str("ab".into())
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let (d, _, _) =
            elab_syn(&Ctx::empty(), &bin(crate::ops::BinOp::Div, int(1), int(0))).unwrap();
        assert_eq!(eval(&d), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn beta_reduction() {
        let e = ap(lam("x", Typ::Int, add(var("x"), var("x"))), int(21));
        assert_eq!(run(&e), IExp::Int(42));
    }

    #[test]
    fn evaluation_proceeds_around_holes() {
        // (2 + ⦇⦈0) * 1 evaluates... actually: (fun x -> x + ⦇⦈) 2
        let e = ap(
            lam("x", Typ::Int, add(var("x"), asc(hole(0), Typ::Int))),
            int(2),
        );
        let result = run(&e);
        assert!(is_indet(&result));
        // The hole closure recorded x ↦ 2.
        let closures = result.hole_closures();
        assert_eq!(closures.len(), 1);
        assert_eq!(closures[0].1.get(&Var::new("x")), Some(&IExp::Int(2)));
    }

    #[test]
    fn paper_example_closure_recording() {
        // (λx.⦇⦈u) 5 ⇓ ⦇⦈⟨u;[5/x]⟩  (Sec. 4.1)
        let e = ap(lam("x", Typ::Int, asc(hole(0), Typ::Int)), int(5));
        let result = run(&e);
        match &result {
            IExp::EmptyHole(u, sigma) => {
                assert_eq!(*u, HoleName(0));
                assert_eq!(sigma.get(&Var::new("x")), Some(&IExp::Int(5)));
            }
            other => panic!("expected hole closure, got {other:?}"),
        }
    }

    #[test]
    fn recursion_via_fix() {
        // factorial 5 = 120
        let fty = Typ::arrow(Typ::Int, Typ::Int);
        let fact = letrec(
            "fact",
            fty,
            lam(
                "n",
                Typ::Int,
                ite(
                    bin(crate::ops::BinOp::Le, var("n"), int(0)),
                    int(1),
                    mul(var("n"), ap(var("fact"), sub(var("n"), int(1)))),
                ),
            ),
            ap(var("fact"), int(5)),
        );
        assert_eq!(run(&fact), IExp::Int(120));
    }

    #[test]
    fn divergence_runs_out_of_fuel() {
        let fty = Typ::arrow(Typ::Int, Typ::Int);
        let omega = letrec(
            "f",
            fty,
            lam("n", Typ::Int, ap(var("f"), var("n"))),
            ap(var("f"), int(0)),
        );
        let (d, _, _) = elab_syn(&Ctx::empty(), &omega).unwrap();
        assert_eq!(eval_traced(&d, 10_000), Err(EvalError::OutOfFuel));
    }

    #[test]
    fn if_on_hole_is_indet_with_branches_preserved() {
        let e = ite(asc(hole(0), Typ::Bool), int(1), int(2));
        let result = run(&e);
        match &result {
            IExp::If(c, t, f) => {
                assert!(is_indet(c));
                assert_eq!(**t, IExp::Int(1));
                assert_eq!(**f, IExp::Int(2));
            }
            other => panic!("expected stuck if, got {other:?}"),
        }
    }

    #[test]
    fn case_dispatches_on_injection() {
        let opt = Typ::sum([
            (crate::ident::Label::new("Some"), Typ::Int),
            (crate::ident::Label::new("None"), Typ::Unit),
        ]);
        let e = case(
            inj(opt, "Some", int(5)),
            [("Some", "n", add(var("n"), int(1))), ("None", "w", int(0))],
        );
        assert_eq!(run(&e), IExp::Int(6));
    }

    #[test]
    fn list_case_recursion() {
        // sum [1,2,3] = 6
        let sum_ty = Typ::arrow(Typ::list(Typ::Int), Typ::Int);
        let e = letrec(
            "sum",
            sum_ty,
            lam(
                "xs",
                Typ::list(Typ::Int),
                lcase(
                    var("xs"),
                    int(0),
                    "h",
                    "t",
                    add(var("h"), ap(var("sum"), var("t"))),
                ),
            ),
            ap(var("sum"), list(Typ::Int, [int(1), int(2), int(3)])),
        );
        assert_eq!(run(&e), IExp::Int(6));
    }

    #[test]
    fn projection_out_of_indet_tuple_extracts() {
        // ((fun x -> (x, ⦇⦈)) 1)._0 ⇓ 1 even though the tuple is indet.
        let e = proj(
            ap(
                lam("x", Typ::Int, tuple([var("x"), asc(hole(0), Typ::Int)])),
                int(1),
            ),
            "_0",
        );
        assert_eq!(run(&e), IExp::Int(1));
    }

    #[test]
    fn fill_realizes_delayed_substitution() {
        // Evaluate (λx.⦇⦈u) 5, then fill u with x+1: result must be 5+1.
        let e = ap(lam("x", Typ::Int, asc(hole(0), Typ::Int)), int(5));
        let stuck = run(&e);
        let filled = fill(
            &stuck,
            HoleName(0),
            &IExp::Bin(
                crate::ops::BinOp::Add,
                Box::new(IExp::Var(Var::new("x"))),
                Box::new(IExp::Int(1)),
            ),
        );
        assert_eq!(eval(&filled).unwrap(), IExp::Int(6));
    }

    #[test]
    fn evaluation_commutes_with_hole_filling() {
        // The linchpin of Thm 4.9: fill-then-eval == eval-then-fill-then-eval
        let e = add(
            mul(int(3), asc(hole(0), Typ::Int)),
            ap(
                lam("y", Typ::Int, add(var("y"), asc(hole(1), Typ::Int))),
                int(10),
            ),
        );
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).unwrap();
        let fill0 = IExp::Int(7);
        let fill1 = IExp::Var(Var::new("y"));

        // Path A: fill first, then evaluate.
        let a = eval(&fill(&fill(&d, HoleName(0), &fill0), HoleName(1), &fill1)).unwrap();
        // Path B: evaluate, then fill, then resume.
        let stuck = eval(&d).unwrap();
        let b = eval(&fill(
            &fill(&stuck, HoleName(0), &fill0),
            HoleName(1),
            &fill1,
        ))
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, IExp::Int(3 * 7 + 10 + 10));
    }

    #[test]
    fn resume_evaluates_closed_entries_only() {
        let sigma = Sigma::from_iter([
            (
                Var::new("done"),
                IExp::Bin(
                    crate::ops::BinOp::Add,
                    Box::new(IExp::Int(1)),
                    Box::new(IExp::Int(2)),
                ),
            ),
            (Var::new("open"), IExp::Var(Var::new("open"))),
        ]);
        let resumed = resume_sigma(&sigma, DEFAULT_FUEL).unwrap();
        assert_eq!(
            resume_sigma_counted(&sigma, DEFAULT_FUEL),
            Ok(resumed.clone())
        );
        assert_eq!(resumed.get(&Var::new("done")), Some(&IExp::Int(3)));
        assert_eq!(
            resumed.get(&Var::new("open")),
            Some(&IExp::Var(Var::new("open")))
        );
    }

    #[test]
    fn results_are_final() {
        let samples = [
            add(int(1), int(2)),
            ap(lam("x", Typ::Int, var("x")), int(3)),
            add(int(1), asc(hole(0), Typ::Int)),
            tuple([int(1), asc(hole(1), Typ::Bool)]),
        ];
        for e in &samples {
            let result = run(e);
            assert!(
                is_value(&result) || is_indet(&result),
                "non-final result {result:?} for {e:?}"
            );
        }
    }
}
