//! Evaluation of internal expressions, `d ⇓ d′` (Sec. 4.1), plus hole
//! filling and resumption (Sec. 4.3.2).
//!
//! Evaluation is call-by-value and — following Hazelnut Live — proceeds
//! *around* holes: an elimination form whose principal position is
//! indeterminate becomes an indeterminate (but final) expression rather
//! than an error. Each substitution that occurs around a hole closure is
//! recorded in the closure's substitution σ; those recorded environments
//! are what closure collection (Sec. 4.3) harvests.
//!
//! Evaluation is fuel-limited so that divergent fixpoints surface as
//! [`EvalError::OutOfFuel`] rather than hanging the editor. Fuel counts
//! transitions of the environment machine
//! ([`crate::machine::MachineEvaluator`]), which every evaluation here
//! runs on the caller's thread. The substitution-based tree evaluator
//! that transcribes the rules directly is the specification the machine
//! is tested against; it lives in the integration test crate.

use std::fmt;

use crate::ident::HoleName;
use crate::internal::{IExp, Sigma};
use crate::store::TermStore;

/// Default evaluation fuel, in environment-machine transitions.
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

/// Evaluates `d` with an explicit fuel budget under a `"eval"` trace span,
/// reporting the machine's work counters to the trace layer.
///
/// This is the entry point every production evaluation routes through. It
/// interns `d` into a fresh [`TermStore`], runs the environment machine
/// ([`crate::machine::MachineEvaluator`]) on the caller's thread, and
/// converts the result back to a tree. The machine keeps its control
/// state on an explicit frame arena, so deep object-language recursion
/// never grows the host stack. Values and recorded σ are bit-identical to
/// the tree evaluator's (property-tested in the integration suite).
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

/// Hole filling `⟦d_fill/u⟧d` (Sec. 4.3.2) for every hole `u` that
/// `lookup` maps to a fill term, in one walk over `d`.
///
/// Every closure for such a hole is replaced by its fill term with the
/// closure's recorded environment applied as a substitution — "the delayed
/// substitutions captured in the environment are realized". Unlike
/// substitution, hole filling is not capture-avoiding; in the livelit
/// setting the filled term is a closed parameterized expansion, so filling
/// amounts to syntactic replacement.
///
/// A closed fill term replaces its closure unchanged, without filling or
/// applying the closure's σ: substitution renames a binder only where a
/// substitution applies, so applying any σ to a closed term is the
/// identity.
///
/// Fill terms must not themselves contain holes that `lookup` fills; then
/// one walk equals filling the holes one at a time, in any order.
pub fn fill<'f>(d: &IExp, lookup: &impl Fn(HoleName) -> Option<&'f IExp>) -> IExp {
    use IExp::*;
    let go = |e: &IExp| Box::new(fill(e, lookup));
    let go_sigma = |sigma: &Sigma| sigma.map_codomain(|e| fill(e, lookup));
    match d {
        EmptyHole(u, sigma) => match lookup(*u) {
            Some(d_fill) if d_fill.is_closed() => d_fill.clone(),
            Some(d_fill) => go_sigma(sigma).apply(d_fill),
            None => EmptyHole(*u, go_sigma(sigma)),
        },
        NonEmptyHole(u, sigma, inner) => NonEmptyHole(*u, go_sigma(sigma), go(inner)),
        Var(_) | Int(_) | Float(_) | Bool(_) | Str(_) | Unit | Nil(_) => d.clone(),
        Lam(x, t, b) => Lam(x.clone(), t.clone(), go(b)),
        Fix(x, t, b) => Fix(x.clone(), t.clone(), go(b)),
        Ap(a, b) => Ap(go(a), go(b)),
        Bin(op, a, b) => Bin(*op, go(a), go(b)),
        If(c, t, e) => If(go(c), go(t), go(e)),
        Tuple(fields) => Tuple(
            fields
                .iter()
                .map(|(l, e)| (l.clone(), fill(e, lookup)))
                .collect(),
        ),
        Proj(e, l) => Proj(go(e), l.clone()),
        Inj(t, l, e) => Inj(t.clone(), l.clone(), go(e)),
        Case(scrut, arms) => Case(
            go(scrut),
            arms.iter()
                .map(|arm| crate::internal::ICaseArm {
                    label: arm.label.clone(),
                    var: arm.var.clone(),
                    body: fill(&arm.body, lookup),
                })
                .collect(),
        ),
        Cons(a, b) => Cons(go(a), go(b)),
        ListCase(scrut, nil, h, t, cons) => {
            ListCase(go(scrut), go(nil), h.clone(), t.clone(), go(cons))
        }
        Roll(t, e) => Roll(t.clone(), go(e)),
        Unroll(e) => Unroll(go(e)),
    }
}

/// Environment resumption `resume(σ)` (Def. 4.7) on the environment
/// machine: resumes evaluation of every *closed* entry of σ, each with a
/// fresh `fuel` budget; open entries (identity mappings under binders that
/// were never applied) are left as-is. Reports the machine work counters
/// it accumulated (including those of a failing entry) to the trace layer.
///
/// # Errors
///
/// Propagates evaluation errors from resumed entries.
pub fn resume_sigma(sigma: &Sigma, fuel: u64) -> Result<Sigma, EvalError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::elab::elab_syn;
    use crate::final_form::{is_indet, is_value};
    use crate::ident::{HoleName, Var};
    use crate::typ::Typ;
    use crate::typing::Ctx;

    fn eval(d: &IExp) -> Result<IExp, EvalError> {
        eval_traced(d, DEFAULT_FUEL)
    }

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
        let x_plus_1 = IExp::Bin(
            crate::ops::BinOp::Add,
            Box::new(IExp::Var(Var::new("x"))),
            Box::new(IExp::Int(1)),
        );
        let filled = fill(&stuck, &|u| (u == HoleName(0)).then_some(&x_plus_1));
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
        let fills = |u: HoleName| match u.0 {
            0 => Some(&fill0),
            1 => Some(&fill1),
            _ => None,
        };

        // Path A: fill first, then evaluate.
        let a = eval(&fill(&d, &fills)).unwrap();
        // Path B: evaluate, then fill, then resume.
        let stuck = eval(&d).unwrap();
        let b = eval(&fill(&stuck, &fills)).unwrap();
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
