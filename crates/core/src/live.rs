//! Live splice and parameter evaluation (Secs. 2.5, 3.2.3).
//!
//! A livelit view asks the system to evaluate a splice under one of the
//! closures collected for the hole the livelit is filling. The result
//! distinguishes values from indeterminate expressions (`Result = Val(Exp) |
//! Indet(Exp)` in the paper), and is absent (`None`) "when evaluation is not
//! possible, e.g. because no closures are collected or because no value has
//! been collected for a variable used in the splice".

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::PoisonError;

use hazel_lang::elab::elab_ana;
use hazel_lang::eval::{eval_traced, report_machine_counters, EvalError, DEFAULT_FUEL};
use hazel_lang::final_form::{is_value, Classification};
use hazel_lang::ident::HoleName;
use hazel_lang::internal::{IExp, Sigma};
use hazel_lang::machine::MachineEvaluator;
use hazel_lang::store::TermId;
use hazel_lang::typ::Typ;
use hazel_lang::typing::{Ctx, TypeError};
use hazel_lang::unexpanded::UExp;

use crate::cc::{CachedSplice, Collection};
use crate::def::LivelitCtx;
use crate::expansion::{expand, ExpandError};

/// The result of a live evaluation: a value or an indeterminate (but final)
/// expression — the paper's `Result = Val(Exp) | Indet(Exp)`.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveResult {
    /// Evaluation produced a value.
    Val(IExp),
    /// Evaluation produced an indeterminate expression (blocked on holes in
    /// critical positions). Livelits may still extract partial information
    /// from it (Sec. 3.2.3).
    Indet(IExp),
}

impl LiveResult {
    /// The underlying final expression, value or not.
    pub fn exp(&self) -> &IExp {
        match self {
            LiveResult::Val(d) | LiveResult::Indet(d) => d,
        }
    }

    /// The underlying expression if it is a value.
    pub fn value(&self) -> Option<&IExp> {
        match self {
            LiveResult::Val(d) => Some(d),
            LiveResult::Indet(_) => None,
        }
    }
}

/// A live-evaluation failure (distinct from an *absent* result, which is
/// `Ok(None)`).
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// The splice failed to expand.
    Expand(ExpandError),
    /// The splice is ill-typed at its splice type under the invocation-site
    /// context.
    Type(TypeError),
    /// Evaluation crashed (fuel, division by zero, ...).
    Eval(EvalError),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Expand(e) => write!(f, "{e}"),
            LiveError::Type(e) => write!(f, "{e}"),
            LiveError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<ExpandError> for LiveError {
    fn from(e: ExpandError) -> LiveError {
        LiveError::Expand(e)
    }
}

impl From<TypeError> for LiveError {
    fn from(e: TypeError) -> LiveError {
        LiveError::Type(e)
    }
}

impl From<EvalError> for LiveError {
    fn from(e: EvalError) -> LiveError {
        LiveError::Eval(e)
    }
}

/// Evaluates splice `ê` (of splice type `τ`) under environment `σ`, with
/// `Γ` the typing context at the livelit's invocation site.
///
/// Returns `Ok(None)` when no result is available: some variable the splice
/// uses has no collected value in `σ` (e.g. an unapplied enclosing
/// function's parameter).
///
/// # Errors
///
/// See [`LiveError`].
pub fn eval_splice_in_env(
    phi: &LivelitCtx,
    gamma: &Ctx,
    sigma: &Sigma,
    splice: &UExp,
    ty: &Typ,
    fuel: u64,
) -> Result<Option<LiveResult>, LiveError> {
    let _span = livelit_trace::span("live.eval_splice");
    livelit_trace::count(livelit_trace::Counter::SplicesEvaluated, 1);
    // Splices may themselves contain livelits (compositionality); expand
    // them first.
    let expanded = expand(phi, splice)?;
    // Type and elaborate against the splice type under the client's Γ.
    let (d, _delta) = elab_ana(gamma, &expanded, ty)?;
    // Realize the collected environment.
    let closed = sigma.apply(&d);
    if !closed.is_closed() {
        // A variable in the splice has no collected value.
        return Ok(None);
    }
    let result = eval_traced(&closed, fuel)?;
    Ok(Some(if is_value(&result) {
        LiveResult::Val(result)
    } else {
        LiveResult::Indet(result)
    }))
}

/// One request in a batch of live splice evaluations: evaluate `splice`
/// (of splice type `ty`) under the `env_index`-th closure collected for
/// livelit hole `u`.
#[derive(Debug, Clone, Copy)]
pub struct SpliceJob<'a> {
    /// The livelit hole whose collected closures supply the environment.
    pub u: HoleName,
    /// Index of the collected closure to evaluate under.
    pub env_index: usize,
    /// The unexpanded splice expression.
    pub splice: &'a UExp,
    /// The splice type it must check against.
    pub ty: &'a Typ,
}

/// What the sequential preparation phase decided about one job.
enum Prepared {
    /// Decided without evaluation: missing closure or hypothesis, or an
    /// expansion/type error.
    Ready(Result<Option<LiveResult>, LiveError>),
    /// Resolve from the splice-result cache under this key after the
    /// evaluation phase.
    Key((TermId, u32)),
}

/// Evaluates a batch of splices, sharing one pass over the collection's
/// interned state.
///
/// Slot `i` of the output corresponds to `jobs[i]`. Results are identical
/// to calling [`eval_splice`] per job in order — the batch exists so the
/// editor can prepare every view's splices after an edit under one lock.
/// Two phases:
///
/// 1. **Prepare** (in job order): expand, elaborate, intern σ, substitute,
///    and consult the per-collection splice-result cache keyed by
///    (interned elaborated splice, interned σ). Hits and batch duplicates
///    are counted as [`livelit_trace::Counter::SpliceCacheHits`].
/// 2. **Evaluate** (in miss order): each distinct miss runs on the
///    environment machine directly in the collection's term store, and
///    its result is cached.
pub fn eval_splices(
    phi: &LivelitCtx,
    collection: &Collection,
    jobs: &[SpliceJob<'_>],
) -> Vec<Result<Option<LiveResult>, LiveError>> {
    let mut guard = collection
        .interned()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let interned = &mut *guard;

    let mut prepared: Vec<Prepared> = Vec::with_capacity(jobs.len());
    // Results decided this batch, keyed like the shared cache. The final
    // phase reads these rather than the shared cache so a capacity
    // eviction between phases cannot drop a key a job depends on.
    let mut batch_results: HashMap<(TermId, u32), CachedSplice> = HashMap::new();
    let mut scheduled: HashSet<(TermId, u32)> = HashSet::new();
    let mut to_eval: Vec<((TermId, u32), TermId)> = Vec::new();
    for job in jobs {
        let Some(sigma) = collection.envs_for(job.u).get(job.env_index) else {
            prepared.push(Prepared::Ready(Ok(None)));
            continue;
        };
        let Some(hyp) = collection.delta.get(job.u) else {
            prepared.push(Prepared::Ready(Ok(None)));
            continue;
        };
        let _span = livelit_trace::span("live.eval_splice");
        livelit_trace::count(livelit_trace::Counter::SplicesEvaluated, 1);
        let expanded = match expand(phi, job.splice) {
            Ok(e) => e,
            Err(e) => {
                prepared.push(Prepared::Ready(Err(e.into())));
                continue;
            }
        };
        let (d, _delta) = match elab_ana(&hyp.ctx, &expanded, job.ty) {
            Ok(elaborated) => elaborated,
            Err(e) => {
                prepared.push(Prepared::Ready(Err(e.into())));
                continue;
            }
        };
        // The interned fast path: semantically identical to
        // [`eval_splice_in_env`] (the property suite checks this), but σ
        // is interned once per closure into the collection's shared term
        // store, realization is a path-copying simultaneous substitution,
        // and the closedness check reads the store's free-variable cache.
        if !interned.envs.contains_key(&(job.u, job.env_index)) {
            let pairs = interned.store.intern_sigma(sigma);
            let sid = interned.sigma_id(&pairs);
            interned.envs.insert((job.u, job.env_index), (pairs, sid));
        }
        let sid = interned.envs[&(job.u, job.env_index)].1;
        let dt = interned.store.intern_iexp(&d);
        let key = (dt, sid);
        if let Some(cached) = interned.results.lookup(&key) {
            livelit_trace::count(livelit_trace::Counter::SpliceCacheHits, 1);
            batch_results.entry(key).or_insert_with(|| cached.clone());
            prepared.push(Prepared::Key(key));
            continue;
        }
        if scheduled.contains(&key) {
            // An earlier job in this batch already scheduled this key.
            livelit_trace::count(livelit_trace::Counter::SpliceCacheHits, 1);
            prepared.push(Prepared::Key(key));
            continue;
        }
        livelit_trace::count(livelit_trace::Counter::SpliceCacheMisses, 1);
        let pairs = interned.envs[&(job.u, job.env_index)].0.clone();
        let closed = interned.store.subst_many(dt, &pairs);
        if !interned.store.is_closed(closed) {
            // A variable in the splice has no collected value.
            interned.cache_result(key, CachedSplice::NotClosed);
            batch_results.insert(key, CachedSplice::NotClosed);
            prepared.push(Prepared::Key(key));
            continue;
        }
        scheduled.insert(key);
        to_eval.push((key, closed));
        prepared.push(Prepared::Key(key));
    }

    if !to_eval.is_empty() {
        let _span = livelit_trace::span("live.eval_batch");
        for &(key, closed) in &to_eval {
            let mut evaluator = MachineEvaluator::with_fuel(&mut interned.store, DEFAULT_FUEL);
            let result = evaluator.eval(closed);
            report_machine_counters(evaluator.counters());
            let cached = match result {
                Err(e) => CachedSplice::Err(e),
                Ok(result) => CachedSplice::Done {
                    result,
                    is_val: matches!(interned.store.classification(result), Classification::Value),
                },
            };
            interned.cache_result(key, cached.clone());
            batch_results.insert(key, cached);
        }
    }
    interned.store.report_trace_counters();

    prepared
        .into_iter()
        .map(|p| match p {
            Prepared::Ready(result) => result,
            Prepared::Key(key) => {
                let cached = batch_results
                    .get(&key)
                    .or_else(|| interned.results.peek(&key))
                    .expect("splice batch key resolved in prepare or evaluate phase");
                match cached {
                    CachedSplice::NotClosed => Ok(None),
                    CachedSplice::Err(e) => Err(LiveError::Eval(e.clone())),
                    CachedSplice::Done { result, is_val } => {
                        let tree = interned.store.to_iexp(*result);
                        Ok(Some(if *is_val {
                            LiveResult::Val(tree)
                        } else {
                            LiveResult::Indet(tree)
                        }))
                    }
                }
            }
        })
        .collect()
}

/// Evaluates splice `ê` under the `env_index`-th closure collected for
/// livelit hole `u` — the closure-selection workflow of Fig. 2, where the
/// client toggles between the closures of a livelit appearing in a
/// multiply-applied function.
///
/// Returns `Ok(None)` if no closure with that index was collected, or if the
/// selected environment lacks a needed variable. A batch of one
/// [`eval_splices`] job; repeated calls with an unchanged splice and σ are
/// served from the collection's splice-result cache.
///
/// # Errors
///
/// See [`LiveError`].
pub fn eval_splice(
    phi: &LivelitCtx,
    collection: &Collection,
    u: HoleName,
    env_index: usize,
    splice: &UExp,
    ty: &Typ,
) -> Result<Option<LiveResult>, LiveError> {
    eval_splices(
        phi,
        collection,
        &[SpliceJob {
            u,
            env_index,
            splice,
            ty,
        }],
    )
    .pop()
    .expect("one job in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::collect;
    use crate::def::LivelitDef;
    use hazel_lang::build::*;
    use hazel_lang::ident::{HoleName, LivelitName, Var};
    use hazel_lang::unexpanded::{LivelitAp, Splice};
    use hazel_lang::value::iv;

    fn doubler() -> LivelitDef {
        LivelitDef::native("$double", vec![], Typ::Int, Typ::Unit, |_| {
            Ok(lam("s", Typ::Int, mul(var("s"), int(2))))
        })
    }

    fn program_with_baseline() -> (LivelitCtx, UExp) {
        // let baseline = 57 in $double(baseline + 50)
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        let program = UExp::Let(
            Var::new("baseline"),
            None,
            Box::new(UExp::Int(57)),
            Box::new(UExp::Livelit(Box::new(LivelitAp {
                name: LivelitName::new("$double"),
                model: IExp::Unit,
                splices: vec![Splice::new(
                    UExp::Bin(
                        hazel_lang::BinOp::Add,
                        Box::new(UExp::Var(Var::new("baseline"))),
                        Box::new(UExp::Int(50)),
                    ),
                    Typ::Int,
                )],
                hole: HoleName(0),
            }))),
        );
        (phi, program)
    }

    #[test]
    fn splice_with_client_variable_evaluates_live() {
        let (phi, program) = program_with_baseline();
        let collection = collect(&phi, &program).unwrap();
        // Evaluate the splice `baseline + 50` live.
        let splice = UExp::Bin(
            hazel_lang::BinOp::Add,
            Box::new(UExp::Var(Var::new("baseline"))),
            Box::new(UExp::Int(50)),
        );
        let result = eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int)
            .unwrap()
            .expect("closure available");
        assert_eq!(result, LiveResult::Val(iv::int(107)));
    }

    #[test]
    fn missing_closure_index_gives_none() {
        let (phi, program) = program_with_baseline();
        let collection = collect(&phi, &program).unwrap();
        let splice = UExp::Int(1);
        assert_eq!(
            eval_splice(&phi, &collection, HoleName(0), 5, &splice, &Typ::Int).unwrap(),
            None
        );
    }

    #[test]
    fn splice_with_uncollected_variable_gives_none() {
        // Livelit under an unapplied lambda: the parameter has no value.
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        // (fun y : Int -> $double(y)) applied... never. We hand-build an
        // identity σ as elaboration would produce before any application.
        let gamma = Ctx::from_bindings([(Var::new("y"), Typ::Int)]);
        let sigma = Sigma::identity([&Var::new("y")]);
        let splice = UExp::Var(Var::new("y"));
        let result =
            eval_splice_in_env(&phi, &gamma, &sigma, &splice, &Typ::Int, DEFAULT_FUEL).unwrap();
        assert_eq!(result, None);
    }

    #[test]
    fn indeterminate_splice_result_reported_as_indet() {
        // A splice containing a hole evaluates to an indeterminate result —
        // the livelit decides how to degrade (Sec. 2.5.2).
        let (phi, program) = program_with_baseline();
        let collection = collect(&phi, &program).unwrap();
        let splice = UExp::Bin(
            hazel_lang::BinOp::Add,
            Box::new(UExp::Var(Var::new("baseline"))),
            Box::new(UExp::EmptyHole(HoleName(33))),
        );
        let result = eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int)
            .unwrap()
            .expect("closure available");
        assert!(matches!(result, LiveResult::Indet(_)));
    }

    #[test]
    fn splice_containing_livelit_expands_before_evaluation() {
        let (phi, program) = program_with_baseline();
        let collection = collect(&phi, &program).unwrap();
        // Splice: $double(4) — a nested livelit invocation.
        let splice = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$double"),
            model: IExp::Unit,
            splices: vec![Splice::new(UExp::Int(4), Typ::Int)],
            hole: HoleName(77),
        }));
        let result = eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int)
            .unwrap()
            .expect("closure available");
        assert_eq!(result, LiveResult::Val(iv::int(8)));
    }

    #[test]
    fn ill_typed_splice_is_an_error() {
        let (phi, program) = program_with_baseline();
        let collection = collect(&phi, &program).unwrap();
        let splice = UExp::Bool(true);
        assert!(matches!(
            eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int),
            Err(LiveError::Type(_))
        ));
    }
}
