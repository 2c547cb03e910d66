//! A CEK-style environment machine over the hash-consed term store.
//!
//! The substitution-based tree evaluator (the spec oracle, kept in the
//! integration test crate) pays a substitution at every β/fix/case step.
//! This machine pays none on the hot path: closures are `(code, env)`
//! pairs over a persistent environment chain allocated in a per-run arena,
//! the continuation is an explicit frame stack (so no host-stack
//! recursion: it runs on the caller's thread at any recursion depth), and
//! substitutions are *realized* only when a value escapes into a position
//! that needs a term — a residual indeterminate form, a recorded
//! hole-closure σ entry, or the final result.
//!
//! # Fuel
//!
//! Fuel counts machine transitions, one per control-state dispatch,
//! checked once per transition in the run loop: a run that needs more
//! than its budget stops with [`EvalError::OutOfFuel`] after exactly
//! `fuel + 1` transitions. The same count is reported as
//! [`MachineCounters::transitions`].
//!
//! # Parity with the substitution semantics
//!
//! The machine is differential-tested against the tree evaluator: same
//! values, same recorded σ environments, same error taxonomy. Two
//! disciplines make this exact rather than approximate:
//!
//! - **Closed-binding invariant.** Every environment binding materializes
//!   to a *closed* term. Substituting closed terms never renames binders
//!   and makes simultaneous substitution agree with the chronological
//!   sequence of singleton substitutions the tree evaluator performs —
//!   which is what makes realized terms (and recorded σ) bit-identical.
//!   Whenever a to-be-bound value would be open (possible only in open
//!   programs, via indeterminate residuals containing free variables),
//!   the machine takes a *literal escape hatch*: it realizes the affected
//!   redex and performs the tree evaluator's own `subst_one`, inheriting
//!   its renaming behavior exactly.
//! - **Lazy σ from the live environment.** A hole closure records σ by
//!   applying the environment to each entry: entries whose free variables
//!   are fully covered are evaluated *by the machine* under the same
//!   environment, uncovered entries are realized unevaluated — matching
//!   Def. 4.7's closed/open split because covered entries are closed by
//!   the invariant above.

use std::collections::HashMap;

use crate::eval::EvalError;
use crate::ops::BinOp;
use crate::store::{Node, TermId, TermStore, VarId};

/// Machine-specific work counters, surfaced through `livelit-trace` as
/// `machine_steps` / `machine_allocs` / `machine_env_reuse`. All three are
/// functions of the evaluated terms alone, so totals are deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Machine transitions executed (one per control-state dispatch) —
    /// the unit fuel is counted in.
    pub transitions: u64,
    /// Arena allocations: frame pushes plus environment-node pushes.
    pub allocs: u64,
    /// Environment extensions that shared an existing (non-empty) parent
    /// chain — persistent reuse instead of substitution.
    pub env_reuse: u64,
}

impl MachineCounters {
    /// Adds `other` into `self` (used to total the counters of several
    /// machine runs before reporting them once).
    pub fn merge(&mut self, other: MachineCounters) {
        self.transitions += other.transitions;
        self.allocs += other.allocs;
        self.env_reuse += other.env_reuse;
    }
}

/// Sentinel for the empty environment.
const NIL: u32 = u32::MAX;

/// A machine value: either a realized final term or an unrealized closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MVal {
    /// A final term id (closed unless the program was open).
    Done(TermId),
    /// A closure: a `Lam` node plus the environment it was evaluated in.
    Clo(TermId, u32),
}

/// What a variable is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// A value (its materialization is closed, by invariant).
    Val(MVal),
    /// A recursive binding: the `Fix` node and the environment to unroll
    /// it in. Looking it up re-enters the fix node — the machine analogue
    /// of the tree evaluator's unrolling substitution.
    Thunk(TermId, u32),
}

/// One node of the persistent environment chain.
#[derive(Debug, Clone, Copy)]
struct EnvNode {
    var: VarId,
    binding: Binding,
    parent: u32,
}

/// A continuation frame. Frames hold the *original* node id (plus the
/// environment where needed) and re-read labels, types, and branches from
/// the store at return time, so pushing a frame never clones node payload.
#[derive(Debug)]
enum Frame {
    /// Evaluating the function of `Ap`; the node supplies the argument.
    ApFun { node: TermId, env: u32 },
    /// Evaluating the argument; `fun` is the evaluated function.
    ApArg { fun: MVal },
    /// Evaluating the left operand; the node supplies the right.
    BinLhs { node: TermId, env: u32 },
    /// Evaluating the right operand.
    BinRhs { op: BinOp, lhs: MVal },
    /// Evaluating the condition; the node supplies the branches.
    IfCond { node: TermId, env: u32 },
    /// Evaluating field `idx`; earlier fields are realized in `done`.
    TupleField {
        node: TermId,
        env: u32,
        idx: u32,
        done: Vec<(crate::ident::Label, TermId)>,
    },
    /// Evaluating a projection scrutinee; the node supplies the label.
    ProjScrut { node: TermId },
    /// Evaluating an injection payload; the node supplies type and label.
    InjWrap { node: TermId },
    /// Evaluating a case scrutinee; the node supplies the arms.
    CaseScrut { node: TermId, env: u32 },
    /// Evaluating the head of a cons; the node supplies the tail.
    ConsHead { node: TermId, env: u32 },
    /// Evaluating the tail; `head` is the realized head.
    ConsTail { head: TermId },
    /// Evaluating a list-case scrutinee; the node supplies the rest.
    ListCaseScrut { node: TermId, env: u32 },
    /// Evaluating a roll payload; the node supplies the type.
    RollWrap { node: TermId },
    /// Evaluating an unroll scrutinee.
    UnrollScrut,
    /// Evaluating covered σ entry `idx` of a hole closure; earlier
    /// entries are realized in `done`.
    SigmaEntry {
        node: TermId,
        env: u32,
        idx: u32,
        done: Vec<(VarId, TermId)>,
    },
    /// Evaluating the inner term of a non-empty hole; σ is done.
    HoleInner {
        node: TermId,
        done: Vec<(VarId, TermId)>,
    },
}

/// The machine's control state.
#[derive(Debug, Clone, Copy)]
enum Ctrl {
    Eval(TermId, u32),
    Ret(MVal),
}

/// A compact, all-`Copy` decoding of a node — lets dispatch end its
/// borrow of the store before pushing frames, without cloning node
/// payload.
#[derive(Clone, Copy)]
enum Op {
    Literal,
    Var(VarId),
    Lam,
    Fix(VarId, TermId),
    Ap(TermId),
    Bin(TermId),
    If(TermId),
    TupleEmpty,
    Tuple(TermId),
    Proj(TermId),
    Inj(TermId),
    Case(TermId),
    Cons(TermId),
    ListCase(TermId),
    Roll(TermId),
    Unroll(TermId),
    Hole,
    Skeleton,
}

/// The environment machine. Construct with a fuel budget, call
/// [`MachineEvaluator::eval`] (scratch arenas are reset between calls but
/// keep their capacity, so a per-splice evaluator reuses its allocations),
/// read [`MachineEvaluator::counters`].
#[derive(Debug)]
pub struct MachineEvaluator<'s> {
    store: &'s mut TermStore,
    fuel: u64,
    envs: Vec<EnvNode>,
    frames: Vec<Frame>,
    /// Realized `(code, env)` pairs — prevents exponential re-realization
    /// of shared closures. Env indices are per-call, so this resets with
    /// the arenas.
    mat_memo: HashMap<(TermId, u32), TermId>,
    counters: MachineCounters,
}

impl<'s> MachineEvaluator<'s> {
    /// Creates a machine over `store` with the given fuel budget.
    pub fn with_fuel(store: &'s mut TermStore, fuel: u64) -> MachineEvaluator<'s> {
        MachineEvaluator {
            store,
            fuel,
            envs: Vec::new(),
            frames: Vec::new(),
            mat_memo: HashMap::new(),
            counters: MachineCounters::default(),
        }
    }

    /// Machine work counters accumulated across `eval` calls. The fuel
    /// budget bounds their `transitions` total.
    pub fn counters(&self) -> MachineCounters {
        self.counters
    }

    /// Evaluates `t` to a final term id.
    ///
    /// # Errors
    ///
    /// See [`EvalError`] — same taxonomy and messages as the
    /// substitution-based tree evaluator.
    pub fn eval(&mut self, t: TermId) -> Result<TermId, EvalError> {
        self.envs.clear();
        self.frames.clear();
        self.mat_memo.clear();
        let result = self.run(t);
        // A propagating error leaves frames behind; clear so a reused
        // evaluator starts clean.
        self.frames.clear();
        result
    }

    fn run(&mut self, t0: TermId) -> Result<TermId, EvalError> {
        let mut ctrl = Ctrl::Eval(t0, NIL);
        loop {
            self.counters.transitions += 1;
            if self.counters.transitions > self.fuel {
                return Err(EvalError::OutOfFuel);
            }
            ctrl = match ctrl {
                Ctrl::Eval(t, env) => self.step_eval(t, env)?,
                Ctrl::Ret(v) => match self.frames.pop() {
                    None => return Ok(self.materialize(v)),
                    Some(frame) => self.step_ret(frame, v)?,
                },
            };
        }
    }

    fn decode(&self, t: TermId) -> Op {
        match self.store.node(t) {
            Node::Var(x) => Op::Var(*x),
            Node::Lam(..) => Op::Lam,
            Node::Fix(x, _, body) => Op::Fix(*x, *body),
            Node::Int(_)
            | Node::Float(_)
            | Node::Bool(_)
            | Node::Str(_)
            | Node::Unit
            | Node::Nil(_) => Op::Literal,
            Node::Ap(f, _) => Op::Ap(*f),
            Node::Bin(_, a, _) => Op::Bin(*a),
            Node::If(c, _, _) => Op::If(*c),
            Node::Tuple(fields) => match fields.first() {
                None => Op::TupleEmpty,
                Some(&(_, e)) => Op::Tuple(e),
            },
            Node::Proj(s, _) => Op::Proj(*s),
            Node::Inj(_, _, e) => Op::Inj(*e),
            Node::Case(s, _) => Op::Case(*s),
            Node::Cons(h, _) => Op::Cons(*h),
            Node::ListCase(s, _, _, _, _) => Op::ListCase(*s),
            Node::Roll(_, e) => Op::Roll(*e),
            Node::Unroll(e) => Op::Unroll(*e),
            Node::EmptyHole(..) | Node::NonEmptyHole(..) => Op::Hole,
            Node::ULet(..)
            | Node::UAsc(..)
            | Node::ULivelit(..)
            | Node::UEmptyHole(_)
            | Node::UNonEmptyHole(..) => Op::Skeleton,
        }
    }

    fn step_eval(&mut self, t: TermId, env: u32) -> Result<Ctrl, EvalError> {
        Ok(match self.decode(t) {
            Op::Var(x) => match self.lookup(env, x) {
                Some(Binding::Val(v)) => Ctrl::Ret(v),
                // The tree evaluator meets the substituted `fix` term and
                // dispatches on it; jump straight to it.
                Some(Binding::Thunk(f, e)) => Ctrl::Eval(f, e),
                None => return Err(EvalError::FreeVariable(self.store.var(x).clone())),
            },
            Op::Literal | Op::TupleEmpty => Ctrl::Ret(MVal::Done(t)),
            Op::Lam if env == NIL || self.store.is_closed(t) => Ctrl::Ret(MVal::Done(t)),
            Op::Lam => Ctrl::Ret(MVal::Clo(t, env)),
            Op::Fix(x, body) if self.covered(t, env) => {
                let e2 = self.push_env(x, Binding::Thunk(t, env), env);
                Ctrl::Eval(body, e2)
            }
            Op::Fix(..) => {
                // An open fix (open program): its thunk would not
                // materialize closed, so unroll literally, exactly as the
                // tree evaluator does.
                let m_fix = self.subst_env(t, env);
                let (x2, body2) = match *self.store.node(m_fix) {
                    Node::Fix(x2, _, b2) => (x2, b2),
                    _ => unreachable!("substitution preserves the head constructor"),
                };
                Ctrl::Eval(self.store.subst_one(body2, x2, m_fix), NIL)
            }
            Op::Ap(f) => self.descend(Frame::ApFun { node: t, env }, f, env),
            Op::Bin(a) => self.descend(Frame::BinLhs { node: t, env }, a, env),
            Op::If(c) => self.descend(Frame::IfCond { node: t, env }, c, env),
            Op::Tuple(first) => {
                let frame = Frame::TupleField {
                    node: t,
                    env,
                    idx: 0,
                    done: Vec::new(),
                };
                self.descend(frame, first, env)
            }
            Op::Proj(s) => self.descend(Frame::ProjScrut { node: t }, s, env),
            Op::Inj(e) => self.descend(Frame::InjWrap { node: t }, e, env),
            Op::Case(s) => self.descend(Frame::CaseScrut { node: t, env }, s, env),
            Op::Cons(h) => self.descend(Frame::ConsHead { node: t, env }, h, env),
            Op::ListCase(s) => self.descend(Frame::ListCaseScrut { node: t, env }, s, env),
            Op::Roll(e) => self.descend(Frame::RollWrap { node: t }, e, env),
            Op::Unroll(e) => self.descend(Frame::UnrollScrut, e, env),
            Op::Hole => return self.run_sigma(t, env, 0, Vec::new()),
            Op::Skeleton => {
                return Err(EvalError::IllTyped(
                    "evaluation of editor-skeleton node".to_owned(),
                ))
            }
        })
    }

    /// Pushes `frame` and continues with `next` under `env`.
    fn descend(&mut self, frame: Frame, next: TermId, env: u32) -> Ctrl {
        self.frames.push(frame);
        self.counters.allocs += 1;
        Ctrl::Eval(next, env)
    }

    fn step_ret(&mut self, frame: Frame, v: MVal) -> Result<Ctrl, EvalError> {
        match frame {
            Frame::ApFun { node, env } => {
                let arg = match *self.store.node(node) {
                    Node::Ap(_, a) => a,
                    _ => unreachable!("ApFun frame on non-Ap node"),
                };
                Ok(self.descend(Frame::ApArg { fun: v }, arg, env))
            }
            Frame::ApArg { fun } => self.apply(fun, v),
            Frame::BinLhs { node, env } => {
                let (op, rhs) = match *self.store.node(node) {
                    Node::Bin(op, _, b) => (op, b),
                    _ => unreachable!("BinLhs frame on non-Bin node"),
                };
                Ok(self.descend(Frame::BinRhs { op, lhs: v }, rhs, env))
            }
            Frame::BinRhs { op, lhs } => {
                let da = self.materialize(lhs);
                let db = self.materialize(v);
                self.eval_bin(op, da, db).map(|t| Ctrl::Ret(MVal::Done(t)))
            }
            Frame::IfCond { node, env } => {
                let (th, el) = match *self.store.node(node) {
                    Node::If(_, th, el) => (th, el),
                    _ => unreachable!("IfCond frame on non-If node"),
                };
                if let MVal::Done(d) = v {
                    match self.store.node(d) {
                        Node::Bool(true) => return Ok(Ctrl::Eval(th, env)),
                        Node::Bool(false) => return Ok(Ctrl::Eval(el, env)),
                        _ => {}
                    }
                }
                let dc = self.materialize(v);
                if self.store.is_final(dc) {
                    // Stuck: realize the branches under the environment
                    // (the tree evaluator preserves them unevaluated with
                    // its substitutions already applied).
                    let m = self.subst_env(node, env);
                    let (th2, el2) = match *self.store.node(m) {
                        Node::If(_, th2, el2) => (th2, el2),
                        _ => unreachable!("substitution preserves the head constructor"),
                    };
                    Ok(Ctrl::Ret(MVal::Done(
                        self.store.intern(Node::If(dc, th2, el2)),
                    )))
                } else {
                    Err(EvalError::IllTyped(format!(
                        "if on non-boolean: {:?}",
                        self.store.to_iexp(dc)
                    )))
                }
            }
            Frame::TupleField {
                node,
                env,
                idx,
                mut done,
            } => {
                let m = self.materialize(v);
                let (label, next) = match self.store.node(node) {
                    Node::Tuple(fields) => (
                        fields[idx as usize].0.clone(),
                        fields.get(idx as usize + 1).map(|&(_, e)| e),
                    ),
                    _ => unreachable!("TupleField frame on non-Tuple node"),
                };
                done.push((label, m));
                match next {
                    Some(e) => {
                        let frame = Frame::TupleField {
                            node,
                            env,
                            idx: idx + 1,
                            done,
                        };
                        Ok(self.descend(frame, e, env))
                    }
                    None => Ok(Ctrl::Ret(MVal::Done(
                        self.store.intern(Node::Tuple(done.into())),
                    ))),
                }
            }
            Frame::ProjScrut { node } => {
                let label = match self.store.node(node) {
                    Node::Proj(_, l) => l.clone(),
                    _ => unreachable!("ProjScrut frame on non-Proj node"),
                };
                if let MVal::Done(d) = v {
                    if let Node::Tuple(fields) = self.store.node(d) {
                        return fields
                            .iter()
                            .find(|(fl, _)| *fl == label)
                            .map(|&(_, e)| Ctrl::Ret(MVal::Done(e)))
                            .ok_or_else(|| {
                                EvalError::IllTyped(format!("projection .{label} missing"))
                            });
                    }
                }
                let ds = self.materialize(v);
                if self.store.is_final(ds) {
                    Ok(Ctrl::Ret(MVal::Done(
                        self.store.intern(Node::Proj(ds, label)),
                    )))
                } else {
                    Err(EvalError::IllTyped(format!(
                        "projection from non-tuple: {:?}",
                        self.store.to_iexp(ds)
                    )))
                }
            }
            Frame::InjWrap { node } => {
                let de = self.materialize(v);
                let (ty, label) = match self.store.node(node) {
                    Node::Inj(ty, l, _) => (ty.clone(), l.clone()),
                    _ => unreachable!("InjWrap frame on non-Inj node"),
                };
                Ok(Ctrl::Ret(MVal::Done(
                    self.store.intern(Node::Inj(ty, label, de)),
                )))
            }
            Frame::CaseScrut { node, env } => self.ret_case(node, env, v),
            Frame::ConsHead { node, env } => {
                let tail = match *self.store.node(node) {
                    Node::Cons(_, tl) => tl,
                    _ => unreachable!("ConsHead frame on non-Cons node"),
                };
                let head = self.materialize(v);
                Ok(self.descend(Frame::ConsTail { head }, tail, env))
            }
            Frame::ConsTail { head } => {
                let dt = self.materialize(v);
                Ok(Ctrl::Ret(MVal::Done(
                    self.store.intern(Node::Cons(head, dt)),
                )))
            }
            Frame::ListCaseScrut { node, env } => self.ret_list_case(node, env, v),
            Frame::RollWrap { node } => {
                let de = self.materialize(v);
                let ty = match self.store.node(node) {
                    Node::Roll(ty, _) => ty.clone(),
                    _ => unreachable!("RollWrap frame on non-Roll node"),
                };
                Ok(Ctrl::Ret(MVal::Done(self.store.intern(Node::Roll(ty, de)))))
            }
            Frame::UnrollScrut => {
                if let MVal::Done(d) = v {
                    if let Node::Roll(_, inner) = *self.store.node(d) {
                        return Ok(Ctrl::Ret(MVal::Done(inner)));
                    }
                }
                let de = self.materialize(v);
                if self.store.is_final(de) {
                    Ok(Ctrl::Ret(MVal::Done(self.store.intern(Node::Unroll(de)))))
                } else {
                    Err(EvalError::IllTyped(format!(
                        "unroll of non-roll: {:?}",
                        self.store.to_iexp(de)
                    )))
                }
            }
            Frame::SigmaEntry {
                node,
                env,
                idx,
                mut done,
            } => {
                let m = self.materialize(v);
                let x = self.sigma_of(node)[idx as usize].0;
                done.push((x, m));
                self.run_sigma(node, env, idx + 1, done)
            }
            Frame::HoleInner { node, done } => {
                let dinner = self.materialize(v);
                let u = match self.store.node(node) {
                    Node::NonEmptyHole(u, _, _) => *u,
                    _ => unreachable!("HoleInner frame on non-hole node"),
                };
                Ok(Ctrl::Ret(MVal::Done(
                    self.store
                        .intern(Node::NonEmptyHole(u, done.into(), dinner)),
                )))
            }
        }
    }

    /// Function application once both sides are evaluated.
    fn apply(&mut self, fun: MVal, va: MVal) -> Result<Ctrl, EvalError> {
        let callable = match fun {
            MVal::Clo(l, e) => Some((l, e)),
            MVal::Done(d) => match self.store.node(d) {
                Node::Lam(..) => Some((d, NIL)),
                _ => None,
            },
        };
        if let Some((l, e)) = callable {
            let (x, body) = match *self.store.node(l) {
                Node::Lam(x, _, body) => (x, body),
                _ => unreachable!("closure code is a Lam"),
            };
            if self.val_is_closed(va) {
                let e2 = self.push_env(x, Binding::Val(va), e);
                Ok(Ctrl::Eval(body, e2))
            } else {
                // Open argument (open program): a binding would not
                // materialize closed, so perform the tree evaluator's
                // literal β-substitution, inheriting its renaming.
                let m_fun = self.materialize(fun);
                let m_arg = self.materialize(va);
                let (x2, body2) = match *self.store.node(m_fun) {
                    Node::Lam(x2, _, b2) => (x2, b2),
                    _ => unreachable!("substitution preserves the head constructor"),
                };
                let applied = self.store.subst_one(body2, x2, m_arg);
                Ok(Ctrl::Eval(applied, NIL))
            }
        } else {
            let df = match fun {
                MVal::Done(d) => d,
                MVal::Clo(..) => unreachable!("closures are callable"),
            };
            let da = self.materialize(va);
            if self.store.is_final(df) {
                Ok(Ctrl::Ret(MVal::Done(self.store.intern(Node::Ap(df, da)))))
            } else {
                Err(EvalError::IllTyped(format!(
                    "application of non-function: {:?}",
                    self.store.to_iexp(df)
                )))
            }
        }
    }

    fn ret_case(&mut self, node: TermId, env: u32, v: MVal) -> Result<Ctrl, EvalError> {
        if let MVal::Done(d) = v {
            if let Node::Inj(_, l, payload) = self.store.node(d) {
                let payload = *payload;
                let l = l.clone();
                let arm = match self.store.node(node) {
                    Node::Case(_, arms) => arms
                        .iter()
                        .find(|(al, _, _)| *al == l)
                        .map(|&(_, var, body)| (var, body)),
                    _ => unreachable!("CaseScrut frame on non-Case node"),
                };
                let (var, body) =
                    arm.ok_or_else(|| EvalError::IllTyped(format!("no case arm for .{l}")))?;
                return if self.store.is_closed(payload) {
                    let e2 = self.push_env(var, Binding::Val(MVal::Done(payload)), env);
                    Ok(Ctrl::Eval(body, e2))
                } else {
                    // Open payload: literal substitution into the
                    // realized arm, as the tree evaluator does.
                    let m = self.subst_env(node, env);
                    let (var2, body2) = match self.store.node(m) {
                        Node::Case(_, arms) => arms
                            .iter()
                            .find(|(al, _, _)| *al == l)
                            .map(|&(_, var2, body2)| (var2, body2))
                            .expect("substitution preserves arm labels"),
                        _ => unreachable!("substitution preserves the head constructor"),
                    };
                    let applied = self.store.subst_one(body2, var2, payload);
                    Ok(Ctrl::Eval(applied, NIL))
                };
            }
        }
        let ds = self.materialize(v);
        if self.store.is_final(ds) {
            let m = self.subst_env(node, env);
            let arms2 = match self.store.node(m) {
                Node::Case(_, arms) => arms.clone(),
                _ => unreachable!("substitution preserves the head constructor"),
            };
            Ok(Ctrl::Ret(MVal::Done(
                self.store.intern(Node::Case(ds, arms2)),
            )))
        } else {
            Err(EvalError::IllTyped(format!(
                "case on non-injection: {:?}",
                self.store.to_iexp(ds)
            )))
        }
    }

    fn ret_list_case(&mut self, node: TermId, env: u32, v: MVal) -> Result<Ctrl, EvalError> {
        let (nil, hv, tv, cons) = match *self.store.node(node) {
            Node::ListCase(_, nil, hv, tv, cons) => (nil, hv, tv, cons),
            _ => unreachable!("ListCaseScrut frame on non-ListCase node"),
        };
        if let MVal::Done(d) = v {
            match *self.store.node(d) {
                Node::Nil(_) => return Ok(Ctrl::Eval(nil, env)),
                Node::Cons(h, tl) => {
                    return if self.store.is_closed(h) && self.store.is_closed(tl) {
                        // Tail first, head last: the head binding is
                        // innermost, so when `hv == tv` the head wins —
                        // matching the tree evaluator's substitution
                        // order (head substituted first).
                        let e1 = self.push_env(tv, Binding::Val(MVal::Done(tl)), env);
                        let e2 = self.push_env(hv, Binding::Val(MVal::Done(h)), e1);
                        Ok(Ctrl::Eval(cons, e2))
                    } else {
                        let m = self.subst_env(node, env);
                        let (hv2, tv2, cons2) = match *self.store.node(m) {
                            Node::ListCase(_, _, hv2, tv2, cons2) => (hv2, tv2, cons2),
                            _ => unreachable!("substitution preserves the head constructor"),
                        };
                        let body = self.store.subst_one(cons2, hv2, h);
                        let body = self.store.subst_one(body, tv2, tl);
                        Ok(Ctrl::Eval(body, NIL))
                    };
                }
                _ => {}
            }
        }
        let ds = self.materialize(v);
        if self.store.is_final(ds) {
            let m = self.subst_env(node, env);
            let (nil2, hv2, tv2, cons2) = match *self.store.node(m) {
                Node::ListCase(_, nil2, hv2, tv2, cons2) => (nil2, hv2, tv2, cons2),
                _ => unreachable!("substitution preserves the head constructor"),
            };
            Ok(Ctrl::Ret(MVal::Done(
                self.store.intern(Node::ListCase(ds, nil2, hv2, tv2, cons2)),
            )))
        } else {
            Err(EvalError::IllTyped(format!(
                "list case on non-list: {:?}",
                self.store.to_iexp(ds)
            )))
        }
    }

    /// Processes hole-closure σ entries from `idx`: covered entries (all
    /// free variables bound — hence closed once realized) are evaluated
    /// by the machine under the same environment, as the tree evaluator
    /// evaluates closed entries; uncovered entries are realized
    /// unevaluated, matching the open-entry clause of Def. 4.7.
    fn run_sigma(
        &mut self,
        node: TermId,
        env: u32,
        idx: u32,
        mut done: Vec<(VarId, TermId)>,
    ) -> Result<Ctrl, EvalError> {
        let len = self.sigma_of(node).len() as u32;
        let mut i = idx;
        while i < len {
            let (x, entry) = self.sigma_of(node)[i as usize];
            if self.covered(entry, env) {
                let frame = Frame::SigmaEntry {
                    node,
                    env,
                    idx: i,
                    done,
                };
                return Ok(self.descend(frame, entry, env));
            }
            let m = self.subst_env(entry, env);
            done.push((x, m));
            i += 1;
        }
        match *self.store.node(node) {
            Node::EmptyHole(u, _) => Ok(Ctrl::Ret(MVal::Done(
                self.store.intern(Node::EmptyHole(u, done.into())),
            ))),
            Node::NonEmptyHole(_, _, inner) => {
                Ok(self.descend(Frame::HoleInner { node, done }, inner, env))
            }
            _ => unreachable!("run_sigma on non-hole node"),
        }
    }

    fn sigma_of(&self, node: TermId) -> &[(VarId, TermId)] {
        match self.store.node(node) {
            Node::EmptyHole(_, sigma) | Node::NonEmptyHole(_, sigma, _) => sigma,
            _ => unreachable!("sigma_of on non-hole node"),
        }
    }

    /// Primitive operations on realized operands — mirrors the tree
    /// evaluator's `eval_bin` arm for arm (including error messages).
    fn eval_bin(&mut self, op: BinOp, da: TermId, db: TermId) -> Result<TermId, EvalError> {
        use Node::{Bool, Float, Int, Str};
        let f = f64::from_bits;
        let computed = match (op, self.store.node(da), self.store.node(db)) {
            (BinOp::Add, Int(a), Int(b)) => Some(Int(a.wrapping_add(*b))),
            (BinOp::Sub, Int(a), Int(b)) => Some(Int(a.wrapping_sub(*b))),
            (BinOp::Mul, Int(a), Int(b)) => Some(Int(a.wrapping_mul(*b))),
            (BinOp::Div, Int(_), Int(0)) => return Err(EvalError::DivisionByZero),
            (BinOp::Div, Int(a), Int(b)) => Some(Int(a.wrapping_div(*b))),
            (BinOp::FAdd, Float(a), Float(b)) => Some(Float((f(*a) + f(*b)).to_bits())),
            (BinOp::FSub, Float(a), Float(b)) => Some(Float((f(*a) - f(*b)).to_bits())),
            (BinOp::FMul, Float(a), Float(b)) => Some(Float((f(*a) * f(*b)).to_bits())),
            (BinOp::FDiv, Float(a), Float(b)) => Some(Float((f(*a) / f(*b)).to_bits())),
            (BinOp::Lt, Int(a), Int(b)) => Some(Bool(a < b)),
            (BinOp::Le, Int(a), Int(b)) => Some(Bool(a <= b)),
            (BinOp::Gt, Int(a), Int(b)) => Some(Bool(a > b)),
            (BinOp::Ge, Int(a), Int(b)) => Some(Bool(a >= b)),
            (BinOp::Eq, Int(a), Int(b)) => Some(Bool(a == b)),
            (BinOp::FLt, Float(a), Float(b)) => Some(Bool(f(*a) < f(*b))),
            (BinOp::FLe, Float(a), Float(b)) => Some(Bool(f(*a) <= f(*b))),
            (BinOp::FGt, Float(a), Float(b)) => Some(Bool(f(*a) > f(*b))),
            (BinOp::FGe, Float(a), Float(b)) => Some(Bool(f(*a) >= f(*b))),
            (BinOp::FEq, Float(a), Float(b)) => Some(Bool(f(*a) == f(*b))),
            (BinOp::And, Bool(a), Bool(b)) => Some(Bool(*a && *b)),
            (BinOp::Or, Bool(a), Bool(b)) => Some(Bool(*a || *b)),
            (BinOp::Concat, Str(a), Str(b)) => Some(Str(format!("{a}{b}"))),
            (BinOp::StrEq, Str(a), Str(b)) => Some(Bool(a == b)),
            _ => None,
        };
        match computed {
            Some(node) => Ok(self.store.intern(node)),
            None => {
                if self.store.is_final(da) && self.store.is_final(db) {
                    Ok(self.store.intern(Node::Bin(op, da, db)))
                } else {
                    Err(EvalError::IllTyped(format!(
                        "binary op {op} on {:?} and {:?}",
                        self.store.to_iexp(da),
                        self.store.to_iexp(db)
                    )))
                }
            }
        }
    }

    fn lookup(&self, env: u32, x: VarId) -> Option<Binding> {
        let mut cur = env;
        while cur != NIL {
            let node = &self.envs[cur as usize];
            if node.var == x {
                return Some(node.binding);
            }
            cur = node.parent;
        }
        None
    }

    fn push_env(&mut self, var: VarId, binding: Binding, parent: u32) -> u32 {
        let id = self.envs.len() as u32;
        debug_assert!(id != NIL, "environment arena overflow");
        self.envs.push(EnvNode {
            var,
            binding,
            parent,
        });
        self.counters.allocs += 1;
        if parent != NIL {
            self.counters.env_reuse += 1;
        }
        id
    }

    /// Whether every free variable of `t` is bound in `env` — in which
    /// case `subst_env(t, env)` is closed, since bindings materialize
    /// closed by invariant.
    fn covered(&self, t: TermId, env: u32) -> bool {
        self.store
            .free_vars(t)
            .iter()
            .all(|&x| self.lookup(env, x).is_some())
    }

    /// Whether a value's materialization is closed (the precondition for
    /// binding it in an environment).
    fn val_is_closed(&self, v: MVal) -> bool {
        match v {
            MVal::Done(d) => self.store.is_closed(d),
            MVal::Clo(l, e) => self.covered(l, e),
        }
    }

    /// Realizes a value as a term id.
    fn materialize(&mut self, v: MVal) -> TermId {
        match v {
            MVal::Done(d) => d,
            MVal::Clo(l, e) => self.subst_env(l, e),
        }
    }

    /// Realizes the environment's delayed substitution on `t`: one
    /// simultaneous substitution over the variables of `t` that `env`
    /// binds, innermost binding winning — equal to the chronological
    /// singleton substitutions of the substitution semantics because
    /// bindings are closed (closed replacements commute and never force
    /// renaming).
    fn subst_env(&mut self, t: TermId, env: u32) -> TermId {
        if env == NIL || self.store.is_closed(t) {
            return t;
        }
        if let Some(&m) = self.mat_memo.get(&(t, env)) {
            return m;
        }
        let fvs: Vec<VarId> = self.store.free_vars(t).to_vec();
        let mut pairs: Vec<(VarId, TermId)> = Vec::with_capacity(fvs.len());
        for x in fvs {
            if let Some(binding) = self.lookup(env, x) {
                let r = match binding {
                    Binding::Val(MVal::Done(d)) => d,
                    Binding::Val(MVal::Clo(l, e)) => self.subst_env(l, e),
                    Binding::Thunk(f, e) => self.subst_env(f, e),
                };
                pairs.push((x, r));
            }
        }
        let out = if pairs.is_empty() {
            t
        } else {
            self.store.subst_many(t, &pairs)
        };
        self.mat_memo.insert((t, env), out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::elab::elab_syn;
    use crate::eval::DEFAULT_FUEL;
    use crate::ident::Var;
    use crate::internal::IExp;
    use crate::typ::Typ;
    use crate::typing::Ctx;

    fn machine_run(e: &crate::external::EExp) -> Result<IExp, EvalError> {
        let (d, _, _) = elab_syn(&Ctx::empty(), e).expect("elaborates");
        let mut store = TermStore::new();
        let t = store.intern_iexp(&d);
        let result = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL).eval(t);
        result.map(|id| store.to_iexp(id))
    }

    #[test]
    fn beta_and_recursion_evaluate_to_known_values() {
        let fact = letrec(
            "fact",
            Typ::arrow(Typ::Int, Typ::Int),
            lam(
                "n",
                Typ::Int,
                ite(
                    bin(crate::ops::BinOp::Le, var("n"), int(0)),
                    int(1),
                    mul(var("n"), ap(var("fact"), sub(var("n"), int(1)))),
                ),
            ),
            ap(var("fact"), int(6)),
        );
        let samples = [
            (add(int(2), mul(int(3), int(4))), 14),
            (ap(lam("x", Typ::Int, add(var("x"), var("x"))), int(21)), 42),
            (fact, 720),
        ];
        for (e, expected) in &samples {
            assert_eq!(machine_run(e), Ok(IExp::Int(*expected)), "{e:?}");
        }
    }

    #[test]
    fn hole_closures_record_sigma_from_the_live_environment() {
        // (λx.⦇⦈u) 5 ⇓ ⦇⦈⟨u;[5/x]⟩ without ever substituting into the
        // hole: σ is realized from the environment at the hole.
        let e = ap(lam("x", Typ::Int, asc(hole(0), Typ::Int)), int(5));
        match machine_run(&e) {
            Ok(IExp::EmptyHole(_, sigma)) => {
                assert_eq!(
                    sigma,
                    crate::internal::Sigma::from_iter([(Var::new("x"), IExp::Int(5))])
                );
            }
            other => panic!("expected a hole closure, got {other:?}"),
        }
    }

    #[test]
    fn out_of_fuel_pins_steps_to_fuel_plus_one() {
        let omega = letrec(
            "f",
            Typ::arrow(Typ::Int, Typ::Int),
            lam("n", Typ::Int, ap(var("f"), var("n"))),
            ap(var("f"), int(0)),
        );
        let (d, _, _) = elab_syn(&Ctx::empty(), &omega).unwrap();
        let mut store = TermStore::new();
        let t = store.intern_iexp(&d);
        let mut m = MachineEvaluator::with_fuel(&mut store, 10_000);
        assert_eq!(m.eval(t), Err(EvalError::OutOfFuel));
        assert_eq!(m.counters().transitions, 10_001);
    }

    #[test]
    fn env_reuse_is_counted_on_recursive_workloads() {
        let e = letrec(
            "sum",
            Typ::arrow(Typ::Int, Typ::Int),
            lam(
                "n",
                Typ::Int,
                ite(
                    bin(crate::ops::BinOp::Le, var("n"), int(0)),
                    int(0),
                    add(var("n"), ap(var("sum"), sub(var("n"), int(1)))),
                ),
            ),
            ap(var("sum"), int(10)),
        );
        let (d, _, _) = elab_syn(&Ctx::empty(), &e).unwrap();
        let mut store = TermStore::new();
        let t = store.intern_iexp(&d);
        let mut m = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL);
        m.eval(t).unwrap();
        let c = m.counters();
        assert!(c.transitions > 0);
        assert!(c.allocs > 0);
        assert!(c.env_reuse > 0, "recursive calls must extend shared chains");
    }
}
