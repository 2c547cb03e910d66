//! Closure collection: live feedback for livelits (Sec. 4.3).
//!
//! To evaluate splices live, a livelit needs the run-time environments that
//! reach its invocation. These are gathered in two phases:
//!
//! 1. **Proto-environment collection** (Sec. 4.3.1): generate the
//!    *cc-expansion*, where each livelit expands to an empty hole applied to
//!    its splices (the hole stands in for the parameterized expansion); on
//!    the side, build the cc-context Ω mapping each livelit hole to the
//!    elaboration of its parameterized expansion. Evaluating the
//!    cc-expansion leaves a hole closure — an environment — wherever a
//!    livelit's value was needed.
//!
//! 2. **Closure resumption** (Sec. 4.3.2): proto-environments may contain
//!    proto-closures for *other* livelit holes (e.g. `averages` in Fig. 1c
//!    depends on the `$dataframe` hole), so fill every livelit hole in each
//!    collected environment with its parameterized expansion from Ω
//!    (`fillΩ`, Def. 4.6) and resume evaluation of closed entries
//!    (Def. 4.7).
//!
//! The same fill-and-resume step applied to the evaluated cc-expansion
//! itself computes the final program result without re-evaluating from
//! scratch — Theorem 4.9 (post-collection resumption) says this equals full
//! expansion followed by evaluation, and the executable form of that theorem
//! lives in the integration test suite.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hazel_lang::elab::elab_syn;
use hazel_lang::eval::{eval_traced, fill, resume_sigma, EvalError, DEFAULT_FUEL};
use hazel_lang::external::EExp;
use hazel_lang::ident::HoleName;
use hazel_lang::internal::{IExp, Sigma};
use hazel_lang::store::{TermId, TermStore, VarId};
use hazel_lang::typ::Typ;
use hazel_lang::typing::{Ctx, Delta, TypeError};
use hazel_lang::unexpanded::UExp;

use crate::def::LivelitCtx;
use crate::expansion::{expand, ExpandError, MarkedError, Walk};

/// The cc-context Ω: maps each livelit hole to the elaboration of its
/// parameterized expansion, `u ↩ d_pexpansion`.
#[derive(Debug, Clone, Default)]
pub struct Omega {
    map: BTreeMap<HoleName, IExp>,
}

impl FromIterator<(HoleName, IExp)> for Omega {
    fn from_iter<I: IntoIterator<Item = (HoleName, IExp)>>(entries: I) -> Omega {
        Omega {
            map: entries.into_iter().collect(),
        }
    }
}

impl Omega {
    /// The livelit holes in this context.
    pub fn holes(&self) -> impl Iterator<Item = HoleName> + '_ {
        self.map.keys().copied()
    }

    /// The elaborated parameterized expansion recorded for `u`.
    pub fn get(&self, u: HoleName) -> Option<&IExp> {
        self.map.get(&u)
    }

    pub(crate) fn insert(&mut self, u: HoleName, d_pexpansion: IExp) {
        self.map.insert(u, d_pexpansion);
    }

    /// Whether `u` is a livelit hole.
    pub fn contains(&self, u: HoleName) -> bool {
        self.map.contains_key(&u)
    }

    /// The number of livelit holes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no livelit holes.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `fillΩ(d)` (Def. 4.6): fills every livelit hole in `d` with its
    /// parameterized expansion, in one walk over `d`.
    ///
    /// Entries are filled in as they are (holes inside an entry are not
    /// filled), so the result does not depend on the order of Ω. Entries are
    /// closed, so filling is syntactic replacement: no closure's recorded
    /// environment needs realizing.
    pub fn fill(&self, d: &IExp) -> IExp {
        fill(d, &|u| self.map.get(&u))
    }

    /// `fillΩ(σ)` on an environment (Def. 4.6, clause 1).
    pub fn fill_sigma(&self, sigma: &Sigma) -> Sigma {
        sigma.map_codomain(|d| self.fill(d))
    }
}

/// A closure-collection failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectError {
    /// A livelit failed to expand ([`eval_full`] only: collection marks
    /// failing invocations instead).
    Expand(ExpandError),
    /// The cc-expansion failed to type check or elaborate.
    Type(TypeError),
    /// Evaluation of the cc-expansion (or a resumption) failed.
    Eval(EvalError),
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Expand(e) => write!(f, "{e}"),
            CollectError::Type(e) => write!(f, "{e}"),
            CollectError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<ExpandError> for CollectError {
    fn from(e: ExpandError) -> CollectError {
        CollectError::Expand(e)
    }
}

impl From<TypeError> for CollectError {
    fn from(e: TypeError) -> CollectError {
        CollectError::Type(e)
    }
}

impl From<EvalError> for CollectError {
    fn from(e: EvalError) -> CollectError {
        CollectError::Eval(e)
    }
}

/// The cc-expansion judgement `Φ; Γ ⊢cc ê ⇝ e : τ ⊣ Ω` (rewriting core),
/// with failing invocations marked (Sec. 5.1).
///
/// Livelit invocations become `(⦇⦈u : {τi} → τ_expand) {ei}` — an empty hole
/// (ascribed at the parameterized-expansion type so the bidirectional
/// checker records `u :: τ[Γ]`) applied to the cc-expanded splices — while
/// Ω collects `u ↩ d_pexpansion`. A failing invocation becomes a hole as in
/// [`expand_marked`](crate::expansion::expand_marked), and its failure is
/// returned in post-order with those of every other one.
pub fn cc_expand(phi: &LivelitCtx, e: &UExp) -> (EExp, Omega, Vec<MarkedError>) {
    let mut omega = Omega::default();
    let mut marked = Vec::new();
    let cc_exp = Walk {
        phi,
        omega: Some(&mut omega),
        marked: Some(&mut marked),
    }
    .exp(e)
    .expect("a marking walk absorbs every failure");
    (cc_exp, omega, marked)
}

/// One σ interned into a term store: sorted (variable, value) pairs ready
/// for simultaneous substitution.
pub type InternedSigma = Box<[(VarId, TermId)]>;

/// Rotate the splice-result cache's generations once the live generation
/// holds this many entries.
pub const SPLICE_CACHE_CAP: usize = 1 << 16;

/// A memoized live-splice outcome: everything
/// [`crate::live::eval_splice`] needs to reconstruct its result without
/// re-realizing or re-evaluating the splice.
#[derive(Debug, Clone)]
pub enum CachedSplice {
    /// σ left a free variable in the realized splice — the result is
    /// absent (`Ok(None)`).
    NotClosed,
    /// Evaluation failed.
    Err(EvalError),
    /// Evaluation finished.
    Done {
        /// The interned final expression.
        result: TermId,
        /// Whether it classifies as a value (vs. indeterminate).
        is_val: bool,
    },
}

/// The splice-result cache: a two-generation (two-space) map.
///
/// Inserts land in the live generation; once it reaches
/// [`SPLICE_CACHE_CAP`], the live generation is demoted wholesale and the
/// previous one retired — so capacity never empties the cache in one step.
/// The old epoch scheme (`results.clear()` at the cap) created a periodic
/// latency cliff in long drag sessions: every splice in the working set
/// missed at once right after a clear. Here a hit in the demoted
/// generation promotes the entry back into the live one, so the working
/// set survives any number of rotations; only entries untouched for a full
/// generation are dropped. Retirements are reported as
/// [`livelit_trace::Counter::SpliceCacheEvictions`].
#[derive(Debug, Default)]
pub struct SpliceCache {
    /// The live generation: inserts and promotions land here.
    cur: HashMap<(TermId, u32), CachedSplice>,
    /// The previous generation: read-only until rotation retires it.
    prev: HashMap<(TermId, u32), CachedSplice>,
}

impl SpliceCache {
    /// Looks up `key`, promoting a previous-generation hit into the live
    /// generation so it survives the next rotation.
    pub fn lookup(&mut self, key: &(TermId, u32)) -> Option<&CachedSplice> {
        if let Some(value) = self.prev.remove(key) {
            self.cur.entry(*key).or_insert(value);
        }
        self.cur.get(key)
    }

    /// Inserts a splice result, rotating generations at
    /// [`SPLICE_CACHE_CAP`] live entries.
    pub fn insert(&mut self, key: (TermId, u32), value: CachedSplice) {
        if self.cur.len() >= SPLICE_CACHE_CAP {
            let retired = mem::replace(&mut self.prev, mem::take(&mut self.cur));
            if !retired.is_empty() {
                livelit_trace::count(
                    livelit_trace::Counter::SpliceCacheEvictions,
                    retired.len() as u64,
                );
            }
        }
        self.cur.insert(key, value);
    }

    /// Entries currently retrievable (both generations).
    pub fn len(&self) -> usize {
        self.cur.len() + self.prev.len()
    }

    /// Whether no entry is retrievable.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty() && self.prev.is_empty()
    }
}

/// Lazily interned collected environments: one term store shared by every
/// live splice evaluation against the same collection, so σ values are
/// interned once per closure rather than deep-copied per evaluation.
///
/// Doubling as the *splice-result cache*: results are keyed by the
/// interned elaborated splice and a compact id for the interned σ
/// contents. Both key components are content-addressed — ids depend only
/// on term structure — so entries stay valid across
/// [`Collection::refresh_after_omega_change`]: after a model edit, only
/// splices whose σ actually changed miss.
#[derive(Debug)]
pub struct InternedEnvs {
    /// A process-unique nonce identifying this interning *lineage*. σ ids
    /// are content-addressed only within one `InternedEnvs` value: two
    /// different lineages can hand out the same `u32` for different
    /// contents. Pairing an id with the lineage nonce makes it globally
    /// comparable, which is what view memo keys need.
    ///
    /// The nonce *survives* [`Collection::refresh_after_omega_change`] —
    /// only a from-scratch collection (which builds a fresh default)
    /// starts a new lineage and conservatively invalidates every memoized
    /// view.
    pub namespace: u64,
    /// The store holding interned σ values, splice terms, and results.
    pub store: TermStore,
    /// σ interned per (livelit hole, closure index), built on first use,
    /// paired with its compact σ id so repeat lookups (the render
    /// pipeline fingerprints every instance on every run) skip both the
    /// pair-list clone and the content re-hash.
    pub envs: BTreeMap<(HoleName, usize), (InternedSigma, u32)>,
    /// Compact ids for distinct σ contents, assigned in first-use order.
    pub sigma_ids: HashMap<InternedSigma, u32>,
    /// The splice-result cache, keyed by (elaborated splice, σ id).
    pub results: SpliceCache,
}

impl Default for InternedEnvs {
    fn default() -> InternedEnvs {
        static NEXT_NAMESPACE: AtomicU64 = AtomicU64::new(1);
        InternedEnvs {
            namespace: NEXT_NAMESPACE.fetch_add(1, Ordering::Relaxed),
            store: TermStore::default(),
            envs: BTreeMap::new(),
            sigma_ids: HashMap::new(),
            results: SpliceCache::default(),
        }
    }
}

impl InternedEnvs {
    /// The compact id for a σ pair-list, assigning the next one on first
    /// use. Content-addressed: two closures with identical contents (now
    /// or across refreshes) share an id.
    pub fn sigma_id(&mut self, pairs: &InternedSigma) -> u32 {
        if let Some(&id) = self.sigma_ids.get(pairs) {
            return id;
        }
        let id = u32::try_from(self.sigma_ids.len()).expect("sigma id overflow");
        self.sigma_ids.insert(pairs.clone(), id);
        id
    }
}

/// The result of running closure collection on a program.
#[derive(Debug, Clone)]
pub struct Collection {
    /// The cc-expansion `e_cc`.
    pub cc_exp: EExp,
    /// Its type.
    pub ty: Typ,
    /// The hole context of the cc-expansion, including every livelit hole's
    /// invocation-site typing context — the Γ used to type splices during
    /// live evaluation.
    pub delta: Delta,
    /// The cc-context Ω.
    pub omega: Omega,
    /// The failing invocations, marked as holes in the cc-expansion
    /// (Sec. 5.1), in post-order.
    pub errors: Vec<MarkedError>,
    /// The evaluated cc-expansion (proto-closures live in here).
    pub proto_result: IExp,
    /// The collected, resumed environments per livelit hole (Def. 4.8):
    /// `envs(ê; u) = {resume(fillΩ(σ)) | σ ∈ protoenvs(ê; u)}`.
    ///
    /// A livelit with no entry (or an empty list) had no closures collected
    /// — e.g. it sits in a branch that was not taken or a function that was
    /// never applied (Sec. 4.3.2's discussion).
    pub envs: BTreeMap<HoleName, Vec<Sigma>>,
    /// The deduplicated proto-environments behind [`Self::envs`], index
    /// for index, each with the livelit holes it mentions.
    proto_envs: BTreeMap<HoleName, Vec<ProtoEnv>>,
    /// Evaluation fuel used for collection and resumption.
    fuel: u64,
    /// Interned mirror of [`Self::envs`], built lazily by live splice
    /// evaluation. Clones share it (the environments are immutable between
    /// refreshes); a refresh that re-resumes a σ moves it into a fresh
    /// `Arc` without that σ's entry.
    interned: Arc<Mutex<InternedEnvs>>,
}

impl Collection {
    /// The environments collected for livelit hole `u` (Def. 4.8). Empty if
    /// none were collected.
    pub fn envs_for(&self, u: HoleName) -> &[Sigma] {
        self.envs.get(&u).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The shared interned-environment state for live splice evaluation.
    pub(crate) fn interned(&self) -> &Arc<Mutex<InternedEnvs>> {
        &self.interned
    }

    /// A content-addressed fingerprint of the σ at `env_index` for hole
    /// `u`: the interning-lineage nonce plus the compact σ id. Two equal
    /// fingerprints guarantee identical σ contents (ids are unique within
    /// a lineage); across lineages fingerprints never compare equal, which
    /// is the conservative direction. `None` when no environment was
    /// collected at that index.
    pub fn sigma_fingerprint(&self, u: HoleName, env_index: usize) -> Option<(u64, u32)> {
        let mut interned = self.interned.lock().unwrap_or_else(PoisonError::into_inner);
        let &(_, sid) = self.interned_env(&mut interned, u, env_index)?;
        Some((interned.namespace, sid))
    }

    /// The σ at `env_index` for hole `u` in `interned`, with its compact
    /// id, interned on first use. `None` when no environment was collected
    /// at that index.
    pub(crate) fn interned_env<'i>(
        &self,
        interned: &'i mut InternedEnvs,
        u: HoleName,
        env_index: usize,
    ) -> Option<&'i (InternedSigma, u32)> {
        let sigma = self.envs_for(u).get(env_index)?;
        if !interned.envs.contains_key(&(u, env_index)) {
            let pairs = interned.store.intern_sigma(sigma);
            let sid = interned.sigma_id(&pairs);
            interned.envs.insert((u, env_index), (pairs, sid));
        }
        interned.envs.get(&(u, env_index))
    }

    /// Installs the cc-context `omega` built from the current livelit
    /// models and recomputes the collected environments it reaches,
    /// without re-running cc-expansion or its evaluation — the incremental
    /// fast path of Sec. 4.3.2.
    ///
    /// Only the σ that mention a livelit hole whose parameterized
    /// expansion changed are filled and resumed again. Every other σ
    /// fills and resumes to what it did before, so it keeps its resumed
    /// value and its interned id.
    ///
    /// # Errors
    ///
    /// Propagates resumption errors. The environments are then partly
    /// refreshed, so the caller must discard the collection.
    pub fn refresh_after_omega_change(&mut self, omega: Omega) -> Result<(), EvalError> {
        let _span = livelit_trace::span("cc.resume_envs");
        let changed: BTreeSet<HoleName> = self
            .omega
            .holes()
            .chain(omega.holes())
            .filter(|&u| self.omega.get(u) != omega.get(u))
            .collect();
        self.omega = omega;
        let mut stale = Vec::new();
        for (&u, protos) in &self.proto_envs {
            for (i, proto) in protos.iter().enumerate() {
                if proto.mentions.iter().any(|h| changed.contains(h)) {
                    let resumed = resume_sigma(&self.omega.fill_sigma(&proto.sigma), self.fuel)?;
                    self.envs.get_mut(&u).expect("envs match proto_envs")[i] = resumed;
                    stale.push((u, i));
                }
            }
        }
        if stale.is_empty() {
            return Ok(());
        }
        // Drop only the re-resumed σ from the interned mirror. The term
        // store and the splice-result cache are content-addressed, so they
        // stay valid. The state moves into a fresh Arc first: a clone that
        // shares the old one still holds the old σ, and is left a fresh
        // lineage that it rebuilds lazily.
        let mut interned =
            mem::take(&mut *self.interned.lock().unwrap_or_else(PoisonError::into_inner));
        for key in &stale {
            interned.envs.remove(key);
        }
        self.interned = Arc::new(Mutex::new(interned));
        Ok(())
    }

    /// Computes the final result of the *full* program by filling the
    /// remaining livelit holes in the evaluated cc-expansion and resuming
    /// (Sec. 4.3.2: "it can simply continue from where it left off") —
    /// avoiding re-expansion and re-evaluation from scratch.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from resumption.
    pub fn resume_result(&self) -> Result<IExp, EvalError> {
        let _span = livelit_trace::span("cc.resume_result");
        let filled = self.omega.fill(&self.proto_result);
        // The program is closed, so resumption is ordinary evaluation.
        eval_traced(&filled, self.fuel)
    }
}

/// Runs both phases of closure collection on a closed program (Defs. 4.5 and
/// 4.8) with the given evaluation fuel. Failing livelit invocations are
/// marked as holes (Sec. 5.1) and listed in [`Collection::errors`], so the
/// rest of the program still evaluates.
///
/// # Errors
///
/// See [`CollectError`].
pub fn collect_with_fuel(
    phi: &LivelitCtx,
    program: &UExp,
    fuel: u64,
) -> Result<Collection, CollectError> {
    let _span = livelit_trace::span("cc.collect");
    // Phase 1: cc-expand (marking failing invocations), type, elaborate,
    // evaluate.
    let (cc_exp, omega, errors) = {
        let _span = livelit_trace::span("cc.expand");
        cc_expand(phi, program)
    };
    // Elaboration synthesizes τ and fails exactly when typing does
    // (Theorem 4.1), so it is the one typing pass.
    let (d_cc, ty, delta) = elab_syn(&Ctx::empty(), &cc_exp)?;
    let proto_result = {
        let _span = livelit_trace::span("cc.eval");
        eval_traced(&d_cc, fuel)?
    };

    let (proto_envs, envs) = collect_envs(&proto_result, &omega, fuel)?;

    Ok(Collection {
        cc_exp,
        ty,
        delta,
        omega,
        errors,
        proto_result,
        envs,
        proto_envs,
        fuel,
        interned: Arc::default(),
    })
}

/// One deduplicated proto-environment (Def. 4.5) and the livelit holes
/// whose closures occur in it: the only Ω entries that filling it reads.
#[derive(Debug, Clone)]
struct ProtoEnv {
    sigma: Sigma,
    mentions: BTreeSet<HoleName>,
}

/// The collected proto-environments per livelit hole, and their resumed
/// forms, index for index.
type CollectedEnvs = (
    BTreeMap<HoleName, Vec<ProtoEnv>>,
    BTreeMap<HoleName, Vec<Sigma>>,
);

/// Proto-environment collection plus resumption (Defs. 4.5–4.8): gathers
/// every livelit hole's environments from an evaluated cc-expansion, as a
/// set (duplicate environments — the same stuck closure substituted into
/// several positions — collapse to one), then fills with Ω and resumes
/// each one in (hole, closure) order, emitting `ClosuresCollected` per
/// hole before its resumptions. The first failure is the one returned.
fn collect_envs(proto_result: &IExp, omega: &Omega, fuel: u64) -> Result<CollectedEnvs, EvalError> {
    let _span = livelit_trace::span("cc.resume_envs");
    let mut proto_envs: BTreeMap<HoleName, Vec<ProtoEnv>> = BTreeMap::new();
    for (u, sigma) in proto_result.hole_closures() {
        if omega.contains(u) {
            let entry = proto_envs.entry(u).or_default();
            if !entry.iter().any(|p| p.sigma == *sigma) {
                let mentions = sigma
                    .iter()
                    .flat_map(|(_, d)| d.hole_closures())
                    .map(|(h, _)| h)
                    .filter(|&h| omega.contains(h))
                    .collect();
                entry.push(ProtoEnv {
                    sigma: sigma.clone(),
                    mentions,
                });
            }
        }
    }
    let mut envs = BTreeMap::new();
    for (&u, protos) in &proto_envs {
        livelit_trace::count(
            livelit_trace::Counter::ClosuresCollected,
            protos.len() as u64,
        );
        let resumed = protos
            .iter()
            .map(|p| resume_sigma(&omega.fill_sigma(&p.sigma), fuel))
            .collect::<Result<Vec<_>, _>>()?;
        envs.insert(u, resumed);
    }
    Ok((proto_envs, envs))
}

/// [`collect_with_fuel`] with the default fuel budget.
///
/// # Errors
///
/// See [`CollectError`].
pub fn collect(phi: &LivelitCtx, program: &UExp) -> Result<Collection, CollectError> {
    collect_with_fuel(phi, program, DEFAULT_FUEL)
}

/// Evaluates the fully expanded program from scratch — the baseline that
/// [`Collection::resume_result`] avoids. Used by Theorem 4.9 tests and the
/// fill-and-resume benchmark.
///
/// # Errors
///
/// See [`CollectError`].
pub fn eval_full(phi: &LivelitCtx, program: &UExp, fuel: u64) -> Result<IExp, CollectError> {
    let expanded = expand(phi, program)?;
    let (d, _, _) = elab_syn(&Ctx::empty(), &expanded)?;
    Ok(eval_traced(&d, fuel)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::LivelitDef;
    use hazel_lang::build::*;
    use hazel_lang::ident::{LivelitName, Var};
    use hazel_lang::unexpanded::{LivelitAp, Splice};
    use hazel_lang::value::iv;

    fn const_livelit(name: &str, value: i64) -> LivelitDef {
        LivelitDef::native(name, vec![], Typ::Int, Typ::Unit, move |_| Ok(int(value)))
    }

    /// A livelit with one Int splice expanding to `fun s -> s * 2`.
    fn doubler() -> LivelitDef {
        LivelitDef::native("$double", vec![], Typ::Int, Typ::Unit, |_| {
            Ok(lam("s", Typ::Int, mul(var("s"), int(2))))
        })
    }

    fn invoke(name: &str, hole: u64, splices: Vec<Splice>) -> UExp {
        UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new(name),
            model: IExp::Unit,
            splices,
            hole: HoleName(hole),
        }))
    }

    fn ulet(x: &str, def: UExp, body: UExp) -> UExp {
        UExp::Let(Var::new(x), None, Box::new(def), Box::new(body))
    }

    #[test]
    fn cc_expansion_replaces_livelits_with_holes() {
        let mut phi = LivelitCtx::new();
        phi.define(const_livelit("$seven", 7)).unwrap();
        let program = invoke("$seven", 0, vec![]);
        let (cc, omega, errors) = cc_expand(&phi, &program);
        assert!(errors.is_empty());
        assert!(matches!(cc, EExp::Asc(ref inner, _) if matches!(**inner, EExp::EmptyHole(_))));
        assert_eq!(omega.len(), 1);
        assert!(omega.contains(HoleName(0)));
    }

    #[test]
    fn collection_gathers_environment_at_invocation() {
        // let q1_max = 36 in let grades = $double(q1_max) in grades + 1
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        let program = ulet(
            "q1_max",
            UExp::Int(36),
            ulet(
                "grades",
                invoke(
                    "$double",
                    0,
                    vec![Splice::new(UExp::Var(Var::new("q1_max")), Typ::Int)],
                ),
                UExp::Bin(
                    hazel_lang::BinOp::Add,
                    Box::new(UExp::Var(Var::new("grades"))),
                    Box::new(UExp::Int(1)),
                ),
            ),
        );
        let collection = collect(&phi, &program).unwrap();
        let envs = collection.envs_for(HoleName(0));
        assert_eq!(envs.len(), 1, "one closure for the one invocation");
        // The environment recorded q1_max = 36, usable for live splice eval.
        assert_eq!(envs[0].get(&Var::new("q1_max")), Some(&iv::int(36)));
    }

    #[test]
    fn resume_result_matches_full_evaluation() {
        // Theorem 4.9 on an example.
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        let program = ulet(
            "x",
            UExp::Int(10),
            UExp::Bin(
                hazel_lang::BinOp::Add,
                Box::new(invoke(
                    "$double",
                    0,
                    vec![Splice::new(UExp::Var(Var::new("x")), Typ::Int)],
                )),
                Box::new(UExp::Int(1)),
            ),
        );
        let collection = collect(&phi, &program).unwrap();
        let resumed = collection.resume_result().unwrap();
        let full = eval_full(&phi, &program, DEFAULT_FUEL).unwrap();
        assert_eq!(resumed, full);
        assert_eq!(resumed, IExp::Int(21));
    }

    #[test]
    fn dependent_livelits_need_resumption() {
        // Fig. 1c's structure: the second livelit's environment depends on
        // the first livelit's value. After proto-collection the entry is
        // indeterminate; resumption fills and resumes it.
        let mut phi = LivelitCtx::new();
        phi.define(const_livelit("$grades", 80)).unwrap();
        phi.define(doubler()).unwrap();
        // let grades = $grades in let averages = grades + 5 in
        //   $double(averages)
        let program = ulet(
            "grades",
            invoke("$grades", 0, vec![]),
            ulet(
                "averages",
                UExp::Bin(
                    hazel_lang::BinOp::Add,
                    Box::new(UExp::Var(Var::new("grades"))),
                    Box::new(UExp::Int(5)),
                ),
                invoke(
                    "$double",
                    1,
                    vec![Splice::new(UExp::Var(Var::new("averages")), Typ::Int)],
                ),
            ),
        );
        let collection = collect(&phi, &program).unwrap();
        let envs = collection.envs_for(HoleName(1));
        assert_eq!(envs.len(), 1);
        // Without resumption, `averages` would be indeterminate (blocked on
        // the $grades hole). After fill + resume it is 85.
        assert_eq!(envs[0].get(&Var::new("averages")), Some(&iv::int(85)));
        // And `grades` resumed to the $grades expansion value.
        assert_eq!(envs[0].get(&Var::new("grades")), Some(&iv::int(80)));
    }

    #[test]
    fn multiple_closures_from_function_application() {
        // Fig. 2's structure: a livelit inside a function applied twice
        // yields two closures, one per call.
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        // let f = fun url : Int -> $double(url) in f 1 + f 2
        let program = ulet(
            "f",
            UExp::Lam(
                Var::new("url"),
                Typ::Int,
                Box::new(invoke(
                    "$double",
                    0,
                    vec![Splice::new(UExp::Var(Var::new("url")), Typ::Int)],
                )),
            ),
            UExp::Bin(
                hazel_lang::BinOp::Add,
                Box::new(UExp::Ap(
                    Box::new(UExp::Var(Var::new("f"))),
                    Box::new(UExp::Int(1)),
                )),
                Box::new(UExp::Ap(
                    Box::new(UExp::Var(Var::new("f"))),
                    Box::new(UExp::Int(2)),
                )),
            ),
        );
        let collection = collect(&phi, &program).unwrap();
        let envs = collection.envs_for(HoleName(0));
        assert_eq!(envs.len(), 2, "one closure per call");
        let urls: Vec<Option<&IExp>> = envs.iter().map(|s| s.get(&Var::new("url"))).collect();
        assert!(urls.contains(&Some(&iv::int(1))));
        assert!(urls.contains(&Some(&iv::int(2))));
    }

    #[test]
    fn livelit_in_unapplied_function_collects_no_closures() {
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        // let f = fun x : Int -> $double(x) in 0   — f never applied.
        let program = ulet(
            "f",
            UExp::Lam(
                Var::new("x"),
                Typ::Int,
                Box::new(invoke(
                    "$double",
                    0,
                    vec![Splice::new(UExp::Var(Var::new("x")), Typ::Int)],
                )),
            ),
            UExp::Int(0),
        );
        let collection = collect(&phi, &program).unwrap();
        assert!(collection.envs_for(HoleName(0)).is_empty());
    }

    #[test]
    fn untaken_branch_collects_no_closures() {
        let mut phi = LivelitCtx::new();
        phi.define(const_livelit("$seven", 7)).unwrap();
        let program = UExp::If(
            Box::new(UExp::Bool(false)),
            Box::new(invoke("$seven", 0, vec![])),
            Box::new(UExp::Int(1)),
        );
        let collection = collect(&phi, &program).unwrap();
        assert!(collection.envs_for(HoleName(0)).is_empty());
        assert_eq!(collection.resume_result().unwrap(), IExp::Int(1));
    }

    #[test]
    fn delta_records_invocation_site_context() {
        let mut phi = LivelitCtx::new();
        phi.define(doubler()).unwrap();
        let program = ulet(
            "x",
            UExp::Int(3),
            invoke(
                "$double",
                0,
                vec![Splice::new(UExp::Var(Var::new("x")), Typ::Int)],
            ),
        );
        let collection = collect(&phi, &program).unwrap();
        let hyp = collection
            .delta
            .get(HoleName(0))
            .expect("livelit hole in Δ");
        assert_eq!(hyp.ctx.get(&Var::new("x")), Some(&Typ::Int));
        assert_eq!(hyp.ty, Typ::arrow(Typ::Int, Typ::Int));
    }
}
