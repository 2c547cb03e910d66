//! Livelit definitions and livelit contexts Φ (Sec. 4.2.1).
//!
//! A livelit definition `livelit $a at τ_expand {τ_model; d_expand}`
//! comprises the livelit's name, its declared parameter types (Sec. 2.4.1),
//! its expansion type, its model type, and its expansion function. The
//! expansion function may be written *in the object language* (an internal
//! expression of type `τ_model → Exp`, as in the calculus) or *natively* in
//! Rust — mirroring Hazel's OCaml/JavaScript "primitive livelits"
//! (Sec. 5.1).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hazel_lang::external::EExp;
use hazel_lang::ident::LivelitName;
use hazel_lang::internal::IExp;
use hazel_lang::internal_typing::check_internal;
use hazel_lang::store::{TermId, TermStore};
use hazel_lang::typ::Typ;
use hazel_lang::typing::{Ctx, Delta, TypeError};

use crate::expansion::PExpansion;

/// Which `Exp` reflection scheme an object-language expansion function
/// produces (Sec. 4.2.1: "any scheme is sufficient").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingScheme {
    /// Surface-syntax strings (`Exp = Str`); see [`crate::encoding`].
    Text,
    /// The recursive-sum encoding; see [`crate::encoding_structural`].
    Structural,
}

impl EncodingScheme {
    /// The object-language `Exp` type for this scheme.
    pub fn exp_typ(self) -> Typ {
        match self {
            EncodingScheme::Text => crate::encoding::exp_typ(),
            EncodingScheme::Structural => crate::encoding_structural::exp_typ(),
        }
    }
}

/// The signature of a native expansion function.
pub type NativeExpandFn = Arc<dyn Fn(&IExp) -> Result<EExp, String> + Send + Sync>;

/// The expansion function of a livelit definition.
#[derive(Clone)]
pub enum ExpandFn {
    /// `d_expand` in the calculus: a closed internal expression of type
    /// `τ_model → Exp`, evaluated by the object-language evaluator and then
    /// decoded (premises 3–4 of `ELivelit`). The scheme selects which `Exp`
    /// encoding the function produces.
    Object(IExp, EncodingScheme),
    /// A native expansion function, trusted to return the parameterized
    /// expansion directly (it is still validated at every invocation site,
    /// premise 5 — Hazel likewise "does not statically check the definition
    /// of expand", Sec. 3.2.5).
    Native(NativeExpandFn),
}

impl fmt::Debug for ExpandFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandFn::Object(d, scheme) => f.debug_tuple("Object").field(d).field(scheme).finish(),
            ExpandFn::Native(_) => f.write_str("Native(<fn>)"),
        }
    }
}

/// Source of unique definition identities for the expansion cache.
static NEXT_DEF_ID: AtomicU64 = AtomicU64::new(1);

/// A livelit definition.
#[derive(Debug, Clone)]
pub struct LivelitDef {
    /// The livelit's name, `$a`.
    pub name: LivelitName,
    /// Declared parameter types, e.g. `(min : Int) (max : Int)` for
    /// `$slider`. Parameters are passed as the leading splices of every
    /// invocation ("parameters operate like splices", Sec. 2.4.1).
    pub param_tys: Vec<Typ>,
    /// The expansion type `τ_expand`.
    pub expansion_ty: Typ,
    /// The model type `τ_model`. Must be a first-order (serializable) type.
    pub model_ty: Typ,
    /// The expansion function.
    pub expand: ExpandFn,
    def_id: u64,
    attested_pure: bool,
    /// For native expansion functions that merely *host* an object-language
    /// expansion function (module-file livelits evaluate theirs on the
    /// environment machine), the hosted term — static evidence the purity
    /// analysis can inspect even though `expand` is an opaque closure.
    object_evidence: Option<Box<(IExp, EncodingScheme)>>,
}

impl LivelitDef {
    fn fresh_def_id() -> u64 {
        NEXT_DEF_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// The identity of this definition, used to key the expansion cache.
    /// Clones share it; two definitions constructed separately never do,
    /// even when their names and fields are equal — so cache entries can
    /// never be served across a redefinition.
    pub fn def_id(&self) -> u64 {
        self.def_id
    }

    /// Whether the author of a *native* expansion function has attested
    /// that it is deterministic (same model and splice types ⇒ same
    /// expansion). Native functions are opaque to static purity analysis
    /// (LL06xx), so the attestation is the only way to discharge the
    /// dynamic LL0401 double-expansion check for them. Object-language
    /// expansion functions never need it: they are analyzed directly.
    pub fn attested_pure(&self) -> bool {
        self.attested_pure
    }

    /// Marks this definition's native expansion function as attested
    /// deterministic; see [`LivelitDef::attested_pure`].
    #[must_use]
    pub fn attest_pure(mut self) -> LivelitDef {
        self.attested_pure = true;
        self
    }

    /// The object-language expansion function this definition evaluates,
    /// if one is statically known: either the definition *is* an
    /// object-language definition, or its native function hosts one and
    /// recorded it via [`LivelitDef::with_object_evidence`].
    pub fn object_expand_fn(&self) -> Option<(&IExp, EncodingScheme)> {
        match &self.expand {
            ExpandFn::Object(d, scheme) => Some((d, *scheme)),
            ExpandFn::Native(_) => self
                .object_evidence
                .as_deref()
                .map(|(d, scheme)| (d, *scheme)),
        }
    }

    /// Records the object-language expansion function a native `expand`
    /// closure hosts, so static analysis can see through the closure; see
    /// [`LivelitDef::object_expand_fn`].
    #[must_use]
    pub fn with_object_evidence(mut self, d: IExp, scheme: EncodingScheme) -> LivelitDef {
        self.object_evidence = Some(Box::new((d, scheme)));
        self
    }
    /// Creates a definition with a native expansion function.
    pub fn native(
        name: impl Into<LivelitName>,
        param_tys: Vec<Typ>,
        expansion_ty: Typ,
        model_ty: Typ,
        expand: impl Fn(&IExp) -> Result<EExp, String> + Send + Sync + 'static,
    ) -> LivelitDef {
        LivelitDef {
            name: name.into(),
            param_tys,
            expansion_ty,
            model_ty,
            expand: ExpandFn::Native(Arc::new(expand)),
            def_id: LivelitDef::fresh_def_id(),
            attested_pure: false,
            object_evidence: None,
        }
    }

    /// Creates a definition with an object-language expansion function
    /// producing text-encoded expansions.
    pub fn object(
        name: impl Into<LivelitName>,
        param_tys: Vec<Typ>,
        expansion_ty: Typ,
        model_ty: Typ,
        d_expand: IExp,
    ) -> LivelitDef {
        LivelitDef {
            name: name.into(),
            param_tys,
            expansion_ty,
            model_ty,
            expand: ExpandFn::Object(d_expand, EncodingScheme::Text),
            def_id: LivelitDef::fresh_def_id(),
            attested_pure: false,
            object_evidence: None,
        }
    }

    /// Creates a definition with an object-language expansion function
    /// producing structurally encoded expansions (the recursive-sum `Exp`).
    pub fn object_structural(
        name: impl Into<LivelitName>,
        param_tys: Vec<Typ>,
        expansion_ty: Typ,
        model_ty: Typ,
        d_expand: IExp,
    ) -> LivelitDef {
        LivelitDef {
            name: name.into(),
            param_tys,
            expansion_ty,
            model_ty,
            expand: ExpandFn::Object(d_expand, EncodingScheme::Structural),
            def_id: LivelitDef::fresh_def_id(),
            attested_pure: false,
            object_evidence: None,
        }
    }

    /// Checks this definition's contribution to livelit context
    /// well-formedness (Def. 4.3): `⊢ d_expand : τ_model → Exp`.
    ///
    /// Native expansion functions are trusted at definition time (they are
    /// validated at each invocation site instead, exactly as Hazel treats
    /// `expand`, Sec. 3.2.5).
    ///
    /// # Errors
    ///
    /// Returns the type error for an ill-typed object-language expansion
    /// function.
    pub fn check_well_formed(&self) -> Result<(), TypeError> {
        match &self.expand {
            ExpandFn::Object(d, scheme) => check_internal(
                &Delta::empty(),
                &Ctx::empty(),
                d,
                &Typ::arrow(self.model_ty.clone(), scheme.exp_typ()),
            ),
            ExpandFn::Native(_) => Ok(()),
        }
    }
}

/// Cache key: definition identity, interned model, splice types — exactly
/// the inputs premises 2–5 of `ELivelit` read.
type CacheKey = (u64, TermId, Box<[Typ]>);

/// A reusable, pre-interned expansion-cache key. Computing one interns the
/// model exactly once; the lookup and the insert of the same logical
/// invocation reuse it instead of re-interning. The key remembers the cache epoch it was minted in so a
/// wholesale eviction (which restarts model ids) can never let a stale
/// `TermId` alias a different model.
#[derive(Debug, Clone)]
pub struct ExpansionKey {
    key: CacheKey,
    epoch: u64,
}

#[derive(Debug, Default)]
struct ExpansionCacheInner {
    /// Interns models so the key carries a compact, hashable `TermId`
    /// (models contain floats, which the tree representation cannot hash).
    models: TermStore,
    map: HashMap<CacheKey, PExpansion>,
    /// Bumped on every wholesale eviction; invalidates outstanding
    /// [`ExpansionKey`]s minted against the cleared model store.
    epoch: u64,
}

/// Bound on cached expansions; on overflow the cache is cleared wholesale
/// (the same epoch-style eviction the term store uses for its subst memo).
const EXPANSION_CACHE_CAP: usize = 1024;

/// A shared memo of validated livelit expansions. Clones share storage, so
/// every Φ derived from the same registry serves hits across engine runs;
/// only successes are cached, so failing invocations re-run all premises
/// and report the same error every time.
#[derive(Debug, Clone, Default)]
pub struct ExpansionCache {
    inner: Arc<Mutex<ExpansionCacheInner>>,
}

impl ExpansionCache {
    /// Mints the `(def_id, interned model, splice types)` key for one
    /// logical invocation. The model is interned exactly once here;
    /// thread the returned key through every keyed operation instead of
    /// repeating the `(def_id, model, tys)` triple.
    pub fn make_key(&self, def_id: u64, model: &IExp, tys: &[Typ]) -> ExpansionKey {
        let mut inner = self.inner.lock().expect("expansion cache poisoned");
        let model_id = inner.models.intern_iexp(model);
        ExpansionKey {
            key: (def_id, model_id, tys.to_vec().into_boxed_slice()),
            epoch: inner.epoch,
        }
    }

    /// Looks up a validated expansion, counting a hit or a miss.
    pub fn lookup(&self, key: &ExpansionKey) -> Option<PExpansion> {
        let inner = self.inner.lock().expect("expansion cache poisoned");
        let found = if key.epoch == inner.epoch {
            inner.map.get(&key.key).cloned()
        } else {
            None
        };
        livelit_trace::count(
            if found.is_some() {
                livelit_trace::Counter::ExpansionCacheHits
            } else {
                livelit_trace::Counter::ExpansionCacheMisses
            },
            1,
        );
        found
    }

    /// Caches a validated expansion.
    pub fn insert(&self, key: &ExpansionKey, entry: PExpansion) {
        let mut inner = self.inner.lock().expect("expansion cache poisoned");
        if inner.map.len() >= EXPANSION_CACHE_CAP {
            // Clearing the model store restarts ids, so the map (whose keys
            // embed them) must go in the same breath; bumping the epoch
            // retires every outstanding key minted against the old store.
            inner.map.clear();
            inner.models = TermStore::new();
            inner.epoch += 1;
        }
        if key.epoch == inner.epoch {
            inner.map.insert(key.key.clone(), entry);
        }
        // A stale-epoch key (minted just before the eviction above) is
        // dropped rather than re-interned: the next invocation simply
        // recomputes and caches under a fresh key.
    }

    /// The number of cached expansions.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("expansion cache poisoned")
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A livelit context Φ: the set of livelit definitions in scope.
#[derive(Debug, Clone, Default)]
pub struct LivelitCtx {
    defs: BTreeMap<LivelitName, LivelitDef>,
    cache: ExpansionCache,
}

impl LivelitCtx {
    /// The empty livelit context.
    pub fn new() -> LivelitCtx {
        LivelitCtx::default()
    }

    /// Adds a definition, checking well-formedness (Def. 4.3).
    ///
    /// # Errors
    ///
    /// Returns the type error if the definition's object-language expansion
    /// function is ill-typed.
    pub fn define(&mut self, def: LivelitDef) -> Result<(), TypeError> {
        def.check_well_formed()?;
        self.defs.insert(def.name.clone(), def);
        Ok(())
    }

    /// Looks up a livelit by name (premise 1 of `ELivelit`).
    pub fn get(&self, name: &LivelitName) -> Option<&LivelitDef> {
        self.defs.get(name)
    }

    /// The expansion cache shared by this context and its clones.
    pub fn expansion_cache(&self) -> &ExpansionCache {
        &self.cache
    }

    /// Iterates over definitions in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&LivelitName, &LivelitDef)> {
        self.defs.iter()
    }

    /// The number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::encode;
    use hazel_lang::build;
    use hazel_lang::ident::Var;

    fn color_ty() -> Typ {
        Typ::prod([
            (hazel_lang::Label::new("r"), Typ::Int),
            (hazel_lang::Label::new("g"), Typ::Int),
            (hazel_lang::Label::new("b"), Typ::Int),
            (hazel_lang::Label::new("a"), Typ::Int),
        ])
    }

    #[test]
    fn native_definition_is_well_formed() {
        let def = LivelitDef::native("$color", vec![], color_ty(), Typ::Unit, |_| {
            Ok(build::int(0))
        });
        assert!(def.check_well_formed().is_ok());
    }

    #[test]
    fn object_definition_checked_against_model_to_exp() {
        // fun m : Unit -> "42"  — a constant expansion function.
        let good = LivelitDef::object(
            "$answer",
            vec![],
            Typ::Int,
            Typ::Unit,
            IExp::Lam(Var::new("m"), Typ::Unit, Box::new(encode(&build::int(42)))),
        );
        assert!(good.check_well_formed().is_ok());

        // fun m : Unit -> 42  — returns Int, not Exp.
        let bad = LivelitDef::object(
            "$broken",
            vec![],
            Typ::Int,
            Typ::Unit,
            IExp::Lam(Var::new("m"), Typ::Unit, Box::new(IExp::Int(42))),
        );
        assert!(bad.check_well_formed().is_err());
    }

    #[test]
    fn context_define_and_lookup() {
        let mut phi = LivelitCtx::new();
        phi.define(LivelitDef::native(
            "$slider",
            vec![Typ::Int, Typ::Int],
            Typ::Int,
            Typ::Unit,
            |_| Ok(build::int(0)),
        ))
        .unwrap();
        assert_eq!(phi.len(), 1);
        let def = phi.get(&LivelitName::new("slider")).expect("defined");
        assert_eq!(def.param_tys.len(), 2);
        assert!(phi.get(&LivelitName::new("nope")).is_none());
    }

    #[test]
    fn ill_formed_definition_rejected_by_context() {
        let mut phi = LivelitCtx::new();
        let bad = LivelitDef::object(
            "$broken",
            vec![],
            Typ::Int,
            Typ::Unit,
            IExp::Int(3), // not a function at all
        );
        assert!(phi.define(bad).is_err());
        assert!(phi.is_empty());
    }
}
