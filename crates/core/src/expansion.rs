//! Typed livelit expansion: `Φ; Γ ⊢ ê ⇝ e : τ`, rule `ELivelit` (Fig. 5).
//!
//! Each livelit invocation `$a⟨d_model; {ψi}⟩u` expands by:
//!
//! 1. **Lookup** — find `$a` in Φ.
//! 2. **Model validation** — check `⊢ d_model : τ_model`.
//! 3. **Expansion** — evaluate `d_expand d_model` to the encoded
//!    parameterized expansion.
//! 4. **Decoding** — decode it to an external expression.
//! 5. **Expansion validation** — check the parameterized expansion is
//!    *closed* (context independence) and has type `{τi}^(i<n) → τ_expand`
//!    (so splices are capture-avoiding function arguments).
//! 6. **Splice expansion** — recursively expand each splice in the same
//!    context.
//!
//! The conclusion applies the parameterized expansion to the expanded
//! splices. Expansion here is factored into a context-free rewriting pass
//! (all livelit-local checks need no Γ, because the parameterized expansion
//! is closed) followed by ordinary typing of the result, which checks each
//! splice against its splice type under the invocation-site Γ — together
//! these implement the typed-expansion judgement, and Theorem 4.4 (typed
//! expansion) is the statement that the composition succeeds.

use std::collections::BTreeSet;
use std::fmt;

use hazel_lang::elab::elab_syn;
use hazel_lang::eval::{eval_traced, EvalError, DEFAULT_FUEL};
use hazel_lang::external::{CaseArm, EExp};
use hazel_lang::ident::{LivelitName, Var};
use hazel_lang::internal::IExp;
use hazel_lang::typ::Typ;
use hazel_lang::typing::{ana, syn, Ctx, Delta, TypeError};
use hazel_lang::unexpanded::{LivelitAp, UExp};
use hazel_lang::value::value_has_typ;

use crate::def::{CachedExpansion, ExpandFn, ExpansionKey, LivelitCtx};
use crate::encoding::{decode, DecodeError};

/// An expansion failure.
///
/// The first four variants are exactly the failure modes that Hazel marks
/// with non-empty holes (Sec. 5.1): unbound livelit, ill-typed model,
/// run-time error in `expand`, and expansion validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpandError {
    /// Invocation of a livelit not bound in Φ (failure mode 1).
    UnboundLivelit(LivelitName),
    /// The invocation's model value is not of the declared model type
    /// (failure mode 2).
    ModelType {
        /// The livelit whose model failed validation.
        livelit: LivelitName,
        /// The declared model type.
        expected: Typ,
    },
    /// The object-language expansion function crashed or diverged
    /// (failure mode 3).
    ExpandEval {
        /// The livelit whose expansion function failed.
        livelit: LivelitName,
        /// The underlying evaluation error.
        error: EvalError,
    },
    /// A native expansion function reported an error (failure mode 3).
    NativeExpand {
        /// The livelit whose expansion function failed.
        livelit: LivelitName,
        /// The error message from the native function.
        message: String,
    },
    /// The encoded expansion failed to decode (failure mode 3/4 boundary).
    Decode {
        /// The livelit whose encoded expansion was malformed.
        livelit: LivelitName,
        /// The decode failure.
        error: DecodeError,
    },
    /// The parameterized expansion is not closed — a context-independence
    /// violation (failure mode 4).
    NotClosed {
        /// The offending livelit.
        livelit: LivelitName,
        /// The free variables that leaked into the expansion.
        free: BTreeSet<Var>,
    },
    /// The parameterized expansion is not of type `{τi} → τ_expand`
    /// (failure mode 4).
    Validation {
        /// The offending livelit.
        livelit: LivelitName,
        /// The type the parameterized expansion must have.
        expected: Typ,
        /// What went wrong: either a type error inside the expansion or a
        /// mismatch against the expected type.
        error: TypeError,
    },
    /// The invocation supplies fewer splices than the livelit declares
    /// parameters — "missing livelit parameter" (Sec. 2.4.1).
    MissingParameters {
        /// The offending livelit.
        livelit: LivelitName,
        /// Number of declared parameters.
        declared: usize,
        /// Number of splices supplied.
        supplied: usize,
    },
    /// A leading (parameter) splice was created at the wrong type.
    ParameterType {
        /// The offending livelit.
        livelit: LivelitName,
        /// The parameter index.
        index: usize,
        /// The declared parameter type.
        expected: Typ,
        /// The type recorded on the splice.
        found: Typ,
    },
    /// The fully expanded program failed to type check (e.g. a splice does
    /// not have its declared splice type under the invocation-site Γ).
    Type(TypeError),
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::UnboundLivelit(name) => write!(f, "unbound livelit {name}"),
            ExpandError::ModelType { livelit, expected } => {
                write!(f, "{livelit}: model value is not of model type {expected}")
            }
            ExpandError::ExpandEval { livelit, error } => {
                write!(f, "{livelit}: expansion function failed: {error}")
            }
            ExpandError::NativeExpand { livelit, message } => {
                write!(f, "{livelit}: expansion function failed: {message}")
            }
            ExpandError::Decode { livelit, error } => {
                write!(f, "{livelit}: {error}")
            }
            ExpandError::NotClosed { livelit, free } => {
                write!(
                    f,
                    "{livelit}: expansion is not context-independent; free variables: "
                )?;
                for (i, x) in free.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            ExpandError::Validation {
                livelit,
                expected,
                error,
            } => write!(
                f,
                "{livelit}: parameterized expansion is not of type {expected}: {error}"
            ),
            ExpandError::MissingParameters {
                livelit,
                declared,
                supplied,
            } => write!(
                f,
                "missing livelit parameter: {livelit} declares {declared} parameter(s), \
                 {supplied} supplied"
            ),
            ExpandError::ParameterType {
                livelit,
                index,
                expected,
                found,
            } => write!(
                f,
                "{livelit}: parameter {index} has type {found}, expected {expected}"
            ),
            ExpandError::Type(e) => write!(f, "expansion does not type check: {e}"),
        }
    }
}

impl std::error::Error for ExpandError {}

impl From<TypeError> for ExpandError {
    fn from(e: TypeError) -> ExpandError {
        ExpandError::Type(e)
    }
}

/// The validated parameterized expansion of one livelit invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PExpansion {
    /// The closed parameterized expansion `e_pexpansion`.
    pub pexpansion: EExp,
    /// Its curried type `{τi}^(i<n) → τ_expand`.
    pub full_ty: Typ,
    /// The expansion type `τ_expand`.
    pub expansion_ty: Typ,
}

/// Runs premises 1–5 of `ELivelit` for one invocation, producing the
/// validated parameterized expansion. (Premise 6, splice expansion, and the
/// conclusion are handled by [`expand`].)
///
/// # Errors
///
/// Any of the `ELivelit` failure modes; see [`ExpandError`].
pub fn expand_invocation(phi: &LivelitCtx, ap: &LivelitAp) -> Result<PExpansion, ExpandError> {
    expand_invocation_with(phi, ap, true)
}

/// [`expand_invocation`] with the expansion cache bypassed: every premise
/// re-runs, including the definition's `expand` function. The determinism
/// lint (`LL0401`) depends on this — it expands twice and diffs, which the
/// cache would otherwise render vacuous.
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand_invocation_uncached(
    phi: &LivelitCtx,
    ap: &LivelitAp,
) -> Result<PExpansion, ExpandError> {
    expand_invocation_with(phi, ap, false)
}

fn expand_invocation_with(
    phi: &LivelitCtx,
    ap: &LivelitAp,
    use_cache: bool,
) -> Result<PExpansion, ExpandError> {
    expand_invocation_inner(phi, ap, use_cache).map(|(pe, _)| pe)
}

/// The worker behind [`expand_invocation`]: also returns the minted cache
/// key so callers with follow-up cache traffic (elaboration memoization)
/// reuse it instead of re-interning the model.
fn expand_invocation_inner(
    phi: &LivelitCtx,
    ap: &LivelitAp,
    use_cache: bool,
) -> Result<(PExpansion, Option<ExpansionKey>), ExpandError> {
    livelit_trace::count(livelit_trace::Counter::ExpansionsPerformed, 1);
    // 1. Lookup.
    let def = phi
        .get(&ap.name)
        .ok_or_else(|| ExpandError::UnboundLivelit(ap.name.clone()))?;

    // Premises 2–5 are a pure function of the definition, the model, and
    // the splice types — exactly the cache key, minted once here and
    // threaded through every cache operation for this invocation. A hit
    // means an invocation with this key already passed every premise, so
    // the cached expansion can be returned without re-running them.
    let splice_tys: Vec<Typ> = ap.splices.iter().map(|s| s.ty.clone()).collect();
    let key = use_cache.then(|| {
        phi.expansion_cache()
            .make_key(def.def_id(), &ap.model, &splice_tys)
    });
    if let Some(key) = &key {
        if let Some(cached) = phi.expansion_cache().lookup(key) {
            return Ok((
                PExpansion {
                    pexpansion: cached.pexpansion,
                    full_ty: cached.full_ty,
                    expansion_ty: cached.expansion_ty,
                },
                Some(key.clone()),
            ));
        }
    }

    // Parameter arity and types (Sec. 2.4.1): parameters are the leading
    // splices and must be present at the declared types before the livelit
    // can be invoked.
    if ap.splices.len() < def.param_tys.len() {
        return Err(ExpandError::MissingParameters {
            livelit: ap.name.clone(),
            declared: def.param_tys.len(),
            supplied: ap.splices.len(),
        });
    }
    for (i, (param_ty, splice)) in def.param_tys.iter().zip(&ap.splices).enumerate() {
        if &splice.ty != param_ty {
            return Err(ExpandError::ParameterType {
                livelit: ap.name.clone(),
                index: i,
                expected: param_ty.clone(),
                found: splice.ty.clone(),
            });
        }
    }

    // 2. Model validation: ⊢ d_model : τ_model.
    if !value_has_typ(&ap.model, &def.model_ty) {
        return Err(ExpandError::ModelType {
            livelit: ap.name.clone(),
            expected: def.model_ty.clone(),
        });
    }

    // 3–4. Expansion and decoding.
    let pexpansion = run_expand_fn(&def.expand, &ap.model).map_err(|e| {
        let livelit = ap.name.clone();
        match e {
            ExpandFnError::Eval(error) => ExpandError::ExpandEval { livelit, error },
            ExpandFnError::Decode(error) => ExpandError::Decode { livelit, error },
            ExpandFnError::Native(message) => ExpandError::NativeExpand { livelit, message },
        }
    })?;

    // 5. Expansion validation: context independence (closedness) ...
    let free = pexpansion.free_vars();
    if !free.is_empty() {
        return Err(ExpandError::NotClosed {
            livelit: ap.name.clone(),
            free,
        });
    }
    // ... and the curried type {τi} → τ_expand.
    let full_ty = Typ::arrows(
        ap.splices.iter().map(|s| s.ty.clone()),
        def.expansion_ty.clone(),
    );
    match syn(&Ctx::empty(), &pexpansion) {
        Ok((found, _)) if found == full_ty => {}
        Ok((found, _)) => {
            let error = TypeError::Mismatch {
                expected: full_ty.clone(),
                found,
            };
            return Err(ExpandError::Validation {
                livelit: ap.name.clone(),
                expected: full_ty,
                error,
            });
        }
        Err(error) => {
            return Err(ExpandError::Validation {
                livelit: ap.name.clone(),
                expected: full_ty,
                error,
            })
        }
    }

    if let Some(key) = &key {
        phi.expansion_cache().insert(
            key,
            CachedExpansion {
                pexpansion: pexpansion.clone(),
                full_ty: full_ty.clone(),
                expansion_ty: def.expansion_ty.clone(),
                elab: None,
            },
        );
    }

    Ok((
        PExpansion {
            pexpansion,
            full_ty,
            expansion_ty: def.expansion_ty.clone(),
        },
        key,
    ))
}

/// Why a livelit's expand function failed to produce a parameterized
/// expansion (steps 3–4 of `ELivelit`).
#[derive(Debug, Clone, PartialEq)]
pub enum ExpandFnError {
    /// Evaluating `d_expand d_model` failed.
    Eval(EvalError),
    /// The encoded expansion failed to decode.
    Decode(DecodeError),
    /// A native expansion function reported an error.
    Native(String),
}

impl fmt::Display for ExpandFnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandFnError::Eval(e) => write!(f, "{e}"),
            ExpandFnError::Decode(e) => write!(f, "{e}"),
            ExpandFnError::Native(message) => f.write_str(message),
        }
    }
}

/// Steps 3–4 of `ELivelit`: applies an expand function to a model. An
/// object-language function is evaluated at [`DEFAULT_FUEL`] and its
/// result decoded by its [`crate::def::EncodingScheme`]; a native one
/// returns the parameterized expansion directly. The result is not yet
/// validated (step 5).
///
/// The machine runs inline on an explicit frame arena, so a deeply
/// recursive expand function cannot overflow the host stack.
///
/// # Errors
///
/// See [`ExpandFnError`].
pub fn run_expand_fn(expand: &ExpandFn, model: &IExp) -> Result<EExp, ExpandFnError> {
    match expand {
        ExpandFn::Object(d_expand, scheme) => {
            let applied = IExp::Ap(Box::new(d_expand.clone()), Box::new(model.clone()));
            let d_encoded = eval_traced(&applied, DEFAULT_FUEL).map_err(ExpandFnError::Eval)?;
            match scheme {
                crate::def::EncodingScheme::Text => decode(&d_encoded),
                crate::def::EncodingScheme::Structural => {
                    crate::encoding_structural::decode(&d_encoded)
                }
            }
            .map_err(ExpandFnError::Decode)
        }
        ExpandFn::Native(f) => f(model).map_err(ExpandFnError::Native),
    }
}

/// [`expand_invocation`] plus the elaboration of the parameterized
/// expansion, memoized alongside it in the expansion cache (closure
/// collection elaborates every invocation's expansion into Ω).
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand_invocation_elab(
    phi: &LivelitCtx,
    ap: &LivelitAp,
) -> Result<(PExpansion, IExp), ExpandError> {
    let (pe, key) = expand_invocation_inner(phi, ap, true)?;
    if let Some(key) = &key {
        if let Some(CachedExpansion { elab: Some(d), .. }) = phi.expansion_cache().peek(key) {
            return Ok((pe, d));
        }
    }
    let (d, _, _) = elab_syn(&Ctx::empty(), &pe.pexpansion).map_err(ExpandError::Type)?;
    if let Some(key) = &key {
        phi.expansion_cache().set_elab(key, &d);
    }
    Ok((pe, d))
}

/// Expands every livelit invocation in `ê`, producing the external
/// expression `e` (the rewriting core of `Φ; Γ ⊢ ê ⇝ e : τ`).
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand(phi: &LivelitCtx, e: &UExp) -> Result<EExp, ExpandError> {
    match e {
        UExp::Livelit(ap) => {
            let pe = expand_invocation(phi, ap)?;
            // Conclusion of ELivelit: apply the parameterized expansion to
            // the expanded splices. Beta reduction performs capture-avoiding
            // substitution, so splices cannot capture expansion-internal
            // bindings.
            let mut out = pe.pexpansion;
            for splice in &ap.splices {
                let expanded = expand(phi, &splice.exp)?;
                out = EExp::Ap(Box::new(out), Box::new(expanded));
            }
            Ok(out)
        }
        UExp::Var(x) => Ok(EExp::Var(x.clone())),
        UExp::Lam(x, t, b) => Ok(EExp::Lam(x.clone(), t.clone(), Box::new(expand(phi, b)?))),
        UExp::Ap(a, b) => Ok(EExp::Ap(
            Box::new(expand(phi, a)?),
            Box::new(expand(phi, b)?),
        )),
        UExp::Let(x, t, a, b) => Ok(EExp::Let(
            x.clone(),
            t.clone(),
            Box::new(expand(phi, a)?),
            Box::new(expand(phi, b)?),
        )),
        UExp::Fix(x, t, b) => Ok(EExp::Fix(x.clone(), t.clone(), Box::new(expand(phi, b)?))),
        UExp::Int(n) => Ok(EExp::Int(*n)),
        UExp::Float(x) => Ok(EExp::Float(*x)),
        UExp::Bool(b) => Ok(EExp::Bool(*b)),
        UExp::Str(s) => Ok(EExp::Str(s.clone())),
        UExp::Unit => Ok(EExp::Unit),
        UExp::Bin(op, a, b) => Ok(EExp::Bin(
            *op,
            Box::new(expand(phi, a)?),
            Box::new(expand(phi, b)?),
        )),
        UExp::If(c, t, e2) => Ok(EExp::If(
            Box::new(expand(phi, c)?),
            Box::new(expand(phi, t)?),
            Box::new(expand(phi, e2)?),
        )),
        UExp::Tuple(fields) => Ok(EExp::Tuple(
            fields
                .iter()
                .map(|(l, fe)| Ok((l.clone(), expand(phi, fe)?)))
                .collect::<Result<_, ExpandError>>()?,
        )),
        UExp::Proj(inner, l) => Ok(EExp::Proj(Box::new(expand(phi, inner)?), l.clone())),
        UExp::Inj(t, l, inner) => Ok(EExp::Inj(
            t.clone(),
            l.clone(),
            Box::new(expand(phi, inner)?),
        )),
        UExp::Case(scrut, arms) => Ok(EExp::Case(
            Box::new(expand(phi, scrut)?),
            arms.iter()
                .map(|arm| {
                    Ok(CaseArm {
                        label: arm.label.clone(),
                        var: arm.var.clone(),
                        body: expand(phi, &arm.body)?,
                    })
                })
                .collect::<Result<_, ExpandError>>()?,
        )),
        UExp::Nil(t) => Ok(EExp::Nil(t.clone())),
        UExp::Cons(a, b) => Ok(EExp::Cons(
            Box::new(expand(phi, a)?),
            Box::new(expand(phi, b)?),
        )),
        UExp::ListCase(scrut, nil, h, t, cons) => Ok(EExp::ListCase(
            Box::new(expand(phi, scrut)?),
            Box::new(expand(phi, nil)?),
            h.clone(),
            t.clone(),
            Box::new(expand(phi, cons)?),
        )),
        UExp::Roll(t, inner) => Ok(EExp::Roll(t.clone(), Box::new(expand(phi, inner)?))),
        UExp::Unroll(inner) => Ok(EExp::Unroll(Box::new(expand(phi, inner)?))),
        UExp::Asc(inner, t) => Ok(EExp::Asc(Box::new(expand(phi, inner)?), t.clone())),
        UExp::EmptyHole(u) => Ok(EExp::EmptyHole(*u)),
        UExp::NonEmptyHole(u, inner) => Ok(EExp::NonEmptyHole(*u, Box::new(expand(phi, inner)?))),
    }
}

/// The full typed-expansion judgement `Φ; Γ ⊢ ê ⇝ e : τ` in synthetic
/// position: expansion followed by typing of the result.
///
/// Theorem 4.4 (typed expansion) states that success here implies
/// `Γ ⊢ e : τ` — which is checked directly, since typing *is* the second
/// stage.
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand_typed(
    phi: &LivelitCtx,
    ctx: &Ctx,
    e: &UExp,
) -> Result<(EExp, Typ, Delta), ExpandError> {
    let _span = livelit_trace::span("expand.typed");
    let expanded = expand(phi, e)?;
    let (ty, delta) = syn(ctx, &expanded)?;
    Ok((expanded, ty, delta))
}

/// The typed-expansion judgement in analytic position.
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand_typed_ana(
    phi: &LivelitCtx,
    ctx: &Ctx,
    e: &UExp,
    ty: &Typ,
) -> Result<(EExp, Delta), ExpandError> {
    let _span = livelit_trace::span("expand.typed");
    let expanded = expand(phi, e)?;
    let delta = ana(ctx, &expanded, ty)?;
    Ok((expanded, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::LivelitDef;
    use hazel_lang::build::*;
    use hazel_lang::ident::HoleName;
    use hazel_lang::unexpanded::Splice;
    use hazel_lang::value::iv;

    fn color_ty() -> Typ {
        Typ::prod([
            (hazel_lang::Label::new("r"), Typ::Int),
            (hazel_lang::Label::new("g"), Typ::Int),
            (hazel_lang::Label::new("b"), Typ::Int),
            (hazel_lang::Label::new("a"), Typ::Int),
        ])
    }

    /// The Fig. 3 `$color` livelit: four Int splices, expansion
    /// `fun r g b a -> (.r r, .g g, .b b, .a a)`.
    fn color_def() -> LivelitDef {
        LivelitDef::native("$color", vec![], color_ty(), Typ::Unit, |_model| {
            Ok(lams(
                [
                    ("r", Typ::Int),
                    ("g", Typ::Int),
                    ("b", Typ::Int),
                    ("a", Typ::Int),
                ],
                record([
                    ("r", var("r")),
                    ("g", var("g")),
                    ("b", var("b")),
                    ("a", var("a")),
                ]),
            ))
        })
    }

    fn phi() -> LivelitCtx {
        let mut phi = LivelitCtx::new();
        phi.define(color_def()).unwrap();
        phi
    }

    fn color_ap(splices: Vec<Splice>) -> UExp {
        UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$color"),
            model: IExp::Unit,
            splices,
            hole: HoleName(0),
        }))
    }

    fn int_splices(ns: &[i64]) -> Vec<Splice> {
        ns.iter()
            .map(|n| Splice::new(UExp::Int(*n), Typ::Int))
            .collect()
    }

    #[test]
    fn color_invocation_expands_and_evaluates() {
        let e = color_ap(int_splices(&[57, 107, 57, 92]));
        let (expanded, ty, _) = expand_typed(&phi(), &Ctx::empty(), &e).unwrap();
        assert_eq!(ty, color_ty());
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        let result = eval_traced(&d, DEFAULT_FUEL).unwrap();
        assert_eq!(
            result,
            iv::record([
                ("r", iv::int(57)),
                ("g", iv::int(107)),
                ("b", iv::int(57)),
                ("a", iv::int(92)),
            ])
        );
    }

    #[test]
    fn splices_are_lexically_scoped_to_the_invocation_site() {
        // Fig. 1b: let baseline = 57 in $color(baseline; baseline + 50; ...)
        // The splice references a *client* binding; capture avoidance means
        // expansion-internal binders (r, g, b, a) cannot capture it.
        let e = elet_u(
            "baseline",
            UExp::Int(57),
            color_ap(vec![
                Splice::new(UExp::Var(Var::new("baseline")), Typ::Int),
                Splice::new(
                    UExp::Bin(
                        hazel_lang::BinOp::Add,
                        Box::new(UExp::Var(Var::new("baseline"))),
                        Box::new(UExp::Int(50)),
                    ),
                    Typ::Int,
                ),
                Splice::new(UExp::Int(57), Typ::Int),
                Splice::new(UExp::Int(92), Typ::Int),
            ]),
        );
        let (expanded, _, _) = expand_typed(&phi(), &Ctx::empty(), &e).unwrap();
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        let result = eval_traced(&d, DEFAULT_FUEL).unwrap();
        assert_eq!(
            result.field(&hazel_lang::Label::new("g")),
            Some(&iv::int(107))
        );
    }

    fn elet_u(x: &str, def: UExp, body: UExp) -> UExp {
        UExp::Let(Var::new(x), None, Box::new(def), Box::new(body))
    }

    #[test]
    fn capture_avoidance_adversarial() {
        // A livelit whose expansion binds `len` internally; a splice that
        // references a *client* `len` must see the client's binding.
        let mut phi = LivelitCtx::new();
        phi.define(LivelitDef::native(
            "$lenny",
            vec![],
            Typ::Int,
            Typ::Unit,
            |_| {
                // fun s : Int -> let len = 1000 in s + len
                Ok(lam(
                    "s",
                    Typ::Int,
                    elet("len", int(1000), add(var("s"), var("len"))),
                ))
            },
        ))
        .unwrap();
        let e = elet_u(
            "len",
            UExp::Int(5),
            UExp::Livelit(Box::new(LivelitAp {
                name: LivelitName::new("$lenny"),
                model: IExp::Unit,
                splices: vec![Splice::new(UExp::Var(Var::new("len")), Typ::Int)],
                hole: HoleName(0),
            })),
        );
        let (expanded, _, _) = expand_typed(&phi, &Ctx::empty(), &e).unwrap();
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        // Client len = 5 flows into the splice: 5 + 1000, NOT 1000 + 1000.
        assert_eq!(eval_traced(&d, DEFAULT_FUEL).unwrap(), IExp::Int(1005));
    }

    #[test]
    fn unbound_livelit_reported() {
        let e = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$ghost"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(0),
        }));
        assert_eq!(
            expand(&phi(), &e),
            Err(ExpandError::UnboundLivelit(LivelitName::new("$ghost")))
        );
    }

    #[test]
    fn model_type_validated() {
        let e = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$color"),
            model: IExp::Int(3), // model type is Unit
            splices: int_splices(&[1, 2, 3, 4]),
            hole: HoleName(0),
        }));
        assert!(matches!(
            expand(&phi(), &e),
            Err(ExpandError::ModelType { .. })
        ));
    }

    #[test]
    fn non_closed_expansion_rejected() {
        let mut phi = LivelitCtx::new();
        phi.define(LivelitDef::native(
            "$leaky",
            vec![],
            Typ::Int,
            Typ::Unit,
            |_| Ok(var("strlen")), // depends on a hidden binding
        ))
        .unwrap();
        let e = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$leaky"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(0),
        }));
        match expand(&phi, &e) {
            Err(ExpandError::NotClosed { free, .. }) => {
                assert!(free.contains(&Var::new("strlen")));
            }
            other => panic!("expected NotClosed, got {other:?}"),
        }
    }

    #[test]
    fn wrong_expansion_type_rejected() {
        let mut phi = LivelitCtx::new();
        phi.define(LivelitDef::native(
            "$shifty",
            vec![],
            Typ::Int,
            Typ::Unit,
            |_| Ok(boolean(true)), // Int expected, Bool produced
        ))
        .unwrap();
        let e = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$shifty"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(0),
        }));
        assert!(matches!(
            expand(&phi, &e),
            Err(ExpandError::Validation { .. })
        ));
    }

    #[test]
    fn missing_parameters_rejected() {
        let mut phi = LivelitCtx::new();
        phi.define(LivelitDef::native(
            "$slider",
            vec![Typ::Int, Typ::Int],
            Typ::Int,
            Typ::Unit,
            |_| Ok(lams([("min", Typ::Int), ("max", Typ::Int)], var("min"))),
        ))
        .unwrap();
        // $uslider-style partial application: only one of two parameters.
        let e = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$slider"),
            model: IExp::Unit,
            splices: vec![Splice::new(UExp::Int(0), Typ::Int)],
            hole: HoleName(0),
        }));
        assert_eq!(
            expand(&phi, &e),
            Err(ExpandError::MissingParameters {
                livelit: LivelitName::new("$slider"),
                declared: 2,
                supplied: 1,
            })
        );
    }

    #[test]
    fn splice_type_errors_surface_via_typing() {
        // A Bool where an Int splice is declared: expansion rewriting
        // succeeds, but the typed judgement fails.
        let e = color_ap(vec![
            Splice::new(UExp::Bool(true), Typ::Int),
            Splice::new(UExp::Int(2), Typ::Int),
            Splice::new(UExp::Int(3), Typ::Int),
            Splice::new(UExp::Int(4), Typ::Int),
        ]);
        assert!(matches!(
            expand_typed(&phi(), &Ctx::empty(), &e),
            Err(ExpandError::Type(_))
        ));
    }

    #[test]
    fn nested_livelits_expand() {
        // A livelit invocation in a splice of another invocation (Fig. 1b's
        // $percent inside $color).
        let mut phi = phi();
        phi.define(LivelitDef::native(
            "$const7",
            vec![],
            Typ::Int,
            Typ::Unit,
            |_| Ok(int(7)),
        ))
        .unwrap();
        let inner = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$const7"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(1),
        }));
        let e = color_ap(vec![
            Splice::new(inner, Typ::Int),
            Splice::new(UExp::Int(2), Typ::Int),
            Splice::new(UExp::Int(3), Typ::Int),
            Splice::new(UExp::Int(4), Typ::Int),
        ]);
        let (expanded, _, _) = expand_typed(&phi, &Ctx::empty(), &e).unwrap();
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        let result = eval_traced(&d, DEFAULT_FUEL).unwrap();
        assert_eq!(
            result.field(&hazel_lang::Label::new("r")),
            Some(&iv::int(7))
        );
    }

    #[test]
    fn object_livelit_with_structural_encoding() {
        // The same $inc livelit, but its expansion function returns the
        // recursive-sum encoding instead of a string.
        let mut phi = LivelitCtx::new();
        let d_expand = IExp::Lam(
            Var::new("m"),
            Typ::Unit,
            Box::new(crate::encoding_structural::encode(&lam(
                "x",
                Typ::Int,
                add(var("x"), int(1)),
            ))),
        );
        phi.define(crate::def::LivelitDef::object_structural(
            "$incs",
            vec![],
            Typ::arrow(Typ::Int, Typ::Int),
            Typ::Unit,
            d_expand,
        ))
        .unwrap();
        let e = UExp::Ap(
            Box::new(UExp::Livelit(Box::new(LivelitAp {
                name: LivelitName::new("$incs"),
                model: IExp::Unit,
                splices: vec![],
                hole: HoleName(0),
            }))),
            Box::new(UExp::Int(41)),
        );
        let (expanded, ty, _) = expand_typed(&phi, &Ctx::empty(), &e).unwrap();
        assert_eq!(ty, Typ::Int);
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        assert_eq!(eval_traced(&d, DEFAULT_FUEL).unwrap(), IExp::Int(42));
    }

    #[test]
    fn object_language_expansion_function() {
        // An expansion function written in the object language: it ignores
        // its model and returns the encoding of `fun x : Int -> x + 1`.
        let mut phi = LivelitCtx::new();
        let d_expand = IExp::Lam(
            Var::new("m"),
            Typ::Unit,
            Box::new(crate::encoding::encode(&lam(
                "x",
                Typ::Int,
                add(var("x"), int(1)),
            ))),
        );
        phi.define(LivelitDef::object(
            "$inc",
            vec![],
            Typ::arrow(Typ::Int, Typ::Int),
            Typ::Unit,
            d_expand,
        ))
        .unwrap();
        let e = UExp::Ap(
            Box::new(UExp::Livelit(Box::new(LivelitAp {
                name: LivelitName::new("$inc"),
                model: IExp::Unit,
                splices: vec![],
                hole: HoleName(0),
            }))),
            Box::new(UExp::Int(41)),
        );
        let (expanded, ty, _) = expand_typed(&phi, &Ctx::empty(), &e).unwrap();
        assert_eq!(ty, Typ::Int);
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &expanded).unwrap();
        assert_eq!(eval_traced(&d, DEFAULT_FUEL).unwrap(), IExp::Int(42));
    }

    #[test]
    fn deeply_recursive_object_expansion_fits_a_default_thread_stack() {
        // The expand function makes 10 000 non-tail recursive calls before
        // returning its encoding: `go n = if n <= 0 then enc else go (n-1) ^ ""`.
        // Expansion evaluates on the environment machine, whose control
        // state lives on its frame arena, so Rust's default 2 MiB thread
        // stack suffices.
        let expanded = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let encoded = crate::encoding::encode(&lam("x", Typ::Int, add(var("x"), int(1))));
                let IExp::Str(enc) = encoded else {
                    panic!("the text encoding is a string");
                };
                let go = letrec(
                    "go",
                    Typ::arrow(Typ::Int, Typ::Str),
                    lam(
                        "n",
                        Typ::Int,
                        ite(
                            bin(hazel_lang::BinOp::Le, var("n"), int(0)),
                            string(&enc),
                            bin(
                                hazel_lang::BinOp::Concat,
                                ap(var("go"), sub(var("n"), int(1))),
                                string(""),
                            ),
                        ),
                    ),
                    var("go"),
                );
                let (d_expand, _, _) =
                    elab_syn(&Ctx::empty(), &lam("m", Typ::Int, ap(go, var("m")))).unwrap();
                let mut phi = LivelitCtx::new();
                phi.define(LivelitDef::object(
                    "$deep",
                    vec![],
                    Typ::arrow(Typ::Int, Typ::Int),
                    Typ::Int,
                    d_expand,
                ))
                .unwrap();
                let e = UExp::Ap(
                    Box::new(UExp::Livelit(Box::new(LivelitAp {
                        name: LivelitName::new("$deep"),
                        model: IExp::Int(10_000),
                        splices: vec![],
                        hole: HoleName(0),
                    }))),
                    Box::new(UExp::Int(41)),
                );
                expand(&phi, &e).map_err(|e| e.to_string())
            })
            .expect("spawn a default-sized thread")
            .join()
            .expect("expansion must not overflow a 2 MiB stack")
            .expect("expands");
        let (d, _, _) = elab_syn(&Ctx::empty(), &expanded).unwrap();
        assert_eq!(eval_traced(&d, DEFAULT_FUEL).unwrap(), IExp::Int(42));
    }
}
