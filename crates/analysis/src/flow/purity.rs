//! `LL06xx` — static purity/effect inference for expansion functions.
//!
//! The paper's determinism requirement (Sec. 2.4.1: expansion must be a
//! pure function of the model) is enforced dynamically by the `LL0401`
//! double-expansion check. That check is sound but costs a full second
//! expansion per invocation. This module proves most expansions
//! deterministic *statically*, so the dynamic check runs only on the
//! residue:
//!
//! - A livelit defined by an **object-language** expansion function (or a
//!   native livelit that supplies its object-language definition as
//!   evidence) is analyzed directly: the internal language has no
//!   nondeterministic constructs, so any expansion it defines is a pure
//!   function of the model. The only caveat is `fix` — a recursive
//!   expansion function is still deterministic but may diverge, which we
//!   report separately ([`Purity::PureMayDiverge`], `LL0602`).
//! - A native livelit may **attest** purity
//!   (`LivelitDef::attest_pure`); the attestation is trusted but recorded
//!   distinctly so consumers can choose to keep spot-checking.
//! - Everything else is [`Purity::Unknown`] and keeps the dynamic check.

use hazel_lang::store::TermStore;
use livelit_core::LivelitDef;

use super::facts::{FactScout, TermFacts};
use crate::flow::engine::FactMemo;

/// The purity verdict for one livelit's expansion function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Purity {
    /// Proven pure and total-by-construction (no `fix` in the expansion
    /// function): expansion is a deterministic, terminating function of
    /// the model.
    Pure,
    /// Proven pure but the expansion function uses general recursion, so
    /// expansion may diverge (`LL0602`).
    PureMayDiverge,
    /// Purity attested by the livelit author rather than proven.
    Attested,
    /// No static evidence; the dynamic `LL0401` check remains in force.
    Unknown,
}

impl Purity {
    /// Whether this verdict licenses skipping the dynamic determinism
    /// check.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Purity::Unknown)
    }
}

/// Infers the purity of `def`'s expansion function.
///
/// Proof is preferred over attestation: a definition carrying an
/// object-language expansion function is analyzed even if it also
/// attests, because the proven verdict is strictly stronger.
pub fn infer_def(def: &LivelitDef) -> Purity {
    if let Some((d, _scheme)) = def.object_expand_fn() {
        // The internal language is effect-free, so an object-language
        // expansion function is pure by construction; only divergence
        // (via `fix`) remains possible.
        let mut store = TermStore::new();
        let root = store.intern_iexp(d);
        let memo: FactMemo<TermFacts> = FactMemo::new();
        let mut scout = FactScout::new(&store, &memo);
        let facts = scout.facts(root);
        return if facts.has_fix {
            Purity::PureMayDiverge
        } else {
            Purity::Pure
        };
    }
    if def.attested_pure() {
        return Purity::Attested;
    }
    Purity::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::ident::Var;
    use hazel_lang::typ::Typ;
    use hazel_lang::IExp;
    use livelit_core::def::EncodingScheme;

    fn int_model_def() -> LivelitDef {
        LivelitDef::native("$test", vec![], Typ::Int, Typ::Int, |_model| {
            Ok(hazel_lang::build::int(0))
        })
    }

    #[test]
    fn object_expansion_without_fix_is_pure() {
        let d = IExp::Lam(
            Var::new("model"),
            Typ::Int,
            Box::new(IExp::Var(Var::new("model"))),
        );
        let def = int_model_def().with_object_evidence(d, EncodingScheme::Text);
        assert_eq!(infer_def(&def), Purity::Pure);
    }

    #[test]
    fn object_expansion_with_fix_may_diverge() {
        let d = IExp::Fix(
            Var::new("go"),
            Typ::arrow(Typ::Int, Typ::Int),
            Box::new(IExp::Lam(
                Var::new("model"),
                Typ::Int,
                Box::new(IExp::Ap(
                    Box::new(IExp::Var(Var::new("go"))),
                    Box::new(IExp::Var(Var::new("model"))),
                )),
            )),
        );
        let def = int_model_def().with_object_evidence(d, EncodingScheme::Text);
        assert_eq!(infer_def(&def), Purity::PureMayDiverge);
    }

    #[test]
    fn attestation_is_trusted_but_distinct() {
        assert_eq!(infer_def(&int_model_def()), Purity::Unknown);
        assert_eq!(infer_def(&int_model_def().attest_pure()), Purity::Attested);
    }
}
