//! Loading textual livelit declarations (see [`hazel_lang::module`]) into
//! checked livelit definitions.
//!
//! A declaration `livelit $a (x : τ)* at τ_expand { model τ_model init e;
//! expand e }` is checked here:
//!
//! - the initial model must be a *value* of `τ_model` (premise 2 of
//!   `ELivelit` will re-check it at every invocation; declaration loading
//!   evaluates the given expression to that value),
//! - the expansion function must have type `τ_model → Exp` (Def. 4.3,
//!   checked by [`LivelitCtx::define`]) under the string `Exp` scheme.

use std::fmt;

use hazel_lang::elab::elab_ana;
use hazel_lang::eval::{eval_traced, EvalError, DEFAULT_FUEL};
use hazel_lang::ident::LivelitName;
use hazel_lang::internal::IExp;
use hazel_lang::module::LivelitDecl;
use hazel_lang::typ::Typ;
use hazel_lang::typing::{Ctx, TypeError};
use hazel_lang::value::value_has_typ;

use crate::def::{LivelitCtx, LivelitDef};
use crate::encoding::exp_typ;

/// A checked, loadable livelit declaration: the calculus-level definition
/// plus the evaluated initial model value.
#[derive(Debug, Clone)]
pub struct CheckedDecl {
    /// The calculus-level definition (object-language expansion function).
    pub def: LivelitDef,
    /// The evaluated initial model value.
    pub init_model: IExp,
}

/// A declaration-loading failure.
#[derive(Debug)]
pub enum DeclError {
    /// The declaration's `init` or `expand` expression is ill-typed.
    Type {
        /// The declaration being loaded.
        livelit: LivelitName,
        /// Which part failed (`"init"` or `"expand"`).
        part: &'static str,
        /// The underlying type error.
        error: TypeError,
    },
    /// Evaluating the initial model failed.
    InitEval {
        /// The declaration being loaded.
        livelit: LivelitName,
        /// The underlying evaluation error.
        error: EvalError,
    },
    /// The initial model evaluated to something that is not a serializable
    /// value of the model type.
    InitNotAValue {
        /// The declaration being loaded.
        livelit: LivelitName,
        /// The declared model type.
        model_ty: Typ,
    },
}

impl fmt::Display for DeclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclError::Type {
                livelit,
                part,
                error,
            } => write!(f, "{livelit}: {part} is ill-typed: {error}"),
            DeclError::InitEval { livelit, error } => {
                write!(f, "{livelit}: initial model failed to evaluate: {error}")
            }
            DeclError::InitNotAValue { livelit, model_ty } => {
                write!(f, "{livelit}: initial model is not a value of {model_ty}")
            }
        }
    }
}

impl std::error::Error for DeclError {}

/// Checks and loads one declaration.
///
/// # Errors
///
/// See [`DeclError`].
pub fn load_decl(decl: &LivelitDecl) -> Result<CheckedDecl, DeclError> {
    // Initial model: elaborate at the model type, evaluate to a value.
    let (d_init, _) =
        elab_ana(&Ctx::empty(), &decl.init_model, &decl.model_ty).map_err(|error| {
            DeclError::Type {
                livelit: decl.name.clone(),
                part: "init",
                error,
            }
        })?;
    let init_model = eval_traced(&d_init, DEFAULT_FUEL).map_err(|error| DeclError::InitEval {
        livelit: decl.name.clone(),
        error,
    })?;
    if !value_has_typ(&init_model, &decl.model_ty) {
        return Err(DeclError::InitNotAValue {
            livelit: decl.name.clone(),
            model_ty: decl.model_ty.clone(),
        });
    }

    // Expansion function: elaborate at τ_model → Exp.
    let expand_ty = Typ::arrow(decl.model_ty.clone(), exp_typ());
    let (d_expand, _) =
        elab_ana(&Ctx::empty(), &decl.expand, &expand_ty).map_err(|error| DeclError::Type {
            livelit: decl.name.clone(),
            part: "expand",
            error,
        })?;

    let def = LivelitDef::object(
        decl.name.clone(),
        decl.params.iter().map(|(_, t)| t.clone()).collect(),
        decl.expansion_ty.clone(),
        decl.model_ty.clone(),
        d_expand,
    );
    Ok(CheckedDecl { def, init_model })
}

/// Loads every declaration of a module into a livelit context.
///
/// # Errors
///
/// Returns the first failing declaration's error.
pub fn load_decls(
    decls: &[LivelitDecl],
    phi: &mut LivelitCtx,
) -> Result<Vec<CheckedDecl>, DeclError> {
    let mut out = Vec::with_capacity(decls.len());
    for decl in decls {
        let checked = load_decl(decl)?;
        phi.define(checked.def.clone())
            .map_err(|error| DeclError::Type {
                livelit: decl.name.clone(),
                part: "expand",
                error,
            })?;
        out.push(checked);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::module::parse_module;

    fn decl_from(src: &str) -> LivelitDecl {
        let mut module = parse_module(src).expect("parses");
        module.livelits.remove(0)
    }

    #[test]
    fn loads_a_constant_livelit() {
        let decl = decl_from(
            "livelit $answer at Int { model Unit init (); \
             expand fun m : Unit -> \"42\" } 1",
        );
        let checked = load_decl(&decl).unwrap();
        assert_eq!(checked.init_model, IExp::Unit);
        assert!(checked.def.check_well_formed().is_ok());
    }

    #[test]
    fn model_dependent_expansion() {
        // A counter-style livelit whose expansion is built from its model
        // by string concatenation (the text Exp scheme in the object
        // language). Model Bool selects between two expansions.
        let decl = decl_from(
            "livelit $flag at Bool { model Bool init true; \
             expand fun m : Bool -> if m then \"true\" else \"false\" } 1",
        );
        let checked = load_decl(&decl).unwrap();
        assert_eq!(checked.init_model, IExp::Bool(true));

        // Drive it through the calculus.
        let mut phi = LivelitCtx::new();
        phi.define(checked.def).unwrap();
        let program = hazel_lang::UExp::Livelit(Box::new(hazel_lang::LivelitAp {
            name: LivelitName::new("$flag"),
            model: IExp::Bool(false),
            splices: vec![],
            hole: hazel_lang::HoleName(0),
        }));
        let collection = crate::cc::collect(&phi, &program).unwrap();
        assert_eq!(collection.resume_result().unwrap(), IExp::Bool(false));
    }

    #[test]
    fn ill_typed_init_rejected() {
        let decl = decl_from(
            "livelit $bad at Int { model Int init true; \
             expand fun m : Int -> \"0\" } 1",
        );
        assert!(matches!(
            load_decl(&decl),
            Err(DeclError::Type { part: "init", .. })
        ));
    }

    #[test]
    fn ill_typed_expand_rejected() {
        let decl = decl_from(
            "livelit $bad at Int { model Unit init (); \
             expand fun m : Unit -> 42 } 1",
        );
        assert!(matches!(
            load_decl(&decl),
            Err(DeclError::Type { part: "expand", .. })
        ));
    }

    #[test]
    fn init_may_compute() {
        // The initial model may be any expression of the model type.
        let decl = decl_from(
            "livelit $計 at Int { model Int init 40 + 2; \
             expand fun m : Int -> \"0\" } 1",
        );
        let checked = load_decl(&decl).unwrap();
        assert_eq!(checked.init_model, IExp::Int(42));
    }
}
