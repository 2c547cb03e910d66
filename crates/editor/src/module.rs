//! Opening module files in the editor: textual livelit definitions become
//! registered, invocable livelits with a generic GUI.
//!
//! Object-language livelit declarations carry only the semantic core
//! (model, init, expand — the calculus's definition form, Sec. 4.2.1); the
//! paper "omit[s] the logic related to view computations and actions, which
//! are tied to a particular UI framework". The editor therefore hosts them
//! behind [`ObjectLivelit`], a generic GUI that shows the current model,
//! an editor per parameter, and a live preview of the expansion — enough
//! for declarations to be fully usable without any Rust code. The
//! `(.set <model-value>)` action overwrites the model, so generic clients
//! (and result push-back) can still drive them.

use std::fmt;
use std::sync::Arc;

use hazel_lang::external::EExp;
use hazel_lang::ident::LivelitName;
use hazel_lang::module::Module;
use hazel_lang::parse::ParseError;
use hazel_lang::typ::Typ;
use hazel_lang::value::value_has_typ;
use hazel_lang::IExp;
use livelit_core::def::ExpandFn;
use livelit_core::module::{CheckedDecl, DeclError};
use livelit_mvu::html::tags::*;
use livelit_mvu::html::{Dim, Html};
use livelit_mvu::livelit::{Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;

use crate::doc::{DocError, Document, PreludeBinding};
use crate::registry::LivelitRegistry;

/// A generic editor host for an object-language livelit declaration.
pub struct ObjectLivelit {
    checked: CheckedDecl,
}

impl ObjectLivelit {
    /// Wraps a checked declaration.
    pub fn new(checked: CheckedDecl) -> ObjectLivelit {
        ObjectLivelit { checked }
    }

    fn run_expand(&self, model: &Model) -> Result<EExp, String> {
        match &self.checked.def.expand {
            ExpandFn::Object(d_expand, scheme) => {
                let applied = IExp::Ap(Box::new(d_expand.clone()), Box::new(model.clone()));
                // The machine runs inline on an explicit frame arena, so
                // a deeply recursive expand function cannot overflow the
                // host stack.
                let encoded =
                    hazel_lang::eval::eval_traced(&applied, hazel_lang::eval::DEFAULT_FUEL)
                        .map_err(|e| e.to_string())?;
                match scheme {
                    livelit_core::def::EncodingScheme::Text => {
                        livelit_core::encoding::decode(&encoded).map_err(|e| e.to_string())
                    }
                    livelit_core::def::EncodingScheme::Structural => {
                        livelit_core::encoding_structural::decode(&encoded)
                            .map_err(|e| e.to_string())
                    }
                }
            }
            ExpandFn::Native(f) => f(model),
        }
    }
}

impl Livelit for ObjectLivelit {
    fn name(&self) -> LivelitName {
        self.checked.def.name.clone()
    }

    fn param_tys(&self) -> Vec<Typ> {
        self.checked.def.param_tys.clone()
    }

    fn expansion_ty(&self) -> Typ {
        self.checked.def.expansion_ty.clone()
    }

    fn model_ty(&self) -> Typ {
        self.checked.def.model_ty.clone()
    }

    fn object_expand_fn(&self) -> Option<(IExp, livelit_core::def::EncodingScheme)> {
        match &self.checked.def.expand {
            ExpandFn::Object(d_expand, scheme) => Some((d_expand.clone(), *scheme)),
            ExpandFn::Native(_) => None,
        }
    }

    fn init(&self, _params: &[SpliceRef], _ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        Ok(self.checked.init_model.clone())
    }

    fn update(
        &self,
        _model: &Model,
        action: &Action,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Model, CmdError> {
        // Generic protocol: (.set <new model value>).
        let new_model = action
            .field(&hazel_lang::Label::new("set"))
            .ok_or_else(|| CmdError::Custom("object livelits accept (.set model)".into()))?;
        if value_has_typ(new_model, &self.checked.def.model_ty) {
            Ok(new_model.clone())
        } else {
            Err(CmdError::ModelType(self.checked.def.model_ty.clone()))
        }
    }

    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let mut rows = vec![Html::text(format!(
            "{} at {}",
            self.name(),
            self.checked.def.expansion_ty
        ))];
        rows.push(Html::text(format!(
            "model: {}",
            hazel_lang::pretty::print_iexp(model, 60)
        )));
        for (i, _) in self.checked.def.param_tys.iter().enumerate() {
            rows.push(span(vec![
                Html::text(format!("param {i}: ")),
                ctx.editor(SpliceRef(i as u64), Dim::fixed_width(20)),
            ]));
        }
        // A live preview of the (parameterized) expansion.
        match self.run_expand(model) {
            Ok(pexpansion) => rows.push(Html::text(format!(
                "expands to: {}",
                hazel_lang::pretty::print_eexp(&pexpansion, 60)
            ))),
            Err(e) => rows.push(Html::text(format!("expansion error: {e}"))),
        }
        Ok(div(rows))
    }

    fn push_result(
        &self,
        _model: &Model,
        new_value: &IExp,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Option<Model>, CmdError> {
        // When the model type and expansion type coincide (literal-style
        // livelits), a result edit maps straight onto the model.
        if self.checked.def.model_ty == self.checked.def.expansion_ty
            && value_has_typ(new_value, &self.checked.def.model_ty)
        {
            Ok(Some(new_value.clone()))
        } else {
            Ok(None)
        }
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        let pexpansion = self.run_expand(model)?;
        // Parameters are the only splices of object-language livelits.
        let refs = (0..self.checked.def.param_tys.len() as u64)
            .map(SpliceRef)
            .collect();
        Ok((pexpansion, refs))
    }
}

/// A module-opening failure.
#[derive(Debug)]
pub enum ModuleError {
    /// The module text failed to parse.
    Parse(ParseError),
    /// A livelit declaration failed to check.
    Decl(DeclError),
    /// A checked declaration failed its registration lints.
    Registry(crate::registry::RegistryError),
    /// A library definition is ill-typed.
    Def {
        /// The definition's name.
        name: String,
        /// The underlying type error.
        error: hazel_lang::TypeError,
    },
    /// The main expression could not be instantiated as a document.
    Doc(DocError),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Parse(e) => write!(f, "{e}"),
            ModuleError::Decl(e) => write!(f, "{e}"),
            ModuleError::Registry(e) => write!(f, "{e}"),
            ModuleError::Def { name, error } => write!(f, "def {name}: {error}"),
            ModuleError::Doc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ModuleError {}

/// Opens a module file: registers its livelit declarations (behind the
/// generic GUI), type checks its `def` bindings into the prelude, and
/// instantiates its main expression as a live document.
///
/// The registry is taken by value, extended, and returned alongside the
/// document so callers can keep using both.
///
/// # Errors
///
/// See [`ModuleError`].
pub fn open_module(
    mut registry: LivelitRegistry,
    src: &str,
) -> Result<(LivelitRegistry, Document), ModuleError> {
    let module: Module = hazel_lang::module::parse_module(src).map_err(ModuleError::Parse)?;

    // Livelit declarations.
    for decl in &module.livelits {
        let checked = livelit_core::module::load_decl(decl).map_err(ModuleError::Decl)?;
        registry
            .register(Arc::new(ObjectLivelit::new(checked)))
            .map_err(ModuleError::Registry)?;
    }

    // Library definitions, checked sequentially.
    let mut prelude = Vec::with_capacity(module.defs.len());
    let mut ctx = hazel_lang::Ctx::empty();
    for def in &module.defs {
        hazel_lang::typing::ana(&ctx, &def.def, &def.ty).map_err(|error| ModuleError::Def {
            name: def.var.to_string(),
            error,
        })?;
        ctx = ctx.extend(def.var.clone(), def.ty.clone());
        prelude.push(PreludeBinding::new(
            def.var.clone(),
            def.ty.clone(),
            def.def.clone(),
        ));
    }

    let doc = Document::new(&registry, prelude, module.main).map_err(ModuleError::Doc)?;
    Ok((registry, doc))
}
