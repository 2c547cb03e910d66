//! The livelit host: one live instance per invocation site.
//!
//! An [`Instance`] owns everything editor-side for a single livelit
//! invocation: the implementation, the persisted model, the splice store,
//! and the selected closure index (the Fig. 2 sidebar toggle). It drives the
//! init → (view ⇄ update)* → expand lifecycle, validates models against the
//! declared model type at every step (premise 2 of `ELivelit` enforced
//! continuously), and projects the invocation back into the syntax tree as
//! a [`LivelitAp`].

use std::sync::Arc;

use hazel_lang::external::EExp;
use hazel_lang::ident::HoleName;
use hazel_lang::internal::Sigma;
use hazel_lang::typing::Ctx;
use hazel_lang::unexpanded::{LivelitAp, UExp};
use hazel_lang::value::value_has_typ;
use livelit_core::def::{LivelitCtx, LivelitDef};

use crate::html::{EventKind, Html};
use crate::livelit::{
    bind_context, context_ctx, Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx,
};
use crate::splice::{SpliceRef, SpliceStore};

/// Derives the calculus-level [`LivelitDef`] from a livelit implementation:
/// the definition's expansion function calls the implementation's `expand`
/// and binds the declared context around the result.
pub fn def_for(livelit: &Arc<dyn Livelit>) -> LivelitDef {
    let implementation = Arc::clone(livelit);
    let bindings = livelit.context();
    let mut def = LivelitDef::native(
        livelit.name(),
        livelit.param_tys(),
        livelit.expansion_ty(),
        livelit.model_ty(),
        move |model| {
            let (pexpansion, _refs) = implementation.expand(model)?;
            Ok(bind_context(&bindings, pexpansion))
        },
    );
    if livelit.expand_pure() {
        def = def.attest_pure();
    }
    // A hosted object-language expansion function is only valid static
    // evidence when the native wrapper adds nothing on top of it — an
    // explicit context would wrap the expansion in `let`s it can't see.
    if livelit.context().is_empty() {
        if let Some((d, scheme)) = livelit.object_expand_fn() {
            def = def.with_object_evidence(d, scheme);
        }
    }
    def
}

/// A live livelit instance at one invocation site.
#[derive(Clone)]
pub struct Instance {
    livelit: Arc<dyn Livelit>,
    hole: HoleName,
    model: Model,
    store: SpliceStore,
    param_refs: Vec<SpliceRef>,
    allowed_ctx: Ctx,
    /// Which collected closure the client has selected (Fig. 2 toggle).
    pub selected_env: usize,
}

impl Instance {
    /// Instantiates a livelit with the given parameter expressions
    /// (abbreviation prefixes already resolved). Runs `init`.
    ///
    /// `hole` names the hole this invocation fills; `hole_base` seeds fresh
    /// hole names for empty splices (the editor passes a range disjoint
    /// from program holes).
    ///
    /// # Errors
    ///
    /// Fails on parameter-arity mismatch, `init` failure, or an ill-typed
    /// initial model.
    pub fn new(
        livelit: Arc<dyn Livelit>,
        hole: HoleName,
        params: Vec<UExp>,
        hole_base: u64,
    ) -> Result<Instance, CmdError> {
        let param_tys = livelit.param_tys();
        if params.len() != param_tys.len() {
            return Err(CmdError::ParamArity {
                declared: param_tys.len(),
                supplied: params.len(),
            });
        }
        let mut store = SpliceStore::new(hole_base);
        let param_refs: Vec<SpliceRef> = param_tys
            .into_iter()
            .zip(params)
            .map(|(ty, e)| store.new_param(ty, e))
            .collect();
        let allowed_ctx = context_ctx(&livelit.context());
        let model = {
            let mut ucx = UpdateCtx::new(&mut store, &allowed_ctx);
            livelit.init(&param_refs, &mut ucx)?
        };
        let instance = Instance {
            livelit,
            hole,
            model,
            store,
            param_refs,
            allowed_ctx,
            selected_env: 0,
        };
        instance.check_model()?;
        Ok(instance)
    }

    /// Reconstructs an instance from a persisted invocation: the model is
    /// taken from the syntax tree and the splice store is rebuilt by
    /// pairing `expand`'s reference list with the serialized splice list
    /// (Sec. 3.2.5: "Only the model is persisted ... the expansion can be
    /// regenerated by calling expand whenever needed").
    ///
    /// # Errors
    ///
    /// Fails if the model is ill-typed, `expand` fails, or the reference
    /// and splice lists disagree in length.
    pub fn restore(
        livelit: Arc<dyn Livelit>,
        ap: &LivelitAp,
        hole_base: u64,
    ) -> Result<Instance, CmdError> {
        if !value_has_typ(&ap.model, &livelit.model_ty()) {
            return Err(CmdError::ModelType(livelit.model_ty()));
        }
        let (_pexpansion, refs) = livelit.expand(&ap.model).map_err(CmdError::Custom)?;
        if refs.len() != ap.splices.len() {
            return Err(CmdError::Custom(format!(
                "persisted invocation has {} splices but the model implies {}",
                ap.splices.len(),
                refs.len()
            )));
        }
        let n_params = livelit.param_tys().len();
        let mut store = SpliceStore::new(hole_base);
        for (i, (r, splice)) in refs.iter().zip(&ap.splices).enumerate() {
            store.restore(*r, splice.ty.clone(), splice.exp.clone(), i < n_params);
        }
        let allowed_ctx = context_ctx(&livelit.context());
        Ok(Instance {
            livelit,
            hole: ap.hole,
            model: ap.model.clone(),
            store,
            param_refs: refs[..n_params].to_vec(),
            allowed_ctx,
            selected_env: 0,
        })
    }

    fn check_model(&self) -> Result<(), CmdError> {
        let ty = self.livelit.model_ty();
        if value_has_typ(&self.model, &ty) {
            Ok(())
        } else {
            Err(CmdError::ModelType(ty))
        }
    }

    /// The current model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The hole this invocation fills.
    pub fn hole(&self) -> HoleName {
        self.hole
    }

    /// The livelit's name.
    pub fn name(&self) -> hazel_lang::LivelitName {
        self.livelit.name()
    }

    /// The livelit's layout class (Sec. 5.3).
    pub fn layout(&self) -> crate::livelit::LivelitLayout {
        self.livelit.layout()
    }

    /// The splice store (read access for rendering).
    pub fn store(&self) -> &SpliceStore {
        &self.store
    }

    /// The parameter splice references, in declaration order.
    pub fn param_refs(&self) -> &[SpliceRef] {
        &self.param_refs
    }

    /// Dispatches an action through `update`, producing the new model.
    ///
    /// # Errors
    ///
    /// Fails if `update` fails or returns an ill-typed model (the model is
    /// left unchanged in either case).
    pub fn dispatch(&mut self, action: &Action) -> Result<(), CmdError> {
        let new_model = {
            let mut ucx = UpdateCtx::new(&mut self.store, &self.allowed_ctx);
            self.livelit.update(&self.model, action, &mut ucx)?
        };
        let old = std::mem::replace(&mut self.model, new_model);
        if let Err(e) = self.check_model() {
            self.model = old;
            return Err(e);
        }
        Ok(())
    }

    /// Computes the current view. `gamma` is the invocation-site typing
    /// context and `envs` the closures collected for this invocation; the
    /// instance's `selected_env` picks one.
    ///
    /// # Errors
    ///
    /// Propagates view-computation failures (displayed in place of the GUI,
    /// not semantic errors — Sec. 5.1).
    pub fn view(
        &self,
        phi: &LivelitCtx,
        gamma: &Ctx,
        envs: &[Sigma],
        fuel: u64,
    ) -> Result<Html<Action>, CmdError> {
        let env = envs.get(self.selected_env.min(envs.len().saturating_sub(1)));
        let mut vcx = ViewCtx::new(&self.store, phi, gamma, env, fuel);
        self.livelit.view(&self.model, &mut vcx)
    }

    /// [`Instance::view`] through `collection`'s interned fast path: the
    /// view's per-splice `eval_splice` calls go through the collection's
    /// term store and splice-result cache under the selected closure.
    ///
    /// # Errors
    ///
    /// See [`Instance::view`].
    pub fn view_live(
        &self,
        phi: &LivelitCtx,
        gamma: &Ctx,
        collection: &livelit_core::cc::Collection,
        fuel: u64,
    ) -> Result<Html<Action>, CmdError> {
        let envs = collection.envs_for(self.hole);
        let env_index = self.selected_env.min(envs.len().saturating_sub(1));
        let env = envs.get(env_index);
        let mut vcx = ViewCtx::new(&self.store, phi, gamma, env, fuel)
            .with_collection(collection, self.hole, env_index);
        self.livelit.view(&self.model, &mut vcx)
    }

    /// Simulates a user click on the element with the given `id` in the
    /// current view, dispatching the attached action.
    ///
    /// # Errors
    ///
    /// Fails if the element or handler does not exist, or `update` fails.
    pub fn click(
        &mut self,
        phi: &LivelitCtx,
        gamma: &Ctx,
        envs: &[Sigma],
        fuel: u64,
        target_id: &str,
    ) -> Result<(), CmdError> {
        let view = self.view(phi, gamma, envs, fuel)?;
        let action = view
            .find_handler(target_id, EventKind::Click)
            .cloned()
            .ok_or_else(|| CmdError::Custom(format!("no click handler on #{target_id}")))?;
        self.dispatch(&action)
    }

    /// Projects this instance back into the syntax tree: the persistent
    /// livelit invocation `$a⟨d_model; {ψi}⟩u` whose splice list follows
    /// `expand`'s reference list.
    ///
    /// # Errors
    ///
    /// Fails if `expand` fails or references a dangling splice.
    pub fn invocation(&self) -> Result<LivelitAp, CmdError> {
        let (_pexpansion, refs) = self.livelit.expand(&self.model).map_err(CmdError::Custom)?;
        let splices = self.store.splice_list(&refs)?;
        Ok(LivelitAp {
            name: self.livelit.name(),
            model: self.model.clone(),
            splices,
            hole: self.hole,
        })
    }

    /// Pushes an edited result value back into the livelit, if it supports
    /// bidirectional editing (Sec. 7). Returns `Ok(false)` if the livelit
    /// declines.
    ///
    /// # Errors
    ///
    /// Fails if the livelit's `push_result` fails or the produced model is
    /// ill-typed.
    pub fn push_result(&mut self, new_value: &hazel_lang::IExp) -> Result<bool, CmdError> {
        let pushed = {
            let mut ucx = UpdateCtx::new(&mut self.store, &self.allowed_ctx);
            self.livelit.push_result(&self.model, new_value, &mut ucx)?
        };
        match pushed {
            Some(new_model) => {
                let old = std::mem::replace(&mut self.model, new_model);
                if let Err(e) = self.check_model() {
                    self.model = old;
                    return Err(e);
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Edits a splice's contents as the *client* (through the embedded
    /// splice editor / formula bar). Client edits may contain livelits and
    /// are typed at the invocation site by the editor pipeline.
    ///
    /// # Errors
    ///
    /// Fails on a dangling reference.
    pub fn edit_splice(&mut self, r: SpliceRef, e: UExp) -> Result<(), CmdError> {
        Ok(self.store.set_splice_client(r, e)?)
    }

    /// The parameterized expansion for the current model, with the declared
    /// context bound (what the calculus-level expansion will validate).
    ///
    /// # Errors
    ///
    /// Fails if `expand` fails.
    pub fn pexpansion(&self) -> Result<EExp, CmdError> {
        let (pexpansion, _) = self.livelit.expand(&self.model).map_err(CmdError::Custom)?;
        Ok(bind_context(&self.livelit.context(), pexpansion))
    }
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("livelit", &self.livelit.name())
            .field("hole", &self.hole)
            .field("model", &self.model)
            .field("splices", &self.store.len())
            .field("selected_env", &self.selected_env)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::tags::*;
    use crate::html::Dim;
    use hazel_lang::build::*;
    use hazel_lang::ident::LivelitName;
    use hazel_lang::typ::Typ;
    use hazel_lang::value::iv;
    use hazel_lang::IExp;

    /// A miniature checkbox livelit: model = Bool, action = toggle,
    /// expansion = the boolean literal. No splices.
    struct Checkbox;

    impl Livelit for Checkbox {
        fn name(&self) -> LivelitName {
            LivelitName::new("$checkbox")
        }

        fn expansion_ty(&self) -> Typ {
            Typ::Bool
        }

        fn model_ty(&self) -> Typ {
            Typ::Bool
        }

        fn init(&self, _params: &[SpliceRef], _ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
            Ok(IExp::Bool(false))
        }

        fn update(
            &self,
            model: &Model,
            _action: &Action,
            _ctx: &mut UpdateCtx<'_>,
        ) -> Result<Model, CmdError> {
            match model {
                IExp::Bool(b) => Ok(IExp::Bool(!b)),
                _ => Err(CmdError::Custom("bad model".into())),
            }
        }

        fn view(&self, model: &Model, _ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
            let checked = matches!(model, IExp::Bool(true));
            Ok(div(vec![Html::text(if checked { "[x]" } else { "[ ]" })])
                .attr("id", "box")
                .on_click(IExp::Unit))
        }

        fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
            match model {
                IExp::Bool(b) => Ok((boolean(*b), vec![])),
                _ => Err("bad model".into()),
            }
        }
    }

    fn checkbox_instance() -> Instance {
        Instance::new(Arc::new(Checkbox), HoleName(0), vec![], 1000).unwrap()
    }

    #[test]
    fn lifecycle_init_view_update_expand() {
        let mut inst = checkbox_instance();
        assert_eq!(inst.model(), &IExp::Bool(false));

        let phi = LivelitCtx::new();
        let gamma = Ctx::empty();
        // Click toggles.
        inst.click(&phi, &gamma, &[], 10_000, "box").unwrap();
        assert_eq!(inst.model(), &IExp::Bool(true));

        // Expansion reflects the model.
        let ap = inst.invocation().unwrap();
        assert_eq!(ap.name, LivelitName::new("$checkbox"));
        assert_eq!(ap.model, IExp::Bool(true));
        assert!(ap.splices.is_empty());
        assert_eq!(inst.pexpansion().unwrap(), boolean(true));
    }

    #[test]
    fn view_rerender_after_update_diffs_minimally() {
        let mut inst = checkbox_instance();
        let phi = LivelitCtx::new();
        let gamma = Ctx::empty();
        let before = inst.view(&phi, &gamma, &[], 10_000).unwrap();
        inst.dispatch(&IExp::Unit).unwrap();
        let after = inst.view(&phi, &gamma, &[], 10_000).unwrap();
        let patches = crate::diff::diff(&before, &after);
        assert_eq!(patches.len(), 1, "only the text changes: {patches:?}");
    }

    #[test]
    fn param_arity_enforced() {
        struct NeedsParam;
        impl Livelit for NeedsParam {
            fn name(&self) -> LivelitName {
                LivelitName::new("$p")
            }
            fn param_tys(&self) -> Vec<Typ> {
                vec![Typ::Int]
            }
            fn expansion_ty(&self) -> Typ {
                Typ::Int
            }
            fn model_ty(&self) -> Typ {
                Typ::Unit
            }
            fn init(&self, _: &[SpliceRef], _: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
                Ok(IExp::Unit)
            }
            fn update(
                &self,
                _: &Model,
                _: &Action,
                _: &mut UpdateCtx<'_>,
            ) -> Result<Model, CmdError> {
                Ok(IExp::Unit)
            }
            fn view(&self, _: &Model, _: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
                Ok(Html::text(""))
            }
            fn expand(&self, _: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
                Ok((lam("p", Typ::Int, var("p")), vec![SpliceRef(0)]))
            }
        }
        let err = Instance::new(Arc::new(NeedsParam), HoleName(0), vec![], 0).unwrap_err();
        assert_eq!(
            err,
            CmdError::ParamArity {
                declared: 1,
                supplied: 0
            }
        );
        // With the parameter supplied it instantiates, and the invocation
        // lists the parameter as the leading splice.
        let inst = Instance::new(Arc::new(NeedsParam), HoleName(0), vec![UExp::Int(5)], 0).unwrap();
        let ap = inst.invocation().unwrap();
        assert_eq!(ap.splices.len(), 1);
        assert_eq!(ap.splices[0].exp, UExp::Int(5));
    }

    #[test]
    fn ill_typed_model_from_update_is_rejected_and_rolled_back() {
        struct Rogue;
        impl Livelit for Rogue {
            fn name(&self) -> LivelitName {
                LivelitName::new("$rogue")
            }
            fn expansion_ty(&self) -> Typ {
                Typ::Int
            }
            fn model_ty(&self) -> Typ {
                Typ::Int
            }
            fn init(&self, _: &[SpliceRef], _: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
                Ok(IExp::Int(0))
            }
            fn update(
                &self,
                _: &Model,
                _: &Action,
                _: &mut UpdateCtx<'_>,
            ) -> Result<Model, CmdError> {
                Ok(IExp::Bool(true)) // wrong type!
            }
            fn view(&self, _: &Model, _: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
                Ok(Html::text(""))
            }
            fn expand(&self, _: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
                Ok((int(0), vec![]))
            }
        }
        let mut inst = Instance::new(Arc::new(Rogue), HoleName(0), vec![], 0).unwrap();
        assert!(matches!(
            inst.dispatch(&IExp::Unit),
            Err(CmdError::ModelType(_))
        ));
        assert_eq!(inst.model(), &IExp::Int(0), "model rolled back");
    }

    #[test]
    fn def_for_binds_context() {
        struct WithCtx;
        impl Livelit for WithCtx {
            fn name(&self) -> LivelitName {
                LivelitName::new("$withctx")
            }
            fn expansion_ty(&self) -> Typ {
                Typ::Int
            }
            fn model_ty(&self) -> Typ {
                Typ::Unit
            }
            fn context(&self) -> Vec<crate::livelit::ContextBinding> {
                vec![crate::livelit::ContextBinding::new(
                    "seven",
                    Typ::Int,
                    int(7),
                )]
            }
            fn init(&self, _: &[SpliceRef], _: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
                Ok(IExp::Unit)
            }
            fn update(
                &self,
                _: &Model,
                _: &Action,
                _: &mut UpdateCtx<'_>,
            ) -> Result<Model, CmdError> {
                Ok(IExp::Unit)
            }
            fn view(&self, _: &Model, _: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
                Ok(Html::text(""))
            }
            fn expand(&self, _: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
                // Uses the context binding; closed only after bind_context.
                Ok((add(var("seven"), int(1)), vec![]))
            }
        }
        let livelit: Arc<dyn Livelit> = Arc::new(WithCtx);
        let def = def_for(&livelit);
        let mut phi = LivelitCtx::new();
        phi.define(def).unwrap();
        let program = UExp::Livelit(Box::new(LivelitAp {
            name: LivelitName::new("$withctx"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(0),
        }));
        let collection = livelit_core::cc::collect(&phi, &program).unwrap();
        assert_eq!(collection.resume_result().unwrap(), iv::int(8));
    }

    #[test]
    fn result_view_dim_is_character_based() {
        // Anchors the Sec. 5.3 character-unit contract at the API level.
        let d = Dim::fixed_width(20);
        assert_eq!((d.width, d.height), (20, 1));
    }
}
