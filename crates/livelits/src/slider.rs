//! The `$slider` livelit (Figs. 1b, 1c) and its abbreviations.
//!
//! `livelit $slider (min : Int) (max : Int) at Int` — an inline,
//! one-character-row livelit (Sec. 5.3). The model is the thumb's value;
//! dragging emits `(.set n)` actions; the expansion is the integer literal.
//! `$percent` is the partial application `$slider 0 100` from Fig. 1b,
//! installed by [`register_percent`].

use hazel_lang::build;
use hazel_lang::external::EExp;
use hazel_lang::ident::{Label, LivelitName};
use hazel_lang::typ::Typ;
use hazel_lang::unexpanded::UExp;
use hazel_lang::value::iv;
use hazel_lang::IExp;
use livelit_core::live::LiveResult;
use livelit_mvu::html::tags::*;
use livelit_mvu::html::Html;
use livelit_mvu::livelit::{Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;

/// The `$slider` livelit.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliderLivelit;

/// Track width of the rendered slider, in characters.
const TRACK_WIDTH: i64 = 20;

impl SliderLivelit {
    fn bound(ctx: &ViewCtx<'_>, r: SpliceRef) -> Result<Option<i64>, CmdError> {
        Ok(match ctx.eval_splice(r)? {
            Some(LiveResult::Val(IExp::Int(n))) => Some(n),
            _ => None,
        })
    }
}

impl Livelit for SliderLivelit {
    // `expand` is a pure function of the model: attested so the static
    // purity analysis (LL06xx) can discharge the dynamic determinism
    // check (LL0401) for this livelit.
    fn expand_pure(&self) -> bool {
        true
    }

    fn name(&self) -> LivelitName {
        LivelitName::new("$slider")
    }

    fn param_tys(&self) -> Vec<Typ> {
        vec![Typ::Int, Typ::Int]
    }

    fn expansion_ty(&self) -> Typ {
        Typ::Int
    }

    fn model_ty(&self) -> Typ {
        Typ::Int
    }

    /// Sliders are inline livelits: one character row, flowing with the
    /// code (Sec. 5.3).
    fn layout(&self) -> livelit_mvu::LivelitLayout {
        livelit_mvu::LivelitLayout::Inline
    }

    fn init(&self, _params: &[SpliceRef], _ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        Ok(IExp::Int(0))
    }

    fn update(
        &self,
        model: &Model,
        action: &Action,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Model, CmdError> {
        match action.field(&Label::new("set")) {
            Some(IExp::Int(n)) => Ok(IExp::Int(*n)),
            _ => match action.field(&Label::new("step")) {
                Some(IExp::Int(delta)) => {
                    let cur = model.as_int().unwrap_or(0);
                    Ok(IExp::Int(cur + delta))
                }
                _ => Err(CmdError::Custom("unknown $slider action".into())),
            },
        }
    }

    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let value = model.as_int().unwrap_or(0);
        // Live evaluation of the *parameters* (Sec. 3.2.3: "the view can
        // depend on the result of evaluating a splice or a parameter").
        let min = Self::bound(ctx, SpliceRef(0))?;
        let max = Self::bound(ctx, SpliceRef(1))?;

        // A livelit invocation can indicate that no expansion is available
        // with a custom error message, "e.g. due to non-sensical bounds"
        // (Sec. 2.4.1).
        if let (Some(lo), Some(hi)) = (min, max) {
            if lo > hi {
                return Err(CmdError::Custom(format!(
                    "non-sensical slider bounds: {lo} > {hi}"
                )));
            }
        }

        // Render the track: min |----O----| max  value
        let track = match (min, max) {
            (Some(lo), Some(hi)) if hi > lo => {
                let clamped = value.clamp(lo, hi);
                let pos = ((clamped - lo) * TRACK_WIDTH / (hi - lo)).clamp(0, TRACK_WIDTH);
                let mut t = String::new();
                for i in 0..=TRACK_WIDTH {
                    t.push(if i == pos { 'O' } else { '-' });
                }
                format!("{lo} |{t}| {hi}  {value}")
            }
            _ => format!("? |{}O{}| ?  {value}", "-", "-"),
        };

        Ok(span(vec![
            button(vec![Html::text("<")])
                .attr("id", "dec")
                .on_click(iv::record([("step", iv::int(-1))])),
            Html::text(track),
            button(vec![Html::text(">")])
                .attr("id", "inc")
                .on_click(iv::record([("step", iv::int(1))])),
        ])
        .attr("id", "slider"))
    }

    /// The slider's value *is* its model, so an edited result pushes back
    /// directly — the paper's motivating example for bidirectional editing
    /// (Sec. 7).
    fn push_result(
        &self,
        _model: &Model,
        new_value: &IExp,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Option<Model>, CmdError> {
        Ok(new_value.as_int().map(IExp::Int))
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        let value = model.as_int().ok_or("slider model must be an Int")?;
        // The expansion abstracts over the two parameters (which it does
        // not use — the bounds only constrain the GUI) and produces the
        // literal.
        Ok((
            build::lams([("min", Typ::Int), ("max", Typ::Int)], build::int(value)),
            vec![SpliceRef(0), SpliceRef(1)],
        ))
    }
}

/// Installs `$slider`, plus the Fig. 1b abbreviations
/// `let $uslider = $slider 0` and `let $percent = $uslider 100`.
pub fn register_percent(registry: &mut hazel_editor::LivelitRegistry) {
    registry
        .register(std::sync::Arc::new(SliderLivelit))
        .expect("$slider passes registration lints");
    registry.define_abbrev("$uslider", "$slider", vec![UExp::Int(0)]);
    registry.define_abbrev("$percent", "$uslider", vec![UExp::Int(100)]);
}

/// The `$checkbox` livelit: `livelit $checkbox at Bool`, the simplest
/// possible livelit (model = the boolean, expansion = the literal).
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckboxLivelit;

impl Livelit for CheckboxLivelit {
    // `expand` is a pure function of the model: attested so the static
    // purity analysis (LL06xx) can discharge the dynamic determinism
    // check (LL0401) for this livelit.
    fn expand_pure(&self) -> bool {
        true
    }

    fn name(&self) -> LivelitName {
        LivelitName::new("$checkbox")
    }

    fn expansion_ty(&self) -> Typ {
        Typ::Bool
    }

    fn model_ty(&self) -> Typ {
        Typ::Bool
    }

    fn layout(&self) -> livelit_mvu::LivelitLayout {
        livelit_mvu::LivelitLayout::Inline
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
            _ => Err(CmdError::Custom("checkbox model must be a Bool".into())),
        }
    }

    fn view(&self, model: &Model, _ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let checked = matches!(model, IExp::Bool(true));
        Ok(
            button(vec![Html::text(if checked { "[x]" } else { "[ ]" })])
                .attr("id", "toggle")
                .on_click(IExp::Unit),
        )
    }

    fn push_result(
        &self,
        _model: &Model,
        new_value: &IExp,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Option<Model>, CmdError> {
        Ok(new_value.as_bool().map(IExp::Bool))
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        match model {
            IExp::Bool(b) => Ok((build::boolean(*b), vec![])),
            _ => Err("checkbox model must be a Bool".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::ident::HoleName;
    use hazel_lang::typing::Ctx;
    use hazel_lang::Sigma;
    use livelit_core::def::LivelitCtx;
    use livelit_mvu::host::Instance;
    use std::sync::Arc;

    fn slider_instance() -> Instance {
        Instance::new(
            Arc::new(SliderLivelit),
            HoleName(0),
            vec![UExp::Int(0), UExp::Int(100)],
            1 << 20,
        )
        .unwrap()
    }

    #[test]
    fn set_and_step_actions() {
        let mut inst = slider_instance();
        inst.dispatch(&iv::record([("set", iv::int(40))])).unwrap();
        assert_eq!(inst.model(), &IExp::Int(40));
        inst.dispatch(&iv::record([("step", iv::int(2))])).unwrap();
        assert_eq!(inst.model(), &IExp::Int(42));
        assert!(inst.dispatch(&iv::string("bogus")).is_err());
    }

    #[test]
    fn expansion_is_the_literal_under_param_lambdas() {
        let mut inst = slider_instance();
        inst.dispatch(&iv::record([("set", iv::int(92))])).unwrap();
        let pexp = inst.pexpansion().unwrap();
        let (ty, _) = hazel_lang::typing::syn(&Ctx::empty(), &pexp).unwrap();
        assert_eq!(ty, Typ::arrows([Typ::Int, Typ::Int], Typ::Int));
        // Applied to its bounds it evaluates to the thumb value.
        let applied = build::aps(pexp, [build::int(0), build::int(100)]);
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &applied).unwrap();
        assert_eq!(
            hazel_lang::eval::eval_traced(&d, hazel_lang::eval::DEFAULT_FUEL).unwrap(),
            IExp::Int(92)
        );
    }

    #[test]
    fn view_renders_bounds_from_live_params() {
        let inst = slider_instance();
        let phi = LivelitCtx::new();
        let gamma = Ctx::empty();
        let env = Sigma::empty();
        let view = inst
            .view(&phi, &gamma, std::slice::from_ref(&env), 100_000)
            .unwrap();
        let text = flatten(&view);
        assert!(text.contains("0 |"), "track shows min: {text}");
        assert!(text.contains("| 100"), "track shows max: {text}");
    }

    #[test]
    fn nonsensical_bounds_yield_custom_error() {
        // $slider 10 0 — min > max (Sec. 2.4.1's custom error).
        let inst = Instance::new(
            Arc::new(SliderLivelit),
            HoleName(0),
            vec![UExp::Int(10), UExp::Int(0)],
            1 << 20,
        )
        .unwrap();
        let phi = LivelitCtx::new();
        let gamma = Ctx::empty();
        let env = Sigma::empty();
        let err = inst
            .view(&phi, &gamma, std::slice::from_ref(&env), 100_000)
            .unwrap_err();
        assert!(matches!(err, CmdError::Custom(ref m) if m.contains("non-sensical")));
    }

    #[test]
    fn checkbox_toggles_and_expands() {
        let mut inst =
            Instance::new(Arc::new(CheckboxLivelit), HoleName(1), vec![], 1 << 20).unwrap();
        assert_eq!(inst.pexpansion().unwrap(), build::boolean(false));
        inst.dispatch(&IExp::Unit).unwrap();
        assert_eq!(inst.pexpansion().unwrap(), build::boolean(true));
    }

    fn flatten(h: &Html<Action>) -> String {
        match h {
            Html::Text(s) => s.clone(),
            Html::Element { children, .. } => children.iter().map(flatten).collect(),
            Html::Editor { splice, .. } => format!("[{splice}]"),
            Html::ResultView { splice, .. } => format!("<{splice}>"),
        }
    }
}
