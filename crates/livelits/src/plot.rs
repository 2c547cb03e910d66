//! The `$plot` livelit: live feedback over a *function-typed* splice.
//!
//! The paper's intro motivates livelits for "interactive plots"; this
//! livelit plots a `Float -> Float` splice by sampling it under the
//! collected closure. It demonstrates that live evaluation is not limited
//! to first-order data: `eval_splice` returns the function's *closure
//! value*, which the view then applies to sample points on the environment
//! machine. Indeterminate samples (the function body may contain holes)
//! are skipped, per the Sec. 2.5.2 degradation discipline.

use hazel_lang::build;
use hazel_lang::external::EExp;
use hazel_lang::ident::{Label, LivelitName};
use hazel_lang::machine::MachineEvaluator;
use hazel_lang::store::{Node, TermStore};
use hazel_lang::typ::Typ;
use hazel_lang::value::iv;
use hazel_lang::IExp;
use livelit_core::live::LiveResult;
use livelit_mvu::html::tags::*;
use livelit_mvu::html::{Dim, Html};
use livelit_mvu::livelit::{Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;

/// Plot canvas width in characters (one sample per column).
const WIDTH: usize = 41;
/// Plot canvas height in characters.
const HEIGHT: usize = 11;

/// The `$plot` livelit: one splice of type `Float -> Float`, plotted live
/// over a model-controlled x-range. The expansion is the function itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlotLivelit;

fn model_range(model: &Model) -> Result<(f64, f64), CmdError> {
    let lo = model
        .field(&Label::new("lo"))
        .and_then(IExp::as_float)
        .ok_or_else(|| CmdError::Custom("plot model missing .lo".into()))?;
    let hi = model
        .field(&Label::new("hi"))
        .and_then(IExp::as_float)
        .ok_or_else(|| CmdError::Custom("plot model missing .hi".into()))?;
    Ok((lo, hi))
}

/// Samples a function value at each of `xs` on the environment machine,
/// each application with its own `fuel` budget. `f` is interned once and
/// every application shares that store. A sample is `None` if the
/// application is indeterminate (holes in the function body) or errors.
/// Sampling is not traced: it is view work, not program evaluation.
fn sample_all(f: &IExp, xs: impl Iterator<Item = f64>, fuel: u64) -> Vec<Option<f64>> {
    let mut store = TermStore::new();
    let f = store.intern_iexp(f);
    xs.map(|x| {
        let x = store.intern(Node::Float(x.to_bits()));
        let applied = store.intern(Node::Ap(f, x));
        let y = MachineEvaluator::with_fuel(&mut store, fuel).eval(applied);
        match y.map(|y| store.node(y)) {
            Ok(Node::Float(bits)) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    })
    .collect()
}

impl Livelit for PlotLivelit {
    // `expand` is a pure function of the model: attested so the static
    // purity analysis (LL06xx) can discharge the dynamic determinism
    // check (LL0401) for this livelit.
    fn expand_pure(&self) -> bool {
        true
    }

    fn name(&self) -> LivelitName {
        LivelitName::new("$plot")
    }

    fn expansion_ty(&self) -> Typ {
        Typ::arrow(Typ::Float, Typ::Float)
    }

    /// Model: the plotted x-range `(.lo Float, .hi Float, .f SpliceRef)`.
    fn model_ty(&self) -> Typ {
        Typ::prod([
            (Label::new("lo"), Typ::Float),
            (Label::new("hi"), Typ::Float),
            (Label::new("f"), livelit_mvu::splice::splice_ref_typ()),
        ])
    }

    fn init(&self, _params: &[SpliceRef], ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        // The function splice defaults to the identity.
        let f = ctx.new_splice(
            Typ::arrow(Typ::Float, Typ::Float),
            Some(build::lam("x", Typ::Float, build::var("x"))),
        )?;
        Ok(iv::record([
            ("lo", iv::float(-10.0)),
            ("hi", iv::float(10.0)),
            ("f", f.to_value()),
        ]))
    }

    fn update(
        &self,
        model: &Model,
        action: &Action,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Model, CmdError> {
        let (lo, hi) = model_range(model)?;
        let f = model
            .field(&Label::new("f"))
            .cloned()
            .ok_or_else(|| CmdError::Custom("plot model missing .f".into()))?;
        let (lo, hi) = if let Some(range) = action.field(&Label::new("set_range")) {
            let new_lo = range
                .field(&Label::new("lo"))
                .and_then(IExp::as_float)
                .ok_or_else(|| CmdError::Custom("set_range needs .lo".into()))?;
            let new_hi = range
                .field(&Label::new("hi"))
                .and_then(IExp::as_float)
                .ok_or_else(|| CmdError::Custom("set_range needs .hi".into()))?;
            if new_lo >= new_hi {
                return Err(CmdError::Custom("non-sensical plot range".into()));
            }
            (new_lo, new_hi)
        } else if action.field(&Label::new("zoom_out")).is_some() {
            let mid = (lo + hi) / 2.0;
            let half = hi - lo;
            (mid - half, mid + half)
        } else if action.field(&Label::new("zoom_in")).is_some() {
            let mid = (lo + hi) / 2.0;
            let half = (hi - lo) / 4.0;
            (mid - half, mid + half)
        } else {
            return Err(CmdError::Custom("unknown $plot action".into()));
        };
        Ok(iv::record([
            ("lo", iv::float(lo)),
            ("hi", iv::float(hi)),
            ("f", f),
        ]))
    }

    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let (lo, hi) = model_range(model)?;
        let f_ref = model
            .field(&Label::new("f"))
            .and_then(SpliceRef::from_value)
            .ok_or_else(|| CmdError::Custom("plot model missing .f".into()))?;

        // Live-evaluate the function splice to its closure value.
        let samples: Vec<Option<f64>> = match ctx.eval_splice(f_ref)? {
            Some(LiveResult::Val(f)) => sample_all(
                &f,
                (0..WIDTH).map(|i| lo + (hi - lo) * i as f64 / (WIDTH - 1) as f64),
                400_000,
            ),
            // No closure, or the function itself is indeterminate: no
            // samples (Sec. 2.5.2's graceful degradation).
            _ => vec![None; WIDTH],
        };

        // Scale determined y-values into the canvas.
        let determined: Vec<f64> = samples.iter().flatten().copied().collect();
        let canvas = if determined.is_empty() {
            vec!["(no samples: function indeterminate or no closure)".to_owned()]
        } else {
            let (ymin, ymax) = determined
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &y| {
                    (a.min(y), b.max(y))
                });
            let span = if (ymax - ymin).abs() < f64::EPSILON {
                1.0
            } else {
                ymax - ymin
            };
            let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
            for (i, s) in samples.iter().enumerate() {
                if let Some(y) = s {
                    let row = ((ymax - y) / span * (HEIGHT - 1) as f64).round() as usize;
                    grid[row.min(HEIGHT - 1)][i] = '•';
                }
            }
            let mut lines: Vec<String> = grid
                .into_iter()
                .map(|row| row.into_iter().collect())
                .collect();
            lines.push(format!("x ∈ [{lo}, {hi}]   y ∈ [{ymin:.2}, {ymax:.2}]"));
            lines
        };

        let mut children = vec![span(vec![
            Html::text("f: "),
            ctx.editor(f_ref, Dim::fixed_width(30)),
            button(vec![Html::text("−")])
                .attr("id", "zoom-out")
                .on_click(iv::record([("zoom_out", IExp::Unit)])),
            button(vec![Html::text("+")])
                .attr("id", "zoom-in")
                .on_click(iv::record([("zoom_in", IExp::Unit)])),
        ])];
        children.extend(canvas.into_iter().map(Html::text));
        Ok(div(children))
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        let f_ref = model
            .field(&Label::new("f"))
            .and_then(SpliceRef::from_value)
            .ok_or("plot model missing .f")?;
        // The expansion is the spliced function itself: fun f -> f.
        let fty = Typ::arrow(Typ::Float, Typ::Float);
        Ok((build::lam("f", fty, build::var("f")), vec![f_ref]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::ident::HoleName;
    use hazel_lang::parse::parse_uexp;
    use hazel_lang::typing::Ctx;
    use hazel_lang::unexpanded::UExp;
    use hazel_lang::Sigma;
    use livelit_core::def::LivelitCtx;
    use livelit_mvu::host::Instance;
    use std::sync::Arc;

    fn instance() -> Instance {
        Instance::new(Arc::new(PlotLivelit), HoleName(0), vec![], 1 << 20).unwrap()
    }

    fn phi() -> LivelitCtx {
        let mut phi = LivelitCtx::new();
        phi.define(livelit_mvu::host::def_for(
            &(Arc::new(PlotLivelit) as Arc<dyn Livelit>),
        ))
        .unwrap();
        phi
    }

    #[test]
    fn expansion_is_the_function_splice() {
        let mut inst = instance();
        inst.edit_splice(SpliceRef(0), parse_uexp("fun x : Float -> x *. x").unwrap())
            .unwrap();
        let program = UExp::Ap(
            Box::new(UExp::Livelit(Box::new(inst.invocation().unwrap()))),
            Box::new(UExp::Float(3.0)),
        );
        let collection = livelit_core::cc::collect(&phi(), &program).unwrap();
        assert_eq!(collection.resume_result().unwrap(), IExp::Float(9.0));
    }

    #[test]
    fn view_samples_the_function_live() {
        let mut inst = instance();
        inst.edit_splice(SpliceRef(0), parse_uexp("fun x : Float -> x *. x").unwrap())
            .unwrap();
        let env = Sigma::empty();
        let view = inst
            .view(&phi(), &Ctx::empty(), std::slice::from_ref(&env), 1_000_000)
            .unwrap();
        let text = flatten(&view);
        assert!(text.contains('•'), "plot should have points: {text}");
        assert!(text.contains("y ∈ [0.00, 100.00]"), "{text}");
    }

    #[test]
    fn holes_in_the_function_degrade_gracefully() {
        let mut inst = instance();
        inst.edit_splice(
            SpliceRef(0),
            parse_uexp("fun x : Float -> x +. (?9 : Float)").unwrap(),
        )
        .unwrap();
        let env = Sigma::empty();
        let view = inst
            .view(&phi(), &Ctx::empty(), std::slice::from_ref(&env), 1_000_000)
            .unwrap();
        let text = flatten(&view);
        assert!(text.contains("no samples"), "{text}");
    }

    #[test]
    fn zoom_actions_adjust_the_range() {
        let mut inst = instance();
        inst.dispatch(&iv::record([("zoom_in", IExp::Unit)]))
            .unwrap();
        let (lo, hi) = model_range(inst.model()).unwrap();
        assert_eq!((lo, hi), (-5.0, 5.0));
        inst.dispatch(&iv::record([("zoom_out", IExp::Unit)]))
            .unwrap();
        let (lo, hi) = model_range(inst.model()).unwrap();
        assert_eq!((lo, hi), (-10.0, 10.0));
        assert!(inst
            .dispatch(&iv::record([(
                "set_range",
                iv::record([("lo", iv::float(5.0)), ("hi", iv::float(1.0))]),
            )]))
            .is_err());
    }

    #[test]
    fn function_splice_can_reference_client_bindings() {
        // let k = 2. in $plot(fun x -> k *. x) — the splice's closure
        // carries k, so sampling works.
        let mut inst = instance();
        inst.edit_splice(SpliceRef(0), parse_uexp("fun x : Float -> k *. x").unwrap())
            .unwrap();
        let program = UExp::Let(
            hazel_lang::Var::new("k"),
            None,
            Box::new(UExp::Float(2.0)),
            Box::new(UExp::Ap(
                Box::new(UExp::Livelit(Box::new(inst.invocation().unwrap()))),
                Box::new(UExp::Float(21.0)),
            )),
        );
        let phi = phi();
        let collection = livelit_core::cc::collect(&phi, &program).unwrap();
        assert_eq!(collection.resume_result().unwrap(), IExp::Float(42.0));
        // And the view plots under the collected closure.
        let envs = collection.envs_for(HoleName(0));
        let gamma = collection.delta.get(HoleName(0)).unwrap().ctx.clone();
        let view = inst.view(&phi, &gamma, envs, 1_000_000).unwrap();
        assert!(flatten(&view).contains('•'));
    }

    #[test]
    fn deeply_recursive_samples_fit_a_default_thread_stack() {
        // Every sample makes 10 000 non-tail recursive calls (about 220k
        // machine transitions, within the 400k sample fuel). Sampling
        // runs on the environment machine, whose control state lives on
        // its frame arena, so Rust's default 2 MiB thread stack suffices.
        let text = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let mut inst = instance();
                let f = parse_uexp(
                    "fun x : Float -> let rec go : Int -> Float = \
                     fun n : Int -> if n <= 0 then x else go (n - 1) +. 0.0 in go 10000",
                )
                .unwrap();
                inst.edit_splice(SpliceRef(0), f).unwrap();
                let env = Sigma::empty();
                let view = inst
                    .view(&phi(), &Ctx::empty(), std::slice::from_ref(&env), 1_000_000)
                    .unwrap();
                flatten(&view)
            })
            .expect("spawn a default-sized thread")
            .join()
            .expect("sampling must not overflow a 2 MiB stack");
        // y = x at every sample, so all 41 samples landed.
        assert!(text.contains("y ∈ [-10.00, 10.00]"), "{text}");
    }

    fn flatten(h: &Html<Action>) -> String {
        match h {
            Html::Text(s) => s.clone(),
            Html::Element { children, .. } => {
                children.iter().map(flatten).collect::<Vec<_>>().join("\n")
            }
            Html::Editor { splice, .. } => format!("[{splice}]"),
            Html::ResultView { splice, .. } => format!("<{splice}>"),
        }
    }
}
