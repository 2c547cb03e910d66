//! End-to-end editor-flow tests: registry → document → engine → render →
//! text round-trip, using a miniature parameterized slider livelit.

use std::sync::Arc;

use hazel_editor::{load_buffer, run, save_buffer, Document, LivelitRegistry, PreludeBinding};
use hazel_lang::build::*;
use hazel_lang::ident::{HoleName, LivelitName, Var};
use hazel_lang::typ::Typ;
use hazel_lang::unexpanded::UExp;
use hazel_lang::value::iv;
use hazel_lang::{EExp, IExp};
use livelit_mvu::html::{tags::*, Html};
use livelit_mvu::livelit::{Action, CmdError, Livelit, Model, UpdateCtx, ViewCtx};
use livelit_mvu::splice::SpliceRef;

/// `$slider min max at Int`: model = current Int value; actions
/// `(.set <n>)` move the thumb; expansion is the literal value.
struct Slider;

impl Livelit for Slider {
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

    fn init(&self, _params: &[SpliceRef], _ctx: &mut UpdateCtx<'_>) -> Result<Model, CmdError> {
        Ok(IExp::Int(0))
    }

    fn update(
        &self,
        _model: &Model,
        action: &Action,
        _ctx: &mut UpdateCtx<'_>,
    ) -> Result<Model, CmdError> {
        action
            .field(&hazel_lang::Label::new("set"))
            .cloned()
            .ok_or_else(|| CmdError::Custom("unknown slider action".into()))
    }

    fn view(&self, model: &Model, ctx: &mut ViewCtx<'_>) -> Result<Html<Action>, CmdError> {
        let value = model.as_int().unwrap_or(0);
        // Live evaluation of the min parameter: the slider renders its
        // bounds from the parameter splices.
        let min_text = match ctx.eval_splice(SpliceRef(0))? {
            Some(r) => hazel_lang::pretty::print_iexp(r.exp(), 40),
            None => "?".to_owned(),
        };
        Ok(div(vec![
            Html::text(format!("{min_text} |---O--- {value}")),
            button(vec![Html::text("+10")])
                .attr("id", "bump")
                .on_click(iv::record([("set", iv::int(value + 10))])),
        ]))
    }

    fn expand(&self, model: &Model) -> Result<(EExp, Vec<SpliceRef>), String> {
        let value = model.as_int().ok_or("slider model must be an Int")?;
        // fun min : Int -> fun max : Int -> <value>  — parameters are
        // abstracted even though this expansion ignores them.
        Ok((
            lams([("min", Typ::Int), ("max", Typ::Int)], int(value)),
            vec![SpliceRef(0), SpliceRef(1)],
        ))
    }
}

fn registry() -> LivelitRegistry {
    let mut reg = LivelitRegistry::new();
    reg.register(Arc::new(Slider)).unwrap();
    // let $percent = $slider 0 100 (Sec. 2.4.1).
    reg.define_abbrev("$percent", "$slider", vec![UExp::Int(0), UExp::Int(100)]);
    reg
}

/// `let base = 5 in ?0 + base` with the hole then filled by a livelit.
fn program_with_hole() -> UExp {
    UExp::Let(
        Var::new("base"),
        None,
        Box::new(UExp::Int(5)),
        Box::new(UExp::Bin(
            hazel_lang::BinOp::Add,
            Box::new(UExp::Asc(Box::new(UExp::EmptyHole(HoleName(0))), Typ::Int)),
            Box::new(UExp::Var(Var::new("base"))),
        )),
    )
}

#[test]
fn fill_hole_interact_and_evaluate() {
    let reg = registry();
    let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
    doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
        .unwrap();
    doc.sync().unwrap();

    // Pipeline: result = 0 + 5.
    let out = run(&reg, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(5));
    assert!(out.collection.errors.is_empty());
    assert_eq!(out.collection.ty, Typ::Int);

    // Click the +10 button twice; the model — and therefore the program
    // result — follows.
    let view = out.views.get(&HoleName(0)).expect("slider view");
    let action = view
        .find_handler("bump", livelit_mvu::html::EventKind::Click)
        .cloned()
        .expect("bump handler");
    doc.dispatch(HoleName(0), &action).unwrap();
    let out = run(&reg, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(15));
}

#[test]
fn abbreviation_supplies_parameters() {
    let reg = registry();
    let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
    doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
        .unwrap();
    // The invocation's leading splices are the abbreviation's 0 and 100.
    let inst = doc.instance(HoleName(0)).unwrap();
    let ap = inst.invocation().unwrap();
    assert_eq!(ap.name, LivelitName::new("$slider"));
    assert_eq!(ap.splices.len(), 2);
    assert_eq!(ap.splices[0].exp, UExp::Int(0));
    assert_eq!(ap.splices[1].exp, UExp::Int(100));
}

#[test]
fn unknown_livelit_is_marked_not_fatal() {
    let reg = registry();
    // A program whose livelit invocation names an unregistered livelit
    // cannot even instantiate — simulate by collecting closures on a
    // program that contains a ghost invocation directly: collection marks
    // it.
    let phi = reg.phi();
    let program = UExp::Bin(
        hazel_lang::BinOp::Add,
        Box::new(UExp::Livelit(Box::new(hazel_lang::LivelitAp {
            name: LivelitName::new("$ghost"),
            model: IExp::Unit,
            splices: vec![],
            hole: HoleName(3),
        }))),
        Box::new(UExp::Int(1)),
    );
    let collection = livelit_core::cc::collect(&phi, &program).unwrap();
    assert_eq!(collection.errors.len(), 1);
    assert_eq!(collection.errors[0].hole, HoleName(3));
    // The ghost became a hole; the program still evaluates around it.
    let result = collection.resume_result().unwrap();
    assert!(hazel_lang::final_form::is_indet(&result));
}

#[test]
fn text_buffer_roundtrip_preserves_state() {
    let reg = registry();
    let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
    doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
        .unwrap();
    // Interact: bump the slider to 10.
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(10))]))
        .unwrap();

    // Save to a plain-text buffer.
    let buffer = save_buffer(&doc, 100);
    assert!(buffer.contains("$slider@0{10}"), "buffer: {buffer}");

    // Load it back; the model (and thus the result) survives the trip.
    let doc2 = load_buffer(&reg, vec![], &buffer).unwrap();
    let out = run(&reg, &doc2).unwrap();
    assert_eq!(out.result, IExp::Int(15));
    assert_eq!(doc2.instance(HoleName(0)).unwrap().model(), &IExp::Int(10));
}

#[test]
fn gui_edit_rewrites_buffer_like_sketch_n_sketch() {
    // Sec. 5.2: "Interactions with this GUI cause the serialized model in
    // the text buffer to be changed."
    let reg = registry();
    let buffer1 = {
        let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
        doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
            .unwrap();
        save_buffer(&doc, 100)
    };
    // Load, interact through the GUI, save: the buffer text differs only in
    // the serialized model.
    let mut doc = load_buffer(&reg, vec![], &buffer1).unwrap();
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(42))]))
        .unwrap();
    let buffer2 = save_buffer(&doc, 100);
    assert!(buffer1.contains("$slider@0{0}"));
    assert!(buffer2.contains("$slider@0{42}"));
}

#[test]
fn prelude_bindings_are_in_scope() {
    let reg = registry();
    let prelude = vec![PreludeBinding::new(
        "double",
        Typ::arrow(Typ::Int, Typ::Int),
        lam("n", Typ::Int, mul(var("n"), int(2))),
    )];
    let program = UExp::Ap(
        Box::new(UExp::Var(Var::new("double"))),
        Box::new(UExp::Int(21)),
    );
    let doc = Document::new(&reg, prelude, program).unwrap();
    let out = run(&reg, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(42));
}

#[test]
fn view_renders_to_character_grid() {
    let reg = registry();
    let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
    doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
        .unwrap();
    let out = run(&reg, &doc).unwrap();
    let view = out.views.get(&HoleName(0)).unwrap();
    let lines = hazel_editor::render_view(view, &hazel_editor::OpaqueResolver);
    assert_eq!(lines.len(), 2, "slider view is two rows: {lines:?}");
    // The min parameter was evaluated live: the abbreviation bound it to 0.
    assert!(lines[0].contains("0 |---O--- 0"), "line: {}", lines[0]);
    let boxed = hazel_editor::render_boxed("$percent", view, &hazel_editor::OpaqueResolver);
    assert!(boxed[0].contains("$percent"));
}

#[test]
fn expansion_inspection_toggle() {
    // Sec. 2.2: "The client can inspect this expansion in Hazel via a
    // toggle" — the engine builds the full expansion on demand.
    let reg = registry();
    let mut doc = Document::new(&reg, vec![], program_with_hole()).unwrap();
    doc.fill_hole_with_livelit(&reg, HoleName(0), "$percent", vec![])
        .unwrap();
    let expansion = hazel_editor::expansion(&reg, &doc);
    let printed = hazel_lang::pretty::print_eexp(&expansion, 100);
    // The expansion shows the parameterized expansion applied to 0 and 100.
    assert!(printed.contains("fun min : Int"), "expansion: {printed}");
}
