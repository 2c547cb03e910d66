//! Tests for the Sec. 7 future-work extensions implemented here:
//! bidirectional result push-back and derived (form) livelits.

use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::prelude::*;

fn std_registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    registry
}

#[test]
fn slider_result_pushes_back() {
    // The paper's example: "a slider expands to a number, which may then
    // flow through a computation." Editing the number pushes back into the
    // slider's model.
    let registry = std_registry();
    let program = parse_uexp("let v = $slider@0{40}(0 : Int; 100 : Int) in v * 2").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(80));

    // The user edits the slider's *own* value in the result view: 40 → 65.
    let pushed = doc.push_result(HoleName(0), &IExp::Int(65)).unwrap();
    assert!(pushed);
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(130));
    // The buffer serialization reflects the pushed model.
    assert!(hazel::editor::save_buffer(&doc, 200).contains("$slider@0{65}"));
}

#[test]
fn checkbox_and_cutoffs_push_back() {
    let registry = std_registry();
    let program = parse_uexp("$checkbox@0{false}").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    assert!(doc.push_result(HoleName(0), &IExp::Bool(true)).unwrap());
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Bool(true));

    // Cutoffs: pushing a record moves all four paddles.
    let program = parse_uexp(
        "$grade_cutoffs@0{(.A 90., .B 80., .C 70., .D 60.)}([Float| 75.] : List(Float))",
    )
    .unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let pushed = doc
        .push_result(
            HoleName(0),
            &iv::record([
                ("A", iv::float(86.0)),
                ("B", iv::float(76.0)),
                ("C", iv::float(67.0)),
                ("D", iv::float(48.0)),
            ]),
        )
        .unwrap();
    assert!(pushed);
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(
        out.result.field(&Label::new("B")).and_then(IExp::as_float),
        Some(76.0)
    );
}

#[test]
fn color_push_back_overwrites_splices() {
    let registry = std_registry();
    let program = parse_uexp("(?0 : (.r Int, .g Int, .b Int, .a Int))").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$color", vec![])
        .unwrap();
    let pushed = doc
        .push_result(
            HoleName(0),
            &iv::record([
                ("r", iv::int(1)),
                ("g", iv::int(2)),
                ("b", iv::int(3)),
                ("a", iv::int(4)),
            ]),
        )
        .unwrap();
    assert!(pushed);
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(
        out.result.field(&Label::new("b")).and_then(IExp::as_int),
        Some(3)
    );
}

#[test]
fn push_back_declines_on_wrong_shape() {
    let registry = std_registry();
    let program = parse_uexp("$slider@0{40}(0 : Int; 100 : Int)").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    // A non-Int value: the slider declines, nothing changes.
    assert!(!doc.push_result(HoleName(0), &IExp::Bool(true)).unwrap());
    assert_eq!(doc.instance(HoleName(0)).unwrap().model(), &IExp::Int(40));
    // Dataframe does not implement push-back at all: default declines.
    let program = parse_uexp("?0").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])
        .unwrap();
    assert!(!doc.push_result(HoleName(0), &IExp::Int(1)).unwrap());
}

#[test]
fn derived_livelit_through_the_full_editor() {
    // Derive a form for a 2D point type, register it, fill a hole with it,
    // edit a leaf splice, and check the program result.
    let point = Typ::prod([(Label::new("x"), Typ::Float), (Label::new("y"), Typ::Float)]);
    let mut registry = std_registry();
    registry
        .register(std::sync::Arc::new(
            hazel::std::derive::derive_livelit("$point", point.clone()).unwrap(),
        ))
        .unwrap();

    let program = parse_uexp("(?0 : (.x Float, .y Float))").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$point", vec![])
        .unwrap();
    doc.edit_splice(
        HoleName(0),
        hazel::mvu::SpliceRef(1),
        parse_uexp("3.5 +. 1.0").unwrap(),
    )
    .unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert!(
        out.collection.errors.is_empty(),
        "{:?}",
        out.collection.errors
    );
    assert_eq!(
        out.result.field(&Label::new("y")).and_then(IExp::as_float),
        Some(4.5)
    );
    // And it survives the text-buffer round trip like any livelit.
    let buffer = hazel::editor::save_buffer(&doc, 120);
    let doc2 = hazel::editor::load_buffer(&registry, vec![], &buffer).unwrap();
    let out2 = hazel::editor::run(&registry, &doc2).unwrap();
    assert_eq!(out2.result, out.result);
}
