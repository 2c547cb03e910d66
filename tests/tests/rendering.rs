//! Tests for session and dashboard rendering (Sec. 5.3): layout classes,
//! inline vs. multi-line livelits, clipping, and the end-user dashboard
//! style.

use hazel::lang::parse::parse_uexp;
use hazel::prelude::*;

fn std_registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    registry
}

#[test]
fn session_renders_inline_and_multiline_differently() {
    let registry = std_registry();
    let program = parse_uexp(
        "let volume = $slider@0{40}(0 : Int; 100 : Int) in \
         let c = (?1 : (.r Int, .g Int, .b Int, .a Int)) in \
         volume",
    )
    .unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(1), "$color", vec![])
        .unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    let rendered = hazel::editor::render_session(&registry, &doc, &out, 80);

    // The slider is inline: a single `▸` row, no frame.
    assert!(rendered.contains("u0 ▸ $slider"), "{rendered}");
    // The color livelit is multi-line: framed with its name.
    assert!(rendered.contains("┌─$color @u1"), "{rendered}");
    // The program text itself is present.
    assert!(rendered.contains("let volume ="), "{rendered}");
}

#[test]
fn multiline_views_are_clipped_to_their_row_budget() {
    // A dataframe with many rows exceeds the default budget and is clipped.
    use hazel::lang::value::iv;
    let registry = std_registry();
    let program = parse_uexp("?0").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])
        .unwrap();
    doc.dispatch(HoleName(0), &iv::record([("add_col", IExp::Unit)]))
        .unwrap();
    for _ in 0..20 {
        doc.dispatch(HoleName(0), &iv::record([("add_row", IExp::Unit)]))
            .unwrap();
    }
    let out = hazel::editor::run(&registry, &doc).unwrap();
    let rendered = hazel::editor::render_session(&registry, &doc, &out, 100);
    assert!(rendered.contains("(clipped)"), "{rendered}");
}

#[test]
fn dashboard_shows_only_guis() {
    let registry = std_registry();
    let program = parse_uexp(
        "let volume = $slider@0{70}(0 : Int; 100 : Int) in \
         let on = $checkbox@1{true} in \
         if on then volume else 0",
    )
    .unwrap();
    let doc = Document::new(&registry, vec![], program).unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(70));

    let dashboard = hazel::editor::render_dashboard(&registry, &doc, &out);
    // GUIs are present...
    assert!(dashboard.contains("$slider"), "{dashboard}");
    assert!(dashboard.contains("[x]"), "{dashboard}");
    // ...the code is not.
    assert!(!dashboard.contains("let volume"), "{dashboard}");
}

#[test]
fn dashboard_and_session_render_the_selected_closure() {
    // `f` is applied twice, so the dataframe at ?0 has two closures
    // (x = 1.5 and x = 2.5). With the second selected, a cell computing
    // `x +. 10.` must show 12.5 in both renderings.
    use hazel::lang::value::iv;
    use hazel::std::dataframe::DataframeModel;
    let registry = std_registry();
    let program = parse_uexp("let f = fun x : Float -> (x, ?0) in (f 1.5, f 2.5)").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let u = HoleName(0);
    doc.fill_hole_with_livelit(&registry, u, "$dataframe", vec![])
        .unwrap();
    doc.dispatch(u, &iv::record([("add_col", IExp::Unit)]))
        .unwrap();
    doc.dispatch(u, &iv::record([("add_row", IExp::Unit)]))
        .unwrap();
    let model = DataframeModel::from_value(doc.instance(u).unwrap().model()).unwrap();
    let cell = model.rows[0].1[0];
    doc.edit_splice(u, cell, parse_uexp("x +. 10.").unwrap())
        .unwrap();
    doc.select_closure(u, 1).unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert_eq!(out.collection.envs_for(u).len(), 2);

    let session = hazel::editor::render_session(&registry, &doc, &out, 80);
    assert!(session.contains("12.5"), "{session}");
    let dashboard = hazel::editor::render_dashboard(&registry, &doc, &out);
    assert!(dashboard.contains("12.5"), "{dashboard}");
    assert!(!dashboard.contains("11.5"), "{dashboard}");
}

#[test]
fn view_errors_display_in_place_of_gui() {
    // $slider with non-sensical bounds: the view fails with a custom error
    // (Sec. 2.4.1) which the session render shows in place of the GUI.
    let registry = std_registry();
    let program = parse_uexp("$slider@0{5}(10 : Int; 0 : Int)").unwrap();
    let doc = Document::new(&registry, vec![], program).unwrap();
    let out = hazel::editor::run(&registry, &doc).unwrap();
    assert!(out.view_errors.contains_key(&HoleName(0)));
    let rendered = hazel::editor::render_session(&registry, &doc, &out, 80);
    assert!(rendered.contains("non-sensical"), "{rendered}");
}
