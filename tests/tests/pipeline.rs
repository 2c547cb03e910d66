//! Cross-crate integration tests: the full case studies driven end-to-end
//! through registry → document → engine, plus save/load round-trips over
//! random programs and view-diff correctness properties.

use hazel::prelude::*;
use hazel::std::dataframe::DataframeModel;
use hazel::std::grading::grading_prelude;
use integration_tests::{test_phi, Gen, GenConfig, XorShift};

use hazel::editor::run;

fn std_registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    registry
}

#[test]
fn fig_1c_grading_end_to_end() {
    use hazel::lang::parse::parse_uexp;
    use hazel::lang::value::iv;

    let registry = std_registry();
    let program = parse_uexp(
        "let q1_max = 36. in \
         let grades = ?0 in \
         let averages = compute_weighted_averages grades [Float| 1., 1.] in \
         let cutoffs = ?1 in \
         format_for_university (assign_grades averages cutoffs)",
    )
    .unwrap();
    let mut doc = Document::new(&registry, grading_prelude(), program).unwrap();

    // Build a 2-assignment, 2-student dataframe.
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])
        .unwrap();
    for _ in 0..2 {
        doc.dispatch(HoleName(0), &iv::record([("add_col", IExp::Unit)]))
            .unwrap();
    }
    for _ in 0..2 {
        doc.dispatch(HoleName(0), &iv::record([("add_row", IExp::Unit)]))
            .unwrap();
    }
    let m = DataframeModel::from_value(doc.instance(HoleName(0)).unwrap().model()).unwrap();
    doc.edit_splice(HoleName(0), m.cols[0], UExp::Str("Mid".into()))
        .unwrap();
    doc.edit_splice(HoleName(0), m.cols[1], UExp::Str("Final".into()))
        .unwrap();
    doc.edit_splice(HoleName(0), m.rows[0].0, UExp::Str("Ada".into()))
        .unwrap();
    // Ada's Mid is a formula referencing q1_max (the formula bar).
    doc.edit_splice(
        HoleName(0),
        m.rows[0].1[0],
        parse_uexp("q1_max +. 24. +. 30.").unwrap(),
    )
    .unwrap();
    doc.edit_splice(HoleName(0), m.rows[0].1[1], UExp::Float(92.0))
        .unwrap();
    doc.edit_splice(HoleName(0), m.rows[1].0, UExp::Str("Bob".into()))
        .unwrap();
    doc.edit_splice(HoleName(0), m.rows[1].1[0], UExp::Float(60.0))
        .unwrap();
    doc.edit_splice(HoleName(0), m.rows[1].1[1], UExp::Float(70.0))
        .unwrap();

    // Cutoffs livelit over the live averages.
    doc.fill_hole_with_livelit(
        &registry,
        HoleName(1),
        "$grade_cutoffs",
        vec![parse_uexp(
            "(fix go : (List((Str, Float)) -> List(Float)) -> \
             fun xs : List((Str, Float)) -> \
             lcase xs | [] -> [Float|] | p :: rest -> p._1 :: go rest end) averages",
        )
        .unwrap()],
    )
    .unwrap();

    let out = run(&registry, &doc).unwrap();
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    // Ada: (90 + 92)/2 = 91 ⇒ A at default cutoffs; Bob: 65 ⇒ D.
    assert_eq!(out.result.as_str(), Some("Ada:A;Bob:D;"));

    // Drag D down to 70: Bob drops to F.
    doc.dispatch(
        HoleName(1),
        &iv::record([(
            "drag",
            iv::record([("paddle", iv::string("D")), ("to", iv::float(70.0))]),
        )]),
    )
    .unwrap();
    let out = run(&registry, &doc).unwrap();
    assert_eq!(out.result.as_str(), Some("Ada:A;Bob:F;"));

    // The $grade_cutoffs closure saw the computed averages (which depend on
    // the $dataframe livelit — the two-phase collection at work).
    let envs = out.collection.envs_for(HoleName(1));
    assert_eq!(envs.len(), 1);
    let averages = envs[0].get(&Var::new("averages")).expect("collected");
    assert!(averages.list_elements().is_some(), "resumed to a value");
}

#[test]
fn fig_2_image_filters_end_to_end() {
    use hazel::lang::parse::parse_uexp;
    use hazel::std::adjustments::GALLERY;
    use hazel::std::image::{image_from_value, load_image};

    let registry = std_registry();
    let program = parse_uexp(&format!(
        "let classic_look = fun url : Str -> \
           $basic_adjustments@0{{(.contrast 1, .brightness 2)}}(\
             url : Str; 40 : Int; 10 : Int) in \
         (classic_look \"{}\", classic_look \"{}\")",
        GALLERY[0], GALLERY[1]
    ))
    .unwrap();
    let doc = Document::new(&registry, vec![], program).unwrap();
    let out = run(&registry, &doc).unwrap();
    assert!(out.errors.is_empty(), "{:?}", out.errors);

    // Two closures — one per application of the preset.
    assert_eq!(out.collection.envs_for(HoleName(0)).len(), 2);

    // The object-language pipeline agrees with the Rust substrate on both
    // photos.
    let first = out.result.field(&Label::positional(0)).unwrap();
    let second = out.result.field(&Label::positional(1)).unwrap();
    assert_eq!(
        image_from_value(first).unwrap(),
        load_image(GALLERY[0]).contrast(40).brightness(10)
    );
    assert_eq!(
        image_from_value(second).unwrap(),
        load_image(GALLERY[1]).contrast(40).brightness(10)
    );
}

#[test]
fn sec_2_2_expansion_shape() {
    // The Sec. 2.2 expansion listing: the $dataframe invocation expands to
    // an application of a closed function to the spliced cells; variables
    // like q1_max stay references into client scope.
    use hazel::lang::parse::parse_uexp;
    use hazel::lang::value::iv;

    let registry = std_registry();
    let program = parse_uexp("let q1_max = 36. in ?0").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])
        .unwrap();
    doc.dispatch(HoleName(0), &iv::record([("add_col", IExp::Unit)]))
        .unwrap();
    doc.dispatch(HoleName(0), &iv::record([("add_row", IExp::Unit)]))
        .unwrap();
    let m = DataframeModel::from_value(doc.instance(HoleName(0)).unwrap().model()).unwrap();
    doc.edit_splice(
        HoleName(0),
        m.rows[0].1[0],
        parse_uexp("q1_max +. 24. +. 20.").unwrap(),
    )
    .unwrap();

    let expansion = hazel::editor::expansion(&registry, &doc).unwrap();
    let text = hazel::lang::pretty::print_eexp(&expansion, 10_000);
    // The client's expression appears verbatim as a function argument.
    assert!(text.contains("q1_max +. 24.0 +. 20.0"), "{text}");
    // The expansion abstracts cells as function parameters (capture
    // avoidance by beta reduction).
    assert!(text.contains("fun x0_0 : Float"), "{text}");
}

#[test]
fn save_load_roundtrip_on_random_programs() {
    // Editor-level persistence over generated programs with livelits from
    // the *standard* library is exercised by the case studies; here the
    // parser-level round-trip runs over the test Φ at several widths.
    let phi = test_phi();
    for seed in 0..60 {
        let mut g = Gen::with_config(
            seed,
            GenConfig {
                livelit_pct: 30,
                ..GenConfig::default()
            },
        );
        let (u, _) = g.program(&phi);
        for width in [25, 60, 120] {
            let text = hazel::lang::pretty::print_uexp(&u, width);
            let back = hazel::lang::parse::parse_uexp(&text)
                .unwrap_or_else(|e| panic!("seed {seed} width {width}: {e}\n{text}"));
            assert_eq!(back, u, "seed {seed} width {width}");
        }
    }
}

#[test]
fn engine_error_marking_keeps_program_alive() {
    // A program with one bad invocation (wrong model type) and one good
    // one: the bad one is marked, the good one still works, and the result
    // is indeterminate rather than an error.
    use hazel::lang::unexpanded::{LivelitAp, Splice};

    let phi = test_phi();
    let bad = UExp::Livelit(Box::new(LivelitAp {
        name: LivelitName::new("$sum2"),
        model: IExp::Bool(true), // model type is Unit
        splices: vec![
            Splice::new(UExp::Int(1), Typ::Int),
            Splice::new(UExp::Int(2), Typ::Int),
        ],
        hole: HoleName(0),
    }));
    let good = UExp::Livelit(Box::new(LivelitAp {
        name: LivelitName::new("$k7"),
        model: IExp::Unit,
        splices: vec![],
        hole: HoleName(1),
    }));
    let program = UExp::Bin(BinOp::Add, Box::new(bad), Box::new(good));
    let (marked, errors) = hazel::editor::engine::mark_livelit_errors(&phi, &program);
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].hole, HoleName(0));
    let collection = hazel::core::collect(&phi, &marked).unwrap();
    let result = collection.resume_result().unwrap();
    assert!(hazel::lang::final_form::is_indet(&result));
    // The good livelit's value (7) is present in the stuck sum.
    match result {
        IExp::Bin(BinOp::Add, _, rhs) => assert_eq!(*rhs, IExp::Int(7)),
        other => panic!("unexpected {other:?}"),
    }
}

// ------------------------------------------------------------------------
// View-diff properties over random trees
// ------------------------------------------------------------------------

fn rand_html(rng: &mut XorShift, depth: u32) -> hazel::mvu::Html<u32> {
    use hazel::mvu::html::{Dim, Html};
    use hazel::mvu::SpliceRef;
    let leaf_kind = rng.below(3);
    let leaf = |rng: &mut XorShift| match leaf_kind {
        0 => {
            let len = rng.index(7);
            Html::<u32>::text(
                (0..len)
                    .map(|_| char::from(b'a' + rng.below(26) as u8))
                    .collect::<String>(),
            )
        }
        1 => Html::Editor {
            splice: SpliceRef(rng.below(5)),
            dim: Dim::fixed_width(1 + rng.index(29)),
        },
        _ => Html::ResultView {
            splice: SpliceRef(rng.below(5)),
            dim: Dim::fixed_width(1 + rng.index(29)),
        },
    };
    if depth == 0 || rng.bool() {
        return leaf(rng);
    }
    let tag = ["div", "span", "tr"][rng.index(3)];
    let n = rng.index(4);
    let children: Vec<_> = (0..n).map(|_| rand_html(rng, depth - 1)).collect();
    let node = hazel::mvu::Html::node(tag, children);
    if rng.bool() {
        node.on_click(rng.below(10) as u32)
    } else {
        node
    }
}

/// apply(old, diff(old, new)) == new, for arbitrary tree pairs.
#[test]
fn diff_apply_roundtrip() {
    let mut rng = XorShift::new(0xD1FF);
    for case in 0..200 {
        let old = rand_html(&mut rng, 3);
        let new = rand_html(&mut rng, 3);
        let patches = hazel::mvu::diff(&old, &new);
        assert_eq!(hazel::mvu::apply(&old, &patches), new, "case {case}");
    }
}

/// diff(t, t) is empty — re-rendering an unchanged view patches nothing.
#[test]
fn diff_identity_is_empty() {
    let mut rng = XorShift::new(0x1DE0);
    for case in 0..200 {
        let t = rand_html(&mut rng, 3);
        assert!(hazel::mvu::diff(&t, &t.clone()).is_empty(), "case {case}");
    }
}
