//! The incremental engine must agree with the full pipeline on every edit,
//! and take the fast path exactly when only models changed.

use hazel_editor::{Document, IncrementalEngine, LivelitRegistry};
use hazel_lang::parse::parse_uexp;
use hazel_lang::value::iv;
use hazel_lang::{HoleName, IExp};

fn registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    livelit_std::register_all(&mut registry);
    registry
}

#[test]
fn model_only_edits_take_the_fast_path() {
    let registry = registry();
    let program = parse_uexp(
        "let v = $slider@0{10}(0 : Int; 100 : Int) in \
         let heavy = (fix go : (Int -> Int) -> fun k : Int -> \
            if k <= 0 then 0 else k + go (k - 1)) 200 in \
         v + heavy",
    )
    .unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let mut engine = IncrementalEngine::new();

    let out = engine.run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(10 + 20100));
    assert_eq!(engine.full_runs, 1);
    assert_eq!(engine.incremental_hits, 0);

    // A sequence of slider drags: every one is a model-only edit.
    for v in [20, 35, 42] {
        doc.dispatch(HoleName(0), &iv::record([("set", iv::int(v))]))
            .unwrap();
        let out = engine.run(&registry, &doc).unwrap();
        assert_eq!(out.result, IExp::Int(v + 20100));
        // The on-demand expansion tracks the model.
        let expansion = hazel_editor::expansion(&registry, &doc).unwrap();
        let printed = hazel_lang::pretty::print_eexp(&expansion, 10_000);
        assert!(printed.contains(&format!(" {v}")), "{printed}");
    }
    assert_eq!(engine.full_runs, 1, "no re-collection for drags");
    assert_eq!(engine.incremental_hits, 3);

    // Agreement with the one-shot pipeline.
    let reference = hazel_editor::run(&registry, &doc).unwrap();
    let incremental = engine.run(&registry, &doc).unwrap();
    assert_eq!(incremental.result, reference.result);
    assert_eq!(incremental.collection.ty, reference.collection.ty);
}

#[test]
fn splice_edits_invalidate_the_cache() {
    let registry = registry();
    let program = parse_uexp("(?0 : (.r Int, .g Int, .b Int, .a Int))").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$color", vec![])
        .unwrap();
    let mut engine = IncrementalEngine::new();
    engine.run(&registry, &doc).unwrap();
    assert_eq!(engine.full_runs, 1);

    // Editing a splice changes the skeleton: full path.
    doc.edit_splice(
        HoleName(0),
        livelit_mvu::SpliceRef(0),
        parse_uexp("42").unwrap(),
    )
    .unwrap();
    let out = engine.run(&registry, &doc).unwrap();
    assert_eq!(
        out.result
            .field(&hazel_lang::Label::new("r"))
            .and_then(IExp::as_int),
        Some(42)
    );
    assert_eq!(engine.full_runs, 2);
    assert_eq!(engine.incremental_hits, 0);

    // A palette click changes splices too (set_splice): full path again —
    // correctness over speed for splice-mutating actions.
    let phi = registry.phi();
    let gamma = hazel_lang::typing::Ctx::empty();
    doc.instance_mut(HoleName(0))
        .unwrap()
        .click(&phi, &gamma, &[], 1_000_000, "swatch-2")
        .unwrap();
    doc.sync().unwrap();
    let out = engine.run(&registry, &doc).unwrap();
    assert_eq!(
        out.result
            .field(&hazel_lang::Label::new("b"))
            .and_then(IExp::as_int),
        Some(210)
    );
    assert_eq!(engine.full_runs, 3);
}

#[test]
fn fast_path_refreshes_dependent_livelit_environments() {
    // Two livelits where the second's environment depends on the first's
    // expansion: a model change to the first must propagate into the
    // second's refreshed environment on the fast path.
    let registry = registry();
    let program = parse_uexp(
        "let v = $slider@0{10}(0 : Int; 100 : Int) in \
         let w = $slider@1{1}(0 : Int; 100 : Int) in \
         v + w",
    )
    .unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let mut engine = IncrementalEngine::new();
    engine.run(&registry, &doc).unwrap();

    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(70))]))
        .unwrap();
    let out = engine.run(&registry, &doc).unwrap().clone();
    assert_eq!(engine.incremental_hits, 1);
    // The second slider's environment sees the *new* value of v.
    let envs = out.collection.envs_for(HoleName(1));
    assert_eq!(
        envs[0].get(&hazel_lang::Var::new("v")),
        Some(&IExp::Int(70))
    );
}

#[test]
fn invalidate_forces_full_run() {
    let registry = registry();
    let program = parse_uexp("$checkbox@0{false}").unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let mut engine = IncrementalEngine::new();
    engine.run(&registry, &doc).unwrap();
    doc.dispatch(HoleName(0), &IExp::Unit).unwrap();
    engine.invalidate();
    engine.run(&registry, &doc).unwrap();
    assert_eq!(engine.full_runs, 2);
    assert_eq!(engine.incremental_hits, 0);
}
