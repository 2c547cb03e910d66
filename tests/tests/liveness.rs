//! "Uniquely, every editor state in Hazel is semantically meaningful: it
//! has a type, it can be evaluated" (Sec. 5.1) — replayed here: after
//! *every prefix* of a realistic edit session, the engine produces a typed
//! result (possibly indeterminate, never a crash).

use hazel::editor::{apply_action, EditAction};
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::prelude::*;

fn std_registry() -> LivelitRegistry {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    registry
}

/// A grading-like session: fill holes, grow a dataframe, edit cells,
/// select, drag.
fn session() -> Vec<EditAction> {
    let mut s = vec![EditAction::FillHole {
        at: HoleName(0),
        livelit: LivelitName::new("$dataframe"),
        params: vec![],
    }];
    for _ in 0..2 {
        s.push(EditAction::Dispatch {
            at: HoleName(0),
            action: iv::record([("add_col", IExp::Unit)]),
        });
    }
    for _ in 0..2 {
        s.push(EditAction::Dispatch {
            at: HoleName(0),
            action: iv::record([("add_row", IExp::Unit)]),
        });
    }
    // Splice refs for a 2×2 dataframe: cols 0-1, rows (2; 3,4) and (5; 6,7).
    for (r, contents) in [
        (0u64, "\"Mid\""),
        (1, "\"Final\""),
        (2, "\"Ada\""),
        (3, "q1_max +. 24."),
        (4, "92."),
        (5, "\"Bob\""),
        (6, "60."),
        (7, "70."),
    ] {
        s.push(EditAction::EditSplice {
            at: HoleName(0),
            splice: hazel::mvu::SpliceRef(r),
            contents: parse_uexp(contents).expect("splice parses"),
        });
    }
    s.push(EditAction::Dispatch {
        at: HoleName(0),
        action: iv::record([(
            "select",
            iv::record([("row", iv::int(0)), ("col", iv::int(0))]),
        )]),
    });
    s.push(EditAction::FillHole {
        at: HoleName(1),
        livelit: LivelitName::new("$grade_cutoffs"),
        params: vec![parse_uexp(
            "(fix go : (List((Str, Float)) -> List(Float)) -> \
             fun xs : List((Str, Float)) -> \
             lcase xs | [] -> [Float|] | p :: rest -> p._1 :: go rest end) averages",
        )
        .expect("parses")],
    });
    s.push(EditAction::Dispatch {
        at: HoleName(1),
        action: iv::record([(
            "drag",
            iv::record([("paddle", iv::string("B")), ("to", iv::float(76.0))]),
        )]),
    });
    s
}

#[test]
fn every_prefix_of_the_session_is_meaningful() {
    let registry = std_registry();
    let actions = session();
    let program = parse_uexp(
        "let q1_max = 36. in \
         let grades : (.cols List(Str), .rows List((Str, List(Float)))) = ?0 in \
         let averages = compute_weighted_averages grades [Float| 1., 1.] in \
         let cutoffs : (.A Float, .B Float, .C Float, .D Float) = ?1 in \
         format_for_university (assign_grades averages cutoffs)",
    )
    .unwrap();
    let prelude = hazel::std::grading::grading_prelude();

    for prefix_len in 0..=actions.len() {
        let mut doc = Document::new(&registry, prelude.clone(), program.clone()).unwrap();
        for action in &actions[..prefix_len] {
            apply_action(&registry, &mut doc, action)
                .unwrap_or_else(|e| panic!("prefix {prefix_len}: action failed: {e}"));
        }
        // Every prefix state types and evaluates.
        let out = hazel::editor::run(&registry, &doc)
            .unwrap_or_else(|e| panic!("prefix {prefix_len}: engine failed: {e}"));
        assert_eq!(out.collection.ty, Typ::Str, "prefix {prefix_len}");
        assert!(
            hazel::lang::final_form::is_final(&out.result),
            "prefix {prefix_len}: non-final result"
        );
        // Before the cutoffs hole is filled, the result is indeterminate;
        // after the full session it is the registrar string.
        if prefix_len == actions.len() {
            assert_eq!(out.result.as_str(), Some("Ada:B;Bob:D;"));
        }
    }
}

#[test]
fn incremental_engine_agrees_on_every_prefix() {
    // The incremental engine tracks the full pipeline across an entire
    // session, whatever mixture of skeleton and model edits occurs.
    let registry = std_registry();
    let actions = session();
    let program = parse_uexp(
        "let q1_max = 36. in \
         let grades : (.cols List(Str), .rows List((Str, List(Float)))) = ?0 in \
         let averages = compute_weighted_averages grades [Float| 1., 1.] in \
         let cutoffs : (.A Float, .B Float, .C Float, .D Float) = ?1 in \
         format_for_university (assign_grades averages cutoffs)",
    )
    .unwrap();
    let mut doc =
        Document::new(&registry, hazel::std::grading::grading_prelude(), program).unwrap();
    let mut engine = hazel::editor::IncrementalEngine::new();
    for (i, action) in actions.iter().enumerate() {
        apply_action(&registry, &mut doc, action).unwrap();
        let incremental = engine.run(&registry, &doc).unwrap().result.clone();
        let full = hazel::editor::run(&registry, &doc).unwrap().result;
        assert_eq!(incremental, full, "divergence after action {i}");
    }
}
