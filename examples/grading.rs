//! Case study: grading with livelits (Fig. 1c, Sec. 2.1).
//!
//! An instructor records grades in a `$dataframe` (with a formula in one
//! cell referencing `q1_max`, as in the paper's formula bar), computes
//! weighted averages with a shared library function, eyeballs letter-grade
//! cutoffs by dragging `$grade_cutoffs` paddles over a live distribution,
//! and formats the result for the university registrar — alternating
//! between programmatic and direct manipulation.
//!
//! Run with `cargo run --example grading`.

use hazel::prelude::*;
use hazel::std::dataframe::DataframeModel;
use hazel::std::grading::grading_prelude;
use hazel_lang::parse::parse_uexp;
use hazel_lang::pretty::{print_eexp, print_iexp};
use hazel_lang::value::iv;

const STUDENTS: [(&str, [f64; 4]); 3] = [
    ("Andrew", [0.0, 92.0, 95.0, 88.0]), // first cell filled by formula
    ("Cyrus", [61.0, 64.0, 70.0, 85.0]),
    ("David", [75.0, 81.0, 82.0, 79.0]),
];
const ASSIGNMENTS: [&str; 4] = ["A1", "A2", "Midterm", "Final"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);

    // The program skeleton (Fig. 1c): grades via $dataframe, averages via
    // the shared library, cutoffs via $grade_cutoffs, then programmatic
    // grade assignment. The library lives in the prelude.
    let program = parse_uexp(
        "let q1_max = 36. in \
         let grades = ?0 in \
         let averages = compute_weighted_averages grades [Float| 1., 1., 1., 1.] in \
         let avg_values = \
           (fix go : (List((Str, Float)) -> List(Float)) -> \
            fun xs : List((Str, Float)) -> \
            lcase xs | [] -> [Float|] | p :: rest -> p._1 :: go rest end) averages in \
         let cutoffs = ?1 in \
         format_for_university (assign_grades averages cutoffs)",
    )?;
    let mut doc = Document::new(&registry, grading_prelude(), program)?;

    // --- Direct manipulation 1: the $dataframe -------------------------
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])?;
    for _ in ASSIGNMENTS {
        doc.dispatch(HoleName(0), &iv::record([("add_col", IExp::Unit)]))?;
    }
    for _ in STUDENTS {
        doc.dispatch(HoleName(0), &iv::record([("add_row", IExp::Unit)]))?;
    }
    // Fill headers, row keys and cells through splice edits (the editor's
    // formula bar).
    let model = DataframeModel::from_value(doc.instance(HoleName(0)).unwrap().model())
        .expect("dataframe model");
    for (ci, name) in ASSIGNMENTS.iter().enumerate() {
        doc.edit_splice(HoleName(0), model.cols[ci], UExp::Str((*name).into()))?;
    }
    for (ri, (name, scores)) in STUDENTS.iter().enumerate() {
        doc.edit_splice(HoleName(0), model.rows[ri].0, UExp::Str((*name).into()))?;
        for (ci, score) in scores.iter().enumerate() {
            doc.edit_splice(HoleName(0), model.rows[ri].1[ci], UExp::Float(*score))?;
        }
    }
    // The formula bar: Andrew's A1 is an arbitrary Hazel expression adding
    // problem scores, one of which references q1_max (Fig. 1c).
    doc.dispatch(
        HoleName(0),
        &iv::record([(
            "select",
            iv::record([("row", iv::int(0)), ("col", iv::int(0))]),
        )]),
    )?;
    doc.edit_splice(
        HoleName(0),
        model.rows[0].1[0],
        parse_uexp("q1_max +. 24. +. 20.")?,
    )?;

    // --- Direct manipulation 2: $grade_cutoffs over live averages ------
    doc.fill_hole_with_livelit(
        &registry,
        HoleName(1),
        "$grade_cutoffs",
        vec![parse_uexp("avg_values")?],
    )?;

    // Run the pipeline and show the live views.
    let out = hazel::editor::run(&registry, &doc)?;
    assert!(
        out.collection.errors.is_empty(),
        "livelit errors: {:?}",
        out.collection.errors
    );
    let phi = registry.phi();

    println!("== $dataframe (cells show VALUES, like a spreadsheet) ==");
    let df_view = out.views.get(&HoleName(0)).expect("dataframe view");
    let resolver = hazel::editor::InstanceResolver {
        instance: doc.instance(HoleName(0)).unwrap(),
        phi: &phi,
        collection: &out.collection,
        hole: HoleName(0),
        env_index: 0,
    };
    for line in hazel::editor::render_boxed("$dataframe", df_view, &resolver) {
        println!("{line}");
    }

    println!("\n== $grade_cutoffs (live distribution of averages) ==");
    let gc_view = out.views.get(&HoleName(1)).expect("cutoffs view");
    let resolver1 = hazel::editor::InstanceResolver {
        instance: doc.instance(HoleName(1)).unwrap(),
        phi: &phi,
        collection: &out.collection,
        hole: HoleName(1),
        env_index: 0,
    };
    for line in hazel::editor::render_boxed("$grade_cutoffs", gc_view, &resolver1) {
        println!("{line}");
    }

    println!("\n== registrar output (before dragging) ==");
    println!("{}", print_iexp(&out.result, 100));

    // --- Direct manipulation 3: drag the B paddle to 76 ----------------
    doc.dispatch(
        HoleName(1),
        &iv::record([(
            "drag",
            iv::record([("paddle", iv::string("B")), ("to", iv::float(76.0))]),
        )]),
    )?;
    let out = hazel::editor::run(&registry, &doc)?;
    println!("\n== registrar output (after dragging B to 76) ==");
    println!("{}", print_iexp(&out.result, 100));

    // The Sec. 2.2 expansion of the whole program.
    println!("\n== expansion of the full program (Sec. 2.2) ==");
    let text = print_eexp(&hazel::editor::expansion(&registry, &doc), 100);
    for line in text.lines().take(14) {
        println!("{line}");
    }
    println!(
        "... ({} more lines)",
        text.lines().count().saturating_sub(14)
    );

    // Sanity: Andrew's formula cell evaluated to 80 and he got an A.
    let final_str = out.result.as_str().expect("registrar string");
    assert!(final_str.contains("Andrew:"), "{final_str}");
    Ok(())
}
