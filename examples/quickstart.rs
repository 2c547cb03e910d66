//! Quickstart: filling a typed hole with the `$color` livelit (Fig. 1b).
//!
//! Reproduces the paper's introductory example: a client defines
//! `baseline`, fills a `Color`-typed hole with `$color`, relates the RGBA
//! components to `baseline` through splices, and gets a live preview —
//! all while the invocation remains a persistent, well-typed expression.
//!
//! Run with `cargo run --example quickstart`.

use hazel::prelude::*;
use hazel::std::color::color_typ;
use hazel_lang::parse::parse_uexp;
use hazel_lang::pretty::{print_eexp, print_iexp, print_uexp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A registry with the standard livelit library.
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);

    // 2. The client's program: a typed hole of type Color, under a binding
    //    the splices will use (Fig. 1b's `baseline`).
    let program = parse_uexp(&format!("let baseline = 57 in (?0 : {})", color_typ()))?;
    let mut doc = Document::new(&registry, vec![], program)?;
    println!("== program with a typed hole ==");
    println!("{}\n", print_uexp(doc.program(), 72));

    // 3. Fill the hole with $color (the editor's code-completion action).
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$color", vec![])?;

    // 4. Edit the splices through the formula bar: relate g to baseline,
    //    exploring greens by offsetting past it (Fig. 1b).
    doc.edit_splice(HoleName(0), SpliceRef(0), parse_uexp("baseline")?)?;
    doc.edit_splice(HoleName(0), SpliceRef(1), parse_uexp("baseline + 50")?)?;
    doc.edit_splice(HoleName(0), SpliceRef(2), parse_uexp("baseline")?)?;
    println!("== after splice edits ==");
    println!("{}\n", print_uexp(doc.program(), 72));

    // 5. Run the live pipeline: expansion, closure collection, result.
    let out = hazel::editor::run(&registry, &doc)?;
    println!("== expansion (the Sec. 2.2 toggle) ==");
    let expansion = hazel::editor::expansion(&registry, &doc);
    println!("{}\n", print_eexp(&expansion, 72));
    println!("== program result ==");
    println!("{}\n", print_iexp(&out.result, 72));

    // 6. The livelit's live view: the preview evaluated the splices under
    //    the collected closure (baseline = 57).
    let view = out.views.get(&HoleName(0)).expect("color view");
    let gamma = out
        .collection
        .delta
        .get(HoleName(0))
        .map(|hyp| hyp.ctx.clone())
        .unwrap_or_else(Ctx::empty);
    let phi = registry.phi();
    let resolver = hazel::editor::InstanceResolver {
        instance: doc.instance(HoleName(0)).expect("instance"),
        phi: &phi,
        collection: &out.collection,
        hole: HoleName(0),
        env_index: 0,
    };
    println!("== live $color GUI ==");
    for line in hazel::editor::render_boxed("$color", view, &resolver) {
        println!("{line}");
    }
    println!();

    // 7. Interact: click a palette swatch; the GUI overwrites the splices
    //    with literals (Fig. 3's update function), and the program result
    //    follows.
    let envs: Vec<Sigma> = out.collection.envs_for(HoleName(0)).to_vec();
    doc.instance_mut(HoleName(0))
        .expect("instance")
        .click(&phi, &gamma, &envs, 1_000_000, "swatch-1")?;
    doc.sync()?;
    let out = hazel::editor::run(&registry, &doc)?;
    println!("== after clicking a palette swatch ==");
    println!("result: {}", print_iexp(&out.result, 100));

    // 8. Persistence: only the model (and splices) are saved.
    println!("\n== serialized buffer (Sec. 5.2) ==");
    println!("{}", hazel::editor::save_buffer(&doc, 72));

    // Sanity: the result is a Color record.
    assert!(hazel_lang::value::value_has_typ(&out.result, &color_typ()));
    Ok(())
}
