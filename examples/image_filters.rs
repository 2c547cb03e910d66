//! Case study: live image filters (Fig. 2, Sec. 2.5.3).
//!
//! A photographer designs a `classic_look` preset with `$basic_adjustments`
//! *inside a function*, maps it over a collection of photos loaded by URL,
//! and — because the livelit now has one collected closure per photo —
//! toggles between closures to see how the shared settings affect each
//! photo while tweaking them. The underlying expansion stays abstract (it
//! refers to the image via the `url` variable).
//!
//! Run with `cargo run --example image_filters`.

use hazel::prelude::*;
use hazel::std::adjustments::GALLERY;
use hazel::std::image::image_from_value;
use hazel_lang::parse::parse_uexp;
use hazel_lang::value::iv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);

    // classic_look = fun url -> $basic_adjustments(url), mapped over the
    // photo collection (Fig. 2's structure).
    let program = parse_uexp(&format!(
        "let classic_look = fun url : Str -> \
           $basic_adjustments@0{{(.contrast 1, .brightness 2)}}(\
             url : Str; 0 : Int; 0 : Int) in \
         let photos = [Str| \"{}\", \"{}\", \"{}\"] in \
         (fix go : (List(Str) -> List((.w Int, .h Int, .px List(Int)))) -> \
          fun urls : List(Str) -> \
          lcase urls \
          | [] -> [(.w Int, .h Int, .px List(Int))|] \
          | u :: rest -> classic_look u :: go rest \
          end) photos",
        GALLERY[0], GALLERY[1], GALLERY[2]
    ))?;
    let mut doc = Document::new(&registry, vec![], program)?;

    let out = hazel::editor::run(&registry, &doc)?;
    assert!(
        out.collection.errors.is_empty(),
        "{:?}",
        out.collection.errors
    );
    let phi = registry.phi();

    // The livelit appears inside a function applied three times by the
    // mapped fixpoint: three closures were collected.
    let envs = out.collection.envs_for(HoleName(0));
    println!(
        "closures collected for $basic_adjustments: {} (one per photo)\n",
        envs.len()
    );
    assert_eq!(envs.len(), GALLERY.len());

    // Toggle between closures (the Fig. 2 sidebar): the preview flips
    // between photos while the *same* settings apply.
    let gamma = out.collection.delta.get(HoleName(0)).unwrap().ctx.clone();
    for (i, _) in envs.iter().enumerate() {
        doc.select_closure(HoleName(0), i)?;
        let inst = doc.instance(HoleName(0)).unwrap();
        let view = inst.view(&phi, &gamma, envs, 4_000_000)?;
        let resolver = hazel::editor::InstanceResolver {
            instance: inst,
            phi: &phi,
            collection: &out.collection,
            hole: HoleName(0),
            env_index: i,
        };
        println!("== closure {} selected ==", i + 1);
        for line in hazel::editor::render_boxed("$basic_adjustments", &view, &resolver) {
            println!("{line}");
        }
        println!();
    }

    // Tweak the shared preset: +25 contrast, +15 brightness. One edit
    // updates the look of every photo — exactly what the interviewed
    // photographer wanted from Lightroom presets.
    doc.dispatch(HoleName(0), &iv::record([("set_contrast", iv::int(25))]))?;
    doc.dispatch(HoleName(0), &iv::record([("set_brightness", iv::int(15))]))?;
    let out = hazel::editor::run(&registry, &doc)?;

    println!("== after tweaking the preset (contrast +25, brightness +15) ==");
    doc.select_closure(HoleName(0), 0)?;
    let inst = doc.instance(HoleName(0)).unwrap();
    let envs = out.collection.envs_for(HoleName(0));
    let view = inst.view(&phi, &gamma, envs, 4_000_000)?;
    let resolver = hazel::editor::InstanceResolver {
        instance: inst,
        phi: &phi,
        collection: &out.collection,
        hole: HoleName(0),
        env_index: 0,
    };
    for line in hazel::editor::render_boxed("$basic_adjustments", &view, &resolver) {
        println!("{line}");
    }

    // The program's value: the list of adjusted images, computed by the
    // object-language image framework the expansion calls into.
    let images = out.result.list_elements().expect("list of images");
    println!("\nprogram result: {} adjusted images", images.len());
    for (url, img_value) in GALLERY.iter().zip(&images) {
        let img = image_from_value(img_value).expect("image value");
        let expected = hazel::std::image::load_image(url)
            .contrast(25)
            .brightness(15);
        assert_eq!(img, expected, "object-language result matches substrate");
        println!("  {url}: mean intensity {:.1}", img.mean());
    }

    // The expansion remains abstract in url (context independence): it
    // never mentions a concrete photo.
    let expansion_text =
        hazel_lang::pretty::print_eexp(&hazel::editor::expansion(&registry, &doc), 2_000);
    assert!(expansion_text.contains("fun url : Str"));
    println!("\nexpansion stays abstract: `fun url : Str -> ...` applied per photo ✓");
    Ok(())
}
