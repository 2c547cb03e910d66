//! Module files end-to-end: textual livelit definitions ("providers define
//! livelits in libraries", Sec. 1.2) driven through the full editor.

use hazel_editor::{open_module, Document, LivelitRegistry};
use hazel_lang::value::iv;
use hazel_lang::{HoleName, IExp};

#[test]
fn module_with_object_livelit_runs() {
    let src = r#"
        livelit $answer at Int {
          model Unit init ();
          expand fun m : Unit -> "42"
        }

        def twice : Int -> Int = fun n : Int -> n * 2 ;;

        twice $answer@0{()}
    "#;
    let (registry, doc) = open_module(LivelitRegistry::new(), src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(84));
}

#[test]
fn model_driven_object_livelit() {
    // A "stepper" livelit whose expansion is its Int model rendered through
    // string concatenation in the object language. The declaration's expand
    // builds surface syntax with `if`-chains — no Rust anywhere.
    let src = r#"
        livelit $stepper at Int {
          model Int init 1;
          expand fun m : Int ->
            if m == 1 then "1" else if m == 2 then "2" else "99"
        }

        $stepper@0{1} + 100
    "#;
    let (registry, mut doc) = open_module(LivelitRegistry::new(), src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(101));

    // The generic GUI's (.set model) protocol drives it.
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(2))]))
        .unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(102));

    // Push-back works because model type == expansion type.
    assert!(doc.push_result(HoleName(0), &IExp::Int(1)).unwrap());
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(101));

    // And it persists through the text buffer like any livelit.
    let buffer = hazel_editor::save_buffer(&doc, 100);
    assert!(buffer.contains("$stepper@0{1}"), "{buffer}");
    let doc2 = hazel_editor::load_buffer(&registry, doc.prelude().to_vec(), &buffer).unwrap();
    assert_eq!(
        hazel_editor::run(&registry, &doc2).unwrap().result,
        IExp::Int(101)
    );
}

#[test]
fn parameterized_object_livelit() {
    // A declared parameter becomes the pexpansion's argument; the splice is
    // editable at the invocation and flows through beta reduction.
    let src = r#"
        livelit $offset (base : Int) at Int {
          model Int init 5;
          expand fun m : Int ->
            "fun base : Int -> base + " ^ (if m == 5 then "5" else "0")
        }

        let k = 10 in
        $offset@0{5}(k : Int)
    "#;
    let (registry, doc) = open_module(LivelitRegistry::new(), src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(15));
    // The parameter is a splice into client scope — a closure was collected
    // with k's value.
    let envs = out.collection.envs_for(HoleName(0));
    assert_eq!(envs.len(), 1);
    assert_eq!(
        envs[0].get(&hazel_lang::Var::new("k")),
        Some(&IExp::Int(10))
    );
}

#[test]
fn generic_gui_shows_model_and_expansion() {
    let src = r#"
        livelit $answer at Int {
          model Unit init ();
          expand fun m : Unit -> "42"
        }
        $answer@0{()}
    "#;
    let (registry, doc) = open_module(LivelitRegistry::new(), src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    let view = out.views.get(&HoleName(0)).expect("generic view");
    let lines = hazel_editor::render_view(view, &hazel_editor::OpaqueResolver);
    let text = lines.join("\n");
    assert!(text.contains("$answer at Int"), "{text}");
    assert!(text.contains("expands to: 42"), "{text}");
}

#[test]
fn bad_declarations_are_reported() {
    // Ill-typed expansion function.
    let src = r#"
        livelit $broken at Int { model Unit init (); expand fun m : Unit -> 0 }
        1
    "#;
    assert!(matches!(
        open_module(LivelitRegistry::new(), src),
        Err(hazel_editor::ModuleError::Decl(_))
    ));

    // Ill-typed library def.
    let src = "def x : Int = true ;; x";
    assert!(matches!(
        open_module(LivelitRegistry::new(), src),
        Err(hazel_editor::ModuleError::Def { .. })
    ));

    // A malformed expansion *string* is a run-time (invocation-site)
    // failure, marked like any other livelit error — the program still
    // loads.
    let src = r#"
        livelit $garbage at Int { model Unit init (); expand fun m : Unit -> "((" }
        $garbage@0{()} + 1
    "#;
    let (registry, doc) = open_module(LivelitRegistry::new(), src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.collection.errors.len(), 1, "decode failure marked");
    assert!(hazel_lang::final_form::is_indet(&out.result));
}

#[test]
fn modules_compose_with_native_livelits() {
    // A module used alongside the Rust standard library: the declared
    // livelit and $slider coexist in one program.
    let mut base = LivelitRegistry::new();
    livelit_std::register_all(&mut base);
    let src = r#"
        livelit $seven at Int {
          model Unit init ();
          expand fun m : Unit -> "7"
        }

        $seven@0{()} * $slider@1{6}(0 : Int; 10 : Int)
    "#;
    let (registry, doc) = open_module(base, src).unwrap();
    let out = hazel_editor::run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(42));
    let _: &Document = &doc;
}
