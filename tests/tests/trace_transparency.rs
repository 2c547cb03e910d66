//! Observational transparency of the tracing layer: running any pipeline
//! phase with a tracer installed must produce results bit-identical to
//! running it untraced. Tracing is observation, not participation — the
//! probes may time and count, never perturb.
//!
//! The property is checked over seeded random programs (the same
//! type-directed generator the executable metatheorems use) for the three
//! phases that matter most: typed expansion, closure collection +
//! fill-and-resume, and live splice evaluation; plus the full editor
//! pipeline over the standard-library grading setup.

use hazel::prelude::*;
use hazel::trace::{RingSink, StatsSink, Tracer};
use integration_tests::{test_phi, Gen, GenConfig};

const CASES: u64 = 60;

fn gen_with_livelits(seed: u64) -> Gen {
    Gen::with_config(
        seed,
        GenConfig {
            exp_depth: 4,
            hole_pct: 0,
            livelit_pct: 25,
            typ_depth: 2,
        },
    )
}

/// Runs `f` twice — untraced, then with a fresh tracer installed — and
/// asserts both runs agree exactly.
fn assert_transparent<R: PartialEq + std::fmt::Debug>(label: &str, mut f: impl FnMut() -> R) {
    let untraced = f();
    let sink = RingSink::new(1 << 16);
    let tracer = Tracer::deterministic(sink.clone());
    let traced = {
        let _guard = hazel::trace::install(&tracer);
        f()
    };
    assert_eq!(untraced, traced, "tracing changed the result of {label}");
    assert!(
        !sink.is_empty(),
        "the traced {label} run recorded no events — probes not reached"
    );
}

#[test]
fn expansion_is_bit_identical_with_tracing_enabled() {
    let phi = test_phi();
    for seed in 0..CASES {
        let (program, _) = gen_with_livelits(seed).program(&phi);
        assert_transparent("expand_typed", || {
            expand_typed(&phi, &Ctx::empty(), &program).map_err(|e| e.to_string())
        });
    }
}

#[test]
fn collection_and_resumption_are_bit_identical_with_tracing_enabled() {
    let phi = test_phi();
    for seed in 0..CASES {
        let (program, _) = gen_with_livelits(seed).program(&phi);
        assert_transparent("collect + resume_result", || {
            collect(&phi, &program)
                .map_err(|e| e.to_string())
                .and_then(|c| {
                    c.resume_result()
                        .map(|r| (c.omega.holes().count(), r))
                        .map_err(|e| e.to_string())
                })
        });
    }
}

#[test]
fn full_editor_pipeline_is_bit_identical_with_tracing_enabled() {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let program = hazel::lang::parse::parse_uexp(
        "let v = $slider@0{30}(0 : Int; 100 : Int) in \
         let w = $checkbox@1{true} in \
         if w then v * 3 else v",
    )
    .unwrap();
    let doc = Document::new(&registry, vec![], program).unwrap();
    assert_transparent("editor::run", || {
        hazel::editor::run(&registry, &doc)
            .map(|out| {
                (
                    out.result.clone(),
                    out.collection.ty.clone(),
                    out.errors.len(),
                )
            })
            .map_err(|e| e.to_string())
    });
}

#[test]
fn traced_runs_count_what_actually_happened() {
    // Sanity-check the counters against ground truth on a known program:
    // two invocations expand, both collect exactly one closure each.
    let phi = test_phi();
    let program = {
        let mut g = gen_with_livelits(7);
        g.program(&phi).0
    };
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let collection = {
        let _guard = hazel::trace::install(&tracer);
        collect(&phi, &program).ok()
    };
    let stats = sink.snapshot();
    if let Some(c) = collection {
        let total_envs: u64 = c.omega.holes().map(|u| c.envs_for(u).len() as u64).sum();
        assert_eq!(
            stats.counter(hazel::trace::Counter::ClosuresCollected),
            total_envs,
            "closures_collected must equal the number of collected environments"
        );
    }
}
