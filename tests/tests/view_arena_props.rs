//! Retained views must be unobservable: over seeded random edit scripts,
//! the [`IncrementalEngine`]'s retained render pipeline — memo hits,
//! diffs against the retained snapshot, generation stamps — must publish
//! view trees bit-identical to the legacy rebuild-everything pass
//! ([`compute_views_from_scratch`]), its stored patch script must equal
//! the whole-tree diff against the acked view and roll that view forward
//! exactly.
//!
//! The file keeps its historical name from when the retained trees lived
//! in a separate view arena.

use std::collections::BTreeMap;
use std::sync::Arc;

use hazel::editor::{open_module, IncrementalEngine};
use hazel::lang::eval::DEFAULT_FUEL;
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::mvu::{diff, try_apply, Html};
use hazel::prelude::*;
use hazel::trace::{Counter, Stats, StatsSink, Tracer};
use integration_tests::{compute_views_from_scratch, XorShift};

const SCRIPTS: u64 = 40;
const EDITS_PER_SCRIPT: usize = 6;

/// Splice replacement candidates, all well-typed at `Int` in the scope of
/// the module's `base`/`spare` definitions. Several evaluate to the same
/// value through different terms, so splice edits exercise both branches
/// of the memo key (content changed, σ-determined results changed).
const CONTENTS: &[&str] = &[
    "0",
    "7",
    "base",
    "spare",
    "base + spare",
    "let c = 2 in c",
    "if true then 1 else 2",
    "if false then base else 2",
];

/// A seeded module: two library definitions and two slider invocations
/// whose models and splices the script edits. Editing one invocation must
/// leave the other a memo hit.
fn module_source(rng: &mut XorShift) -> String {
    let spare_def = if rng.bool() { "base + 1" } else { "5" };
    format!(
        "def base : Int = {} ;;\n\
         def spare : Int = {spare_def} ;;\n\
         $slider@0{{3}}(1 : Int; 9 : Int) + $slider@1{{4}}({} : Int; 8 : Int)",
        rng.range(1, 20),
        CONTENTS[rng.index(CONTENTS.len())],
    )
}

/// Runs one whole edit script. After every step the retained pipeline's
/// published views are compared bit-for-bit against the legacy
/// from-scratch pass, and each hole's generation/patch state is validated
/// against the snapshot the test tracked from the previous step. Returns
/// the counter totals and how many hole-steps took the non-empty-patch
/// transition.
fn run_script(seed: u64) -> (Stats, usize) {
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let source = module_source(&mut rng);
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, mut doc) = open_module(registry, &source).expect("seeded module opens");

    let mut engine = IncrementalEngine::new();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    // What a patch-applying client would hold: the last tree it applied
    // and the generation the server stamped it with.
    let mut acked: BTreeMap<HoleName, (u64, Arc<Html<Action>>)> = BTreeMap::new();
    let mut patched_transitions = 0usize;
    {
        let _guard = hazel::trace::install(&tracer);
        for step in 0..=EDITS_PER_SCRIPT {
            if step > 0 {
                let hole = HoleName(rng.below(2));
                if rng.below(4) == 0 {
                    // A model transition: this hole's view recomputes and
                    // diffs; the other hole must stay a memo hit.
                    doc.dispatch(hole, &iv::record([("set", iv::int(rng.range(0, 9)))]))
                        .expect("slider dispatch");
                } else {
                    let splice = SpliceRef(rng.below(2));
                    let contents = parse_uexp(CONTENTS[rng.index(CONTENTS.len())]).unwrap();
                    doc.edit_splice(hole, splice, contents).expect("edit");
                }
            }
            let views: BTreeMap<HoleName, Arc<Html<Action>>> = {
                let output = engine.run(&registry, &doc).expect("engine runs");
                let (legacy_views, legacy_errors) =
                    compute_views_from_scratch(&registry, &doc, &output.collection, DEFAULT_FUEL);
                assert_eq!(
                    output.views.keys().collect::<Vec<_>>(),
                    legacy_views.keys().collect::<Vec<_>>(),
                    "seed {seed} step {step}: retained and legacy view key sets diverge"
                );
                for (u, view) in &output.views {
                    assert_eq!(
                        Some(&**view),
                        legacy_views.get(u),
                        "seed {seed} step {step}: retained view for {u:?} diverges from scratch"
                    );
                }
                assert_eq!(
                    output.view_errors, legacy_errors,
                    "seed {seed} step {step}: view errors diverge"
                );
                output.views.clone()
            };
            for (u, view) in &views {
                let delta = engine
                    .view_delta(*u)
                    .expect("every published view has a retained snapshot");
                match acked.get(u) {
                    Some((gen, snapshot)) if *gen == delta.gen => {
                        // No patch was emitted for this hole: the tree
                        // must be exactly what the client already holds.
                        assert_eq!(
                            **snapshot, **view,
                            "seed {seed} step {step}: unchanged generation but changed tree for {u:?}"
                        );
                    }
                    Some((gen, snapshot)) if *gen == delta.prev_gen => {
                        // One generation ahead: the stored patch script
                        // must equal the whole-tree diff against the acked
                        // snapshot and roll it forward exactly.
                        assert_eq!(
                            *delta.last_patches,
                            diff(snapshot, view),
                            "seed {seed} step {step}: stored patches for {u:?} diverge from diff"
                        );
                        let applied = try_apply(snapshot, &delta.last_patches)
                            .expect("stored patches apply to the acked tree");
                        assert_eq!(
                            applied, **view,
                            "seed {seed} step {step}: patches do not roll {u:?} forward"
                        );
                        patched_transitions += 1;
                    }
                    Some((gen, _)) => panic!(
                        "seed {seed} step {step}: generation for {u:?} jumped from {gen} to {} \
                         (prev_gen {}) in a single run",
                        delta.gen, delta.prev_gen
                    ),
                    None => {}
                }
                acked.insert(*u, (delta.gen, Arc::clone(view)));
            }
            acked.retain(|u, _| views.contains_key(u));
        }
    }
    (sink.snapshot(), patched_transitions)
}

#[test]
fn retained_views_are_bit_identical_to_legacy() {
    let mut patched_total = 0usize;
    for seed in 0..SCRIPTS {
        let (stats, patched) = run_script(seed);
        patched_total += patched;
        // The property is about *retention*: the pipeline must actually
        // have kept nodes in place (memo hits or in-place patches), or
        // the scripts compare nothing.
        assert!(
            stats.counter(Counter::ViewNodesReused) > 0,
            "seed {seed}: no view nodes reused across the script"
        );
        assert!(
            stats.counter(Counter::ViewNodesRebuilt) > 0,
            "seed {seed}: no view nodes rebuilt across the script"
        );
    }
    assert!(
        patched_total >= 40,
        "property near-vacuous: only {patched_total} non-empty patch transitions across all scripts"
    );
}
