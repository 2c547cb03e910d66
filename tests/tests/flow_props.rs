//! The incremental dataflow analysis must be unobservable: over seeded
//! random edit scripts, the persistent [`IncrementalAnalyzer`] — which
//! reuses per-invocation findings, flow facts, and the reachability
//! fixpoint across edits — must produce diagnostic JSON byte-identical
//! to a from-scratch analysis of the same document after every edit.
//!
//! Facts are computed against the pre-run memo in per-unit overlays and
//! absorbed in unit order, so the cache's warmth may not show up in any
//! output.

use hazel::editor::{analyze_document, open_module, IncrementalAnalyzer};
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::prelude::*;
use hazel::trace::{Counter, Stats, StatsSink, Tracer};
use integration_tests::XorShift;

const SCRIPTS: u64 = 40;
const EDITS_PER_SCRIPT: usize = 6;

/// Splice replacement candidates: all well-typed at `Int` in the scope of
/// the module's `base`/`spare` definitions, chosen to flip flow findings
/// on and off — bindings falling dead (LL0501), literal-condition
/// branches going unreachable (LL0502), definitions gaining and losing
/// their first reference (LL0503).
const CONTENTS: &[&str] = &[
    "0",
    "7",
    "base",
    "spare",
    "base + spare",
    "let c = 2 in c",
    "let d = 3 in 4",
    "if true then 1 else 2",
    "if false then base else 2",
];

/// A seeded module: two library definitions (sometimes chained, so
/// definition-to-definition edges exercise the fixpoint) and two slider
/// invocations whose splices the script edits.
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

/// Runs one whole edit script, asserting after every step that the warm
/// incremental analyzer and a cold from-scratch analysis render
/// byte-identical JSON. Returns the concatenated report transcript and the
/// counter totals the incremental analyzer produced.
fn run_script(seed: u64) -> (String, Stats) {
    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let source = module_source(&mut rng);
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, mut doc) = open_module(registry, &source).expect("seeded module opens");

    let mut analyzer = IncrementalAnalyzer::new();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let mut transcript = String::new();
    {
        let _guard = hazel::trace::install(&tracer);
        for step in 0..=EDITS_PER_SCRIPT {
            if step > 0 {
                let hole = HoleName(rng.below(2));
                if rng.below(4) == 0 {
                    // A model transition: invocation findings for this
                    // hole recompute, flow units are untouched.
                    doc.dispatch(hole, &iv::record([("set", iv::int(rng.range(0, 9)))]))
                        .expect("slider dispatch");
                } else {
                    let splice = SpliceRef(rng.below(2));
                    let contents = parse_uexp(CONTENTS[rng.index(CONTENTS.len())]).unwrap();
                    doc.edit_splice(hole, splice, contents).expect("edit");
                }
            }
            let warm = analyzer.analyze(&registry, &doc).to_json();
            let cold = analyze_document(&registry, &doc).to_json();
            assert_eq!(
                warm, cold,
                "seed {seed} step {step}: incremental and from-scratch reports diverge"
            );
            transcript.push_str(&warm);
        }
    }
    (transcript, sink.snapshot())
}

#[test]
fn incremental_diagnostics_are_bit_identical() {
    let mut flow_findings = 0usize;
    for seed in 0..SCRIPTS {
        let (transcript, stats) = run_script(seed);
        for code in ["LL0501", "LL0502", "LL0503"] {
            if transcript.contains(code) {
                flow_findings += 1;
            }
        }
        // The property is about *reuse*: the warm analyzer must actually
        // have hit its fact memo, or the scripts compare nothing.
        assert!(
            stats.counter(Counter::FlowFactsReused) > 0,
            "seed {seed}: no fact reuse across the script"
        );
    }
    assert!(
        flow_findings >= 10,
        "property near-vacuous: flow codes fired in only {flow_findings} script-code pairs"
    );
}
