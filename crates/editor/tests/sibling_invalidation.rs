//! An edit inside one livelit invocation must not invalidate sibling
//! invocations: with the expansion cache keyed on (definition, model,
//! splice types) and the incremental engine keyed on interned skeleton
//! `TermId`s, a model edit re-expands exactly the edited invocation.

use hazel_editor::{Document, IncrementalEngine, LivelitRegistry};
use hazel_lang::parse::parse_uexp;
use hazel_lang::value::iv;
use hazel_lang::{HoleName, IExp};
use livelit_trace::{install, Counter, StatsSink, Tracer};

#[test]
fn model_edit_does_not_invalidate_sibling_invocations() {
    let mut registry = LivelitRegistry::new();
    livelit_std::register_all(&mut registry);
    let program = parse_uexp(
        "let a = $slider@0{10}(0 : Int; 100 : Int) in \
         let b = $slider@1{20}(0 : Int; 100 : Int) in \
         let c = $slider@2{30}(0 : Int; 100 : Int) in \
         a + b + c",
    )
    .unwrap();
    let mut doc = Document::new(&registry, vec![], program).unwrap();
    let mut engine = IncrementalEngine::new();

    // Warm run: populates the expansion cache for all three invocations.
    let out = engine.run(&registry, &doc).unwrap();
    assert_eq!(out.result, IExp::Int(10 + 20 + 30));

    // Drag slider 0 only, and count cache activity across the re-run.
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(55))]))
        .unwrap();
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    let result = {
        let _session = install(&tracer);
        engine.run(&registry, &doc).unwrap().result.clone()
    };
    assert_eq!(result, IExp::Int(55 + 20 + 30));
    assert_eq!(engine.incremental_hits, 1, "model edit takes the fast path");

    let stats = sink.snapshot();
    let misses = stats.counter(Counter::ExpansionCacheMisses);
    let hits = stats.counter(Counter::ExpansionCacheHits);
    assert_eq!(
        misses, 1,
        "only the edited invocation re-runs the ELivelit premises"
    );
    assert!(
        hits >= 2,
        "sibling invocations are served from the cache (got {hits} hits)"
    );
    // Every invocation still goes through the six-premise judgement
    // *accounting* (the counter is per-invocation, cached or not), in the
    // one expansion pass that rebuilds Ω.
    assert_eq!(stats.counter(Counter::ExpansionsPerformed), 3);
}
