//! The incremental fast path against a from-scratch run.
//!
//! After a model-only edit, [`IncrementalEngine::run`] re-fills and
//! re-resumes only the σ that mention a livelit hole whose parameterized
//! expansion changed, and updates its cached run in place. Two contracts:
//!
//! 1. **Unobservable.** On random documents whose σ mention livelit holes,
//!    after every random drag the fast path is taken and yields the same
//!    result, environments and views as [`hazel::editor::run`] from
//!    scratch.
//! 2. **O(change).** On the B17 `drag` document, one warm drag resumes no
//!    environment, and its machine steps and interner traffic grow at
//!    most 5× when the document grows 4×.

use std::collections::BTreeSet;

use hazel::editor::IncrementalEngine;
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::prelude::*;
use hazel::trace::{Counter, Event, PairSink, RingSink, SpanId, Stats, StatsSink, Tracer};
use integration_tests::{multi_slider_doc, on_big_stack, XorShift};

const CASES: u64 = 60;
const DRAGS: usize = 12;

/// A random document whose σ mention livelit holes: a chain of `$slider`s
/// whose max splices read earlier sliders through let-bound sums, some
/// inside a function applied twice (two closures for one hole). Every
/// slider after the first has `v0` in its σ, so its σ mentions hole 0.
fn random_doc(seed: u64) -> (LivelitRegistry, Document) {
    let mut rng = XorShift::new(seed);
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let n = 2 + rng.below(4);
    let mut src = String::from("let base = 7 in ");
    let mut bound = vec!["base".to_string()];
    for i in 0..n {
        let model = rng.range(0, 50);
        let dep = &bound[rng.index(bound.len())];
        let slider = format!("$slider@{i}{{{model}}}(0 : Int; 50 + {dep} : Int)");
        if rng.below(3) == 0 {
            src.push_str(&format!(
                "let f{i} = fun x : Int -> {slider} + x in let v{i} = f{i} 1 + f{i} 2 in "
            ));
        } else {
            src.push_str(&format!("let v{i} = {slider} in "));
        }
        bound.push(format!("v{i}"));
        let k = rng.range(0, 10);
        src.push_str(&format!("let w{i} = v{i} + {k} in "));
        bound.push(format!("w{i}"));
    }
    src.push_str(&bound[1..].join(" + "));
    let program = parse_uexp(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let doc = Document::new(&registry, vec![], program).expect("document");
    (registry, doc)
}

#[test]
fn fast_path_equals_a_from_scratch_run() {
    for seed in 0..CASES {
        let (registry, mut doc) = random_doc(seed);
        let holes = doc.livelit_holes();
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("first run");
        let mut rng = XorShift::new(seed ^ 0x5eed);
        for drag in 0..DRAGS {
            let u = holes[rng.index(holes.len())];
            let value = rng.range(0, 60);
            doc.dispatch(u, &iv::record([("set", iv::int(value))]))
                .expect("drag");
            if rng.below(4) == 0 {
                doc.select_closure(u, rng.index(2)).expect("select");
            }
            let ctx = format!("seed {seed} drag {drag} (hole {u})");
            let hits = engine.incremental_hits;
            let scratch = hazel::editor::run(&registry, &doc).expect("from scratch");
            let fast = engine.run(&registry, &doc).expect("fast path");
            assert_eq!(fast.result, scratch.result, "{ctx}: result");
            for &h in &holes {
                assert_eq!(
                    fast.collection.envs_for(h),
                    scratch.collection.envs_for(h),
                    "{ctx}: envs of hole {h}"
                );
            }
            assert_eq!(fast.views, scratch.views, "{ctx}: views");
            assert_eq!(fast.view_errors, scratch.view_errors, "{ctx}: view errors");
            assert_eq!(
                engine.incremental_hits,
                hits + 1,
                "{ctx}: fast path not taken"
            );
        }
    }
}

/// One warm drag of slider 0 on the `n`-slider B17 document, traced: the
/// counter totals and the machine steps counted inside `cc.resume_envs`.
fn one_warm_drag(n: usize) -> (Stats, u64) {
    let (registry, mut doc) = multi_slider_doc(n);
    let mut engine = IncrementalEngine::new();
    engine.run(&registry, &doc).expect("first run");
    // One untraced drag first, so the traced one is warm.
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(11))]))
        .expect("drag");
    engine.run(&registry, &doc).expect("fast path");
    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(12))]))
        .expect("drag");
    let stats = StatsSink::new();
    let ring = RingSink::new(1 << 16);
    let tracer = Tracer::deterministic(PairSink(stats.clone(), ring.clone()));
    {
        let _guard = hazel::trace::install(&tracer);
        engine.run(&registry, &doc).expect("fast path");
    }
    (
        stats.snapshot(),
        steps_inside(&ring.events(), "cc.resume_envs"),
    )
}

/// Machine steps counted while a span named `name` was open.
fn steps_inside(events: &[Event], name: &str) -> u64 {
    let mut open: BTreeSet<SpanId> = BTreeSet::new();
    let mut steps = 0;
    for event in events {
        match event {
            Event::Begin { id, name: n, .. } if n == name => {
                open.insert(*id);
            }
            Event::End { id, .. } => {
                open.remove(id);
            }
            Event::Count {
                counter: Counter::MachineSteps,
                delta,
                ..
            } if !open.is_empty() => steps += delta,
            _ => {}
        }
    }
    steps
}

#[test]
fn warm_drag_work_scales_with_the_change() {
    // Unoptimized builds recurse deeply over the 128-definition chain.
    let (small, small_resume_steps) = on_big_stack(|| one_warm_drag(32));
    let (large, large_resume_steps) = on_big_stack(|| one_warm_drag(128));
    for (n, stats, resume_steps) in [
        (32, &small, small_resume_steps),
        (128, &large, large_resume_steps),
    ] {
        assert_eq!(
            stats.counter(Counter::IncrementalFastPaths),
            1,
            "{n} sliders: fast path not taken"
        );
        assert_eq!(
            resume_steps, 0,
            "{n} sliders: cc.resume_envs resumed an environment"
        );
        assert_eq!(
            stats.counter(Counter::ClosuresCollected),
            0,
            "{n} sliders: the fast path re-collected closures"
        );
    }
    let interner =
        |s: &Stats| s.counter(Counter::InternerHits) + s.counter(Counter::InternerMisses);
    let steps = (
        small.counter(Counter::MachineSteps),
        large.counter(Counter::MachineSteps),
    );
    let lookups = (interner(&small), interner(&large));
    assert!(steps.0 > 0 && lookups.0 > 0, "{steps:?} {lookups:?}");
    assert!(
        steps.1 <= 5 * steps.0,
        "machine steps per drag grew {:.1}× for 4× the sliders ({} → {})",
        steps.1 as f64 / steps.0 as f64,
        steps.0,
        steps.1
    );
    assert!(
        lookups.1 <= 5 * lookups.0,
        "interner lookups per drag grew {:.1}× for 4× the sliders ({} → {})",
        lookups.1 as f64 / lookups.0 as f64,
        lookups.0,
        lookups.1
    );
}
