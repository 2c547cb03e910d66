//! `livelit-bench`: the manual benchmark harness behind EXPERIMENTS.md
//! Part II (B1–B19; B12 is retired).
//!
//! Each experiment times its workload over `--iters` iterations (median-of-N
//! with a warmup iteration; no external benchmarking dependency) and the
//! whole suite is then replayed once under an installed
//! [`livelit_trace`] stats tracer, so the report carries per-phase span
//! timings and counter totals from the same probes `hazel trace` uses.
//! Finally an overhead experiment times a representative workload untraced
//! versus with a no-op sink installed — the measured backing for the
//! "near-zero overhead when off" contract.
//!
//! ```console
//! $ livelit-bench                  # full suite, writes BENCH_trace.json
//! $ livelit-bench --quick          # smaller sizes/iteration counts
//! $ livelit-bench --only B3        # one experiment (plus phases/overhead)
//! $ livelit-bench --out report.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use hazel::editor::{IncrementalAnalyzer, IncrementalEngine};
use hazel::lang::parse::parse_uexp;
use hazel::lang::value::iv;
use hazel::prelude::*;
use hazel::std::dataframe::DataframeModel;
use hazel::std::grading::grading_prelude;
use hazel::trace::{Counter, Histogram, NullSink, StatsSink, Tracer};
use livelit_bench::{
    bench_phi, deep_guarded_chain, deep_redex_chain, deep_scope_invocation, expensive_then_livelit,
    many_invocations, sized_program, sized_view, sized_view_edited, wide_invocation,
};

/// One timed case: experiment id, group, case label, and the statistics of
/// the per-iteration wall times.
struct CaseResult {
    id: &'static str,
    group: &'static str,
    case: String,
    iters: u32,
    median_ns: u64,
    mean_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Times `f` over `iters` iterations (after one warmup), returning the
/// per-iteration wall times in nanoseconds.
fn sample<R>(iters: u32, mut f: impl FnMut() -> R) -> Vec<u64> {
    black_box(f());
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect()
}

fn summarize(
    id: &'static str,
    group: &'static str,
    case: String,
    mut samples: Vec<u64>,
) -> CaseResult {
    samples.sort_unstable();
    let iters = u32::try_from(samples.len()).expect("sane iteration count");
    let sum: u64 = samples.iter().sum();
    CaseResult {
        id,
        group,
        case,
        iters,
        median_ns: samples[samples.len() / 2],
        mean_ns: sum / samples.len() as u64,
        min_ns: samples[0],
        max_ns: *samples.last().expect("non-empty"),
    }
}

/// Harness configuration from the command line.
struct Config {
    iters: u32,
    quick: bool,
    only: Option<String>,
    out: String,
}

/// Scales a size list down in `--quick` mode by dropping the largest entry.
fn sizes<T: Copy>(config: &Config, full: &[T]) -> Vec<T> {
    if config.quick && full.len() > 1 {
        full[..full.len() - 1].to_vec()
    } else {
        full.to_vec()
    }
}

fn wants(config: &Config, id: &str) -> bool {
    config.only.as_deref().is_none_or(|only| only == id)
}

fn run_suite(config: &Config, results: &mut Vec<CaseResult>) {
    // B1 — typed expansion: scaling in invocation count and splice width.
    if wants(config, "B1") {
        let phi = bench_phi(&[]);
        for n in sizes(config, &[1usize, 4, 16, 64, 256]) {
            let program = many_invocations(n);
            results.push(summarize(
                "B1",
                "expansion/invocations",
                n.to_string(),
                sample(config.iters, || {
                    expand_typed(&phi, &Ctx::empty(), &program).expect("expands")
                }),
            ));
        }
        let widths = [1usize, 4, 16, 64];
        let phi = bench_phi(&widths);
        for k in sizes(config, &widths) {
            let program = wide_invocation(k, 0);
            results.push(summarize(
                "B1",
                "expansion/splices",
                k.to_string(),
                sample(config.iters, || {
                    expand_typed(&phi, &Ctx::empty(), &program).expect("expands")
                }),
            ));
        }
    }

    // B2 — closure collection: scaling in livelit count and env size.
    if wants(config, "B2") {
        let phi = bench_phi(&[]);
        for n in sizes(config, &[1usize, 4, 16, 64]) {
            let program = many_invocations(n);
            results.push(summarize(
                "B2",
                "closure_collection/livelits",
                n.to_string(),
                sample(config.iters, || {
                    hazel::core::collect(&phi, &program).expect("collects")
                }),
            ));
        }
        for n in sizes(config, &[1usize, 16, 64, 256]) {
            let program = deep_scope_invocation(n);
            results.push(summarize(
                "B2",
                "closure_collection/env_size",
                n.to_string(),
                sample(config.iters, || {
                    hazel::core::collect(&phi, &program).expect("collects")
                }),
            ));
        }
    }

    // B3 — fill-and-resume vs full re-evaluation (Sec. 4.3.2).
    if wants(config, "B3") {
        let phi = bench_phi(&[]);
        for n in sizes(config, &[100i64, 400, 1600]) {
            let program = expensive_then_livelit(n);
            let collection = hazel::core::collect(&phi, &program).expect("collects");
            results.push(summarize(
                "B3",
                "fill_resume/resume",
                n.to_string(),
                sample(config.iters, || {
                    collection.resume_result().expect("resumes")
                }),
            ));
            results.push(summarize(
                "B3",
                "fill_resume/full_reeval",
                n.to_string(),
                sample(config.iters, || {
                    hazel::core::cc::eval_full(&phi, &program, 4_000_000).expect("evaluates")
                }),
            ));
        }
    }

    // B4 — live splice evaluation under growing environments.
    if wants(config, "B4") {
        let phi = bench_phi(&[]);
        for n in sizes(config, &[1usize, 16, 64, 256]) {
            let program = deep_scope_invocation(n);
            let collection = hazel::core::collect(&phi, &program).expect("collects");
            let splice = UExp::Bin(
                BinOp::Add,
                Box::new(UExp::Var(Var::new(format!("x{}", n - 1)))),
                Box::new(UExp::Int(1)),
            );
            results.push(summarize(
                "B4",
                "live_eval/env_size",
                n.to_string(),
                sample(config.iters, || {
                    hazel::core::eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int)
                        .expect("live eval")
                        .expect("closure available")
                }),
            ));
        }
    }

    // B5 — view diffing versus tree size and edit locality.
    if wants(config, "B5") {
        for n in sizes(config, &[10usize, 100, 1000]) {
            let old = sized_view(n);
            let same = old.clone();
            let edited = sized_view_edited(n, n / 2);
            results.push(summarize(
                "B5",
                "view_diff/identical",
                n.to_string(),
                sample(config.iters, || hazel::mvu::diff(&old, &same)),
            ));
            results.push(summarize(
                "B5",
                "view_diff/one_edit",
                n.to_string(),
                sample(config.iters, || hazel::mvu::diff(&old, &edited)),
            ));
            let patches = hazel::mvu::diff(&old, &edited);
            results.push(summarize(
                "B5",
                "view_diff/apply_one_edit",
                n.to_string(),
                sample(config.iters, || hazel::mvu::apply(&old, &patches)),
            ));
        }
    }

    // B6 — character-count layout versus size and width budget.
    if wants(config, "B6") {
        for target in sizes(config, &[100usize, 1000, 5000]) {
            let program = sized_program(7, target);
            let actual = program.size();
            for width in [40usize, 120] {
                results.push(summarize(
                    "B6",
                    "layout",
                    format!("width{width}/{actual}"),
                    sample(config.iters, || {
                        hazel::lang::pretty::print_eexp(&program, width)
                    }),
                ));
            }
        }
    }

    // B7 — grading case study end-to-end (Fig. 1c).
    if wants(config, "B7") {
        for students in sizes(config, &[5usize, 20, 50]) {
            let (registry, doc) = grading_doc(students);
            results.push(summarize(
                "B7",
                "grading_e2e",
                students.to_string(),
                sample(config.iters, || {
                    hazel::editor::run(&registry, &doc).expect("pipeline")
                }),
            ));
        }
    }

    // B8 — multi-closure collection for the image-filter preset (Fig. 2).
    if wants(config, "B8") {
        let mut registry = LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        let phi = registry.phi();
        for n in sizes(config, &[1usize, 2, 4, 8]) {
            let program = photo_program(n);
            results.push(summarize(
                "B8",
                "image_closures/collect",
                n.to_string(),
                sample(config.iters, || {
                    let collection = hazel::core::collect(&phi, &program).expect("collects");
                    assert_eq!(collection.envs_for(HoleName(0)).len(), n);
                    collection
                }),
            ));
        }
    }

    // B9 — `Exp` encoding round-trip, string vs structural scheme.
    if wants(config, "B9") {
        for target in sizes(config, &[100usize, 1000, 5000]) {
            let program = sized_program(11, target);
            let actual = program.size();
            let encoded = hazel::core::encoding::encode(&program);
            results.push(summarize(
                "B9",
                "encoding/encode",
                actual.to_string(),
                sample(config.iters, || hazel::core::encoding::encode(&program)),
            ));
            results.push(summarize(
                "B9",
                "encoding/decode",
                actual.to_string(),
                sample(config.iters, || {
                    hazel::core::encoding::decode(&encoded).expect("decodes")
                }),
            ));
            // Structural-scheme ablation at the small size only: without
            // hash-consing it is orders of magnitude slower (DESIGN.md).
            if target == 100 {
                let structural = hazel::core::encoding_structural::encode(&program);
                results.push(summarize(
                    "B9",
                    "encoding/encode_structural",
                    actual.to_string(),
                    sample(config.iters, || {
                        hazel::core::encoding_structural::encode(&program)
                    }),
                ));
                results.push(summarize(
                    "B9",
                    "encoding/decode_structural",
                    actual.to_string(),
                    sample(config.iters, || {
                        hazel::core::encoding_structural::decode(&structural).expect("decodes")
                    }),
                ));
            }
        }
    }

    // B10 — incremental engine vs full pipeline on model-only edits.
    if wants(config, "B10") {
        for n in sizes(config, &[100i64, 400, 1600]) {
            let (registry, mut doc) = doc_with_work(n);
            let mut engine = IncrementalEngine::new();
            engine.run(&registry, &doc).expect("pipeline");
            let mut value = 10i64;
            results.push(summarize(
                "B10",
                "incremental_drag/incremental",
                n.to_string(),
                sample(config.iters, || {
                    value = (value + 1) % 100;
                    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                        .expect("drag");
                    let out = engine.run(&registry, &doc).expect("fast path");
                    out.result.clone()
                }),
            ));
            let (registry, mut doc) = doc_with_work(n);
            results.push(summarize(
                "B10",
                "incremental_drag/full",
                n.to_string(),
                sample(config.iters, || {
                    value = (value + 1) % 100;
                    doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                        .expect("drag");
                    hazel::editor::run(&registry, &doc).expect("full pipeline")
                }),
            ));
        }
    }

    // B11 — deep-nested β-reduction: the tree evaluator's tree-copying
    // substitution (the spec, from the integration test crate) vs the
    // environment machine over the term store (the arm interns the input
    // and converts the result back, as the pipeline's `eval_traced` does).
    if wants(config, "B11") {
        use hazel::lang::eval::DEFAULT_FUEL;
        use hazel::lang::machine::MachineEvaluator;
        use hazel::lang::TermStore;
        use integration_tests::spec::Evaluator;
        for n in sizes(config, &[1usize, 4, 16, 64, 256]) {
            let chain = deep_redex_chain(n);
            let expected = IExp::Int((1..=n as i64).sum());
            results.push(summarize(
                "B11",
                "subst/tree",
                n.to_string(),
                sample(config.iters, || {
                    let result = Evaluator::with_fuel(DEFAULT_FUEL)
                        .eval(&chain)
                        .expect("evaluates");
                    assert_eq!(result, expected);
                    result
                }),
            ));
            results.push(summarize(
                "B11",
                "subst/machine",
                n.to_string(),
                sample(config.iters, || {
                    let mut store = TermStore::new();
                    let t = store.intern_iexp(&chain);
                    let r = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL)
                        .eval(t)
                        .expect("evaluates");
                    let result = store.to_iexp(r);
                    assert_eq!(result, expected);
                    result
                }),
            ));
        }
    }

    // B13 — the splice-result cache under a model-drag render loop: a
    // warm-cache incremental drag (only the dependent invocation's splices
    // re-evaluate) versus rebuilding the collection — and its cache — from
    // scratch every edit.
    if wants(config, "B13") {
        let (registry, mut doc) = fanout_doc();
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("pipeline");
        let mut value = 10i64;
        results.push(summarize(
            "B13",
            "splice_cache/warm_drag",
            "3 livelits".to_string(),
            sample(config.iters, || {
                value = (value + 1) % 100;
                doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                    .expect("drag");
                let out = engine.run(&registry, &doc).expect("fast path");
                out.result.clone()
            }),
        ));
        let (registry, mut doc) = fanout_doc();
        results.push(summarize(
            "B13",
            "splice_cache/cold_full_run",
            "3 livelits".to_string(),
            sample(config.iters, || {
                value = (value + 1) % 100;
                doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                    .expect("drag");
                hazel::editor::run(&registry, &doc).expect("full pipeline")
            }),
        ));
        // The cache-precision contract, asserted from the same probes
        // `hazel stats` reads: one slider drag re-evaluates exactly the
        // two splices of the invocation whose σ saw the new value. The
        // edited slider's view is rebuilt (its model changed) and its two
        // splices hit; the independent slider's view is a memo hit, so its
        // splices are not evaluated at all.
        let (registry, mut doc) = fanout_doc();
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("pipeline");
        doc.dispatch(HoleName(0), &iv::record([("set", iv::int(42))]))
            .expect("drag");
        engine.run(&registry, &doc).expect("fast path");
        let sink = StatsSink::new();
        let tracer = Tracer::monotonic(sink.clone());
        let guard = hazel::trace::install(&tracer);
        doc.dispatch(HoleName(0), &iv::record([("set", iv::int(55))]))
            .expect("drag");
        engine.run(&registry, &doc).expect("fast path");
        drop(guard);
        let stats = sink.snapshot();
        let misses = stats.counter(Counter::SpliceCacheMisses);
        let hits = stats.counter(Counter::SpliceCacheHits);
        assert_eq!(
            misses, 2,
            "a single model edit must re-evaluate only the dependent invocation's splices"
        );
        assert_eq!(
            hits, 2,
            "the edited invocation's splices must hit the cache"
        );
        println!("B13  splice_cache/one_drag_counters    misses {misses} / hits {hits}");
    }

    // B15 — diagnostics latency vs. document size on single-definition
    // edits: the warm incremental analyzer (per-definition dirty sets,
    // fact memo, cached reachability fixpoint) against a from-scratch
    // analysis, over growing library-definition chains. Only the program
    // unit changes per edit, so warm latency must track the edit — flat
    // in the chain length — while from-scratch re-derives every unit.
    if wants(config, "B15") {
        for n in sizes(config, &[4usize, 16, 64, 256]) {
            let (registry, mut doc) = def_chain_doc(n);
            let mut analyzer = IncrementalAnalyzer::new();
            analyzer.analyze(&registry, &doc);
            let mut v = 0i64;
            results.push(summarize(
                "B15",
                "diagnostics/warm_single_edit",
                format!("{n} defs"),
                sample(config.iters, || {
                    v = (v + 1) % 9;
                    doc.edit_splice(HoleName(0), SpliceRef(0), UExp::Int(v))
                        .expect("edit");
                    analyzer.analyze(&registry, &doc)
                }),
            ));
            let (registry, mut doc) = def_chain_doc(n);
            results.push(summarize(
                "B15",
                "diagnostics/from_scratch",
                format!("{n} defs"),
                sample(config.iters, || {
                    v = (v + 1) % 9;
                    doc.edit_splice(HoleName(0), SpliceRef(0), UExp::Int(v))
                        .expect("edit");
                    hazel::editor::analyze_document(&registry, &doc)
                }),
            ));
        }
        // The incrementality contract behind the curve, from the same
        // probes the flow_counters suite asserts: one edit, one dirty
        // unit, everything else out of the fact memo.
        let (registry, mut doc) = def_chain_doc(64);
        let mut analyzer = IncrementalAnalyzer::new();
        analyzer.analyze(&registry, &doc);
        doc.edit_splice(HoleName(0), SpliceRef(0), UExp::Int(7))
            .expect("edit");
        let sink = StatsSink::new();
        let tracer = Tracer::monotonic(sink.clone());
        let guard = hazel::trace::install(&tracer);
        analyzer.analyze(&registry, &doc);
        drop(guard);
        let stats = sink.snapshot();
        let dirty = stats.counter(Counter::FlowDirtyDefs);
        let reused = stats.counter(Counter::FlowFactsReused);
        assert_eq!(dirty, 1, "a single-definition edit must dirty one unit");
        assert!(reused > 0, "unchanged facts must be reused");
        println!("B15  diagnostics/one_edit_counters     dirty {dirty} / reused {reused}");
    }

    // B18 — the environment machine against the substitution-based tree
    // evaluator on a deep-redex chain whose bodies bury the bound variable
    // in a dead branch (see [`deep_guarded_chain`]): substitution must
    // rewrite the payload at every β-step, while the machine binds the
    // variable in the live environment and never decodes the untaken
    // branch (closures carry environments; the frame stack replaces Rust
    // recursion).
    if wants(config, "B18") {
        use hazel::lang::eval::DEFAULT_FUEL;
        use hazel::lang::machine::MachineEvaluator;
        use hazel::lang::TermStore;
        use integration_tests::spec::Evaluator;
        for n in sizes(config, &[1usize, 4, 16, 64, 256]) {
            let chain = deep_guarded_chain(n, 256);
            let expected = IExp::Int((1..=n as i64).sum());
            // The term is interned once up front and the (small, hash-
            // consed) store cloned per iteration, so the machine arm times
            // evaluation — not re-decoding an input tree that repeats the
            // payload at every level. Each clone starts with an empty
            // substitution memo; no state leaks across samples.
            let mut base = TermStore::new();
            let t = base.intern_iexp(&chain);
            // The tree evaluator is O(n²·k) on this workload — seconds
            // per iteration at 256 — so its curve stops at 64.
            if n <= 64 {
                results.push(summarize(
                    "B18",
                    "eval/tree",
                    n.to_string(),
                    sample(config.iters, || {
                        let result = Evaluator::with_fuel(DEFAULT_FUEL)
                            .eval(&chain)
                            .expect("evaluates");
                        assert_eq!(result, expected);
                        result
                    }),
                ));
            } else {
                println!("B18  eval/tree                        {n}  skipped (O(n²·k); see 64)");
            }
            results.push(summarize(
                "B18",
                "eval/machine",
                n.to_string(),
                sample(config.iters, || {
                    let mut store = base.clone();
                    let r = MachineEvaluator::with_fuel(&mut store, DEFAULT_FUEL)
                        .eval(t)
                        .expect("evaluates");
                    let result = store.to_iexp(r);
                    assert_eq!(result, expected);
                    result
                }),
            ));
        }
    }
}

/// One B16 latency distribution: the full shape of edit+render latency at
/// one document size, not just a median.
struct HistResult {
    id: &'static str,
    group: &'static str,
    case: String,
    snapshot: hazel::trace::HistogramSnapshot,
}

/// B16 — edit/render latency histograms vs. document size, on the
/// production [`hazel::trace::Histogram`] the metrics layer serves. Each
/// sample is one splice edit plus one full engine run over a
/// `def_chain_doc(n)` document; the warm curve reuses an incremental
/// engine across samples (the fill-and-resume fast path), the cold curve
/// rebuilds from scratch. Reported as p50/p99/max so tail behavior vs.
/// size is visible — medians alone hide exactly what histograms exist to
/// show.
fn latency_histograms(config: &Config, hists: &mut Vec<HistResult>) {
    if !wants(config, "B16") {
        return;
    }
    let samples_per_size = if config.quick { 40u32 } else { 120 };
    for n in sizes(config, &[4usize, 16, 64, 256]) {
        // Warm: a model edit (slider drag), which keeps the skeleton
        // cache valid and takes the fill-and-resume fast path.
        let (registry, mut doc) = def_chain_doc(n);
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("pipeline");
        let mut value = 10i64;
        let warm = Histogram::new();
        for _ in 0..samples_per_size {
            value = (value + 1) % 100;
            doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                .expect("drag");
            let start = Instant::now();
            black_box(engine.run(&registry, &doc).expect("fast path"));
            warm.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        assert!(
            engine.incremental_hits >= samples_per_size as usize,
            "model edits must stay on the fast path"
        );
        hists.push(HistResult {
            id: "B16",
            group: "latency/edit_render_warm",
            case: format!("{n} defs"),
            snapshot: warm.snapshot(),
        });

        // Cold: a splice edit changes the program skeleton, so every
        // sample re-collects from scratch.
        let (registry, mut doc) = def_chain_doc(n);
        let cold = Histogram::new();
        let mut v = 0i64;
        for _ in 0..samples_per_size {
            v = (v + 1) % 9;
            doc.edit_splice(HoleName(0), SpliceRef(0), UExp::Int(v))
                .expect("edit");
            let start = Instant::now();
            black_box(hazel::editor::run(&registry, &doc).expect("pipeline"));
            cold.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        hists.push(HistResult {
            id: "B16",
            group: "latency/edit_render_cold",
            case: format!("{n} defs"),
            snapshot: cold.snapshot(),
        });
    }
}

/// One B17 measurement: retained-render behavior at one document size.
struct RetainedResult {
    defs: usize,
    warm: hazel::trace::HistogramSnapshot,
    cold: hazel::trace::HistogramSnapshot,
    /// Mean time per warm drag in each [`B17_SPLIT`] span, from the
    /// traced pass.
    split_ns: [u64; B17_SPLIT.len()],
    /// Machine transitions per warm drag, from the traced pass.
    machine_steps: u64,
    /// Median time for the legacy pipeline retained views replaced:
    /// rebuild every view from scratch, then whole-tree diff each against
    /// the previous render.
    legacy_views_median_ns: u64,
    patch_bytes: usize,
    full_bytes: usize,
    reused: u64,
    rebuilt: u64,
}

/// The fast-path spans B17 splits a warm drag into: rebuilding Ω,
/// re-resuming the σ a drag reaches, resuming the program result, and
/// recomputing views.
const B17_SPLIT: [&str; 4] = [
    "engine.omega",
    "cc.resume_envs",
    "cc.resume_result",
    "engine.views",
];

impl RetainedResult {
    fn reused_fraction(&self) -> f64 {
        self.reused as f64 / (self.reused + self.rebuilt).max(1) as f64
    }
}

/// B17 — retained views: render latency and patch payload size vs.
/// document size on a multi-slider document. The warm curve drags
/// slider 0 through the incremental fast path — the other `n-1`
/// retained views must be memo hits, so latency stays near-flat in `n`
/// and the patch payload is proportional to the *changed* nodes. The
/// cold curve edits a splice (a skeleton change), forcing a fresh
/// collection whose new interning lineage conservatively misses every
/// memo. The reuse counters come from a separate traced pass so tracer
/// overhead never contaminates the timings.
fn retained_render(config: &Config, hists: &mut Vec<HistResult>, out: &mut Vec<RetainedResult>) {
    if !wants(config, "B17") {
        return;
    }
    let samples_per_size = if config.quick { 20u32 } else { 40 };
    for n in sizes(config, &[4usize, 16, 64, 256]) {
        // Warm: slider drags on one instance, fast path, untraced.
        let (registry, mut doc) = integration_tests::multi_slider_doc(n);
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("pipeline");
        let warm = Histogram::new();
        let mut value = 10i64;
        for _ in 0..samples_per_size {
            value = (value + 1) % 100;
            doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                .expect("drag");
            let start = Instant::now();
            black_box(engine.run(&registry, &doc).expect("fast path"));
            warm.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        assert!(
            engine.incremental_hits >= samples_per_size as usize,
            "model edits must stay on the fast path"
        );

        // Patch payload of the last drag's stored patch script vs.
        // the full tree it updates — the wire cost a patch-applying
        // client pays, in the same encoding `hazel serve` ships.
        let delta = engine
            .view_delta(HoleName(0))
            .expect("dragged slider has a retained snapshot");
        let patch_bytes = {
            let payload = hazel::server::json::Json::Arr(
                delta
                    .last_patches
                    .iter()
                    .map(hazel::server::wire::patch_json)
                    .collect(),
            );
            let mut s = String::new();
            payload.write(&mut s);
            s.len()
        };
        let full_bytes = {
            let output = engine.run(&registry, &doc).expect("pipeline");
            let view: &Html<_> = &output.views[&HoleName(0)];
            let mut s = String::new();
            hazel::server::wire::html_json(view).write(&mut s);
            s.len()
        };

        // Node-reuse accounting and render-phase timing: a short traced
        // pass of further drags on a real clock.
        let sink = StatsSink::new();
        let tracer = Tracer::monotonic(sink.clone());
        let traced_drags = 8u64;
        {
            let _guard = hazel::trace::install(&tracer);
            for _ in 0..traced_drags {
                value = (value + 1) % 100;
                doc.dispatch(HoleName(0), &iv::record([("set", iv::int(value))]))
                    .expect("drag");
                black_box(engine.run(&registry, &doc).expect("fast path"));
            }
        }
        let stats = sink.snapshot();
        let reused = stats.counter(Counter::ViewNodesReused);
        let rebuilt = stats.counter(Counter::ViewNodesRebuilt);
        let split_ns = B17_SPLIT.map(|name| {
            stats
                .spans
                .get(name)
                .map_or(0, |s| s.total_ns / traced_drags)
        });
        let machine_steps = stats.counter(Counter::MachineSteps) / traced_drags;

        // The before column: the legacy rebuild-everything render pass —
        // every view recomputed from scratch, then whole-tree diffed
        // against the previous render (the PR 5 pipeline).
        let legacy_views_median_ns = {
            let output = engine.run(&registry, &doc).expect("pipeline");
            let mut samples = sample(8, || {
                let (legacy_views, _) = integration_tests::compute_views_from_scratch(
                    &registry,
                    &doc,
                    &output.collection,
                    hazel::lang::eval::DEFAULT_FUEL,
                );
                let mut patches = 0usize;
                for (u, view) in &legacy_views {
                    patches += hazel::mvu::diff(&*output.views[u], view).len();
                }
                patches
            });
            samples.sort_unstable();
            samples[samples.len() / 2]
        };

        // Cold: splice edits change the skeleton, so every sample
        // re-collects and the fresh lineage misses every memo.
        let (registry, mut doc) = integration_tests::multi_slider_doc(n);
        let mut engine = IncrementalEngine::new();
        engine.run(&registry, &doc).expect("pipeline");
        let cold = Histogram::new();
        let mut v = 0i64;
        for _ in 0..samples_per_size {
            v = (v + 1) % 9;
            doc.edit_splice(HoleName(0), SpliceRef(0), UExp::Int(v))
                .expect("edit");
            let start = Instant::now();
            black_box(engine.run(&registry, &doc).expect("pipeline"));
            cold.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }

        let result = RetainedResult {
            defs: n,
            warm: warm.snapshot(),
            cold: cold.snapshot(),
            split_ns,
            machine_steps,
            legacy_views_median_ns,
            patch_bytes,
            full_bytes,
            reused,
            rebuilt,
        };
        // The acceptance bar: on single-instance edits at 256 defs, at
        // least 90% of view nodes must survive in place.
        if n >= 256 {
            assert!(
                result.reused_fraction() >= 0.9,
                "B17: reused-node fraction {:.3} below 0.9 at {n} defs",
                result.reused_fraction()
            );
        }
        hists.push(HistResult {
            id: "B17",
            group: "retained/warm_model_edit",
            case: format!("{n} defs"),
            snapshot: result.warm.clone(),
        });
        hists.push(HistResult {
            id: "B17",
            group: "retained/cold_skeleton_edit",
            case: format!("{n} defs"),
            snapshot: result.cold.clone(),
        });
        out.push(result);
    }
}

/// The serve-metrics overhead experiment: the full B14 script replayed on
/// a plain server versus one running the complete production metrics
/// stack (attached [`ServeMetrics`] plus an installed
/// `MetricsSink`+`SlowCapture` tracer — exactly what `hazel serve` runs by
/// default). Same ABBA min-of-rounds discipline as [`overhead_experiment`];
/// the contract is a ratio under 1.03 (3% of request throughput).
fn serve_metrics_overhead(iters: u32) -> (u64, u64, f64) {
    use hazel::server::observe::ServeMetrics;
    use hazel::trace::{MetricsSink, PairSink};

    let (lines, _) = serve_script();
    let registry_factory: hazel::server::RegistryFactory = std::sync::Arc::new(|| {
        let mut registry = LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        registry
    });
    let replay = |server: &mut hazel::server::Server| {
        let mut len = 0usize;
        for line in &lines {
            len += server.handle_line(line).len();
        }
        len
    };

    // One untimed replay per configuration: allocator and cache state
    // settle before any round can set a minimum.
    {
        let mut server = hazel::server::Server::with_registry(registry_factory.clone());
        black_box(replay(&mut server));
        let mut server = hazel::server::Server::with_registry(registry_factory.clone());
        let metrics = ServeMetrics::new(4, 4096);
        server.enable_metrics(metrics.clone());
        let sink = PairSink(
            MetricsSink::new(std::sync::Arc::clone(metrics.hub())),
            metrics.capture().clone(),
        );
        let tracer = Tracer::monotonic(sink);
        let guard = hazel::trace::install(&tracer);
        black_box(replay(&mut server));
        drop(guard);
    }

    // Each round runs both configurations back to back, alternating
    // which goes first to cancel ordering bias.
    let mut off = u64::MAX;
    let mut on = u64::MAX;
    for round in 0..iters.max(31) {
        for first in [round % 2 == 0, round % 2 != 0] {
            if first {
                let mut server = hazel::server::Server::with_registry(registry_factory.clone());
                let start = Instant::now();
                black_box(replay(&mut server));
                off = off.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            } else {
                let mut server = hazel::server::Server::with_registry(registry_factory.clone());
                let metrics = ServeMetrics::new(4, 4096);
                server.enable_metrics(metrics.clone());
                let sink = PairSink(
                    MetricsSink::new(std::sync::Arc::clone(metrics.hub())),
                    metrics.capture().clone(),
                );
                let tracer = Tracer::monotonic(sink);
                let guard = hazel::trace::install(&tracer);
                let start = Instant::now();
                black_box(replay(&mut server));
                on = on.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                drop(guard);
                assert_eq!(metrics.requests(), lines.len() as u64);
            }
        }
    }
    // The reported overhead is the ratio of per-configuration minimums:
    // on a time-shared machine the per-round noise is bursty (individual
    // replays spike by up to ~10%), so the repeatable floor each
    // configuration reaches across many alternating rounds is the only
    // stable estimate; per-round ratios or means inherit the spikes.
    let ratio = on as f64 / off.max(1) as f64;
    (off, on, ratio)
}

/// What the B14 load run measured, for the `"serve"` report section.
struct ServeLoad {
    requests: u64,
    errors: u64,
    elapsed_ns: u64,
    drag_patch_bytes: u64,
    drag_full_bytes: u64,
}

impl ServeLoad {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }

    fn drag_ratio(&self) -> f64 {
        self.drag_patch_bytes as f64 / self.drag_full_bytes.max(1) as f64
    }
}

/// The B14 request script: a 1000-line mixed session over the grading and
/// image-filters case studies plus a slider drag loop, with malformed
/// requests sprinkled in. Returns `(lines, expected_error_replies)`.
fn serve_script() -> (Vec<String>, u64) {
    // The grading case study as a self-contained module (the textual
    // `$curve` declaration of examples/grading_clean.hzl).
    let grading = "livelit $curve (score : Int) at Int { \
         model Bool init true; \
         expand fun generous : Bool -> \
           if generous then \"fun score : Int -> score + 5\" \
           else \"fun score : Int -> score - 5\" } \
         def midterm : Int = 88 ;; \
         $curve@0{true}(midterm : Int)";
    // The image-filters case study of B8: a filter preset mapped over
    // photos, one collected closure per application.
    let photos = "let classic_look = fun url : Str -> \
         $basic_adjustments@0{(.contrast 1, .brightness 2)}(\
           url : Str; 10 : Int; 5 : Int) in \
         let photos = [Str| \"img://a\", \"img://b\"] in \
         (fix go : (List(Str) -> List((.w Int, .h Int, .px List(Int)))) -> \
          fun urls : List(Str) -> \
          lcase urls \
          | [] -> [(.w Int, .h Int, .px List(Int))|] \
          | u :: rest -> classic_look u :: go rest \
          end) photos";

    let mut lines: Vec<String> = Vec::with_capacity(1000);
    let mut errors = 0u64;
    for (name, source) in [
        ("grading", grading),
        ("photos", photos),
        ("drag", "$slider@0{10}(0 : Int; 100 : Int)"),
    ] {
        lines.push(format!(
            "{{\"op\":\"open\",\"session\":{name:?},\"source\":{source:?}}}"
        ));
        lines.push(format!("{{\"op\":\"render\",\"session\":{name:?}}}"));
    }
    // Grading churn: re-edit the score splice and re-render.
    for i in 0..100u64 {
        lines.push(format!(
            "{{\"op\":\"edit\",\"session\":\"grading\",\"edit\":{{\"kind\":\"edit_splice\",\
             \"at\":0,\"splice\":0,\"contents\":\"{}\"}}}}",
            60 + (i * 7) % 40
        ));
        lines.push("{\"op\":\"render\",\"session\":\"grading\"}".to_owned());
    }
    // Image-filter tweaks: bump the contrast parameter splice.
    for i in 0..45u64 {
        lines.push(format!(
            "{{\"op\":\"edit\",\"session\":\"photos\",\"edit\":{{\"kind\":\"edit_splice\",\
             \"at\":0,\"splice\":1,\"contents\":\"{}\"}}}}",
            5 + (i * 3) % 20
        ));
        lines.push("{\"op\":\"render\",\"session\":\"photos\"}".to_owned());
        // Every 15th filter tweak, a malformed line and an unknown op:
        // crash-proofing under load is part of what B14 demonstrates.
        if i % 15 == 0 {
            lines.push("{\"op\":\"render\",\"session\":\"photos\"".to_owned());
            lines.push("{\"op\":\"develop\",\"session\":\"photos\"}".to_owned());
            errors += 2;
        }
    }
    // The drag-loop segment, bracketed by per-session stats so the
    // patch-vs-full byte ratio of exactly this segment can be read off.
    lines.push("{\"op\":\"stats\",\"session\":\"drag\"}".to_owned());
    for i in 0..346u64 {
        lines.push(format!(
            "{{\"op\":\"edit\",\"session\":\"drag\",\"edit\":{{\"kind\":\"dispatch\",\
             \"at\":0,\"action\":\"(.set {})\"}}}}",
            (i * 3) % 100
        ));
        lines.push("{\"op\":\"render\",\"session\":\"drag\"}".to_owned());
    }
    lines.push("{\"op\":\"stats\",\"session\":\"drag\"}".to_owned());
    lines.push("{\"op\":\"stats\"}".to_owned());
    for name in ["grading", "photos", "drag"] {
        lines.push(format!("{{\"op\":\"close\",\"session\":{name:?}}}"));
    }
    assert_eq!(lines.len(), 1000, "B14 is a 1000-request session");
    (lines, errors)
}

/// B14 — the serve load generator: drives the full 1000-request script
/// through a fresh server per iteration, checks every reply is structured
/// (zero process exits, errors only where injected), and reads the
/// drag-segment byte ratio from the bracketing stats replies.
fn serve_load(config: &Config, results: &mut Vec<CaseResult>) -> Option<ServeLoad> {
    use hazel::server::json::{self, Json};

    if !wants(config, "B14") {
        return None;
    }
    let (lines, expected_errors) = serve_script();
    let registry_factory: hazel::server::RegistryFactory = std::sync::Arc::new(|| {
        let mut registry = LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        registry
    });

    // The measured run: request counting, reply validation, and the
    // drag-segment ratio all come from this single pass.
    let mut server = hazel::server::Server::with_registry(registry_factory.clone());
    let started = Instant::now();
    let replies: Vec<String> = lines.iter().map(|l| server.handle_line(l)).collect();
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut errors = 0u64;
    let mut drag_stats: Vec<(u64, u64)> = Vec::new();
    for (line, reply) in lines.iter().zip(&replies) {
        let parsed = json::parse(reply).expect("every reply is valid JSON");
        match parsed.get("ok") {
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => errors += 1,
            _ => panic!("reply without ok field for {line}"),
        }
        if line == "{\"op\":\"stats\",\"session\":\"drag\"}" {
            let bytes = |k: &str| {
                parsed
                    .get(k)
                    .and_then(Json::as_int)
                    .and_then(|n| u64::try_from(n).ok())
                    .expect("stats carry byte counters")
            };
            drag_stats.push((bytes("patch_bytes"), bytes("full_bytes")));
        }
    }
    assert_eq!(
        errors, expected_errors,
        "only the injected malformed requests may fail"
    );
    assert_eq!(server.session_count(), 0, "the script closes every session");
    let [(patch_before, full_before), (patch_after, full_after)] = drag_stats[..] else {
        panic!("the drag segment is bracketed by exactly two stats requests");
    };
    let load = ServeLoad {
        requests: lines.len() as u64,
        errors,
        elapsed_ns,
        drag_patch_bytes: patch_after - patch_before,
        drag_full_bytes: full_after - full_before,
    };
    assert!(
        load.drag_ratio() < 0.5,
        "drag-loop patches must undercut half the full-view bytes \
         ({} / {} = {:.3})",
        load.drag_patch_bytes,
        load.drag_full_bytes,
        load.drag_ratio()
    );

    // The timed samples: same script, fresh server each iteration.
    results.push(summarize(
        "B14",
        "serve/load",
        "1000 requests".to_string(),
        sample(config.iters, || {
            let mut server = hazel::server::Server::with_registry(registry_factory.clone());
            let mut len = 0usize;
            for line in &lines {
                len += server.handle_line(line).len();
            }
            len
        }),
    ));
    println!(
        "B14  serve/drag_patch_ratio            {} / {} bytes ({:.3}), {:.0} req/s",
        load.drag_patch_bytes,
        load.drag_full_bytes,
        load.drag_ratio(),
        load.requests_per_sec()
    );
    Some(load)
}

/// What the B19 socket-churn run measured, for the `"socket_churn"`
/// report section.
struct SocketChurn {
    clients: usize,
    requests: u64,
    restored_sessions: usize,
    lost_sessions: u64,
    mismatched_replies: u64,
    elapsed_ns: u64,
    latency: hazel::trace::metrics::HistogramSnapshot,
}

impl SocketChurn {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// One B19 client's logical request sequence: open a private session,
/// drag it a few rounds, and render the final state.
fn churn_plan(client: usize) -> (String, Vec<String>) {
    let session = format!("c{client}");
    let mut lines = vec![format!(
        "{{\"op\":\"open\",\"session\":{session:?},\"source\":\
         \"$slider@0{{10}}(0 : Int; 100 : Int)\"}}"
    )];
    for round in 0..3 {
        let target = if (client + round).is_multiple_of(2) {
            "inc"
        } else {
            "dec"
        };
        lines.push(format!(
            "{{\"op\":\"dispatch\",\"session\":{session:?},\"hole\":0,\
             \"target\":{target:?},\"event\":\"click\"}}"
        ));
        lines.push(format!("{{\"op\":\"render\",\"session\":{session:?}}}"));
    }
    lines.push(format!("{{\"op\":\"render\",\"session\":{session:?}}}"));
    (session, lines)
}

/// Plays `lines[from..]` against `addr`, appending each reply to
/// `transcript` and each request latency to `latency`. Returns the index
/// of the first request that was NOT acknowledged (== `lines.len()` when
/// everything was).
///
/// This is the reference client resume discipline: a clean EOF means the
/// server drained — stop and resume against the restarted server from
/// exactly the first unacknowledged request (the drain contract is that
/// a request was processed and journaled iff its reply was delivered). A
/// reset or refused connect, by contrast, is transient churn (a thousand
/// clients flooding a backlog-128 listener), so the client reconnects
/// with backoff and carries on.
fn churn_client(
    addr: std::net::SocketAddr,
    lines: &[String],
    from: usize,
    transcript: &mut Vec<String>,
    latency: &Histogram,
    acked: &std::sync::atomic::AtomicU64,
) -> usize {
    use std::io::{BufRead, BufReader, Write};
    let mut at = from;
    let mut reconnects = 0u32;
    'reconnect: while at < lines.len() {
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if reconnects < 200 => {
                    reconnects += 1;
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                // The listener is gone for good: the server drained.
                Err(_) => return at,
            }
        };
        // One segment per request: a line and its newline written
        // separately would leave the newline behind Nagle's algorithm
        // until the server's delayed ACK, tens of milliseconds per
        // round trip on loopback. Failing to set the option costs only
        // latency, never correctness.
        let _ = stream.set_nodelay(true);
        let Ok(mut writer) = stream.try_clone() else {
            return at;
        };
        let mut reader = BufReader::new(stream);
        while at < lines.len() {
            let started = Instant::now();
            let request = format!("{}\n", lines[at]);
            if writer.write_all(request.as_bytes()).is_err() {
                // Reset mid-write: nothing past `at` was processed; try
                // again on a fresh connection.
                reconnects += 1;
                if reconnects >= 200 {
                    return at;
                }
                continue 'reconnect;
            }
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 => {
                    latency.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    transcript.push(reply.trim_end().to_string());
                    acked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    at += 1;
                }
                // Clean EOF: the server drained gracefully. `at` was not
                // processed; resume from it after the restart.
                Ok(_) => return at,
                // Reset: transient connection churn, not a drain.
                Err(_) => {
                    reconnects += 1;
                    if reconnects >= 200 {
                        return at;
                    }
                    continue 'reconnect;
                }
            }
        }
    }
    lines.len()
}

/// B19 — socket churn with a mid-run kill: ≥1k concurrent TCP sessions
/// (64 under `--quick`) against the snapshotting transport; the server is
/// drained mid-traffic (the in-process `kill -TERM`), restarted from its
/// snapshot directory on a new port, and every client reconnects and
/// resumes from its first unacknowledged request. Every client's full
/// reply transcript must be byte-identical to a sequential oracle server
/// that never died — zero lost sessions, zero divergent replies.
fn socket_churn(config: &Config, results: &mut Vec<CaseResult>) -> Option<SocketChurn> {
    use hazel::server::transport::{BindTo, Transport, TransportConfig};

    if !wants(config, "B19") {
        return None;
    }
    let clients = if config.quick { 64 } else { 1024 };
    let registry_factory: hazel::server::RegistryFactory = std::sync::Arc::new(|| {
        let mut registry = LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        registry
    });
    let snap_dir = std::env::temp_dir().join(format!("hzbench-b19-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let transport_config = TransportConfig {
        max_conns: clients + 8,
        ..TransportConfig::default()
    };

    let bind = |factory: &hazel::server::RegistryFactory, dir: &std::path::Path| {
        let mut server = hazel::server::Server::with_registry(factory.clone());
        let report = server.enable_snapshots(dir).expect("snapshot dir");
        let transport = Transport::bind(
            &BindTo::Tcp("127.0.0.1:0".into()),
            server,
            transport_config.clone(),
        )
        .expect("bind");
        (transport, report)
    };

    let plans: Vec<(String, Vec<String>)> = (0..clients).map(churn_plan).collect();
    let latency = std::sync::Arc::new(Histogram::new());
    let started = Instant::now();

    // First life: all clients fire concurrently; the server is drained
    // mid-traffic, cutting an arbitrary subset of them off between
    // requests.
    let (transport, _) = bind(&registry_factory, &snap_dir);
    let addr = transport.tcp_addr().expect("tcp addr");
    let drain = transport.shutdown_handle();
    let server_thread = std::thread::spawn(move || transport.run());
    let total_requests: u64 = plans.iter().map(|(_, lines)| lines.len() as u64).sum();
    let acked_count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let phase1: Vec<(Vec<String>, usize)> = std::thread::scope(|scope| {
        let kill_timer = {
            let drain = drain.clone();
            let acked_count = std::sync::Arc::clone(&acked_count);
            scope.spawn(move || {
                // The mid-run kill, data-triggered: wait until traffic is
                // in full swing (a quarter of the requests acked) so the
                // drain genuinely cuts clients off mid-plan, then pull
                // the plug.
                while acked_count.load(std::sync::atomic::Ordering::Relaxed) < total_requests / 4 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                drain.request_drain();
            })
        };
        let handles: Vec<_> = plans
            .iter()
            .map(|(_, lines)| {
                let latency = std::sync::Arc::clone(&latency);
                let acked_count = std::sync::Arc::clone(&acked_count);
                scope.spawn(move || {
                    let mut transcript = Vec::new();
                    let acked =
                        churn_client(addr, lines, 0, &mut transcript, &latency, &acked_count);
                    (transcript, acked)
                })
            })
            .collect();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        kill_timer.join().expect("kill timer");
        out
    });
    let first_life = server_thread.join().expect("transport thread");
    drop(first_life.server);

    // Second life: a fresh process image — new server, restored from the
    // journals, new port. Every client resumes from its first unacked
    // request.
    let (transport, report) = bind(&registry_factory, &snap_dir);
    let restored_sessions = report.restored.len();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(
        restored_sessions > 0,
        "the mid-run kill must land after some sessions were journaled"
    );
    let addr2 = transport.tcp_addr().expect("tcp addr");
    let drain2 = transport.shutdown_handle();
    let server_thread = std::thread::spawn(move || transport.run());
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(&phase1)
            .map(|((_, lines), (transcript, acked))| {
                let latency = std::sync::Arc::clone(&latency);
                let mut transcript = transcript.clone();
                let acked = *acked;
                let acked_count = std::sync::Arc::clone(&acked_count);
                scope.spawn(move || {
                    let done =
                        churn_client(addr2, lines, acked, &mut transcript, &latency, &acked_count);
                    assert_eq!(done, lines.len(), "no drain in the second life");
                    transcript
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    drain2.request_drain();
    server_thread.join().expect("transport thread");
    let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let _ = std::fs::remove_dir_all(&snap_dir);

    // The oracle: one sequential server that never died, serving each
    // client's full request sequence. Byte-identical transcripts mean
    // zero sessions lost and zero requests double-applied.
    let mut oracle = hazel::server::Server::with_registry(registry_factory.clone());
    let mut lost_sessions = 0u64;
    let mut mismatched_replies = 0u64;
    let mut requests = 0u64;
    for ((_, lines), transcript) in plans.iter().zip(&transcripts) {
        if transcript.len() != lines.len() {
            lost_sessions += 1;
            continue;
        }
        requests += lines.len() as u64;
        for (line, got) in lines.iter().zip(transcript) {
            let expected = oracle.handle_line(line);
            if *got != expected {
                mismatched_replies += 1;
            }
        }
    }
    assert_eq!(lost_sessions, 0, "every client finished its plan");
    assert_eq!(
        mismatched_replies, 0,
        "resumed transcripts are byte-identical to the uninterrupted oracle"
    );

    let churn = SocketChurn {
        clients,
        requests,
        restored_sessions,
        lost_sessions,
        mismatched_replies,
        elapsed_ns,
        latency: latency.snapshot(),
    };
    results.push(summarize(
        "B19",
        "socket/churn",
        format!("{clients} clients"),
        vec![elapsed_ns],
    ));
    println!(
        "B19  socket/kill_restart              {} clients, {} req, {} restored, \
         p50 {} p99 {}, {:.0} req/s",
        churn.clients,
        churn.requests,
        churn.restored_sessions,
        hazel::trace::fmt_ns(churn.latency.p50()),
        hazel::trace::fmt_ns(churn.latency.p99()),
        churn.requests_per_sec(),
    );
    Some(churn)
}

/// The B13 document: an independent `$slider` (hole 2), the dragged
/// `$slider` (hole 0), and a dependent `$slider` whose min splice reads
/// the dragged slider's value (hole 1). The independent slider is bound
/// first so its σ — and therefore its splice-cache keys — are untouched
/// by drags of hole 0.
fn fanout_doc() -> (LivelitRegistry, Document) {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let program = parse_uexp(
        "let c = $slider@2{5}(0 : Int; 9 : Int) in \
         let a = $slider@0{10}(0 : Int; 100 : Int) in \
         let b = $slider@1{30}(a : Int; 100 : Int) in \
         a + b + c",
    )
    .expect("parses");
    let doc = Document::new(&registry, vec![], program).expect("doc");
    (registry, doc)
}

/// The grading document of B7: a `$dataframe` with two score columns and
/// one row per student, feeding the grading library.
fn grading_doc(students: usize) -> (LivelitRegistry, Document) {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let program = parse_uexp(
        "let grades = ?0 in \
         let averages = compute_weighted_averages grades [Float| 1., 1.] in \
         let cutoffs = (.A 86., .B 76., .C 67., .D 48.) in \
         format_for_university (assign_grades averages cutoffs)",
    )
    .expect("parses");
    let mut doc = Document::new(&registry, grading_prelude(), program).expect("doc");
    doc.fill_hole_with_livelit(&registry, HoleName(0), "$dataframe", vec![])
        .expect("fill");
    for _ in 0..2 {
        doc.dispatch(HoleName(0), &iv::record([("add_col", IExp::Unit)]))
            .expect("col");
    }
    for _ in 0..students {
        doc.dispatch(HoleName(0), &iv::record([("add_row", IExp::Unit)]))
            .expect("row");
    }
    let m = DataframeModel::from_value(doc.instance(HoleName(0)).unwrap().model()).expect("model");
    for (ri, (key, cells)) in m.rows.iter().enumerate() {
        doc.edit_splice(HoleName(0), *key, UExp::Str(format!("student{ri}")))
            .expect("key");
        for (ci, cell) in cells.iter().enumerate() {
            doc.edit_splice(
                HoleName(0),
                *cell,
                UExp::Float(50.0 + ((ri * 7 + ci * 13) % 50) as f64),
            )
            .expect("cell");
        }
    }
    (registry, doc)
}

/// The image-filter preset of B8, mapped over `n` photos — one collected
/// closure per application.
fn photo_program(n: usize) -> UExp {
    let urls: Vec<String> = (0..n).map(|i| format!("\"img://photo{i}\"")).collect();
    parse_uexp(&format!(
        "let classic_look = fun url : Str -> \
           $basic_adjustments@0{{(.contrast 1, .brightness 2)}}(\
             url : Str; 10 : Int; 5 : Int) in \
         let photos = [Str| {}] in \
         (fix go : (List(Str) -> List((.w Int, .h Int, .px List(Int)))) -> \
          fun urls : List(Str) -> \
          lcase urls \
          | [] -> [(.w Int, .h Int, .px List(Int))|] \
          | u :: rest -> classic_look u :: go rest \
          end) photos",
        urls.join(", ")
    ))
    .expect("parses")
}

/// The B15 module: a chain of `n` library definitions, each referencing
/// the one before it, under a program whose slider reads the last — so a
/// splice edit dirties exactly one of the `n + 1` flow units.
fn def_chain_doc(n: usize) -> (LivelitRegistry, Document) {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let mut src = String::from("def d0 : Int = 1 ;;\n");
    for i in 1..n {
        src.push_str(&format!("def d{i} : Int = d{} + 1 ;;\n", i - 1));
    }
    src.push_str(&format!("$slider@0{{10}}(0 : Int; d{} : Int)", n - 1));
    hazel::editor::open_module(registry, &src).expect("module")
}

/// The B10 document: a `$slider` plus `n` units of surrounding evaluation
/// work, so a drag exercises the incremental fast path.
fn doc_with_work(n: i64) -> (LivelitRegistry, Document) {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let program = parse_uexp(&format!(
        "let v = $slider@0{{10}}(0 : Int; 100 : Int) in \
         let heavy = (fix go : (Int -> Int) -> fun k : Int -> \
            if k <= 0 then 0 else k + go (k - 1)) {n} in \
         v + heavy"
    ))
    .expect("parses");
    let doc = Document::new(&registry, vec![], program).expect("doc");
    (registry, doc)
}

/// Runs one representative slice of the suite under an installed tracer to
/// populate the per-phase section of the report — the same spans and
/// counters `hazel stats` surfaces.
fn traced_representative_run() -> hazel::trace::Stats {
    let sink = StatsSink::new();
    let tracer = Tracer::monotonic(sink.clone());
    let guard = hazel::trace::install(&tracer);

    let phi = bench_phi(&[]);
    expand_typed(&phi, &Ctx::empty(), &many_invocations(16)).expect("expands");
    let collection = hazel::core::collect(&phi, &deep_scope_invocation(16)).expect("collects");
    collection.resume_result().expect("resumes");
    let splice = UExp::Bin(
        BinOp::Add,
        Box::new(UExp::Var(Var::new("x15"))),
        Box::new(UExp::Int(1)),
    );
    hazel::core::eval_splice(&phi, &collection, HoleName(0), 0, &splice, &Typ::Int)
        .expect("live eval");
    let (registry, doc) = grading_doc(5);
    hazel::editor::run(&registry, &doc).expect("pipeline");
    let old = sized_view(100);
    let edited = sized_view_edited(100, 50);
    hazel::mvu::diff(&old, &edited);

    drop(guard);
    sink.snapshot()
}

/// The overhead experiment: wall time of a representative workload
/// untraced versus with a [`NullSink`] tracer installed (which keeps the
/// probes on the disabled fast path — see `Sink::is_noop`). The contract
/// is a ratio under 1.02 (2%).
///
/// The two configurations are interleaved round-robin and compared by
/// their minimum per-round time, so slow drift on a shared machine cannot
/// masquerade as probe overhead.
fn overhead_experiment(iters: u32) -> (u64, u64) {
    let phi = bench_phi(&[]);
    let program = many_invocations(16);
    let workload = || hazel::core::collect(&phi, &program).expect("collects");
    let tracer = Tracer::monotonic(NullSink);

    let mut baseline = u64::MAX;
    let mut noop = u64::MAX;
    // ABBA ordering: alternate which configuration runs first in a round,
    // so cache/allocator state warmed by one cannot systematically favor
    // the other.
    for round in 0..iters.max(41) {
        for first in [round % 2 == 0, round % 2 != 0] {
            if first {
                baseline = baseline.min(sample(1, workload)[0]);
            } else {
                let guard = hazel::trace::install(&tracer);
                noop = noop.min(sample(1, workload)[0]);
                drop(guard);
            }
        }
    }
    (baseline, noop)
}

#[allow(clippy::too_many_arguments)]
fn render_report(
    results: &[CaseResult],
    hists: &[HistResult],
    retained: &[RetainedResult],
    phases: &hazel::trace::Stats,
    baseline_ns: u64,
    noop_ns: u64,
    serve: Option<&ServeLoad>,
    socket: Option<&SocketChurn>,
    metrics_overhead: (u64, u64, f64),
) -> String {
    use hazel::trace::event::json_string;
    let mut out = String::from("{\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        json_string(&mut out, r.id);
        out.push_str(",\"group\":");
        json_string(&mut out, r.group);
        out.push_str(",\"case\":");
        json_string(&mut out, &r.case);
        out.push_str(&format!(
            ",\"iters\":{},\"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            r.iters, r.median_ns, r.mean_ns, r.min_ns, r.max_ns
        ));
    }
    out.push_str("],\"histograms\":[");
    for (i, h) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        json_string(&mut out, h.id);
        out.push_str(",\"group\":");
        json_string(&mut out, h.group);
        out.push_str(",\"case\":");
        json_string(&mut out, &h.case);
        out.push_str(",\"latency\":");
        h.snapshot.write_json(&mut out);
        out.push('}');
    }
    out.push_str("],\"retained\":[");
    for (i, r) in retained.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"defs\":{},\"warm_p50_ns\":{},\"warm_p99_ns\":{},\
             \"cold_p50_ns\":{},\"cold_p99_ns\":{},\"warm_split_us\":{{{}}},\
             \"warm_machine_steps\":{},\"legacy_views_median_ns\":{},\
             \"patch_bytes\":{},\
             \"full_bytes\":{},\"reused\":{},\"rebuilt\":{},\
             \"reused_fraction\":{:.4}}}",
            r.defs,
            r.warm.p50(),
            r.warm.p99(),
            r.cold.p50(),
            r.cold.p99(),
            B17_SPLIT
                .iter()
                .zip(r.split_ns)
                .map(|(name, ns)| format!("\"{name}\":{:.1}", ns as f64 / 1000.0))
                .collect::<Vec<_>>()
                .join(","),
            r.machine_steps,
            r.legacy_views_median_ns,
            r.patch_bytes,
            r.full_bytes,
            r.reused,
            r.rebuilt,
            r.reused_fraction()
        ));
    }
    out.push_str("],\"phases\":");
    phases.write_json(&mut out);
    if let Some(load) = serve {
        out.push_str(&format!(
            ",\"serve\":{{\"requests\":{},\"errors\":{},\"elapsed_ns\":{},\
             \"requests_per_sec\":{:.0},\"drag_patch_bytes\":{},\
             \"drag_full_bytes\":{},\"drag_patch_ratio\":{:.4}}}",
            load.requests,
            load.errors,
            load.elapsed_ns,
            load.requests_per_sec(),
            load.drag_patch_bytes,
            load.drag_full_bytes,
            load.drag_ratio()
        ));
    }
    if let Some(churn) = socket {
        out.push_str(&format!(
            ",\"socket_churn\":{{\"clients\":{},\"requests\":{},\
             \"restored_sessions\":{},\"lost_sessions\":{},\
             \"mismatched_replies\":{},\"elapsed_ns\":{},\
             \"requests_per_sec\":{:.0},\"p50_ns\":{},\"p99_ns\":{}}}",
            churn.clients,
            churn.requests,
            churn.restored_sessions,
            churn.lost_sessions,
            churn.mismatched_replies,
            churn.elapsed_ns,
            churn.requests_per_sec(),
            churn.latency.p50(),
            churn.latency.p99(),
        ));
    }
    let ratio = noop_ns as f64 / baseline_ns.max(1) as f64;
    out.push_str(&format!(
        ",\"overhead\":{{\"baseline_min_ns\":{baseline_ns},\
         \"noop_traced_min_ns\":{noop_ns},\"ratio\":{ratio:.4}}}"
    ));
    let (off_ns, on_ns, metrics_ratio) = metrics_overhead;
    out.push_str(&format!(
        ",\"serve_metrics_overhead\":{{\"off_min_ns\":{off_ns},\
         \"on_min_ns\":{on_ns},\"ratio\":{metrics_ratio:.4}}}}}\n"
    ));
    out
}

fn main() {
    let mut config = Config {
        iters: 7,
        quick: false,
        only: None,
        out: "BENCH_trace.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                config.quick = true;
                config.iters = 3;
            }
            "--iters" => {
                config.iters = args.next().and_then(|v| v.parse().ok()).expect("--iters N");
            }
            "--only" => config.only = Some(args.next().expect("--only Bn")),
            "--out" => config.out = args.next().expect("--out PATH"),
            other => {
                eprintln!("livelit-bench: unknown argument {other}");
                eprintln!("usage: livelit-bench [--quick] [--iters N] [--only Bn] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let mut results = Vec::new();
    run_suite(&config, &mut results);
    let serve = serve_load(&config, &mut results);
    let socket = socket_churn(&config, &mut results);
    let mut hists = Vec::new();
    latency_histograms(&config, &mut hists);
    let mut retained = Vec::new();
    retained_render(&config, &mut hists, &mut retained);
    for r in &results {
        println!(
            "{:<4} {:<32} {:>8}  median {:>12}  (min {} / max {})",
            r.id,
            r.group,
            r.case,
            hazel::trace::fmt_ns(r.median_ns),
            hazel::trace::fmt_ns(r.min_ns),
            hazel::trace::fmt_ns(r.max_ns),
        );
    }
    for h in &hists {
        println!(
            "{:<4} {:<32} {:>8}  p50 {:>12}  p99 {:>12}  max {}",
            h.id,
            h.group,
            h.case,
            hazel::trace::fmt_ns(h.snapshot.p50()),
            hazel::trace::fmt_ns(h.snapshot.p99()),
            hazel::trace::fmt_ns(h.snapshot.max),
        );
    }
    for r in &retained {
        println!(
            "B17  retained/patch_payload        {:>4} defs  patch {}B vs full {}B  \
             views {} (legacy {})  reused {:.1}%",
            r.defs,
            r.patch_bytes,
            r.full_bytes,
            hazel::trace::fmt_ns(r.split_ns[3]),
            hazel::trace::fmt_ns(r.legacy_views_median_ns),
            r.reused_fraction() * 100.0,
        );
        let split: Vec<String> = B17_SPLIT
            .iter()
            .zip(r.split_ns)
            .map(|(name, ns)| format!("{name} {}", hazel::trace::fmt_ns(ns)))
            .collect();
        println!(
            "B17  retained/warm_split           {:>4} defs  {}  machine_steps {}",
            r.defs,
            split.join("  "),
            r.machine_steps,
        );
    }

    let phases = traced_representative_run();
    let (baseline_ns, noop_ns) = overhead_experiment(config.iters.max(9));
    let ratio = noop_ns as f64 / baseline_ns.max(1) as f64;
    println!("\nper-phase stats (one traced representative run):");
    print!("{}", phases.render());
    println!(
        "\ntracing-off overhead: baseline {} vs no-op-sink {} (ratio {ratio:.4})",
        hazel::trace::fmt_ns(baseline_ns),
        hazel::trace::fmt_ns(noop_ns),
    );
    let metrics_overhead = serve_metrics_overhead(config.iters.max(9));
    let metrics_ratio = metrics_overhead.2;
    println!(
        "serve metrics overhead: off {} vs full metrics stack {} (ratio {metrics_ratio:.4})",
        hazel::trace::fmt_ns(metrics_overhead.0),
        hazel::trace::fmt_ns(metrics_overhead.1),
    );

    let report = render_report(
        &results,
        &hists,
        &retained,
        &phases,
        baseline_ns,
        noop_ns,
        serve.as_ref(),
        socket.as_ref(),
        metrics_overhead,
    );
    std::fs::write(&config.out, &report).expect("write report");
    println!("\nwrote {}", config.out);
}
