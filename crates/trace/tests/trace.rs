//! Integration tests for the tracing layer: span nesting and parent
//! links, counter aggregation, JSONL byte-determinism, and install-guard
//! semantics.

use livelit_trace::sink::{JsonlSink, RingSink, StatsSink};
use livelit_trace::{count, install, span, span_prefixed, Counter, Event, Tracer};

/// A little traced "pipeline" used by several tests.
fn traced_workload() {
    let _run = span("engine.run");
    {
        let _parse = span("parse");
        count(Counter::ExpansionsPerformed, 2);
    }
    {
        let _eval = span("cc.eval");
        count(Counter::MachineSteps, 41);
        let _inner = span_prefixed("analysis.pass.", "hygiene");
    }
    count(Counter::HolesRemaining, 1);
}

#[test]
fn span_nesting_records_parent_links() {
    let sink = RingSink::new(1024);
    let tracer = Tracer::deterministic(sink.clone());
    {
        let _session = install(&tracer);
        traced_workload();
    }
    let events = sink.events();

    // engine.run is the root; parse and cc.eval are its children; the
    // dynamically named pass span is a child of cc.eval.
    let find_begin = |name: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::Begin {
                    id,
                    parent,
                    name: n,
                    ..
                } if n == name => Some((*id, *parent)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no begin for {name}"))
    };
    let (run_id, run_parent) = find_begin("engine.run");
    assert_eq!(run_parent, None);
    assert_eq!(find_begin("parse").1, Some(run_id));
    let (eval_id, eval_parent) = find_begin("cc.eval");
    assert_eq!(eval_parent, Some(run_id));
    assert_eq!(find_begin("analysis.pass.hygiene").1, Some(eval_id));

    // Counters are attributed to the innermost open span.
    let count_span = |counter: Counter| {
        events
            .iter()
            .find_map(|e| match e {
                Event::Count {
                    counter: c, span, ..
                } if *c == counter => Some(*span),
                _ => None,
            })
            .expect("counter recorded")
    };
    assert_eq!(count_span(Counter::MachineSteps), Some(eval_id));
    assert_eq!(count_span(Counter::HolesRemaining), Some(run_id));
}

/// The names of the spans opened in `events`, with their parents.
fn begins(events: &[Event]) -> Vec<(String, Option<livelit_trace::SpanId>)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Begin { name, parent, .. } => Some((name.to_string(), *parent)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_tracer_records_only_its_installing_thread() {
    // Installation is thread-scoped: while this thread's tracer is
    // installed, events emitted on another thread are not recorded, and
    // that thread's own install records into its own sink.
    let sink = RingSink::new(1024);
    let tracer = Tracer::deterministic(sink.clone());
    let other_sink = RingSink::new(1024);
    {
        let _session = install(&tracer);
        let _outer = span("outer");
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert!(!livelit_trace::enabled(), "no tracer on this thread");
                    let _stray = span("stray");
                    count(Counter::MachineSteps, 7);
                })
                .join()
                .unwrap();
            scope
                .spawn(|| {
                    let _own = install(&Tracer::deterministic(other_sink.clone()));
                    let _inner = span("inner");
                })
                .join()
                .unwrap();
        });
    }
    let events = sink.events();
    assert_eq!(begins(&events), [("outer".to_string(), None)]);
    assert!(
        !events.iter().any(|e| matches!(e, Event::Count { .. })),
        "{events:?}"
    );
    assert_eq!(begins(&other_sink.events()), [("inner".to_string(), None)]);
}

#[test]
fn counter_aggregation_sums_deltas_per_counter() {
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    {
        let _session = install(&tracer);
        count(Counter::MachineSteps, 10);
        count(Counter::MachineSteps, 32);
        count(Counter::SplicesEvaluated, 1);
    }
    let stats = sink.snapshot();
    assert_eq!(stats.counter(Counter::MachineSteps), 42);
    assert_eq!(stats.counter(Counter::SplicesEvaluated), 1);
    assert_eq!(stats.counter(Counter::ClosuresCollected), 0);
}

#[test]
fn stats_collect_span_durations_under_test_clock() {
    let sink = StatsSink::new();
    let tracer = Tracer::deterministic(sink.clone());
    {
        let _session = install(&tracer);
        traced_workload();
    }
    let stats = sink.snapshot();
    // Every span closed exactly once and durations are deterministic
    // multiples of the test-clock tick.
    for name in ["engine.run", "parse", "cc.eval", "analysis.pass.hygiene"] {
        let s = &stats.spans[name];
        assert_eq!(s.count, 1, "{name}");
        assert!(s.total_ns > 0, "{name}");
        assert_eq!(s.total_ns % livelit_trace::clock::TEST_CLOCK_TICK_NS, 0);
    }
    assert!(stats.spans["engine.run"].total_ns > stats.spans["parse"].total_ns);
}

#[test]
fn jsonl_output_is_byte_deterministic() {
    let run = || {
        let sink = JsonlSink::new();
        let tracer = Tracer::deterministic(sink.clone());
        {
            let _session = install(&tracer);
            traced_workload();
        }
        sink.contents()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same workload, same bytes");
    // Every line is a self-contained JSON object.
    for line in first.lines() {
        assert!(line.starts_with("{\"ev\":\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

#[test]
fn install_guard_restores_disabled_state() {
    let sink = RingSink::new(16);
    let tracer = Tracer::deterministic(sink.clone());
    {
        let _session = install(&tracer);
        assert!(livelit_trace::enabled());
        count(Counter::MachineSteps, 1);
    }
    assert!(!livelit_trace::enabled());
    // Probes after uninstall are inert: nothing new is recorded.
    count(Counter::MachineSteps, 100);
    let _orphan = span("orphan");
    drop(_orphan);
    assert_eq!(sink.len(), 1);
}

#[test]
fn render_events_produces_indented_text() {
    let sink = RingSink::new(1024);
    let tracer = Tracer::deterministic(sink.clone());
    {
        let _session = install(&tracer);
        traced_workload();
    }
    let text = livelit_trace::render_events(&sink.events());
    assert!(text.contains("▶ engine.run #1"), "{text}");
    assert!(text.contains("  ▶ parse"), "{text}");
    assert!(text.contains("+ machine_steps += 41"), "{text}");
}
