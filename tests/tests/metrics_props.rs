//! Property suite for the metrics layer (the observability PR).
//!
//! Three contracts:
//!
//! 1. **Quantile accuracy.** For arbitrary workloads, every histogram
//!    quantile estimate lands in the same log-linear bucket as the exact
//!    rank-statistic it approximates, is an upper bound on it and less
//!    than 12.5% above it, and `quantile(1.0)` is the exact observed
//!    maximum.
//! 2. **Merge is concatenation.** Merging two snapshots is bucket-exactly
//!    the histogram of the concatenated sample streams.
//! 3. **Metrics are invisible.** A metrics-enabled server replies with
//!    byte-identical transcripts to a plain one, for arbitrary request
//!    scripts — and the phase taxonomy covers every span the pipeline
//!    emits (no silently unattributed phases).

use hazel::server::observe::ServeMetrics;
use hazel::server::Server;
use hazel::trace::metrics::{Histogram, HistogramSnapshot, Phase};
use integration_tests::XorShift;

/// Mirror of the histogram's bucketing rule (`metrics::bucket_index`):
/// values below 8 get a bucket each; above, each power of two splits into
/// eight equal sub-buckets, so a bucket is named by the exponent and the
/// three bits below the leading one.
fn bucket_of(ns: u64) -> (u32, u64) {
    if ns < 8 {
        return (0, ns);
    }
    let e = 63 - ns.leading_zeros();
    (e, ns >> (e - 3))
}

/// A workload with samples spread across many orders of magnitude —
/// uniform `u64`s would almost all land in the top buckets.
fn gen_samples(g: &mut XorShift, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let magnitude = g.below(50);
            g.next_u64() >> (63 - magnitude)
        })
        .collect()
}

#[test]
fn quantile_estimates_stay_within_one_bucket_of_exact() {
    for seed in 0..40 {
        let mut g = XorShift::new(seed);
        let len = 1 + g.below(400) as usize;
        let samples = gen_samples(&mut g, len);
        let histogram = Histogram::new();
        for &s in &samples {
            histogram.record(s);
        }
        let snap = histogram.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        assert_eq!(snap.count, samples.len() as u64, "seed {seed}");
        assert_eq!(snap.sum, samples.iter().sum::<u64>(), "seed {seed}");
        assert_eq!(snap.min, *sorted.first().unwrap(), "seed {seed}");
        assert_eq!(snap.max, *sorted.last().unwrap(), "seed {seed}");
        assert_eq!(snap.quantile(1.0), snap.max, "seed {seed}: p100 is exact");

        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let estimate = snap.quantile(q);
            // The exact rank statistic the estimate approximates, using
            // the snapshot's own rank rule (ceil(q·n), 1-based).
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            assert!(
                estimate >= exact,
                "seed {seed} q={q}: estimate {estimate} under exact {exact}"
            );
            assert_eq!(
                bucket_of(estimate),
                bucket_of(exact),
                "seed {seed} q={q}: estimate {estimate} left exact {exact}'s bucket"
            );
            assert!(
                estimate == exact || u128::from(estimate) * 8 < u128::from(exact) * 9,
                "seed {seed} q={q}: estimate {estimate} is 12.5% or more above exact {exact}"
            );
        }
    }
}

#[test]
fn merging_snapshots_equals_recording_the_concatenated_stream() {
    for seed in 0..40 {
        let mut g = XorShift::new(seed);
        let len_a = g.below(300) as usize;
        let len_b = g.below(300) as usize;
        let a = gen_samples(&mut g, len_a);
        let b = gen_samples(&mut g, len_b);

        let ha = Histogram::new();
        let hb = Histogram::new();
        let hboth = Histogram::new();
        for &s in &a {
            ha.record(s);
            hboth.record(s);
        }
        for &s in &b {
            hb.record(s);
            hboth.record(s);
        }

        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        assert_eq!(merged, hboth.snapshot(), "seed {seed}");

        // Merging an empty snapshot is the identity.
        let mut id = hboth.snapshot();
        id.merge(&HistogramSnapshot::default());
        assert_eq!(id, hboth.snapshot(), "seed {seed}");
    }
}

#[test]
fn every_phase_maps_to_a_unique_label_and_round_trips() {
    let mut seen = std::collections::BTreeSet::new();
    for &phase in &Phase::ALL {
        assert!(seen.insert(phase.as_str()), "duplicate label {phase}");
    }
    // The taxonomy covers the pipeline's span names; a rename on either
    // side must update `Phase::of_span` (this is the audit's static half —
    // the dynamic half below checks the live pipeline).
    for (name, want) in [
        ("parse", Phase::Parse),
        ("elab.syn", Phase::Elaborate),
        ("engine.mark", Phase::Typecheck),
        ("cc.collect", Phase::Collect),
        ("live.eval_batch", Phase::EvalSplices),
        ("mvu.diff", Phase::RenderDiff),
        ("analysis.pass.flow", Phase::Analyze),
    ] {
        assert_eq!(Phase::of_span(name), Some(want));
    }
    assert_eq!(Phase::of_span("serve.render"), None);
    assert_eq!(Phase::of_span("unheard.of"), None);
}

/// Span names the pipeline emits that deliberately carry no phase: the
/// whole-pipeline umbrellas (attributing them would double-count their
/// children) and the serve/action request brackets.
fn deliberately_unmapped(name: &str) -> bool {
    name == "engine.run"
        || name == "eval"
        || name.starts_with("serve.")
        || name.starts_with("action.")
}

struct NameSink(std::sync::Arc<std::sync::Mutex<Vec<String>>>);

impl hazel::trace::Sink for NameSink {
    fn record(&mut self, event: &hazel::trace::Event) {
        if let hazel::trace::Event::Begin { name, .. } = event {
            self.0.lock().unwrap().push(name.to_string());
        }
    }
}

#[test]
fn the_phase_taxonomy_covers_the_live_pipeline() {
    let names = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let tracer = hazel::trace::Tracer::monotonic(NameSink(names.clone()));
    {
        let _guard = hazel::trace::install(&tracer);
        let mut server = Server::new();
        for line in [
            "{\"op\":\"open\",\"session\":\"s\",\"source\":\"$slider@0{10}(0 : Int; 100 : Int)\"}",
            "{\"op\":\"render\",\"session\":\"s\"}",
            "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"dispatch\",\"at\":0,\"action\":\"(.set 42)\"}}",
            "{\"op\":\"render\",\"session\":\"s\"}",
            "{\"op\":\"analyze\",\"session\":\"s\"}",
            "{\"op\":\"close\",\"session\":\"s\"}",
        ] {
            server.handle_line(line);
        }
    }
    let names = names.lock().unwrap();
    assert!(!names.is_empty(), "the pipeline must emit spans");
    let unattributed: Vec<&String> = names
        .iter()
        .filter(|n| Phase::of_span(n).is_none() && !deliberately_unmapped(n))
        .collect();
    assert!(
        unattributed.is_empty(),
        "spans with no phase attribution (extend Phase::of_span or the \
         deliberate list): {unattributed:?}"
    );
}

#[test]
fn metrics_never_change_reply_bytes() {
    let templates = [
        "{\"op\":\"open\",\"session\":\"s\",\"source\":\"$slider@0{10}(0 : Int; 100 : Int)\"}",
        "{\"op\":\"open\",\"session\":\"t\",\"source\":\"1 + 1\"}",
        "{\"op\":\"render\",\"session\":\"s\"}",
        "{\"op\":\"edit\",\"session\":\"s\",\"edit\":{\"kind\":\"dispatch\",\"at\":0,\"action\":\"(.set 9)\"}}",
        "{\"op\":\"stats\"}",
        "{\"op\":\"stats\",\"session\":\"s\"}",
        "{\"op\":\"close\",\"session\":\"t\"}",
        "{\"op\":\"render\",\"session\":\"nope\"}",
        "half a request",
    ];
    for seed in 0..25 {
        let mut plain = Server::new();
        let mut observed = Server::new();
        observed.enable_metrics(ServeMetrics::new(4, 256));
        let mut g = XorShift::new(seed);
        for _ in 0..30 {
            let line = templates[g.below(templates.len() as u64) as usize];
            assert_eq!(
                plain.handle_line(line),
                observed.handle_line(line),
                "seed {seed}: metrics must not leak into replies ({line})"
            );
        }
        assert!(observed.metrics().unwrap().requests() >= 30, "seed {seed}");
    }
}
