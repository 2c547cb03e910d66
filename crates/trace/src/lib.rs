//! `livelit-trace`: structured tracing, metrics, and profiling for the
//! livelit expand/eval/edit pipeline — zero dependencies, hermetic, and
//! near-zero overhead when off.
//!
//! The paper's MVU-expand protocol runs a multi-phase pipeline after every
//! edit: parse → elaborate → expand → evaluate → collect closures →
//! diff/patch views. This crate makes that pipeline observable:
//!
//! - **Spans** with parent links and monotonic timing ([`Tracer`],
//!   [`span`]), named after pipeline phases (`"engine.collect"`,
//!   `"cc.eval"`, `"mvu.diff"`, ...).
//! - **Typed counters** ([`Counter`], [`count`]): holes remaining,
//!   expansions performed, splices evaluated, closures collected,
//!   view-diff node/patch counts, analyzer cache hits/misses, evaluation
//!   steps, incremental fast-path takes.
//! - **Injectable clocks** ([`clock::Clock`]): [`clock::MonotonicClock`]
//!   for real profiles, [`clock::TestClock`] for byte-deterministic traces
//!   (no `SystemTime`/`Instant` value reaches serialized output).
//! - **Pluggable sinks** ([`sink::Sink`]): [`sink::NullSink`],
//!   [`sink::RingSink`], [`sink::JsonlSink`], [`sink::StatsSink`], and
//!   [`sink::FanoutSink`].
//!
//! # Overhead contract
//!
//! Probes are free functions guarded by one relaxed atomic load. With no
//! tracer installed they do no allocation, take no lock, and record
//! nothing — the property the benchmark harness's overhead experiment
//! demonstrates (< 2% on a full pipeline workload).
//!
//! Installation is per thread: a tracer records only the events emitted
//! by the thread that installed it (see [`install`]).
//!
//! # Example
//!
//! ```
//! use livelit_trace::{install, span, count, Counter, Tracer};
//! use livelit_trace::sink::StatsSink;
//!
//! let sink = StatsSink::new();
//! let tracer = Tracer::deterministic(sink.clone());
//! {
//!     let _session = install(&tracer);
//!     let _phase = span("engine.collect");
//!     count(Counter::ClosuresCollected, 3);
//! } // uninstalled here
//! let stats = sink.snapshot();
//! assert_eq!(stats.counter(Counter::ClosuresCollected), 3);
//! assert_eq!(stats.spans["engine.collect"].count, 1);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod metrics;
pub mod sink;
pub mod tracer;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use event::{json_string, render_events, Counter, Event, SpanId};
pub use metrics::{
    write_prom_histogram, Histogram, HistogramSnapshot, MetricsHub, MetricsSink, Phase, PhaseTimes,
    SlowCapture, SlowTrace,
};
pub use sink::{
    fmt_ns, FanoutSink, JsonlSink, NullSink, PairSink, RingSink, Sink, SpanStats, Stats, StatsSink,
};
pub use tracer::{count, enabled, install, span, span_prefixed, InstallGuard, SpanGuard, Tracer};
