//! Pluggable event sinks.
//!
//! A [`Sink`] receives every [`Event`] a tracer records. The crate ships
//! four: [`NullSink`] (drops everything — the near-zero-overhead default
//! when tracing is compiled in but off), [`RingSink`] (a bounded in-memory
//! buffer), [`JsonlSink`] (byte-deterministic JSON-lines), and
//! [`StatsSink`] (aggregates per-phase durations and counter totals).
//!
//! Ring, Jsonl, and Stats sinks are cheap shared handles: clone one, hand a
//! clone to the tracer, keep the other to read results after the run.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{json_string, Counter, Event};

/// A receiver of trace events.
pub trait Sink: Send {
    /// Records one event. Called under the tracer's lock, in order.
    fn record(&mut self, event: &Event);

    /// Whether this sink discards everything. Installing a tracer whose
    /// sink reports `true` leaves the global probes on their disabled
    /// fast path (one relaxed atomic load) — recording events that nobody
    /// will ever see would be pure overhead.
    fn is_noop(&self) -> bool {
        false
    }
}

/// Drops every event. Installing a tracer over a `NullSink` is equivalent
/// to tracing being off: the probes stay on the single-atomic-load fast
/// path (see [`Sink::is_noop`]). The benchmark harness's overhead
/// experiment uses exactly this configuration to demonstrate the
/// off-state overhead contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _event: &Event) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// A bounded in-memory ring buffer of events; the oldest events are
/// discarded once `capacity` is reached.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            buf: Arc::new(Mutex::new(VecDeque::new())),
            capacity,
        }
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The number of buffered events.
    pub fn len(&self) -> usize {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingSink {
    fn record(&mut self, event: &Event) {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Serializes each event as one JSON line into a shared string buffer.
/// Byte-deterministic: the same event stream always yields the same bytes.
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    out: Arc<Mutex<String>>,
}

impl JsonlSink {
    /// An empty JSONL buffer.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// The serialized lines so far.
    pub fn contents(&self) -> String {
        self.out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        event.to_jsonl(&mut out);
    }
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// How many spans with this name closed.
    pub count: u64,
    /// Total nanoseconds across all of them.
    pub total_ns: u64,
    /// The shortest single span.
    pub min_ns: u64,
    /// The longest single span.
    pub max_ns: u64,
}

impl SpanStats {
    fn add(&mut self, dur_ns: u64) {
        if self.count == 0 {
            self.min_ns = dur_ns;
            self.max_ns = dur_ns;
        } else {
            self.min_ns = self.min_ns.min(dur_ns);
            self.max_ns = self.max_ns.max(dur_ns);
        }
        self.count += 1;
        self.total_ns += dur_ns;
    }

    /// Mean nanoseconds per span (0 when no spans closed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The aggregate a [`StatsSink`] builds: per-phase durations and counter
/// totals. This is also the payload of `hazel stats` and the per-phase
/// section of the benchmark report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Closed-span timing, keyed by phase name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Counter totals.
    pub counters: BTreeMap<Counter, u64>,
}

impl Stats {
    /// The total for one counter (0 when never recorded).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(&c).copied().unwrap_or(0)
    }

    /// Folds one event into the aggregate.
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::Begin { .. } => {}
            Event::End { name, dur_ns, .. } => {
                self.spans.entry(name.to_string()).or_default().add(*dur_ns);
            }
            Event::Count { counter, delta, .. } => {
                *self.counters.entry(*counter).or_insert(0) += delta;
            }
        }
    }

    /// Renders the aggregate as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>7} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total", "mean", "max"
        ));
        for (name, s) in &self.spans {
            out.push_str(&format!(
                "{:<28} {:>7} {:>10} {:>10} {:>10}\n",
                name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.mean_ns()),
                fmt_ns(s.max_ns),
            ));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<28} {:>10}\n", "counter", "total"));
            for (c, total) in &self.counters {
                out.push_str(&format!("{:<28} {:>10}\n", c.as_str(), total));
            }
        }
        out
    }

    /// Serializes the aggregate as one deterministic-keyed JSON object
    /// (values vary with the clock; key order never does).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out.push('\n');
        out
    }

    /// Appends the JSON object (no trailing newline) to `out` — the form
    /// embedded into the benchmark report.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"spans\":{");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.min_ns,
                s.max_ns
            ));
        }
        out.push_str("},\"counters\":{");
        for (i, (c, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(out, c.as_str());
            out.push(':');
            out.push_str(&total.to_string());
        }
        out.push_str("}}");
    }
}

/// Aggregates events into a shared [`Stats`].
#[derive(Debug, Clone, Default)]
pub struct StatsSink {
    stats: Arc<Mutex<Stats>>,
}

impl StatsSink {
    /// An empty aggregate.
    pub fn new() -> StatsSink {
        StatsSink::default()
    }

    /// A snapshot of the aggregate so far.
    pub fn snapshot(&self) -> Stats {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Sink for StatsSink {
    fn record(&mut self, event: &Event) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .observe(event);
    }
}

/// Broadcasts each event to several sinks (e.g. JSONL and stats at once).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl FanoutSink {
    /// An empty fanout.
    pub fn new() -> FanoutSink {
        FanoutSink::default()
    }

    /// Adds a receiver, builder-style.
    #[must_use]
    pub fn with(mut self, sink: impl Sink + 'static) -> FanoutSink {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl Sink for FanoutSink {
    fn record(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }

    fn is_noop(&self) -> bool {
        self.sinks.iter().all(|s| s.is_noop())
    }
}

/// A two-receiver fanout with static dispatch — the hot-path alternative
/// to [`FanoutSink`] when the receiver set is known at compile time (e.g.
/// the serve metrics stack: a `MetricsSink` paired with a `SlowCapture`).
/// Every event reaches `0` then `1` with no per-event indirect calls.
pub struct PairSink<A, B>(pub A, pub B);

impl<A: Sink, B: Sink> Sink for PairSink<A, B> {
    fn record(&mut self, event: &Event) {
        self.0.record(event);
        self.1.record(event);
    }

    fn is_noop(&self) -> bool {
        self.0.is_noop() && self.1.is_noop()
    }
}

/// Formats nanoseconds with a human-friendly unit (deterministic).
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanId;
    use std::borrow::Cow;

    fn end(name: &'static str, dur: u64) -> Event {
        Event::End {
            id: SpanId(1),
            name: Cow::Borrowed(name),
            t_ns: dur,
            dur_ns: dur,
        }
    }

    #[test]
    fn ring_sink_discards_oldest() {
        let mut sink = RingSink::new(2);
        sink.record(&end("a", 1));
        sink.record(&end("b", 2));
        sink.record(&end("c", 3));
        let names: Vec<String> = sink
            .events()
            .iter()
            .map(|e| match e {
                Event::End { name, .. } => name.to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn stats_aggregate_min_mean_max() {
        let mut sink = StatsSink::new();
        sink.record(&end("eval", 10));
        sink.record(&end("eval", 30));
        let stats = sink.snapshot();
        let s = &stats.spans["eval"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 40, 10, 30));
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn stats_sum_counters() {
        let mut sink = StatsSink::new();
        let count = |delta| Event::Count {
            counter: Counter::MachineSteps,
            delta,
            span: None,
            t_ns: 0,
        };
        sink.record(&count(3));
        sink.record(&count(4));
        assert_eq!(sink.snapshot().counter(Counter::MachineSteps), 7);
        assert_eq!(sink.snapshot().counter(Counter::ViewDiffNodes), 0);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_500), "1.500µs");
        assert_eq!(fmt_ns(2_000_001), "2.000ms");
        assert_eq!(fmt_ns(3_456_000_000), "3.456s");
    }

    #[test]
    fn stats_json_key_order_is_stable() {
        let mut sink = StatsSink::new();
        sink.record(&end("b", 1));
        sink.record(&end("a", 1));
        let json = sink.snapshot().to_json();
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
        assert!(json.starts_with("{\"spans\":{"));
    }
}
