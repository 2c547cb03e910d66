//! The serve-facing observability surface: per-op latency histograms,
//! request totals, and slow-request rankings.
//!
//! [`ServeMetrics`] is a cheap shared handle (`Arc` inside): the CLI holds
//! one for its `--metrics-interval` reporter thread, and the
//! [`crate::Server`] holds one to record each request. Everything it
//! records is atomics or a short-held mutex — recording never blocks
//! request handling on another request's work.
//!
//! Nothing here feeds reply bytes unless the client asks (the `metrics`
//! op, or a `timings` opt-in at `open`), so transcripts stay byte-identical
//! with metrics on or off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use livelit_trace::metrics::{HistogramSnapshot, MetricsHub, PhaseTimes, SlowCapture};
use livelit_trace::Histogram;

/// The ops with a dedicated latency histogram; everything else (unknown
/// ops, unparseable lines) lands in `"other"`.
pub const OPS: [&str; 11] = [
    "open", "edit", "dispatch", "render", "analyze", "stats", "metrics", "watch", "close",
    "shutdown", "other",
];

/// The histogram slot for an op name.
pub fn op_index(op: Option<&str>) -> usize {
    op.and_then(|name| OPS.iter().position(|&o| o == name))
        .unwrap_or(OPS.len() - 1)
}

/// One entry in the slow-request ranking: enough to diagnose an outlier
/// after the fact without replaying traffic.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's sequence number within its server.
    pub req: u64,
    /// Wall time handling the request, in nanoseconds.
    pub dur_ns: u64,
    /// Request line length in bytes.
    pub bytes_in: u64,
    /// Reply length in bytes (before any `timings` echo).
    pub bytes_out: u64,
    /// Whether the reply was `ok`.
    pub ok: bool,
    /// Per-phase breakdown (all zero unless a `MetricsSink` tracer was
    /// installed around the request).
    pub phases: PhaseTimes,
    /// The request line, truncated for the report.
    pub line: String,
}

/// How many characters of the request line a [`SlowEntry`] keeps.
const SLOW_LINE_CHARS: usize = 160;

struct Inner {
    started: Instant,
    hub: Arc<MetricsHub>,
    capture: SlowCapture,
    per_op: [Histogram; OPS.len()],
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    slow: Mutex<Vec<Vec<SlowEntry>>>,
    slow_k: usize,
}

/// The shared serve metrics aggregate. Clones share state.
#[derive(Clone)]
pub struct ServeMetrics {
    inner: Arc<Inner>,
}

impl ServeMetrics {
    /// An empty aggregate keeping the `slow_k` worst requests per op.
    /// The embedded [`SlowCapture`] buffers up to `capture_events` trace
    /// events per request when a tracer feeds it.
    pub fn new(slow_k: usize, capture_events: usize) -> ServeMetrics {
        ServeMetrics {
            inner: Arc::new(Inner {
                started: Instant::now(),
                hub: Arc::new(MetricsHub::new()),
                capture: SlowCapture::new(slow_k, capture_events),
                per_op: std::array::from_fn(|_| Histogram::new()),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                bytes_in: AtomicU64::new(0),
                bytes_out: AtomicU64::new(0),
                slow: Mutex::new(vec![Vec::new(); OPS.len()]),
                slow_k,
            }),
        }
    }

    /// The phase-histogram hub — hand it to a
    /// [`livelit_trace::MetricsSink`] to get per-phase attribution.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.inner.hub
    }

    /// The slow-request span-tree capture — install it alongside the
    /// `MetricsSink` (via a `FanoutSink`) to get full traces for the
    /// slow-ranking entries.
    pub fn capture(&self) -> &SlowCapture {
        &self.inner.capture
    }

    /// Nanoseconds since this aggregate was created.
    pub fn uptime_ns(&self) -> u64 {
        self.inner.started.elapsed().as_nanos() as u64
    }

    /// Requests recorded.
    pub fn requests(&self) -> u64 {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// Of those, how many got an `error` reply.
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// Request bytes received.
    pub fn bytes_in(&self) -> u64 {
        self.inner.bytes_in.load(Ordering::Relaxed)
    }

    /// Reply bytes produced (before any `timings` echo).
    pub fn bytes_out(&self) -> u64 {
        self.inner.bytes_out.load(Ordering::Relaxed)
    }

    /// Folds one handled request into the aggregate.
    #[allow(clippy::too_many_arguments)]
    pub fn record_request(
        &self,
        op: Option<&str>,
        req: u64,
        dur_ns: u64,
        bytes_in: u64,
        bytes_out: u64,
        ok: bool,
        phases: PhaseTimes,
        line: &str,
    ) {
        let inner = &*self.inner;
        let slot = op_index(op);
        inner.per_op[slot].record(dur_ns);
        inner.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            inner.errors.fetch_add(1, Ordering::Relaxed);
        }
        inner.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        inner.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);

        let mut slow = inner.slow.lock().unwrap_or_else(PoisonError::into_inner);
        let ranked = &mut slow[slot];
        if ranked.len() < inner.slow_k || ranked.last().is_some_and(|w| dur_ns > w.dur_ns) {
            let entry = SlowEntry {
                req,
                dur_ns,
                bytes_in,
                bytes_out,
                ok,
                phases,
                line: line.chars().take(SLOW_LINE_CHARS).collect(),
            };
            let pos = ranked
                .iter()
                .position(|e| e.dur_ns < dur_ns)
                .unwrap_or(ranked.len());
            ranked.insert(pos, entry);
            ranked.truncate(inner.slow_k);
        }
    }

    /// A snapshot of one op's latency histogram (index into [`OPS`]).
    pub fn op_snapshot(&self, slot: usize) -> HistogramSnapshot {
        self.inner.per_op[slot].snapshot()
    }

    /// The slow-request ranking per op, slowest first (index-aligned with
    /// [`OPS`]).
    pub fn slow_entries(&self) -> Vec<Vec<SlowEntry>> {
        self.inner
            .slow
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// A one-line summary for periodic stderr reporting.
    pub fn summary_line(&self) -> String {
        let uptime_ns = self.uptime_ns().max(1);
        let requests = self.requests();
        let per_sec = requests as f64 / (uptime_ns as f64 / 1e9);
        let render = self.op_snapshot(op_index(Some("render")));
        let mut line = format!(
            "metrics: uptime {} · {} req ({} err) · {:.0} req/s · in {}B out {}B",
            livelit_trace::fmt_ns(uptime_ns),
            requests,
            self.errors(),
            per_sec,
            self.bytes_in(),
            self.bytes_out(),
        );
        if !render.is_empty() {
            line.push_str(&format!(
                " · render p50 {} p99 {}",
                livelit_trace::fmt_ns(render.p50()),
                livelit_trace::fmt_ns(render.p99()),
            ));
        }
        line
    }

    /// Renders the slow-request ranking (and captured span trees, when a
    /// tracer fed the capture) as a text report — the graceful-shutdown
    /// dump. Empty string when nothing was recorded.
    pub fn render_slow(&self) -> String {
        let mut out = String::new();
        for (slot, ranked) in self.slow_entries().iter().enumerate() {
            for entry in ranked {
                out.push_str(&format!(
                    "slow {}: #{} {} in={}B out={}B{}  {}\n",
                    OPS[slot],
                    entry.req,
                    livelit_trace::fmt_ns(entry.dur_ns),
                    entry.bytes_in,
                    entry.bytes_out,
                    if entry.ok { "" } else { " [error]" },
                    entry.line,
                ));
            }
        }
        let traces = self.capture().render();
        if !traces.is_empty() {
            out.push_str(&traces);
        }
        out
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("requests", &self.requests())
            .field("errors", &self.errors())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_buckets_unknowns_into_other() {
        assert_eq!(op_index(Some("render")), 3);
        assert_eq!(op_index(Some("metrics")), 6);
        assert_eq!(op_index(Some("shutdown")), 9);
        assert_eq!(op_index(Some("nonsense")), OPS.len() - 1);
        assert_eq!(op_index(None), OPS.len() - 1);
    }

    #[test]
    fn record_request_feeds_totals_and_slow_ranking() {
        let m = ServeMetrics::new(2, 64);
        for (req, dur) in [(1u64, 500u64), (2, 9000), (3, 100), (4, 7000)] {
            m.record_request(
                Some("render"),
                req,
                dur,
                10,
                20,
                req != 3,
                PhaseTimes::new(),
                "{\"op\":\"render\"}",
            );
        }
        assert_eq!(m.requests(), 4);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.bytes_in(), 40);
        assert_eq!(m.bytes_out(), 80);
        let render = m.op_snapshot(op_index(Some("render")));
        assert_eq!(render.count, 4);
        assert_eq!(render.max, 9000);
        let slow = m.slow_entries();
        let ranked = &slow[op_index(Some("render"))];
        assert_eq!(ranked.len(), 2);
        assert_eq!((ranked[0].req, ranked[0].dur_ns), (2, 9000));
        assert_eq!((ranked[1].req, ranked[1].dur_ns), (4, 7000));
        let report = m.render_slow();
        assert!(report.contains("slow render: #2"));
        let summary = m.summary_line();
        assert!(summary.contains("4 req (1 err)"), "{summary}");
    }
}
