//! Production metrics: lock-free log-linear latency histograms, per-phase
//! attribution of span durations, and slow-request trace capture.
//!
//! The trace layer (spans + counters) answers "what happened on this run";
//! this module answers "what is the p99 right now, and which phase is
//! eating it" for a long-running `hazel serve` process:
//!
//! - [`Histogram`]: fixed log-linear buckets of [`AtomicU64`]s, eight
//!   linear sub-buckets per power of two in the HdrHistogram style.
//!   Recording a sample is one `leading_zeros`, a shift, and a handful of
//!   relaxed atomic increments — no allocation, no lock — so it is safe on
//!   the hottest path and shareable across threads. Snapshots are
//!   mergeable and yield p50/p90/p99 within 12.5% of exact, and the max
//!   exactly.
//! - [`Phase`]: the small static taxonomy every hot pipeline span maps
//!   into (parse / elaborate / typecheck / collect / eval_splices /
//!   render_diff / analyze). [`Phase::of_span`] is the single source of
//!   truth for the mapping; the phase-audit test in the integration suite
//!   asserts every span the pipeline emits is either mapped or explicitly
//!   allowlisted.
//! - [`MetricsHub`]: the shared aggregate — one histogram per phase,
//!   counter totals, and the in-flight request's per-phase breakdown.
//! - [`MetricsSink`]: a [`Sink`] that folds span `End` events into the
//!   hub's per-phase histograms (depth-guarded, so nested spans of the
//!   same phase are not double-counted) and brackets requests on
//!   `serve.*` spans.
//! - [`SlowCapture`]: a [`Sink`] keeping the K worst requests per op with
//!   their full span trees, so a p99 outlier is diagnosable after the
//!   fact.
//!
//! Determinism discipline: histograms and captures never feed byte-golden
//! transcripts — replies are byte-identical with metrics on or off, which
//! `tests/tests/metrics_props.rs` asserts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::{Counter, Event, SpanId};
use crate::sink::Sink;

/// Linear sub-buckets per power of two (as a shift: `2^3 = 8`).
const SUB_BUCKET_BITS: u32 = 3;

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Number of buckets in a [`Histogram`]. Buckets `0..8` hold the sample
/// values `0..8` exactly. Above that, each power of two `[2^e, 2^(e+1))`
/// (`3 <= e <= 63`) splits into eight equal sub-buckets of width
/// `2^(e-3)`, so a bucket's upper bound exceeds any sample in it by less
/// than 12.5%. The last bucket ends at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BUCKET_BITS as usize + 1);

/// The static phase taxonomy for per-phase latency attribution.
///
/// Phases are *attribution*, not a partition of wall time: a `collect`
/// span may contain `eval_splices` spans, and both get the nested time.
/// Each phase's histogram answers "how long do spans of this kind take",
/// not "how does a request's wall time split".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Surface-syntax parsing (`parse`, `parse.module`).
    Parse,
    /// Bidirectional elaboration (`elab.syn`, `elab.ana`).
    Elaborate,
    /// Marking, expansion, and typed-expansion validation.
    Typecheck,
    /// Closure collection and fill-and-resume.
    Collect,
    /// Live splice evaluation under collected closures.
    EvalSplices,
    /// View recomputation and MVU diffing.
    RenderDiff,
    /// Static analysis passes (everything under `analysis.`).
    Analyze,
}

impl Phase {
    /// Every phase, in serialization order.
    pub const ALL: [Phase; 7] = [
        Phase::Parse,
        Phase::Elaborate,
        Phase::Typecheck,
        Phase::Collect,
        Phase::EvalSplices,
        Phase::RenderDiff,
        Phase::Analyze,
    ];

    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = Phase::ALL.len();

    /// The stable snake_case name used in serialized output.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Elaborate => "elaborate",
            Phase::Typecheck => "typecheck",
            Phase::Collect => "collect",
            Phase::EvalSplices => "eval_splices",
            Phase::RenderDiff => "render_diff",
            Phase::Analyze => "analyze",
        }
    }

    /// Maps a span name to its phase. This is the single source of truth
    /// for phase attribution; span names that are deliberately unmapped
    /// (request brackets, umbrella spans, editor actions) return `None`.
    pub fn of_span(name: &str) -> Option<Phase> {
        Some(match name {
            "parse" | "parse.module" => Phase::Parse,
            "elab.syn" | "elab.ana" => Phase::Elaborate,
            "expand.typed" => Phase::Typecheck,
            "engine.collect" | "engine.omega" | "engine.resume" | "cc.collect" | "cc.expand"
            | "cc.eval" | "cc.resume_result" | "cc.resume_envs" => Phase::Collect,
            "live.eval_splice" => Phase::EvalSplices,
            "engine.views" | "mvu.diff" => Phase::RenderDiff,
            _ if name.starts_with("analysis.") => Phase::Analyze,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Returns the bucket index for a nanosecond sample.
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    // `ns` lies in `[2^e, 2^(e+1))` with `e >= 3`; its top four bits pick
    // the sub-bucket (the leading one plus three linear bits).
    let e = 63 - ns.leading_zeros();
    let shift = e - SUB_BUCKET_BITS;
    shift as usize * SUB_BUCKETS + (ns >> shift) as usize
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = i / SUB_BUCKETS - 1;
    let top = (i % SUB_BUCKETS + SUB_BUCKETS + 1) as u128;
    u64::try_from((top << shift) - 1).unwrap_or(u64::MAX)
}

/// A fixed-bucket log-linear latency histogram with lock-free recording.
///
/// The hot path ([`Histogram::record`]) is allocation-free: a bucket index
/// from `leading_zeros` and a shift, and five relaxed atomic updates. Relaxed ordering
/// is sound because every cell is independently additive (min/max use
/// `fetch_min`/`fetch_max`); a [`HistogramSnapshot`] taken concurrently
/// with writers may be mid-request torn by a few samples, which is
/// acceptable for monitoring output and irrelevant once writers quiesce.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the aggregate.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`] — plain data, mergeable, and
/// the source for quantile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample — exact, not bucketed.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile in nanoseconds, `0.0 <= q <= 1.0`. Returns the
    /// inclusive upper bound of the bucket containing the rank-`ceil(q·n)`
    /// sample, clamped to the exact observed max — so the estimate is at
    /// least the exact quantile and less than 12.5% above it, and
    /// `quantile(1.0)` is the exact max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another snapshot into this one. Merging two snapshots is
    /// equivalent (bucket-exactly) to recording the concatenated sample
    /// streams into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Appends this snapshot as a fixed-key JSON object (no trailing
    /// newline): `{"count":..,"sum_ns":..,"min_ns":..,"max_ns":..,
    /// "mean_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..}`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\
             \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
        ));
    }
}

/// A per-request phase breakdown: nanoseconds attributed to each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    ns: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// An all-zero breakdown.
    pub fn new() -> PhaseTimes {
        PhaseTimes::default()
    }

    /// Nanoseconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase as usize]
    }

    /// Adds `ns` to `phase`.
    pub fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Whether every phase is zero.
    pub fn is_zero(&self) -> bool {
        self.ns.iter().all(|&n| n == 0)
    }

    /// Iterates `(phase, ns)` pairs in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.ns[p as usize]))
    }
}

/// The shared metrics aggregate: one [`Histogram`] per [`Phase`], counter
/// totals, and the in-flight request's phase breakdown. Share it via
/// `Arc`; all aggregation fields are atomics.
#[derive(Debug)]
pub struct MetricsHub {
    phases: [Histogram; Phase::COUNT],
    counters: [AtomicU64; Counter::ALL.len()],
    current: [AtomicU64; Phase::COUNT],
}

impl Default for MetricsHub {
    fn default() -> MetricsHub {
        MetricsHub::new()
    }
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> MetricsHub {
        MetricsHub {
            phases: std::array::from_fn(|_| Histogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            current: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The histogram for one phase.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// A snapshot of one phase's histogram.
    pub fn phase_snapshot(&self, phase: Phase) -> HistogramSnapshot {
        self.phases[phase as usize].snapshot()
    }

    /// The total for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Adds `delta` to a counter total.
    pub fn add_counter(&self, c: Counter, delta: u64) {
        self.counters[c.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Records a completed phase span: feeds the phase histogram and the
    /// in-flight request's breakdown. Lock-free.
    pub fn record_phase(&self, phase: Phase, ns: u64) {
        self.phases[phase as usize].record(ns);
        self.current[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Resets the in-flight request breakdown (called at request start).
    pub fn begin_request(&self) {
        for cell in &self.current {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// The in-flight (or just-finished) request's phase breakdown.
    pub fn request_phases(&self) -> PhaseTimes {
        let mut times = PhaseTimes::new();
        for (i, cell) in self.current.iter().enumerate() {
            times.ns[i] = cell.load(Ordering::Relaxed);
        }
        times
    }
}

/// Slots in [`MetricsSink`]'s span-name classification memo.
const NAME_MEMO_SLOTS: usize = 64;

/// Encoded span-name classification for the memo: `0..Phase::COUNT` is a
/// phase, then the request bracket, then "neither".
const CLASS_BRACKET: u8 = Phase::COUNT as u8;
const CLASS_OTHER: u8 = Phase::COUNT as u8 + 1;

/// A [`Sink`] that aggregates span durations into a [`MetricsHub`]'s
/// per-phase histograms and counter totals.
///
/// Nested spans mapping to the same phase (e.g. `analysis.run` containing
/// `analysis.pass.*`) are depth-guarded: only the outermost span of each
/// phase records, so a phase's histogram counts wall time once. Spans
/// whose name starts with the request-bracket prefix (`"serve."`) reset
/// the hub's in-flight breakdown, giving per-request attribution.
pub struct MetricsSink {
    hub: Arc<MetricsHub>,
    depth: [u32; Phase::COUNT],
    bracket_prefix: &'static str,
    /// Pointer-keyed memo of span-name classification, `(ptr, len,
    /// class)` per slot. Span names are almost always `&'static str`
    /// literals, so `(as_ptr, len)` identifies the string and one slot
    /// probe replaces the [`Phase::of_span`] string match on the
    /// per-event hot path. Distinct literal contents can never collide
    /// on both pointer and length; a hash-slot collision just overwrites.
    name_memo: [(usize, usize, u8); NAME_MEMO_SLOTS],
}

impl MetricsSink {
    /// A sink feeding `hub`, bracketing requests on `"serve."` spans.
    pub fn new(hub: Arc<MetricsHub>) -> MetricsSink {
        MetricsSink {
            hub,
            depth: [0; Phase::COUNT],
            bracket_prefix: "serve.",
            name_memo: [(0, 0, CLASS_OTHER); NAME_MEMO_SLOTS],
        }
    }

    /// The hub this sink feeds.
    pub fn hub(&self) -> &Arc<MetricsHub> {
        &self.hub
    }

    /// Classifies a span name, memoizing by pointer identity for
    /// borrowed (static) names. Owned names (the rare runtime-composed
    /// `serve.<op>` brackets) always take the string path. Takes `&Cow`
    /// rather than `&str` because the `Borrowed`/`Owned` distinction is
    /// what gates the memo: only `&'static` pointers are stable keys.
    #[inline]
    #[allow(clippy::ptr_arg)]
    fn classify(&mut self, name: &std::borrow::Cow<'static, str>) -> u8 {
        let slot_key = match name {
            std::borrow::Cow::Borrowed(s) => {
                let key = (s.as_ptr() as usize, s.len());
                let slot = (key.0 >> 3) % NAME_MEMO_SLOTS;
                let entry = self.name_memo[slot];
                if (entry.0, entry.1) == key {
                    return entry.2;
                }
                Some((slot, key))
            }
            std::borrow::Cow::Owned(_) => None,
        };
        let class = match Phase::of_span(name) {
            Some(p) => p as u8,
            None if name.starts_with(self.bracket_prefix) => CLASS_BRACKET,
            None => CLASS_OTHER,
        };
        if let Some((slot, key)) = slot_key {
            self.name_memo[slot] = (key.0, key.1, class);
        }
        class
    }
}

impl Sink for MetricsSink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::Begin { name, .. } => match self.classify(name) {
                CLASS_BRACKET => self.hub.begin_request(),
                CLASS_OTHER => {}
                p => self.depth[p as usize] += 1,
            },
            Event::End { name, dur_ns, .. } => {
                let class = self.classify(name);
                if class < CLASS_BRACKET {
                    let d = &mut self.depth[class as usize];
                    *d = d.saturating_sub(1);
                    if *d == 0 {
                        self.hub.record_phase(Phase::ALL[class as usize], *dur_ns);
                    }
                }
            }
            Event::Count { counter, delta, .. } => {
                self.hub.add_counter(*counter, *delta);
            }
        }
    }
}

/// One captured slow request: the bracket span's name and duration plus
/// the full event stream recorded while it was open.
#[derive(Debug, Clone)]
pub struct SlowTrace {
    /// The bracket span name (e.g. `"serve.render"`).
    pub name: String,
    /// The bracket span's duration in nanoseconds.
    pub dur_ns: u64,
    /// Every event recorded between the bracket's begin and end,
    /// inclusive — renderable with [`crate::render_events`].
    pub events: Vec<Event>,
}

/// A [`Sink`] that keeps the K worst requests per op with their full span
/// trees. Requests are bracketed by spans whose name starts with the
/// given prefix (`"serve."` for the document server); everything recorded
/// while a bracket is open is buffered (up to `capacity` events), and on
/// bracket close the capture is kept if it ranks among the K slowest seen
/// for that bracket name.
///
/// Hot-path discipline: the in-flight buffer is *unshared* sink state
/// (the tracer already serializes `record` calls), so buffering an event
/// is a bounds check and a `Vec` push — no lock. Only the ranked results
/// live behind the shared mutex, which is touched once per *kept* capture
/// (rare by construction) and by external readers. Clones share the
/// ranked results but carry their own buffer; install at most one clone
/// as a sink at a time or brackets may interleave.
#[derive(Clone)]
pub struct SlowCapture {
    worst: Arc<Mutex<BTreeMap<String, Vec<SlowTrace>>>>,
    /// The currently-open bracket span, if any (unshared sink state).
    active: Option<SpanId>,
    /// Event buffer for the active bracket (bounded, unshared).
    buf: Vec<Event>,
    /// The slowest duration that can still fail to rank per bracket name:
    /// a capture is pushed to `worst` only if the ranked list is not yet
    /// full or the new duration beats this floor. Mirrors `worst` so the
    /// common case (fast request, full list) skips the lock entirely.
    floor: BTreeMap<String, (usize, u64)>,
    prefix: &'static str,
    k: usize,
    capacity: usize,
}

impl SlowCapture {
    /// A capture keeping the `k` worst requests per op, buffering at most
    /// `capacity` events per request, bracketing on `"serve."` spans.
    pub fn new(k: usize, capacity: usize) -> SlowCapture {
        SlowCapture {
            worst: Arc::new(Mutex::new(BTreeMap::new())),
            active: None,
            buf: Vec::new(),
            floor: BTreeMap::new(),
            prefix: "serve.",
            k,
            capacity,
        }
    }

    /// The worst captures per bracket name, slowest first.
    pub fn worst(&self) -> BTreeMap<String, Vec<SlowTrace>> {
        self.worst
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Renders every kept capture as an indented text report (empty
    /// string when nothing was captured).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, traces) in self.worst() {
            for trace in traces {
                out.push_str(&format!(
                    "slowest {} — {}\n",
                    name,
                    crate::sink::fmt_ns(trace.dur_ns)
                ));
                out.push_str(&crate::event::render_events(&trace.events));
            }
        }
        out
    }
}

impl SlowCapture {
    /// Closes the active bracket: keeps the buffered capture if it ranks
    /// among the K slowest for `name`, otherwise reuses the buffer
    /// allocation for the next bracket. Runs once per request.
    fn close_bracket(&mut self, name: &str, dur_ns: u64) {
        self.active = None;
        let ranks = match self.floor.get(name) {
            Some(&(len, floor)) => len < self.k || dur_ns > floor,
            None => true,
        };
        if !ranks {
            self.buf.clear();
            return;
        }
        let events = std::mem::take(&mut self.buf);
        let mut worst = self.worst.lock().unwrap_or_else(PoisonError::into_inner);
        let ranked = worst.entry(name.to_string()).or_default();
        let trace = SlowTrace {
            name: name.to_string(),
            dur_ns,
            events,
        };
        let pos = ranked
            .iter()
            .position(|t| t.dur_ns < trace.dur_ns)
            .unwrap_or(ranked.len());
        ranked.insert(pos, trace);
        ranked.truncate(self.k);
        let floor = ranked.last().map_or(0, |w| w.dur_ns);
        self.floor.insert(name.to_string(), (ranked.len(), floor));
    }
}

impl Sink for SlowCapture {
    fn record(&mut self, event: &Event) {
        match event {
            Event::Begin { id, name, .. } => {
                if self.active.is_none() && name.starts_with(self.prefix) {
                    self.active = Some(*id);
                    self.buf.clear();
                }
                if self.active.is_some() && self.buf.len() < self.capacity {
                    self.buf.push(event.clone());
                }
            }
            Event::End {
                id, name, dur_ns, ..
            } if self.active == Some(*id) => {
                if self.buf.len() < self.capacity {
                    self.buf.push(event.clone());
                }
                let (name, dur_ns) = (name.clone(), *dur_ns);
                self.close_bracket(&name, dur_ns);
            }
            _ => {
                if self.active.is_some() && self.buf.len() < self.capacity {
                    self.buf.push(event.clone());
                }
            }
        }
    }
}

/// Appends one histogram in Prometheus exposition format: cumulative
/// `_bucket{le=..}` series, `_sum`, and `_count`, each tagged with
/// `labels` (e.g. `phase="parse"`). Empty-bucket runs are skipped except
/// the mandatory `le="+Inf"`.
pub fn write_prom_histogram(out: &mut String, metric: &str, labels: &str, s: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for (i, &n) in s.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let le = bucket_upper(i);
        out.push_str(&format!(
            "{metric}_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{metric}_bucket{{{labels},le=\"+Inf\"}} {}\n",
        s.count
    ));
    out.push_str(&format!("{metric}_sum{{{labels}}} {}\n", s.sum));
    out.push_str(&format!("{metric}_count{{{labels}}} {}\n", s.count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn bucket_boundaries() {
        for ns in 0..8 {
            assert_eq!(bucket_index(ns), ns as usize);
            assert_eq!(bucket_upper(ns as usize), ns);
        }
        // [8, 16) splits into unit-wide sub-buckets, [16, 32) into
        // two-wide ones.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_upper(16), 17);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Buckets tile the range: each starts right after the previous
        // one ends, and every sample lands in the bucket bounding it.
        for i in 1..HISTOGRAM_BUCKETS {
            let lo = bucket_upper(i - 1) + 1;
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn histogram_exact_max_and_bounded_quantiles() {
        let h = Histogram::new();
        for ns in [5u64, 9, 100, 1000, 77] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 1191);
        assert_eq!(s.quantile(1.0), 1000);
        // p50 of [5, 9, 77, 100, 1000] is 77; its bucket is [72, 79].
        assert_eq!(s.p50(), 79);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!((s.min, s.max, s.p50(), s.p99(), s.mean()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn merge_matches_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for ns in [1u64, 50, 3000] {
            a.record(ns);
            both.record(ns);
        }
        for ns in [7u64, 7, 900_000] {
            b.record(ns);
            both.record(ns);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn phase_names_unique_and_mapped() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
        assert_eq!(Phase::of_span("parse"), Some(Phase::Parse));
        assert_eq!(
            Phase::of_span("analysis.pass.hygiene"),
            Some(Phase::Analyze)
        );
        assert_eq!(Phase::of_span("serve.render"), None);
        assert_eq!(Phase::of_span("engine.run"), None);
    }

    #[test]
    fn metrics_sink_depth_guards_nested_same_phase_spans() {
        let hub = Arc::new(MetricsHub::new());
        let mut sink = MetricsSink::new(Arc::clone(&hub));
        let begin = |id: u64, name: &'static str| Event::Begin {
            id: SpanId(id),
            parent: None,
            name: Cow::Borrowed(name),
            t_ns: 0,
        };
        let end = |id: u64, name: &'static str, dur: u64| Event::End {
            id: SpanId(id),
            name: Cow::Borrowed(name),
            t_ns: dur,
            dur_ns: dur,
        };
        // analysis.run ⊃ analysis.pass.x: only the outer span records.
        sink.record(&begin(1, "analysis.run"));
        sink.record(&begin(2, "analysis.pass.x"));
        sink.record(&end(2, "analysis.pass.x", 40));
        sink.record(&end(1, "analysis.run", 100));
        let s = hub.phase_snapshot(Phase::Analyze);
        assert_eq!((s.count, s.sum), (1, 100));
    }

    #[test]
    fn metrics_sink_brackets_requests_and_sums_counters() {
        let hub = Arc::new(MetricsHub::new());
        let mut sink = MetricsSink::new(Arc::clone(&hub));
        let begin = |id: u64, name: &'static str| Event::Begin {
            id: SpanId(id),
            parent: None,
            name: Cow::Borrowed(name),
            t_ns: 0,
        };
        let end = |id: u64, name: &'static str, dur: u64| Event::End {
            id: SpanId(id),
            name: Cow::Borrowed(name),
            t_ns: dur,
            dur_ns: dur,
        };
        sink.record(&begin(1, "serve.render"));
        sink.record(&begin(2, "mvu.diff"));
        sink.record(&end(2, "mvu.diff", 25));
        sink.record(&Event::Count {
            counter: Counter::ServePatches,
            delta: 3,
            span: None,
            t_ns: 0,
        });
        sink.record(&end(1, "serve.render", 60));
        assert_eq!(hub.request_phases().get(Phase::RenderDiff), 25);
        assert_eq!(hub.counter(Counter::ServePatches), 3);
        // A new bracket resets the breakdown.
        sink.record(&begin(3, "serve.stats"));
        assert!(hub.request_phases().is_zero());
    }

    #[test]
    fn slow_capture_keeps_k_worst_per_op() {
        let mut cap = SlowCapture::new(2, 64);
        let begin = |id: u64, name: &'static str| Event::Begin {
            id: SpanId(id),
            parent: None,
            name: Cow::Borrowed(name),
            t_ns: 0,
        };
        let end = |id: u64, name: &'static str, dur: u64| Event::End {
            id: SpanId(id),
            name: Cow::Borrowed(name),
            t_ns: dur,
            dur_ns: dur,
        };
        for (id, dur) in [(1u64, 10u64), (2, 50), (3, 30), (4, 5)] {
            cap.record(&begin(id, "serve.render"));
            cap.record(&begin(id + 100, "mvu.diff"));
            cap.record(&end(id + 100, "mvu.diff", dur / 2));
            cap.record(&end(id, "serve.render", dur));
        }
        let worst = cap.worst();
        let ranked = &worst["serve.render"];
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].dur_ns, 50);
        assert_eq!(ranked[1].dur_ns, 30);
        // Each capture holds the full bracketed tree.
        assert_eq!(ranked[0].events.len(), 4);
        let text = cap.render();
        assert!(text.contains("slowest serve.render"));
        assert!(text.contains("mvu.diff"));
    }

    #[test]
    fn prom_exposition_is_cumulative() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        h.record(3);
        let mut out = String::new();
        write_prom_histogram(&mut out, "m", "phase=\"parse\"", &h.snapshot());
        assert!(out.contains("m_bucket{phase=\"parse\",le=\"1\"} 1\n"));
        assert!(out.contains("m_bucket{phase=\"parse\",le=\"3\"} 3\n"));
        assert!(out.contains("m_bucket{phase=\"parse\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("m_sum{phase=\"parse\"} 7\n"));
        assert!(out.contains("m_count{phase=\"parse\"} 3\n"));
    }
}
