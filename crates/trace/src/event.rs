//! The event vocabulary: spans with parent links and typed counters.
//!
//! Events are plain data; serialization to JSONL is byte-deterministic —
//! fixed field order, integer timestamps, minimal string escaping — so two
//! traces of the same computation under the same [`crate::clock::Clock`]
//! readings serialize to identical bytes.

use std::borrow::Cow;
use std::fmt;

/// A span identifier, unique within one [`crate::Tracer`]'s lifetime.
/// Identifiers are assigned sequentially from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The typed counters the pipeline reports. Each counter is additive: a
/// `Count` event carries a delta, and sinks aggregate by summing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Hole closures remaining in the final result after fill-and-resume.
    HolesRemaining,
    /// Livelit invocations put through the six `ELivelit` premises.
    ExpansionsPerformed,
    /// Splices evaluated live under a collected closure.
    SplicesEvaluated,
    /// Closure environments collected across all livelit holes.
    ClosuresCollected,
    /// Nodes visited by a view diff (size of the new tree).
    ViewDiffNodes,
    /// Patches produced by a view diff.
    ViewDiffPatches,
    /// Incremental-analyzer invocations served from cache.
    AnalyzerCacheHits,
    /// Incremental-analyzer invocations recomputed.
    AnalyzerCacheMisses,
    /// Recursive evaluation steps consumed by an evaluator run.
    EvalSteps,
    /// Incremental-engine runs that took the fill-and-resume fast path.
    IncrementalFastPaths,
    /// Incremental-engine runs that re-collected from scratch.
    IncrementalFullRuns,
    /// Term-store intern calls that found an existing node.
    InternerHits,
    /// Term-store intern calls that appended a new node.
    InternerMisses,
    /// Substitution-memo lookups served from cache.
    SubstMemoHits,
    /// Substitution-memo lookups that had to compute.
    SubstMemoMisses,
    /// Livelit expansions served from the expansion cache.
    ExpansionCacheHits,
    /// Livelit expansions computed and cached.
    ExpansionCacheMisses,
    /// Live splice evaluations served from the splice-result cache.
    SpliceCacheHits,
    /// Live splice evaluations computed and cached.
    SpliceCacheMisses,
    /// Tasks executed by the work-stealing evaluation pool.
    SchedTasks,
    /// Pool tasks a worker stole from a sibling's deque. Nondeterministic;
    /// emitted only when nonzero so deterministic traces stay stable.
    SchedSteals,
    /// Worker-nanoseconds the pool spent idle (wall × workers − busy).
    /// Nondeterministic; emitted only when nonzero.
    SchedIdleNs,
    /// Splice-result cache entries retired by a generation rotation.
    SpliceCacheEvictions,
    /// Requests handled by the document server (well-formed or not).
    ServeRequests,
    /// Server requests answered with a structured `error` reply.
    ServeErrors,
    /// Patch operations shipped in server `render` replies.
    ServePatches,
    /// Bytes of patch scripts shipped by `render` replies that diffed
    /// against an acknowledged view.
    ServePatchBytes,
    /// Bytes the same `render` replies would have cost as full view trees.
    ServeFullBytes,
    /// Dataflow facts computed by the flow fixpoint engine.
    FlowFactsComputed,
    /// Dataflow facts served from the fixpoint fact memo.
    FlowFactsReused,
    /// Definitions re-analyzed by a flow run (the dirty set).
    FlowDirtyDefs,
    /// Dynamic LL0401 double-expansions skipped because static purity
    /// analysis already proved the expansion deterministic.
    FlowDeterminismSkips,
    /// Nodes of a recomputed view that keep their place in the retained
    /// snapshot (patched in place at most): the view's size minus the
    /// rebuilt nodes. Memo hits count the whole snapshot without walking it.
    ViewNodesReused,
    /// Nodes shipped fresh by a recomputed view's patch script: the sizes
    /// of its `Replace` and `AppendChild` payloads (a new instance's whole
    /// view).
    ViewNodesRebuilt,
    /// Nodes held in retained view snapshots, summed over instances and
    /// sampled once per view refresh (a level, so totals across events are
    /// not additive).
    ViewArenaLive,
    /// Environment-machine transitions executed (control-state
    /// dispatches). Distinct from [`Counter::EvalSteps`]: replay charging
    /// keeps `EvalSteps` equal to what the substitution semantics would
    /// consume, while this counts the work the machine actually did.
    MachineSteps,
    /// Environment-machine arena allocations (continuation frames plus
    /// environment nodes pushed).
    MachineAllocs,
    /// Environment extensions that shared an existing (non-empty) parent
    /// chain — persistent environment reuse instead of substitution.
    MachineEnvReuse,
    /// Socket connections accepted by the serve transport.
    ServeConns,
    /// Connections the transport closed early: over the connection cap,
    /// idle past the timeout, or stalled on write backpressure.
    ServeConnsDropped,
    /// Graceful drains begun (SIGTERM or a `shutdown` op).
    ServeDrains,
    /// Request records appended to session snapshot journals.
    SnapshotRecords,
    /// Bytes appended to session snapshot journals (headers + records).
    SnapshotBytes,
    /// Sessions restored from snapshot journals at startup.
    SnapshotsRestored,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 44] = [
        Counter::HolesRemaining,
        Counter::ExpansionsPerformed,
        Counter::SplicesEvaluated,
        Counter::ClosuresCollected,
        Counter::ViewDiffNodes,
        Counter::ViewDiffPatches,
        Counter::AnalyzerCacheHits,
        Counter::AnalyzerCacheMisses,
        Counter::EvalSteps,
        Counter::IncrementalFastPaths,
        Counter::IncrementalFullRuns,
        Counter::InternerHits,
        Counter::InternerMisses,
        Counter::SubstMemoHits,
        Counter::SubstMemoMisses,
        Counter::ExpansionCacheHits,
        Counter::ExpansionCacheMisses,
        Counter::SpliceCacheHits,
        Counter::SpliceCacheMisses,
        Counter::SchedTasks,
        Counter::SchedSteals,
        Counter::SchedIdleNs,
        Counter::SpliceCacheEvictions,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServePatches,
        Counter::ServePatchBytes,
        Counter::ServeFullBytes,
        Counter::FlowFactsComputed,
        Counter::FlowFactsReused,
        Counter::FlowDirtyDefs,
        Counter::FlowDeterminismSkips,
        Counter::ViewNodesReused,
        Counter::ViewNodesRebuilt,
        Counter::ViewArenaLive,
        Counter::MachineSteps,
        Counter::MachineAllocs,
        Counter::MachineEnvReuse,
        Counter::ServeConns,
        Counter::ServeConnsDropped,
        Counter::ServeDrains,
        Counter::SnapshotRecords,
        Counter::SnapshotBytes,
        Counter::SnapshotsRestored,
    ];

    /// This counter's position in [`Counter::ALL`] — a dense index for
    /// array-backed aggregation (see `metrics::MetricsHub`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable snake_case name used in serialized output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Counter::HolesRemaining => "holes_remaining",
            Counter::ExpansionsPerformed => "expansions_performed",
            Counter::SplicesEvaluated => "splices_evaluated",
            Counter::ClosuresCollected => "closures_collected",
            Counter::ViewDiffNodes => "view_diff_nodes",
            Counter::ViewDiffPatches => "view_diff_patches",
            Counter::AnalyzerCacheHits => "analyzer_cache_hits",
            Counter::AnalyzerCacheMisses => "analyzer_cache_misses",
            Counter::EvalSteps => "eval_steps",
            Counter::IncrementalFastPaths => "incremental_fast_paths",
            Counter::IncrementalFullRuns => "incremental_full_runs",
            Counter::InternerHits => "interner_hits",
            Counter::InternerMisses => "interner_misses",
            Counter::SubstMemoHits => "subst_memo_hits",
            Counter::SubstMemoMisses => "subst_memo_misses",
            Counter::ExpansionCacheHits => "expansion_cache_hits",
            Counter::ExpansionCacheMisses => "expansion_cache_misses",
            Counter::SpliceCacheHits => "splice_cache_hits",
            Counter::SpliceCacheMisses => "splice_cache_misses",
            Counter::SchedTasks => "sched_tasks",
            Counter::SchedSteals => "sched_steals",
            Counter::SchedIdleNs => "sched_idle_ns",
            Counter::SpliceCacheEvictions => "splice_cache_evictions",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::ServePatches => "serve_patches",
            Counter::ServePatchBytes => "serve_patch_bytes",
            Counter::ServeFullBytes => "serve_full_bytes",
            Counter::FlowFactsComputed => "flow_facts_computed",
            Counter::FlowFactsReused => "flow_facts_reused",
            Counter::FlowDirtyDefs => "flow_dirty_defs",
            Counter::FlowDeterminismSkips => "flow_determinism_skips",
            Counter::ViewNodesReused => "view_nodes_reused",
            Counter::ViewNodesRebuilt => "view_nodes_rebuilt",
            Counter::ViewArenaLive => "view_arena_live",
            Counter::MachineSteps => "machine_steps",
            Counter::MachineAllocs => "machine_allocs",
            Counter::MachineEnvReuse => "machine_env_reuse",
            Counter::ServeConns => "serve_conns",
            Counter::ServeConnsDropped => "serve_conns_dropped",
            Counter::ServeDrains => "serve_drains",
            Counter::SnapshotRecords => "snapshot_records",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::SnapshotsRestored => "snapshots_restored",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    Begin {
        /// The new span.
        id: SpanId,
        /// The enclosing open span, if any.
        parent: Option<SpanId>,
        /// The phase name (e.g. `"engine.collect"`).
        name: Cow<'static, str>,
        /// Clock reading at open.
        t_ns: u64,
    },
    /// A span closed.
    End {
        /// The span being closed.
        id: SpanId,
        /// Its phase name, repeated so sinks need no id → name map.
        name: Cow<'static, str>,
        /// Clock reading at close.
        t_ns: u64,
        /// `t_ns` minus the span's begin reading.
        dur_ns: u64,
    },
    /// A counter increment.
    Count {
        /// Which counter.
        counter: Counter,
        /// The amount added.
        delta: u64,
        /// The innermost open span when the count was recorded, if any.
        span: Option<SpanId>,
        /// Clock reading at record time.
        t_ns: u64,
    },
}

/// Appends `s` to `out` as a JSON string literal (deterministic escaping).
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_opt_span(out: &mut String, span: Option<SpanId>) {
    match span {
        Some(s) => out.push_str(&s.0.to_string()),
        None => out.push_str("null"),
    }
}

impl Event {
    /// Appends this event's JSONL line (including the trailing newline) to
    /// `out`. Field order is fixed, so serialization is byte-deterministic.
    pub fn to_jsonl(&self, out: &mut String) {
        match self {
            Event::Begin {
                id,
                parent,
                name,
                t_ns,
            } => {
                out.push_str("{\"ev\":\"begin\",\"id\":");
                out.push_str(&id.0.to_string());
                out.push_str(",\"parent\":");
                push_opt_span(out, *parent);
                out.push_str(",\"name\":");
                json_string(out, name);
                out.push_str(",\"t\":");
                out.push_str(&t_ns.to_string());
                out.push_str("}\n");
            }
            Event::End {
                id,
                name,
                t_ns,
                dur_ns,
            } => {
                out.push_str("{\"ev\":\"end\",\"id\":");
                out.push_str(&id.0.to_string());
                out.push_str(",\"name\":");
                json_string(out, name);
                out.push_str(",\"t\":");
                out.push_str(&t_ns.to_string());
                out.push_str(",\"dur\":");
                out.push_str(&dur_ns.to_string());
                out.push_str("}\n");
            }
            Event::Count {
                counter,
                delta,
                span,
                t_ns,
            } => {
                out.push_str("{\"ev\":\"count\",\"counter\":");
                json_string(out, counter.as_str());
                out.push_str(",\"delta\":");
                out.push_str(&delta.to_string());
                out.push_str(",\"span\":");
                push_opt_span(out, *span);
                out.push_str(",\"t\":");
                out.push_str(&t_ns.to_string());
                out.push_str("}\n");
            }
        }
    }
}

/// Renders an event stream as indented text, one line per event — the
/// human-readable form behind `hazel trace --text`.
pub fn render_events(events: &[Event]) -> String {
    let mut out = String::new();
    let mut depth: usize = 0;
    for event in events {
        match event {
            Event::Begin { id, name, .. } => {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("▶ {name} {id}\n"));
                depth += 1;
            }
            Event::End { name, dur_ns, .. } => {
                depth = depth.saturating_sub(1);
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("◀ {name} ({})\n", crate::sink::fmt_ns(*dur_ns)));
            }
            Event::Count { counter, delta, .. } => {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("+ {counter} += {delta}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_order_is_fixed() {
        let mut out = String::new();
        Event::Begin {
            id: SpanId(1),
            parent: None,
            name: Cow::Borrowed("parse"),
            t_ns: 7,
        }
        .to_jsonl(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"begin\",\"id\":1,\"parent\":null,\"name\":\"parse\",\"t\":7}\n"
        );
    }

    #[test]
    fn json_string_escapes_controls() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn counter_index_matches_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(Counter::as_str).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
