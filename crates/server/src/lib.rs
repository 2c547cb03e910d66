//! `livelit-server`: a headless, multi-session livelit document service.
//!
//! The paper's MVU-expand architecture is editor-independent: the engine
//! computes views, "the system performs a diff between the old and new
//! view in order to efficiently perform the necessary imperative updates
//! to the editor's visual state" (Sec. 3.2.4), and a host editor talks to
//! it as a service (Sec. 5.2). This crate is that serving front end: each
//! session owns a [`Document`] plus an [`IncrementalEngine`], requests
//! arrive as line-delimited JSON, and `render` replies carry
//! [`livelit_mvu::diff()`] patch scripts against the view the client last
//! acknowledged rather than whole view trees.
//!
//! # Wire protocol
//!
//! One JSON object per line in, one per line out, in order. Requests carry
//! an `"op"` and usually a `"session"`; an optional `"id"` is echoed
//! verbatim in the reply. Operations:
//!
//! | op | fields | effect |
//! |----|--------|--------|
//! | `open` | `session`, `source` \| `path` | open a module as a new session |
//! | `edit` | `session`, `edit` | apply an [`EditAction`] |
//! | `dispatch` | `session`, `hole`, `target`, `event`? | fire a handler in the acked view |
//! | `render` | `session` | run the engine, reply patches per hole |
//! | `analyze` | `session` | run the static analysis, reply diagnostic deltas |
//! | `stats` | `session`? | per-session or whole-server counters |
//! | `metrics` | `slow`? | observability snapshot: histograms, totals, per-session table, gauges |
//! | `watch` | `every` | push a totals-delta notification every N requests (`0` clears) |
//! | `shutdown` | | request a graceful drain: the transport stops accepting and exits |
//! | `close` | `session` | drop the session |
//!
//! `open` additionally accepts `"timings":true`, after which every reply
//! to that session carries a `timings` object (request id, wall time,
//! bytes in/out, per-phase breakdown). `metrics` accepts `"slow":true` to
//! dump the K worst requests per op. Neither is on by default, so default
//! transcripts are byte-identical with metrics on or off.
//!
//! The `edit.kind` values mirror [`EditAction`]: `fill_hole` (`at`,
//! `livelit`, `params`: surface-syntax strings), `dispatch` (`at`,
//! `action`: surface syntax, e.g. `"(.set 42)"`), `edit_splice` (`at`,
//! `splice`, `contents`), `select_closure` (`at`, `index`), `push_result`
//! (`at`, `value`).
//!
//! Replies are `{"ok":true,"op":…,…}` or
//! `{"ok":false,…,"error":{"kind":…,"message":…}}`. Error kinds: `parse`
//! (the line is not JSON), `protocol` (bad request shape or surface
//! syntax), `session` (unknown or duplicate session), `doc` (the editor
//! rejected the operation), `engine` (the pipeline failed), `panic` (a
//! request died mid-pipeline and was isolated), `transport` (the
//! connection itself misbehaved: over the line cap, over the connection
//! cap, idle past the timeout). A request never kills the process:
//! malformed input and mid-pipeline failures all produce structured
//! `error` replies, and each request runs under `catch_unwind`.
//!
//! Every request runs inside a `livelit_trace` span (`serve.<op>`) and
//! feeds the `Serve*` counters; per-session tallies are available via the
//! `stats` op.
//!
//! # Persistence
//!
//! With [`Server::enable_snapshots`] every session-addressed request is
//! appended to that session's replay journal (see [`snapshot`]) before
//! the reply ships, and restoring at startup replays the journals so
//! clients resume mid-session with byte-identical state. [`transport`]
//! serves the same protocol over TCP or Unix sockets with connection
//! caps, idle timeouts, and graceful drain.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hazel_editor::registry::LivelitRegistry;
use hazel_editor::{
    apply_action, open_module, Document, EditAction, IncrementalAnalyzer, IncrementalEngine,
};
use hazel_lang::elab::elab_syn;
use hazel_lang::eval::{eval_traced, DEFAULT_FUEL};
use hazel_lang::ident::{HoleName, LivelitName};
use hazel_lang::parse::{parse_uexp, MAX_DEPTH};
use hazel_lang::pretty::print_iexp;
use hazel_lang::typing::Ctx;
use hazel_lang::IExp;
use livelit_mvu::diff::{try_apply, Patch};
use livelit_mvu::html::Html;
use livelit_mvu::livelit::Action;
use livelit_mvu::splice::SpliceRef;
use livelit_trace::Counter;

pub mod json;
pub mod observe;
pub mod snapshot;
pub mod transport;
pub mod wire;

use json::{obj, str as jstr, uint, Json};
use livelit_trace::metrics::{HistogramSnapshot, Phase, PhaseTimes};
use observe::{ServeMetrics, OPS};

/// How a request failed, for the structured `error` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line is not valid JSON.
    Parse,
    /// The request is JSON but its shape (or an embedded surface-syntax
    /// field) is wrong.
    Protocol,
    /// The named session does not exist, or `open` would shadow one.
    Session,
    /// The editor layer rejected the operation (unknown livelit, bad
    /// action value, type error in a splice, …).
    Doc,
    /// The pipeline itself failed on an otherwise well-formed request.
    Engine,
    /// The request panicked mid-pipeline and was isolated.
    Panic,
    /// The connection itself misbehaved: a request line over the framing
    /// cap, a connection over the configured limit, or an idle timeout.
    Transport,
}

impl ErrorKind {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::Session => "session",
            ErrorKind::Doc => "doc",
            ErrorKind::Engine => "engine",
            ErrorKind::Panic => "panic",
            ErrorKind::Transport => "transport",
        }
    }
}

/// A failed request: the kind plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The error taxonomy bucket.
    pub kind: ErrorKind,
    /// What went wrong.
    pub message: String,
}

impl RequestError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
        }
    }
}

type RequestResult = Result<Json, RequestError>;

/// What [`Server::enable_snapshots`] found and restored on startup.
#[derive(Debug, Default)]
pub struct RestoreReport {
    /// Restored sessions with the number of journal records replayed.
    pub restored: Vec<(String, usize)>,
    /// Sessions whose journal lost a torn final record (crash
    /// mid-append); the intact prefix was restored.
    pub torn: Vec<String>,
    /// Journal files that could not be restored, as structured
    /// `session`-kind errors (bad magic, unknown version, corruption).
    pub failed: Vec<(String, RequestError)>,
}

/// Per-session serving tallies, reported by the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Requests addressed to this session.
    pub requests: u64,
    /// Of those, how many produced an `error` reply.
    pub errors: u64,
    /// Patch operations shipped by `render` replies.
    pub patches: u64,
    /// Bytes of view payload actually shipped (patch scripts, or full
    /// views where no acked view existed).
    pub patch_bytes: u64,
    /// Bytes the same renders would have cost as full view trees.
    pub full_bytes: u64,
}

impl SessionStats {
    fn merge(&mut self, other: &SessionStats) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.patches += other.patches;
        self.patch_bytes += other.patch_bytes;
        self.full_bytes += other.full_bytes;
    }
}

/// The view a client last received for one hole, stamped with the
/// retained-tree generation it corresponds to. `render` replies are
/// derived from the stamp: same generation as the retained snapshot →
/// empty patch list; exactly one diff behind → the stored patch script;
/// anything else → full tree.
struct AckedView {
    gen: u64,
    view: Arc<Html<Action>>,
    /// The length of `view`'s full JSON encoding, so a render whose view
    /// is still this `Arc` adds it to `full_bytes` without re-encoding.
    full_len: u64,
}

/// One open document session.
pub struct Session {
    registry: LivelitRegistry,
    doc: Document,
    engine: IncrementalEngine,
    /// The views computed by the most recent engine run (shared with the
    /// engine's retained snapshots).
    views: BTreeMap<HoleName, Arc<Html<Action>>>,
    /// The view the client last received per hole, with its generation
    /// stamp — what `render` replies are derived from.
    acked: BTreeMap<HoleName, AckedView>,
    /// The incremental static analyzer: per-invocation findings cached by
    /// `(name, model, splices)`, flow facts cached by hash-consed root.
    analyzer: IncrementalAnalyzer,
    /// The diagnostics the client last received — what `analyze` replies
    /// diff against, so each reply ships only the delta per edit.
    acked_diagnostics: Vec<livelit_analysis::Diagnostic>,
    stats: SessionStats,
    /// Whether replies to this session echo a `timings` breakdown
    /// (requested with `"timings":true` at `open`).
    echo_timings: bool,
}

/// Live `watch`-op state: how often to push a metrics delta, and the
/// totals at the last push.
struct WatchState {
    every: u64,
    seq: u64,
    since: u64,
    last: SessionStats,
}

/// Builds the livelit registry a fresh session starts from. The server
/// crate itself registers nothing — the host (e.g. the `hazel` CLI, which
/// preloads the standard livelit library) decides what is in scope.
pub type RegistryFactory = Arc<dyn Fn() -> LivelitRegistry + Send + Sync>;

/// The multi-session document server.
pub struct Server {
    sessions: BTreeMap<String, Session>,
    make_registry: RegistryFactory,
    /// Deterministic whole-server totals across every handled line —
    /// session-bound or not, open session or since closed. The `watch` op
    /// pushes deltas of these; the `metrics` op snapshots them.
    totals: SessionStats,
    /// Stats accumulated from sessions that have since closed, so global
    /// `stats` replies do not forget traffic when a session goes away.
    retired: SessionStats,
    retired_sessions: u64,
    /// Latency/attribution aggregate; `None` keeps request handling free
    /// of clocks entirely.
    metrics: Option<ServeMetrics>,
    watch: Option<WatchState>,
    /// `watch` notification lines waiting to be drained by the transport
    /// (see [`Server::take_notifications`]).
    pending: Vec<String>,
    next_req: u64,
    /// Replay journals per session (see [`snapshot`]); `None` disables
    /// persistence entirely.
    snapshots: Option<snapshot::SnapshotStore>,
    /// Restoring from journals: suppress re-journaling and metrics
    /// recording while the journaled lines replay.
    replaying: bool,
    /// A `shutdown` op asked the transport to drain (see
    /// [`Server::shutdown_requested`]).
    shutdown: bool,
    /// Kept by the socket transport that owns this server.
    conns: ConnTally,
}

/// Socket connections: open now, and accepted and closed early (over the
/// cap, idle, stalled or failed) since startup.
#[derive(Debug, Clone, Copy, Default)]
struct ConnTally {
    open: u64,
    accepted: u64,
    dropped: u64,
}

impl Server {
    /// A server whose sessions start from an empty registry.
    pub fn new() -> Server {
        Server::with_registry(Arc::new(LivelitRegistry::new) as RegistryFactory)
    }

    /// A server whose sessions start from `make_registry()`.
    pub fn with_registry(make_registry: RegistryFactory) -> Server {
        Server {
            sessions: BTreeMap::new(),
            make_registry,
            totals: SessionStats::default(),
            retired: SessionStats::default(),
            retired_sessions: 0,
            metrics: None,
            watch: None,
            pending: Vec::new(),
            next_req: 0,
            snapshots: None,
            replaying: false,
            shutdown: false,
            conns: ConnTally::default(),
        }
    }

    /// Attaches a metrics aggregate: every subsequent request is timed and
    /// recorded. Replies do not change shape — metrics reach clients only
    /// through the `metrics` op or a per-session `timings` opt-in.
    pub fn enable_metrics(&mut self, metrics: ServeMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached metrics aggregate, if any.
    pub fn metrics(&self) -> Option<&ServeMetrics> {
        self.metrics.as_ref()
    }

    /// Drains pending `watch` notification lines (in emission order). The
    /// transport writes these after the reply that triggered them.
    pub fn take_notifications(&mut self) -> Vec<String> {
        std::mem::take(&mut self.pending)
    }

    /// The number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether a `shutdown` op has asked the transport to drain. The
    /// transport (or stdio loop) polls this after each reply.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Enables crash-safe persistence under `dir` and restores every
    /// journaled session found there by replaying its request journal —
    /// the pipeline is deterministic, so the restored sessions carry the
    /// same documents, acked view generations, engine caches, and stats
    /// as the sessions the previous process held.
    ///
    /// Corrupt journals become structured `session`-kind errors in the
    /// report (and the file is left in place for forensics); a torn
    /// final record — a crash mid-append — is dropped and the intact
    /// prefix restored. Neither stops the remaining sessions from
    /// restoring, and neither panics.
    ///
    /// # Errors
    ///
    /// Only on filesystem errors creating or listing the snapshot
    /// directory itself.
    pub fn enable_snapshots(&mut self, dir: &std::path::Path) -> std::io::Result<RestoreReport> {
        let store = snapshot::SnapshotStore::open(dir)?;
        let mut report = RestoreReport::default();
        for path in store.journal_paths()? {
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            match snapshot::read_journal(&path) {
                Ok(journal) => {
                    let before: Vec<String> = self.sessions.keys().cloned().collect();
                    self.replaying = true;
                    for line in &journal.lines {
                        let _ = self.handle_line(line);
                    }
                    self.replaying = false;
                    let restored: Vec<String> = self
                        .sessions
                        .keys()
                        .filter(|name| !before.contains(name))
                        .cloned()
                        .collect();
                    for name in restored {
                        livelit_trace::count(Counter::SnapshotsRestored, 1);
                        if journal.torn_tail {
                            report.torn.push(name.clone());
                        }
                        report.restored.push((name, journal.lines.len()));
                    }
                }
                Err(e) => report.failed.push((
                    file.clone(),
                    RequestError::new(ErrorKind::Session, format!("snapshot {file}: {e}")),
                )),
            }
        }
        self.snapshots = Some(store);
        Ok(report)
    }

    /// Forces journaled bytes to stable storage — called by transports on
    /// interval and at drain. A no-op without snapshots.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `fsync` failure.
    pub fn sync_snapshots(&mut self) -> std::io::Result<()> {
        match self.snapshots.as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Appends a handled line to its session's replay journal, following
    /// the journaling rule: a line is journaled iff its `session` field
    /// names a session that exists *after* handling (so a successful
    /// `open` is journaled, error replies on live sessions are journaled
    /// — they mutate per-session stats — and requests for nonexistent
    /// sessions are not); a successful `close` deletes the journal.
    fn journal_line(&mut self, op: Option<&str>, session: Option<&str>, ok: bool, line: &str) {
        if self.replaying {
            return;
        }
        let Some(store) = self.snapshots.as_mut() else {
            return;
        };
        let Some(name) = session else { return };
        if op == Some("close") && ok {
            if let Err(e) = store.remove(name) {
                eprintln!("hazel serve: cannot remove journal for {name:?}: {e}");
            }
        } else if self.sessions.contains_key(name) {
            match store.append(name, line) {
                Ok(bytes) => {
                    livelit_trace::count(Counter::SnapshotRecords, 1);
                    livelit_trace::count(Counter::SnapshotBytes, bytes);
                }
                Err(e) => {
                    // Durability is gone for this request; say so loudly
                    // but keep serving — the in-memory session is intact.
                    eprintln!("hazel serve: journal append failed for {name:?}: {e}");
                }
            }
        }
    }

    /// Handles one request line, returning exactly one reply line (without
    /// the trailing newline). Never panics and never exits: malformed
    /// input, failing pipelines, and panicking requests all come back as
    /// structured `error` replies.
    pub fn handle_line(&mut self, line: &str) -> String {
        livelit_trace::count(Counter::ServeRequests, 1);
        self.next_req += 1;
        let req_no = self.next_req;
        // Replayed lines are not re-timed: restore must rebuild the
        // deterministic state without polluting latency histograms.
        let start = (!self.replaying)
            .then(|| self.metrics.as_ref().map(|_| std::time::Instant::now()))
            .flatten();
        let (reply, op, session) = self.reply_for_line(line);
        let ok = matches!(reply.get("ok"), Some(Json::Bool(true)));
        if !ok {
            livelit_trace::count(Counter::ServeErrors, 1);
            self.totals.errors += 1;
        }
        self.totals.requests += 1;
        // Journal before acknowledgment: the append reaches the OS before
        // this reply can reach any client, so an ack survives a killed
        // process (see `snapshot` for what it does not survive).
        self.journal_line(op.as_deref(), session.as_deref(), ok, line);
        let mut text = reply.to_string();
        if let (Some(metrics), Some(start)) = (self.metrics.as_ref(), start) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            // Non-zero only when a `MetricsSink` tracer bracketed this
            // request; otherwise attribution degrades to totals gracefully.
            let phases = metrics.hub().request_phases();
            metrics.record_request(
                op.as_deref(),
                req_no,
                dur_ns,
                line.len() as u64,
                text.len() as u64,
                ok,
                phases,
                line,
            );
            let echo = session
                .as_deref()
                .and_then(|name| self.sessions.get(name))
                .is_some_and(|s| s.echo_timings);
            if echo {
                text = attach_timings(
                    reply,
                    req_no,
                    dur_ns,
                    line.len() as u64,
                    text.len() as u64,
                    &phases,
                )
                .to_string();
            }
        }
        if let Some(note) = self.watch_note() {
            self.pending.push(note);
        }
        text
    }

    /// Advances the `watch` state by one handled request and builds the
    /// notification line when the period elapses.
    fn watch_note(&mut self) -> Option<String> {
        let watch = self.watch.as_mut()?;
        watch.since += 1;
        if watch.since < watch.every {
            return None;
        }
        watch.since = 0;
        watch.seq += 1;
        let now = self.totals;
        let last = watch.last;
        watch.last = now;
        let note = obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("watch")),
            ("notify", Json::Bool(true)),
            ("seq", uint(watch.seq)),
            ("every", uint(watch.every)),
            ("requests", uint(now.requests - last.requests)),
            ("errors", uint(now.errors - last.errors)),
            ("patches", uint(now.patches - last.patches)),
            ("patch_bytes", uint(now.patch_bytes - last.patch_bytes)),
            ("full_bytes", uint(now.full_bytes - last.full_bytes)),
        ]);
        Some(note.to_string())
    }

    fn reply_for_line(&mut self, line: &str) -> (Json, Option<String>, Option<String>) {
        let req = match json::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let reply = error_reply(
                    None,
                    None,
                    &RequestError::new(ErrorKind::Parse, e.to_string()),
                );
                return (reply, None, None);
            }
        };
        let op = req.get("op").and_then(Json::as_str).map(str::to_owned);
        let id = req.get("id").cloned();
        let _span = match op.as_deref() {
            Some(op) => livelit_trace::span_prefixed("serve.", op),
            None => livelit_trace::span("serve.invalid"),
        };
        let session = req.get("session").and_then(Json::as_str).map(str::to_owned);
        if let Some(name) = session.as_deref() {
            if let Some(s) = self.sessions.get_mut(name) {
                s.stats.requests += 1;
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.handle_request(&req, op.as_deref())
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "request panicked".to_owned());
                Err(RequestError::new(
                    ErrorKind::Panic,
                    format!("request panicked: {message}"),
                ))
            }
        };
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                if let Some(s) = session.as_deref().and_then(|n| self.sessions.get_mut(n)) {
                    s.stats.errors += 1;
                }
                error_reply(op.as_deref(), id.as_ref(), &e)
            }
        };
        (reply, op, session)
    }

    fn handle_request(&mut self, req: &Json, op: Option<&str>) -> RequestResult {
        if !matches!(req, Json::Obj(_)) {
            return Err(RequestError::new(
                ErrorKind::Protocol,
                "request must be a JSON object",
            ));
        }
        let id = req.get("id").cloned();
        let reply = match op {
            Some("open") => self.op_open(req)?,
            Some("edit") => self.op_edit(req)?,
            Some("dispatch") => self.op_dispatch(req)?,
            Some("render") => self.op_render(req)?,
            Some("analyze") => self.op_analyze(req)?,
            Some("stats") => self.op_stats(req)?,
            Some("metrics") => self.op_metrics(req)?,
            Some("watch") => self.op_watch(req)?,
            Some("shutdown") => self.op_shutdown()?,
            Some("close") => self.op_close(req)?,
            Some(other) => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    format!("unknown op {other:?}"),
                ))
            }
            None => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    "missing \"op\" field",
                ))
            }
        };
        Ok(finish_reply(reply, id))
    }

    fn session_name(req: &Json) -> Result<&str, RequestError> {
        req.get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Protocol, "missing \"session\" field"))
    }

    fn session_mut(&mut self, req: &Json) -> Result<&mut Session, RequestError> {
        let name = Server::session_name(req)?;
        self.sessions.get_mut(name).ok_or_else(|| {
            RequestError::new(ErrorKind::Session, format!("unknown session {name:?}"))
        })
    }

    fn op_open(&mut self, req: &Json) -> RequestResult {
        let name = Server::session_name(req)?;
        if self.sessions.contains_key(name) {
            return Err(RequestError::new(
                ErrorKind::Session,
                format!("session {name:?} is already open"),
            ));
        }
        let source = match (req.get("source"), req.get("path")) {
            (Some(Json::Str(src)), _) => src.clone(),
            (None, Some(Json::Str(path))) => std::fs::read_to_string(path).map_err(|e| {
                RequestError::new(ErrorKind::Protocol, format!("cannot read {path:?}: {e}"))
            })?,
            _ => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    "open needs a \"source\" or \"path\" string",
                ))
            }
        };
        let echo_timings = matches!(req.get("timings"), Some(Json::Bool(true)));
        let registry = (self.make_registry)();
        let (registry, doc) = open_module(registry, &source)
            .map_err(|e| RequestError::new(ErrorKind::Doc, e.to_string()))?;
        within_depth_bound(&doc)?;
        let mut engine = IncrementalEngine::new();
        let views = engine
            .run(&registry, &doc)
            .map_err(|e| RequestError::new(ErrorKind::Engine, e.to_string()))?
            .views
            .clone();
        let holes = doc.livelit_holes();
        self.sessions.insert(
            name.to_owned(),
            Session {
                registry,
                doc,
                engine,
                views,
                acked: BTreeMap::new(),
                analyzer: IncrementalAnalyzer::new(),
                acked_diagnostics: Vec::new(),
                stats: SessionStats {
                    requests: 1,
                    ..SessionStats::default()
                },
                echo_timings,
            },
        );
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("open")),
            ("session", jstr(name)),
            (
                "holes",
                Json::Arr(holes.iter().map(|u| uint(u.0)).collect()),
            ),
        ]))
    }

    fn op_edit(&mut self, req: &Json) -> RequestResult {
        let session = self.session_mut(req)?;
        let edit = req
            .get("edit")
            .ok_or_else(|| RequestError::new(ErrorKind::Protocol, "missing \"edit\" object"))?;
        let action = parse_edit(edit, &session.registry)?;
        // An edit that inserts code from the request could nest the
        // document past the bound; it applies to a copy, so a refused one
        // leaves the session unchanged.
        let inserts_code = matches!(
            action,
            EditAction::EditSplice { .. } | EditAction::FillHole { .. }
        );
        let mut copy = inserts_code.then(|| session.doc.clone());
        apply_action(
            &session.registry,
            copy.as_mut().unwrap_or(&mut session.doc),
            &action,
        )
        .map_err(|e| RequestError::new(ErrorKind::Doc, e.to_string()))?;
        if let Some(doc) = copy {
            within_depth_bound(&doc)?;
            session.doc = doc;
        }
        Ok(obj([("ok", Json::Bool(true)), ("op", jstr("edit"))]))
    }

    fn op_dispatch(&mut self, req: &Json) -> RequestResult {
        let session = self.session_mut(req)?;
        let hole = field_hole(req, "hole")?;
        let target = req
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::new(ErrorKind::Protocol, "missing \"target\" string"))?;
        let event = match req.get("event") {
            None => livelit_mvu::html::EventKind::Click,
            Some(Json::Str(name)) => wire::parse_event(name).ok_or_else(|| {
                RequestError::new(ErrorKind::Protocol, format!("unknown event {name:?}"))
            })?,
            Some(_) => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    "\"event\" must be a string",
                ))
            }
        };
        // The client interacts with what it sees: the acked view when one
        // has shipped, else the view computed at open.
        let view = session
            .acked
            .get(&hole)
            .map(|acked| &acked.view)
            .or_else(|| session.views.get(&hole))
            .ok_or_else(|| {
                RequestError::new(ErrorKind::Doc, format!("no view for hole {}", hole.0))
            })?;
        let action = view.find_handler(target, event).cloned().ok_or_else(|| {
            RequestError::new(
                ErrorKind::Doc,
                format!(
                    "no {} handler with id {target:?} in hole {}",
                    wire::event_name(event),
                    hole.0
                ),
            )
        })?;
        session
            .doc
            .dispatch(hole, &action)
            .map_err(|e| RequestError::new(ErrorKind::Doc, e.to_string()))?;
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("dispatch")),
            ("action", jstr(wire::action_text(&action))),
        ]))
    }

    fn op_render(&mut self, req: &Json) -> RequestResult {
        let session = self.session_mut(req)?;
        let output = session
            .engine
            .run(&session.registry, &session.doc)
            .map_err(|e| RequestError::new(ErrorKind::Engine, e.to_string()))?;
        let views = output.views.clone();
        let result_text = print_iexp(&output.result, usize::MAX);
        let marked: Vec<String> = output
            .collection
            .errors
            .iter()
            .map(|e| e.error.to_string())
            .collect();
        let view_errors: Vec<(HoleName, String)> = output
            .view_errors
            .iter()
            .map(|(u, e)| (*u, e.to_string()))
            .collect();

        let mut view_payloads = Vec::new();
        let mut patches_shipped: u64 = 0;
        let mut shipped_bytes: u64 = 0;
        let mut full_bytes: u64 = 0;
        let empty_patches: Arc<Vec<Patch<Action>>> = Arc::new(Vec::new());
        for (hole, new_view) in &views {
            // Encode only a view that changed since the client acked it.
            let (full_json, full_len) = match session.acked.get(hole) {
                Some(acked) if Arc::ptr_eq(&acked.view, new_view) => (None, acked.full_len),
                _ => {
                    let json = wire::html_json(new_view);
                    let len = json.to_string().len() as u64;
                    (Some(json), len)
                }
            };
            full_bytes += full_len;
            // Generation protocol: the engine already diffed this hole's
            // view against its retained snapshot, so the reply is derived
            // from the acked generation stamp instead of diffing again.
            // Same generation → the client is current (empty patch list);
            // exactly one diff behind → ship the stored patch script,
            // which is `diff(acked, new)`; anything else — no ack yet, a
            // stale stamp, or a recreated hole — degrades to a full
            // render.
            let delta = session.engine.view_delta(*hole);
            let patched: Option<Arc<Vec<Patch<Action>>>> =
                match (session.acked.get(hole), delta.as_ref()) {
                    (Some(acked), Some(d)) if acked.gen == d.gen => {
                        Some(Arc::clone(&empty_patches))
                    }
                    (Some(acked), Some(d)) if acked.gen == d.prev_gen => {
                        Some(Arc::clone(&d.last_patches))
                    }
                    _ => None,
                };
            // The old rebuild-then-roll-forward validation survives as a
            // debug assertion (and as the `view_arena_props` oracle): the
            // shipped script must roll the acked view forward to the new
            // one.
            if cfg!(debug_assertions) {
                if let (Some(acked), Some(patches)) = (session.acked.get(hole), patched.as_ref()) {
                    let applied = try_apply(&acked.view, patches);
                    debug_assert!(
                        applied.as_ref() == Ok(&**new_view),
                        "generation protocol shipped a script that does not roll hole {} forward",
                        hole.0
                    );
                }
            }
            match patched {
                Some(patches) => {
                    let payload = Json::Arr(patches.iter().map(wire::patch_json).collect());
                    let payload_len = payload.to_string().len() as u64;
                    patches_shipped += patches.len() as u64;
                    shipped_bytes += payload_len;
                    view_payloads.push(obj([
                        ("hole", uint(hole.0)),
                        ("mode", jstr("patch")),
                        ("patches", payload),
                    ]));
                }
                None => {
                    shipped_bytes += full_len;
                    view_payloads.push(obj([
                        ("hole", uint(hole.0)),
                        ("mode", jstr("full")),
                        (
                            "view",
                            full_json.unwrap_or_else(|| wire::html_json(new_view)),
                        ),
                    ]));
                }
            }
            session.acked.insert(
                *hole,
                AckedView {
                    gen: delta.map(|d| d.gen).unwrap_or(0),
                    view: Arc::clone(new_view),
                    full_len,
                },
            );
        }
        // Holes that vanished (e.g. the invocation was edited away) drop
        // out of the acked state so a later reuse of the name re-ships.
        session.acked.retain(|hole, _| views.contains_key(hole));
        session.views = views;

        session.stats.patches += patches_shipped;
        session.stats.patch_bytes += shipped_bytes;
        session.stats.full_bytes += full_bytes;
        self.totals.patches += patches_shipped;
        self.totals.patch_bytes += shipped_bytes;
        self.totals.full_bytes += full_bytes;
        livelit_trace::count(Counter::ServePatches, patches_shipped);
        livelit_trace::count(Counter::ServePatchBytes, shipped_bytes);
        livelit_trace::count(Counter::ServeFullBytes, full_bytes);

        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("op", jstr("render")),
            ("result", jstr(result_text)),
            ("views", Json::Arr(view_payloads)),
        ];
        if !marked.is_empty() {
            fields.push((
                "errors",
                Json::Arr(marked.into_iter().map(Json::Str).collect()),
            ));
        }
        if !view_errors.is_empty() {
            fields.push((
                "view_errors",
                Json::Arr(
                    view_errors
                        .into_iter()
                        .map(|(u, e)| obj([("hole", uint(u.0)), ("error", jstr(e))]))
                        .collect(),
                ),
            ));
        }
        Ok(obj(fields))
    }

    fn op_analyze(&mut self, req: &Json) -> RequestResult {
        let session = self.session_mut(req)?;
        let report = session.analyzer.analyze(&session.registry, &session.doc);
        let current = report.diagnostics().to_vec();
        // The client holds the diagnostics it last received; ship only the
        // delta. Reports are sorted and deduplicated, so plain membership
        // tests against the acked snapshot give a stable diff.
        let added: Vec<Json> = current
            .iter()
            .filter(|d| !session.acked_diagnostics.contains(d))
            .map(diagnostic_json)
            .collect::<Result<_, _>>()?;
        let removed: Vec<Json> = session
            .acked_diagnostics
            .iter()
            .filter(|d| !current.contains(d))
            .map(diagnostic_json)
            .collect::<Result<_, _>>()?;
        session.acked_diagnostics = current;
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("analyze")),
            ("added", Json::Arr(added)),
            ("removed", Json::Arr(removed)),
            ("errors", uint(report.error_count() as u64)),
            (
                "warnings",
                uint(report.count(livelit_analysis::Severity::Warning) as u64),
            ),
            (
                "infos",
                uint(report.count(livelit_analysis::Severity::Info) as u64),
            ),
        ]))
    }

    fn op_stats(&mut self, req: &Json) -> RequestResult {
        let mut fields = vec![("ok", Json::Bool(true)), ("op", jstr("stats"))];
        // The open-session count only appears in the global scope: a
        // per-session reply depends only on that session's traffic.
        let stats = match req.get("session") {
            Some(Json::Str(name)) => {
                let session = self.sessions.get(name).ok_or_else(|| {
                    RequestError::new(ErrorKind::Session, format!("unknown session {name:?}"))
                })?;
                fields.push(("session", jstr(name)));
                session.stats
            }
            Some(other) if !matches!(other, Json::Null) => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    "\"session\" must be a string",
                ))
            }
            _ => {
                // Global scope: open sessions plus everything retired by
                // `close`, so totals never regress when a session goes
                // away.
                let mut total = self.retired;
                for session in self.sessions.values() {
                    total.merge(&session.stats);
                }
                fields.push(("session", Json::Null));
                fields.push(("sessions", uint(self.sessions.len())));
                fields.push(("closed_sessions", uint(self.retired_sessions)));
                total
            }
        };
        fields.extend([
            ("requests", uint(stats.requests)),
            ("errors", uint(stats.errors)),
            ("patches", uint(stats.patches)),
            ("patch_bytes", uint(stats.patch_bytes)),
            ("full_bytes", uint(stats.full_bytes)),
        ]);
        Ok(obj(fields))
    }

    /// `metrics`: a whole-server observability snapshot. The deterministic
    /// core (session table, request totals, retained view nodes) is always
    /// present; latency histograms, phase attribution, byte counts, and
    /// uptime appear when the host attached a [`ServeMetrics`]; passing
    /// `"slow":true` additionally dumps the slow-request ranking (with
    /// captured span trees when a tracer fed the capture).
    fn op_metrics(&mut self, req: &Json) -> RequestResult {
        let want_slow = matches!(req.get("slow"), Some(Json::Bool(true)));
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("op", jstr("metrics")),
            ("enabled", Json::Bool(self.metrics.is_some())),
            ("sessions", uint(self.sessions.len())),
            ("closed_sessions", uint(self.retired_sessions)),
            ("requests", uint(self.totals.requests)),
            ("errors", uint(self.totals.errors)),
            ("patches", uint(self.totals.patches)),
            ("patch_bytes", uint(self.totals.patch_bytes)),
            ("full_bytes", uint(self.totals.full_bytes)),
            (
                // A true gauge (not a counter total): view nodes currently
                // retained across every open session's snapshots.
                "view_arena_live",
                uint(
                    self.sessions
                        .values()
                        .map(|s| s.engine.retained_view_nodes())
                        .sum::<u64>(),
                ),
            ),
        ];
        let per_session: Vec<Json> = self
            .sessions
            .iter()
            .map(|(name, s)| {
                obj([
                    ("session", jstr(name.clone())),
                    ("requests", uint(s.stats.requests)),
                    ("errors", uint(s.stats.errors)),
                    ("patches", uint(s.stats.patches)),
                    ("patch_bytes", uint(s.stats.patch_bytes)),
                    ("full_bytes", uint(s.stats.full_bytes)),
                ])
            })
            .collect();
        fields.push(("per_session", Json::Arr(per_session)));

        if let Some(metrics) = self.metrics.as_ref() {
            fields.push(("uptime_ns", uint(metrics.uptime_ns())));
            fields.push(("bytes_in", uint(metrics.bytes_in())));
            fields.push(("bytes_out", uint(metrics.bytes_out())));
            fields.push(("conns_open", uint(self.conns.open)));
            fields.push(("conns_accepted", uint(self.conns.accepted)));
            fields.push(("conns_dropped", uint(self.conns.dropped)));
            let ops: Vec<Json> = OPS
                .iter()
                .enumerate()
                .filter_map(|(slot, name)| {
                    let snap = metrics.op_snapshot(slot);
                    if snap.is_empty() {
                        return None;
                    }
                    Some(histogram_json(name, "op", &snap))
                })
                .collect();
            fields.push(("ops", Json::Arr(ops)));
            let phases: Vec<Json> = Phase::ALL
                .iter()
                .filter_map(|&phase| {
                    let snap = metrics.hub().phase_snapshot(phase);
                    if snap.is_empty() {
                        return None;
                    }
                    Some(histogram_json(phase.as_str(), "phase", &snap))
                })
                .collect();
            fields.push(("phases", Json::Arr(phases)));
            let counters: Vec<(String, Json)> = Counter::ALL
                .iter()
                .filter_map(|&c| {
                    let total = metrics.hub().counter(c);
                    (total > 0).then(|| (c.as_str().to_owned(), uint(total)))
                })
                .collect();
            fields.push(("counters", Json::Obj(counters)));
            if want_slow {
                fields.push(("slow", slow_json(metrics)));
            }
        }
        Ok(obj(fields))
    }

    /// `watch`: sets (or with `"every":0` clears) the notification period.
    /// Once set, after every `every` handled requests the server queues one
    /// unsolicited line with the totals-delta since the previous push;
    /// the transport drains them with [`Server::take_notifications`].
    fn op_watch(&mut self, req: &Json) -> RequestResult {
        let every = match req.get("every") {
            Some(json) => json
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| {
                    RequestError::new(
                        ErrorKind::Protocol,
                        "\"every\" must be a non-negative integer",
                    )
                })?,
            None => {
                return Err(RequestError::new(
                    ErrorKind::Protocol,
                    "missing integer \"every\"",
                ))
            }
        };
        if every == 0 {
            self.watch = None;
        } else {
            self.watch = Some(WatchState {
                every,
                seq: 0,
                since: 0,
                last: self.totals,
            });
        }
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("watch")),
            ("every", uint(every)),
            ("watching", Json::Bool(every > 0)),
        ]))
    }

    /// `shutdown`: request a graceful drain. The reply still ships (and
    /// any journal append lands first); the transport then stops
    /// accepting, lets in-flight requests finish, syncs journals, and
    /// exits. Open sessions stay journaled for the next process.
    fn op_shutdown(&mut self) -> RequestResult {
        self.shutdown = true;
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("shutdown")),
            ("draining", Json::Bool(true)),
        ]))
    }

    fn op_close(&mut self, req: &Json) -> RequestResult {
        let name = Server::session_name(req)?;
        let Some(session) = self.sessions.remove(name) else {
            return Err(RequestError::new(
                ErrorKind::Session,
                format!("unknown session {name:?}"),
            ));
        };
        self.retired.merge(&session.stats);
        self.retired_sessions += 1;
        Ok(obj([
            ("ok", Json::Bool(true)),
            ("op", jstr("close")),
            ("session", jstr(name)),
        ]))
    }
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

/// A diagnostic as wire JSON — the same shape `Report::to_json` uses,
/// round-tripped through the server's own parser so it slots into a reply
/// object. The serializer is ours, so the parse *should* never fail — but
/// "should" is not a reason to panic the request loop: serialization
/// drift comes back as a structured `engine` error instead.
fn diagnostic_json(d: &livelit_analysis::Diagnostic) -> Result<Json, RequestError> {
    let mut out = String::new();
    livelit_analysis::diagnostic::json_diagnostic(&mut out, d);
    parse_diagnostic_json(&out)
}

/// The fallible half of [`diagnostic_json`], split out so the drift path
/// (unreachable through the real serializer) stays testable.
fn parse_diagnostic_json(serialized: &str) -> Result<Json, RequestError> {
    json::parse(serialized).map_err(|e| {
        RequestError::new(
            ErrorKind::Engine,
            format!("diagnostic serialization drifted from the wire parser: {e}"),
        )
    })
}

/// A histogram snapshot as a reply object, labeled `{key: name}`.
fn histogram_json(name: &str, key: &'static str, snap: &HistogramSnapshot) -> Json {
    obj([
        (key, jstr(name.to_owned())),
        ("count", uint(snap.count)),
        ("sum_ns", uint(snap.sum)),
        ("min_ns", uint(snap.min)),
        ("max_ns", uint(snap.max)),
        ("mean_ns", uint(snap.mean())),
        ("p50_ns", uint(snap.p50())),
        ("p90_ns", uint(snap.p90())),
        ("p99_ns", uint(snap.p99())),
    ])
}

/// A phase breakdown as a reply object (non-zero phases only).
fn phases_json(phases: &PhaseTimes) -> Json {
    Json::Obj(
        phases
            .iter()
            .filter(|&(_, ns)| ns > 0)
            .map(|(phase, ns)| (format!("{}_ns", phase.as_str()), uint(ns)))
            .collect(),
    )
}

/// The slow-request ranking as a reply array: per op, the worst entries
/// and (when a tracer fed the capture) their rendered span trees.
fn slow_json(metrics: &ServeMetrics) -> Json {
    let captured = metrics.capture().worst();
    let mut out = Vec::new();
    for (slot, ranked) in metrics.slow_entries().iter().enumerate() {
        if ranked.is_empty() {
            continue;
        }
        let entries: Vec<Json> = ranked
            .iter()
            .map(|e| {
                obj([
                    ("req", uint(e.req)),
                    ("dur_ns", uint(e.dur_ns)),
                    ("bytes_in", uint(e.bytes_in)),
                    ("bytes_out", uint(e.bytes_out)),
                    ("ok", Json::Bool(e.ok)),
                    ("phases", phases_json(&e.phases)),
                    ("request", jstr(e.line.clone())),
                ])
            })
            .collect();
        let mut fields = vec![("op", jstr(OPS[slot])), ("entries", Json::Arr(entries))];
        let bracket = format!("serve.{}", OPS[slot]);
        if let Some(traces) = captured.get(&bracket) {
            fields.push((
                "traces",
                Json::Arr(
                    traces
                        .iter()
                        .map(|t| jstr(livelit_trace::render_events(&t.events)))
                        .collect(),
                ),
            ));
        }
        out.push(obj(fields));
    }
    Json::Arr(out)
}

/// Appends the opt-in `timings` breakdown to a reply object.
fn attach_timings(
    reply: Json,
    req: u64,
    dur_ns: u64,
    bytes_in: u64,
    bytes_out: u64,
    phases: &PhaseTimes,
) -> Json {
    let timings = obj([
        ("req", uint(req)),
        ("total_ns", uint(dur_ns)),
        ("bytes_in", uint(bytes_in)),
        ("bytes_out", uint(bytes_out)),
        ("phases", phases_json(phases)),
    ]);
    match reply {
        Json::Obj(mut fields) => {
            fields.push(("timings".to_owned(), timings));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Appends the echoed `id` (if the request carried one) to a reply.
fn finish_reply(reply: Json, id: Option<Json>) -> Json {
    match (reply, id) {
        (Json::Obj(mut fields), Some(id)) => {
            fields.insert(1, ("id".to_owned(), id));
            Json::Obj(fields)
        }
        (reply, _) => reply,
    }
}

fn error_reply(op: Option<&str>, id: Option<&Json>, error: &RequestError) -> Json {
    let mut fields = vec![("ok".to_owned(), Json::Bool(false))];
    if let Some(id) = id {
        fields.push(("id".to_owned(), id.clone()));
    }
    if let Some(op) = op {
        fields.push(("op".to_owned(), Json::Str(op.to_owned())));
    }
    fields.push((
        "error".to_owned(),
        obj([
            ("kind", jstr(error.kind.as_str())),
            ("message", jstr(error.message.clone())),
        ]),
    ));
    Json::Obj(fields)
}

fn field_hole(req: &Json, key: &'static str) -> Result<HoleName, RequestError> {
    let n = req.get(key).and_then(Json::as_int).ok_or_else(|| {
        RequestError::new(ErrorKind::Protocol, format!("missing integer {key:?}"))
    })?;
    u64::try_from(n).map(HoleName).map_err(|_| {
        RequestError::new(ErrorKind::Protocol, format!("{key:?} must be non-negative"))
    })
}

fn edit_field_hole(edit: &Json) -> Result<HoleName, RequestError> {
    field_hole(edit, "at")
}

fn edit_field_str<'a>(edit: &'a Json, key: &'static str) -> Result<&'a str, RequestError> {
    edit.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::new(ErrorKind::Protocol, format!("missing string {key:?}")))
}

/// Refuses a document that nests deeper than [`MAX_DEPTH`]: every pass
/// over it recurses, and the serving thread's stack is sized for the
/// bound.
fn within_depth_bound(doc: &Document) -> Result<(), RequestError> {
    let depth = doc.depth();
    if depth > MAX_DEPTH {
        return Err(RequestError::new(
            ErrorKind::Doc,
            format!("document nests {depth} levels deep, over the bound of {MAX_DEPTH}"),
        ));
    }
    Ok(())
}

fn parse_uexp_field(src: &str, what: &str) -> Result<hazel_lang::unexpanded::UExp, RequestError> {
    parse_uexp(src)
        .map_err(|e| RequestError::new(ErrorKind::Protocol, format!("bad {what} {src:?}: {e}")))
}

/// Evaluates a surface-syntax expression to an object-language value — how
/// action and result values cross the wire (models and actions are
/// object-language values, so they serialize as source text).
fn eval_value(registry: &LivelitRegistry, src: &str, what: &str) -> Result<IExp, RequestError> {
    let uexp = parse_uexp_field(src, what)?;
    let expanded = livelit_core::expansion::expand(&registry.phi(), &uexp)
        .map_err(|e| RequestError::new(ErrorKind::Doc, format!("bad {what}: {e}")))?;
    let (d, _, _) = elab_syn(&Ctx::empty(), &expanded)
        .map_err(|e| RequestError::new(ErrorKind::Doc, format!("bad {what}: {e}")))?;
    eval_traced(&d, DEFAULT_FUEL)
        .map_err(|e| RequestError::new(ErrorKind::Doc, format!("bad {what}: {e}")))
}

fn parse_edit(edit: &Json, registry: &LivelitRegistry) -> Result<EditAction, RequestError> {
    let kind = edit_field_str(edit, "kind")?;
    match kind {
        "fill_hole" => {
            let at = edit_field_hole(edit)?;
            let livelit = LivelitName::new(edit_field_str(edit, "livelit")?);
            let params = match edit.get("params") {
                None => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .ok_or_else(|| {
                                RequestError::new(
                                    ErrorKind::Protocol,
                                    "\"params\" must be an array of strings",
                                )
                            })
                            .and_then(|src| parse_uexp_field(src, "param"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => {
                    return Err(RequestError::new(
                        ErrorKind::Protocol,
                        "\"params\" must be an array of strings",
                    ))
                }
            };
            Ok(EditAction::FillHole {
                at,
                livelit,
                params,
            })
        }
        "dispatch" => Ok(EditAction::Dispatch {
            at: edit_field_hole(edit)?,
            action: eval_value(registry, edit_field_str(edit, "action")?, "action")?,
        }),
        "edit_splice" => {
            let at = edit_field_hole(edit)?;
            let splice = edit.get("splice").and_then(Json::as_int).ok_or_else(|| {
                RequestError::new(ErrorKind::Protocol, "missing integer \"splice\"")
            })?;
            let splice = u64::try_from(splice).map(SpliceRef).map_err(|_| {
                RequestError::new(ErrorKind::Protocol, "\"splice\" must be non-negative")
            })?;
            Ok(EditAction::EditSplice {
                at,
                splice,
                contents: parse_uexp_field(edit_field_str(edit, "contents")?, "contents")?,
            })
        }
        "select_closure" => {
            let index = edit.get("index").and_then(Json::as_int).ok_or_else(|| {
                RequestError::new(ErrorKind::Protocol, "missing integer \"index\"")
            })?;
            let index = usize::try_from(index).map_err(|_| {
                RequestError::new(ErrorKind::Protocol, "\"index\" must be non-negative")
            })?;
            Ok(EditAction::SelectClosure {
                at: edit_field_hole(edit)?,
                index,
            })
        }
        "push_result" => Ok(EditAction::PushResult {
            at: edit_field_hole(edit)?,
            value: eval_value(registry, edit_field_str(edit, "value")?, "value")?,
        }),
        other => Err(RequestError::new(
            ErrorKind::Protocol,
            format!("unknown edit kind {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a diagnostic whose serialization the wire parser
    /// rejects used to `expect`-panic the request loop; now it is a
    /// structured `engine` error.
    #[test]
    fn diagnostic_serialization_drift_is_an_engine_error_not_a_panic() {
        for drifted in [
            "{\"code\": \"LL0001\"",
            "",
            "not json at all",
            "{\"a\":\x01}",
        ] {
            let err = parse_diagnostic_json(drifted).expect_err("drifted bytes must not parse");
            assert_eq!(err.kind, ErrorKind::Engine, "for {drifted:?}");
            assert!(err.message.contains("diagnostic serialization drifted"));
        }
    }

    /// The real serializer round-trips even hostile message content, so
    /// the drift path stays unreachable in practice.
    #[test]
    fn real_diagnostics_round_trip_through_the_wire_parser() {
        use livelit_analysis::diagnostic::{Code, Location, Severity};
        let nasty = livelit_analysis::Diagnostic::new(
            Code::UnboundLivelit,
            Severity::Error,
            Location::Program,
            "quotes \" backslash \\ newline \n tab \t del \u{7f} emoji 😀",
        )
        .with_note("note with \r and \u{1} control bytes");
        let json = diagnostic_json(&nasty).expect("round-trips");
        assert_eq!(
            json.get("message").and_then(Json::as_str),
            Some("quotes \" backslash \\ newline \n tab \t del \u{7f} emoji 😀")
        );
    }

    #[test]
    fn shutdown_op_sets_the_drain_flag_and_replies() {
        let mut server = Server::new();
        assert!(!server.shutdown_requested());
        let reply = server.handle_line("{\"id\":7,\"op\":\"shutdown\"}");
        assert_eq!(
            reply,
            "{\"ok\":true,\"id\":7,\"op\":\"shutdown\",\"draining\":true}"
        );
        assert!(server.shutdown_requested());
    }
}
