//! `hazel`: the livelit toolchain driver.
//!
//! ```console
//! $ hazel analyze program.hzl          # diagnostics as JSON (stable codes)
//! $ hazel analyze --text program.hzl   # human-readable diagnostics
//! $ hazel analyze --format sarif program.hzl  # SARIF 2.1.0 for code scanning
//! $ hazel trace program.hzl            # structured trace of the pipeline (JSONL)
//! $ hazel trace --text program.hzl     # the same trace as an indented tree
//! $ hazel stats program.hzl            # per-phase timings and counter totals
//! $ hazel serve --stdio                # multi-session document server (JSON lines)
//! $ hazel serve --listen 127.0.0.1:7878 --snapshot-dir state/
//!                                      # the same server over TCP, sessions
//!                                      # journaled and restored across restarts
//! $ hazel serve --uds /tmp/hazel.sock  # ... or over a Unix-domain socket
//! $ hazel codes                        # the LL lint-code table
//! ```
//!
//! `analyze` loads a module file exactly as the editor would (standard
//! livelit library preloaded, textual livelit declarations registered
//! behind the generic GUI) and runs the full static analysis over it:
//! hygiene/capture validation, splice discipline, the hole audit,
//! definition lints, expansion determinism (statically discharged where
//! purity is provable), and the dataflow passes (liveness/reachability,
//! purity, hole-context facts). The JSON output is deterministic — same
//! module, same bytes — so it can be diffed and asserted on in CI;
//! `--format sarif` emits the same findings as a SARIF 2.1.0 log for
//! code-scanning UIs.
//!
//! `serve` speaks the `livelit-server` wire protocol over stdin/stdout:
//! one JSON request per line in, one JSON reply per line out, documents
//! opened as multi-request sessions, `render` replies shipping view-diff
//! patch scripts instead of full view trees. Malformed or failing
//! requests produce structured `error` replies; the process never exits
//! on bad input.
//!
//! `trace` runs the whole live pipeline — parse, expand, closure-collect,
//! fill-and-resume, view computation, static analysis — under an installed
//! tracer and prints the event stream. It uses the deterministic test
//! clock, so the JSONL output is byte-identical across runs of the same
//! module: same module, same bytes, diffable in CI. `stats` runs the same
//! pipeline under the real monotonic clock and prints the per-phase
//! duration table and counter totals (wall times vary; `--json` keys do
//! not).
//!
//! Exit status: 0 when no error-severity diagnostics were found (for
//! `trace`/`stats`: when the pipeline ran), 1 when some were (pipeline
//! failed), 2 on usage or load errors.

use std::io::Write;
use std::process::ExitCode;

use std::sync::Arc;

use hazel::analysis::{json_string, Code};
use hazel::prelude::*;
use hazel::trace::metrics::{write_prom_histogram, MetricsHub, MetricsSink, Phase};
use hazel::trace::{fmt_ns, render_events, Counter, PairSink, RingSink, StatsSink, Tracer};

/// Prints to stdout, tolerating a closed pipe (`hazel codes | head`).
fn emit(s: &str) {
    let _ = std::io::stdout().write_all(s.as_bytes());
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hazel <command> [options]\n\n\
         commands:\n  \
         analyze [--format json|text|sarif] <file.hzl>\n                                \
         run static diagnostics over a module\n  \
         trace [--json|--text] <file.hzl>\n                                \
         trace the pipeline (deterministic JSONL, or an indented tree)\n  \
         stats [--json] <file.hzl>     per-phase timings and counter totals\n  \
         metrics [--format text|prom] <file.hzl>\n                                \
         per-phase latency histograms (p50/p90/p99) as a\n                                \
         table or Prometheus exposition format\n  \
         serve (--stdio | --listen ADDR | --uds PATH) [--snapshot-dir DIR]\n        \
         [--max-conns N] [--idle-timeout SECS] [--no-metrics]\n        \
         [--metrics-interval SECS]\n                                \
         serve documents over a JSON-lines protocol — on\n                                \
         stdio, a TCP address, or a Unix socket; with\n                                \
         --snapshot-dir, sessions are journaled and restored\n                                \
         across restarts\n  \
         codes                         list every lint code"
    );
    ExitCode::from(2)
}

/// Parses a `[--json|--text] <file.hzl>` argument list. Returns
/// `(text_mode, path)`.
fn parse_output_args(args: &[String]) -> Option<(bool, String)> {
    let mut text = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--text" => text = true,
            "--json" => text = false,
            _ if arg.starts_with('-') => return None,
            _ => path = Some(arg.clone()),
        }
    }
    Some((text, path?))
}

/// Loads a module file as the editor would, then runs the full live
/// pipeline (engine + static analysis) with whatever tracer the caller has
/// installed. Returns `Err` with the exit code on failure.
fn run_pipeline(path: &str) -> Result<(), ExitCode> {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("hazel: cannot read {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, doc) = match hazel::editor::open_module(registry, &src) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("hazel: {path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    if let Err(e) = hazel::editor::run(&registry, &doc) {
        eprintln!("hazel: {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    let _report = hazel::editor::analyze_document(&registry, &doc);
    Ok(())
}

/// Ring capacity for `hazel trace`: enough for any realistic module; the
/// oldest events are dropped beyond it rather than growing without bound.
const TRACE_CAPACITY: usize = 1 << 20;

fn trace(args: &[String]) -> ExitCode {
    let Some((text, path)) = parse_output_args(args) else {
        return usage();
    };
    let sink = RingSink::new(TRACE_CAPACITY);
    // The deterministic clock makes the serialized trace byte-identical
    // across runs: timestamps advance by a fixed tick per clock query.
    let tracer = Tracer::deterministic(sink.clone());
    let result = {
        let _guard = hazel::trace::install(&tracer);
        run_pipeline(&path)
    };
    if let Err(code) = result {
        return code;
    }
    let events = sink.events();
    if text {
        emit(&render_events(&events));
    } else {
        let mut out = String::new();
        for event in &events {
            event.to_jsonl(&mut out);
        }
        emit(&out);
    }
    ExitCode::SUCCESS
}

fn stats(args: &[String]) -> ExitCode {
    let Some((_, path)) = parse_output_args(args) else {
        return usage();
    };
    // `stats` defaults to the text table; `--json` opts into JSON.
    let json = args.iter().any(|a| a == "--json");
    let sink = StatsSink::new();
    let tracer = Tracer::monotonic(sink.clone());
    let result = {
        let _guard = hazel::trace::install(&tracer);
        run_pipeline(&path)
    };
    if let Err(code) = result {
        return code;
    }
    let stats = sink.snapshot();
    if json {
        emit(&stats.to_json());
    } else {
        emit(&stats.render());
    }
    ExitCode::SUCCESS
}

/// `hazel metrics [--format text|prom] <file.hzl>`: runs the pipeline
/// under a [`MetricsSink`] and renders the per-phase latency histograms —
/// as an aligned table, or in Prometheus exposition format for scraping.
fn metrics_cmd(args: &[String]) -> ExitCode {
    let mut prom = false;
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => prom = false,
                Some("prom") => prom = true,
                _ => {
                    eprintln!("hazel: --format needs one of: text, prom");
                    return ExitCode::from(2);
                }
            },
            _ if arg.starts_with('-') => return usage(),
            _ => path = Some(arg.clone()),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let hub = Arc::new(MetricsHub::new());
    let tracer = Tracer::monotonic(MetricsSink::new(Arc::clone(&hub)));
    let result = {
        let _guard = hazel::trace::install(&tracer);
        run_pipeline(&path)
    };
    if let Err(code) = result {
        return code;
    }
    if prom {
        let mut out = String::from("# TYPE livelit_phase_latency_ns histogram\n");
        for &phase in &Phase::ALL {
            let snap = hub.phase_snapshot(phase);
            if snap.is_empty() {
                continue;
            }
            let labels = format!("phase=\"{}\"", phase.as_str());
            write_prom_histogram(&mut out, "livelit_phase_latency_ns", &labels, &snap);
        }
        out.push_str("# TYPE livelit_counter_total counter\n");
        for &c in &Counter::ALL {
            let total = hub.counter(c);
            if total > 0 {
                out.push_str(&format!(
                    "livelit_counter_total{{counter=\"{}\"}} {total}\n",
                    c.as_str()
                ));
            }
        }
        emit(&out);
    } else {
        let mut out = format!(
            "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "phase", "count", "p50", "p90", "p99", "max"
        );
        for &phase in &Phase::ALL {
            let snap = hub.phase_snapshot(phase);
            if snap.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                phase.as_str(),
                snap.count,
                fmt_ns(snap.p50()),
                fmt_ns(snap.p90()),
                fmt_ns(snap.p99()),
                fmt_ns(snap.max),
            ));
        }
        let mut counters = String::new();
        for &c in &Counter::ALL {
            let total = hub.counter(c);
            if total > 0 {
                counters.push_str(&format!("{:<28} {:>10}\n", c.as_str(), total));
            }
        }
        if !counters.is_empty() {
            out.push_str(&format!("\n{:<28} {:>10}\n", "counter", "total"));
            out.push_str(&counters);
        }
        emit(&out);
    }
    ExitCode::SUCCESS
}

/// The output encodings `hazel analyze` can produce.
enum AnalyzeFormat {
    Json,
    Text,
    Sarif,
}

fn analyze(args: &[String]) -> ExitCode {
    let mut format = AnalyzeFormat::Json;
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--text" => format = AnalyzeFormat::Text,
            "--json" => format = AnalyzeFormat::Json,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format = AnalyzeFormat::Json,
                Some("text") => format = AnalyzeFormat::Text,
                Some("sarif") => format = AnalyzeFormat::Sarif,
                _ => {
                    eprintln!("hazel: --format needs one of: json, text, sarif");
                    return ExitCode::from(2);
                }
            },
            _ if arg.starts_with('-') => return usage(),
            _ => path = Some(arg.clone()),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("hazel: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    let (registry, doc) = match hazel::editor::open_module(registry, &src) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("hazel: {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let report = hazel::editor::analyze_document(&registry, &doc);
    match format {
        AnalyzeFormat::Text => emit(&report.render()),
        AnalyzeFormat::Json => emit(&report.to_json()),
        AnalyzeFormat::Sarif => emit(&hazel::analysis::sarif::to_sarif(&report)),
    }
    if report.error_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// How many worst requests per op the serve slow-ranking keeps.
const SERVE_SLOW_K: usize = 4;
/// Event buffer cap per captured slow-request span tree.
const SERVE_CAPTURE_EVENTS: usize = 4096;

/// `hazel serve (--stdio | --listen ADDR | --uds PATH) [--snapshot-dir
/// DIR] [--max-conns N] [--idle-timeout SECS] [--no-metrics]
/// [--metrics-interval SECS]`: the headless document server. One JSON
/// request per line in, one JSON reply per line out, in order; on stdio
/// the reply stream is byte-deterministic.
///
/// `--listen ADDR` serves TCP (e.g. `127.0.0.1:7878`), `--uds PATH` a
/// Unix-domain socket; both run the production transport — connection
/// cap (`--max-conns`, default 1024), idle timeout (`--idle-timeout`,
/// default 300s), write backpressure, and graceful drain on SIGTERM,
/// SIGINT, or a `shutdown` op.
///
/// `--snapshot-dir DIR` makes sessions crash-safe: every acked
/// session-mutating request is journaled to `DIR` before its reply
/// ships, and a restarted server replays the journals so clients resume
/// mid-session.
///
/// Metrics are on by default: requests are timed into per-op histograms,
/// the `metrics`/`watch` ops serve live snapshots, and a shutdown summary
/// (plus the slow-request ranking) lands on stderr. A `MetricsSink`
/// tracer additionally attributes time to pipeline phases and captures
/// span trees for the slowest requests. Replies never
/// change shape — transcripts are byte-identical with `--no-metrics`.
/// `--metrics-interval SECS` prints a one-line summary to stderr every
/// SECS seconds.
fn serve(args: &[String]) -> ExitCode {
    use hazel::server::transport::{self, serve_line, transport_error_line, TransportConfig};
    use hazel::server::wire::{FrameError, LineReader};

    let mut stdio = false;
    let mut listen: Option<String> = None;
    let mut uds: Option<String> = None;
    let mut snapshot_dir: Option<String> = None;
    let mut metrics_on = true;
    let mut interval: Option<u64> = None;
    let mut config = TransportConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("hazel: --listen needs an address, e.g. 127.0.0.1:7878");
                    return ExitCode::from(2);
                }
            },
            "--uds" => match it.next() {
                Some(path) => uds = Some(path.clone()),
                None => {
                    eprintln!("hazel: --uds needs a socket path");
                    return ExitCode::from(2);
                }
            },
            "--snapshot-dir" => match it.next() {
                Some(dir) => snapshot_dir = Some(dir.clone()),
                None => {
                    eprintln!("hazel: --snapshot-dir needs a directory path");
                    return ExitCode::from(2);
                }
            },
            "--max-conns" => {
                let parsed = it.next().and_then(|n| n.parse::<usize>().ok());
                match parsed.filter(|&n| n >= 1) {
                    Some(n) => config.max_conns = n,
                    None => {
                        eprintln!("hazel: --max-conns needs an integer >= 1");
                        return ExitCode::from(2);
                    }
                }
            }
            "--idle-timeout" => {
                let parsed = it.next().and_then(|s| s.parse::<u64>().ok());
                match parsed.filter(|&s| s >= 1) {
                    Some(s) => config.idle_timeout = std::time::Duration::from_secs(s),
                    None => {
                        eprintln!("hazel: --idle-timeout needs an integer >= 1 (seconds)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--no-metrics" => metrics_on = false,
            "--metrics-interval" => {
                let parsed = it.next().and_then(|s| s.parse::<u64>().ok());
                match parsed.filter(|&s| s >= 1) {
                    Some(s) => interval = Some(s),
                    None => {
                        eprintln!("hazel: --metrics-interval needs an integer >= 1 (seconds)");
                        return ExitCode::from(2);
                    }
                }
            }
            _ => return usage(),
        }
    }
    let transports =
        usize::from(stdio) + usize::from(listen.is_some()) + usize::from(uds.is_some());
    if transports != 1 {
        eprintln!(
            "hazel: serve needs exactly one transport: --stdio, --listen ADDR, or --uds PATH"
        );
        return ExitCode::from(2);
    }

    let mut server = hazel::server::Server::with_registry(Arc::new(|| {
        let mut registry = LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        registry
    }));
    let metrics = metrics_on.then(|| {
        let m = hazel::server::observe::ServeMetrics::new(SERVE_SLOW_K, SERVE_CAPTURE_EVENTS);
        server.enable_metrics(m.clone());
        m
    });
    if let Some(dir) = &snapshot_dir {
        match server.enable_snapshots(std::path::Path::new(dir)) {
            Ok(report) => {
                if !report.restored.is_empty() {
                    let lines: usize = report.restored.iter().map(|(_, n)| n).sum();
                    eprintln!(
                        "hazel serve: restored {} session(s) from {dir} ({lines} journal line(s))",
                        report.restored.len()
                    );
                }
                for session in &report.torn {
                    eprintln!(
                        "hazel serve: journal for session {session:?} had a torn tail; \
                         recovered the acked prefix"
                    );
                }
                for (file, err) in &report.failed {
                    eprintln!("hazel serve: snapshot {file} not restored: {}", err.message);
                }
            }
            Err(e) => {
                eprintln!("hazel: cannot use snapshot dir {dir}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Phase attribution and slow-trace capture ride on an installed
    // tracer. Tracers are per thread, and every transport serves its
    // requests on this thread. The guard must outlive the request loop and
    // drop on this thread.
    let _trace_guard = metrics.as_ref().map(|m| {
        let sink = PairSink(MetricsSink::new(Arc::clone(m.hub())), m.capture().clone());
        hazel::trace::install(&Tracer::monotonic(sink))
    });
    if let (Some(m), Some(secs)) = (metrics.as_ref(), interval) {
        let reporter = m.clone();
        // Detached on purpose: it dies with the process at shutdown.
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            eprintln!("hazel serve: {}", reporter.summary_line());
        });
    }

    // Serving stays on this thread: a second thread would make the process
    // multi-threaded, and every allocation would then take the allocator's
    // locking path.
    transport::grow_main_stack();
    if stdio {
        let stdin = std::io::stdin();
        let mut out = std::io::stdout().lock();
        // The same framer the socket transport uses: LF or CRLF, a
        // final unterminated line still answered, oversized lines
        // refused without killing the stream.
        let mut reader = LineReader::new(stdin.lock(), config.max_line_bytes);
        loop {
            // A reply per request, flushed eagerly: clients drive the
            // protocol request/reply lockstep. The first failed write ends
            // the loop, before another request is handled.
            let served = match reader.next_line() {
                Ok(Some(line)) => serve_line(&mut server, &line, &mut out),
                Ok(None) | Err(FrameError::Io(_)) => break,
                Err(e @ FrameError::TooLong { .. }) => {
                    writeln!(out, "{}", transport_error_line(e.to_string()))
                        .and_then(|()| out.flush())
                        .map(|()| false)
                }
            };
            if !matches!(served, Ok(false)) {
                break;
            }
        }
        let _ = server.sync_snapshots();
    } else {
        #[cfg(not(unix))]
        {
            eprintln!("hazel: --listen and --uds need a Unix platform");
            return ExitCode::from(2);
        }
        #[cfg(unix)]
        {
            use hazel::server::transport::{signal, BindTo, Transport};
            let bind_to = match (&listen, &uds) {
                (Some(addr), _) => BindTo::Tcp(addr.clone()),
                (None, Some(path)) => BindTo::Unix(std::path::PathBuf::from(path)),
                (None, None) => unreachable!("transport count checked above"),
            };
            let transport = match Transport::bind(&bind_to, server, config) {
                Ok(t) => t,
                Err(e) => {
                    let target = listen.as_deref().or(uds.as_deref()).unwrap_or("?");
                    eprintln!("hazel: cannot bind {target}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Drain instead of dying on SIGTERM/SIGINT: finish in-flight
            // requests, sync journals, then exit 0.
            signal::drain_on_term(transport.shutdown_handle());
            match (transport.tcp_addr(), &uds) {
                (Some(addr), _) => eprintln!("hazel serve: listening on {addr}"),
                (None, Some(path)) => eprintln!("hazel serve: listening on {path}"),
                (None, None) => {}
            }
            let summary = transport.run();
            eprintln!(
                "hazel serve: drained ({} conn(s) accepted, {} dropped)",
                summary.accepted, summary.dropped
            );
            if let Some(path) = &uds {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    // Graceful-shutdown dump: the summary plus the slow-request ranking,
    // on stderr so transcript-diffing consumers of stdout are unaffected.
    if let Some(m) = metrics.as_ref() {
        eprintln!("hazel serve: {}", m.summary_line());
        let slow = m.render_slow();
        if !slow.is_empty() {
            eprint!("{slow}");
        }
    }
    ExitCode::SUCCESS
}

fn codes() -> ExitCode {
    let mut out = String::from("{\n  \"codes\": [");
    for (i, code) in Code::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"code\": ");
        json_string(&mut out, code.as_str());
        out.push_str(", \"title\": ");
        json_string(&mut out, code.title());
        out.push_str(", \"paper\": ");
        json_string(&mut out, code.paper_section());
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    emit(&out);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "analyze" => analyze(rest),
            "trace" => trace(rest),
            "stats" => stats(rest),
            "metrics" => metrics_cmd(rest),
            "serve" => serve(rest),
            "codes" => codes(),
            _ => usage(),
        },
        None => usage(),
    }
}
