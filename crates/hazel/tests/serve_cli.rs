//! Acceptance tests for the `hazel serve` subcommand: the golden
//! transcript, crash-proofing under garbage input, journals that survive
//! a killed process, and a socket server that serves every connection
//! from one thread, under the tracer stdio gets.
//!
//! The golden pins the full reply stream for a mixed two-session request
//! script (stdio replies are byte-deterministic; CI diffs them too).
//! Regenerate after an intentional protocol change with
//! `hazel serve --stdio \
//!    < crates/hazel/tests/golden/serve_session.requests.jsonl \
//!    > crates/hazel/tests/golden/serve_session.golden.jsonl`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `hazel serve` with `input` on stdin and extra env vars set.
fn serve(args: &[&str], env: &[(&str, &str)], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .arg("serve")
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn requests() -> String {
    std::fs::read_to_string(golden_path("serve_session.requests.jsonl")).unwrap()
}

#[test]
fn serve_matches_the_golden_transcript() {
    let out = serve(&["--stdio"], &[], &requests());
    assert!(out.status.success(), "{out:?}");
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn serve_transcript_is_identical_with_metrics_disabled() {
    // Metrics are on by default; nothing they record may leak into reply
    // bytes unless a client opts in. `--no-metrics` must therefore replay
    // the exact same golden, and the metrics-on run must confine its
    // summary/slow-request dump to stderr.
    let golden = std::fs::read_to_string(golden_path("serve_session.golden.jsonl")).unwrap();
    let with = serve(&["--stdio"], &[], &requests());
    assert!(with.status.success(), "{with:?}");
    assert_eq!(String::from_utf8(with.stdout).unwrap(), golden);
    let stderr = String::from_utf8(with.stderr).unwrap();
    assert!(stderr.contains("hazel serve: metrics:"), "stderr: {stderr}");

    let without = serve(&["--stdio", "--no-metrics"], &[], &requests());
    assert!(without.status.success(), "{without:?}");
    assert_eq!(String::from_utf8(without.stdout).unwrap(), golden);
    let quiet = String::from_utf8(without.stderr).unwrap();
    assert!(!quiet.contains("metrics:"), "stderr: {quiet}");
}

#[test]
fn serve_metrics_op_reports_request_totals() {
    // A live `metrics` snapshot after real traffic: deterministic totals
    // are exact, the nondeterministic sections are present and shaped.
    let mut input = requests();
    input.push_str("{\"op\":\"metrics\",\"id\":99,\"slow\":true}\n");
    let out = serve(&["--stdio"], &[], &input);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"ok\":true,\"id\":99,\"op\":\"metrics\",\"enabled\":true,"),
        "{last}"
    );
    for field in [
        "\"closed_sessions\":2",
        "\"uptime_ns\":",
        "\"ops\":[",
        "\"p99_ns\":",
        "\"phases\":[",
        "\"counters\":{",
        "\"slow\":[",
        "serve.open",
    ] {
        assert!(last.contains(field), "missing {field} in {last}");
    }
}

#[test]
fn serve_survives_garbage_and_exits_cleanly() {
    // A hostile stream: binary-ish junk, deep nesting, half-open strings.
    // Every line must yield exactly one error reply, and the process must
    // still exit 0 when stdin closes — never crash.
    let garbage = "\u{1}\u{2}\u{3}\n\
        {\"op\":\n\
        [[[[[[[[[[[[[[[[\n\
        {\"op\":\"open\",\"session\":\"s\",\"source\":\"\\udc00\n\
        \"unterminated\n\
        9999999999999999999999999999\n\
        {\"op\":\"open\",\"session\":123,\"source\":\"1\"}\n";
    let out = serve(&["--stdio"], &[], garbage);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 7, "{stdout}");
    for reply in replies {
        assert!(reply.starts_with("{\"ok\":false,"), "{reply}");
    }
}

#[test]
fn serve_without_stdio_is_a_usage_error() {
    let out = serve(&[], &[], "");
    assert_eq!(out.status.code(), Some(2));
    let bad_cap = serve(&["--stdio", "--max-conns", "0"], &[], "");
    assert_eq!(bad_cap.status.code(), Some(2));
}

#[test]
fn usage_documents_the_serve_options() {
    let out = Command::new(env!("CARGO_BIN_EXE_hazel")).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8(out.stderr).unwrap();
    assert!(
        usage.contains("serve (--stdio | --listen ADDR | --uds PATH)"),
        "{usage}"
    );
    assert!(usage.contains("--snapshot-dir"), "{usage}");
}

/// Acks survive a killed process: every acked request was written to the
/// journal before its reply shipped, so a server killed with SIGKILL (no
/// drain, no final sync) restarts into the same session state as one that
/// never died.
#[test]
fn acked_requests_survive_sigkill() {
    let dir = std::env::temp_dir().join(format!("hazel-serve-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let before = [
        "{\"op\":\"open\",\"id\":1,\"session\":\"s\",\"source\":\"$slider@0{10}(0 : Int; 100 : Int)\"}",
        "{\"op\":\"render\",\"id\":2,\"session\":\"s\"}",
        "{\"op\":\"dispatch\",\"id\":3,\"session\":\"s\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
        "{\"op\":\"edit\",\"id\":4,\"session\":\"s\",\"edit\":{\"kind\":\"dispatch\",\"at\":0,\"action\":\"(.set 42)\"}}",
    ];
    let after = [
        "{\"op\":\"render\",\"id\":5,\"session\":\"s\"}",
        "{\"op\":\"dispatch\",\"id\":6,\"session\":\"s\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
        "{\"op\":\"render\",\"id\":7,\"session\":\"s\"}",
    ];
    let lines = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();

    // Oracle: the same traffic through a server that never dies.
    let oracle = serve(&["--stdio"], &[], &(lines(&before) + &lines(&after)));
    assert!(oracle.status.success(), "{oracle:?}");
    let oracle = String::from_utf8(oracle.stdout).unwrap();
    let expected: Vec<&str> = oracle.lines().skip(before.len()).collect();

    // Victim: read every ack, then SIGKILL.
    let mut victim = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .args(["serve", "--stdio", "--snapshot-dir", dir_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = victim.stdin.take().unwrap();
    let mut acks = BufReader::new(victim.stdout.take().unwrap());
    for line in before {
        writeln!(stdin, "{line}").unwrap();
        let mut ack = String::new();
        acks.read_line(&mut ack).unwrap();
        assert!(ack.starts_with("{\"ok\":true,"), "{ack}");
    }
    victim.kill().unwrap();
    victim.wait().unwrap();

    // Reborn: restore from the journal and continue the traffic.
    let reborn = serve(&["--stdio", "--snapshot-dir", dir_arg], &[], &lines(&after));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(reborn.status.success(), "{reborn:?}");
    let stderr = String::from_utf8(reborn.stderr).unwrap();
    assert!(stderr.contains("restored 1 session(s)"), "{stderr}");
    let stdout = String::from_utf8(reborn.stdout).unwrap();
    let got: Vec<&str> = stdout.lines().collect();
    assert_eq!(got, expected);
    assert!(got[0].contains("\"result\":\"42\""), "{}", got[0]);
}

/// A `hazel serve --uds` process and the socket path it listens on.
#[cfg(unix)]
struct SocketServer {
    child: std::process::Child,
    path: std::path::PathBuf,
}

#[cfg(unix)]
impl SocketServer {
    fn start(tag: &str) -> SocketServer {
        let path = std::env::temp_dir().join(format!("hazel-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(env!("CARGO_BIN_EXE_hazel"))
            .args(["serve", "--uds"])
            .arg(&path)
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        SocketServer { child, path }
    }

    /// A connection, retried until the server listens.
    fn connect(&self) -> (std::os::unix::net::UnixStream, impl BufRead) {
        let conn = (0..200)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::os::unix::net::UnixStream::connect(&self.path).ok()
            })
            .expect("server listens");
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    /// Asks for a drain over `conn` and expects a clean exit.
    fn shut_down(mut self, conn: &mut impl Write, replies: &mut impl BufRead) {
        let reply = exchange(conn, replies, r#"{"op":"shutdown"}"#);
        assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
        assert!(self.child.wait().unwrap().success());
    }
}

/// A failed test must not leave its server running.
#[cfg(unix)]
impl Drop for SocketServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
fn exchange(to: &mut impl Write, from: &mut impl BufRead, line: &str) -> String {
    writeln!(to, "{line}").unwrap();
    let mut reply = String::new();
    from.read_line(&mut reply).unwrap();
    reply
}

/// Sixteen open connections, one thread: the socket transport serves
/// every connection from the thread that runs it.
#[cfg(target_os = "linux")]
#[test]
fn one_thread_serves_every_socket_connection() {
    let server = SocketServer::start("threads");
    let mut conns: Vec<_> = (0..16).map(|_| server.connect()).collect();
    for (conn, replies) in &mut conns {
        let reply = exchange(conn, replies, r#"{"op":"stats"}"#);
        assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
    }
    let tasks = std::fs::read_dir(format!("/proc/{}/task", server.child.id()))
        .unwrap()
        .count();
    assert_eq!(tasks, 1, "threads serving 16 connections");
    let (conn, replies) = &mut conns[0];
    server.shut_down(conn, replies);
}

/// Socket requests run under the same `MetricsSink` tracer as stdio
/// requests, so `metrics` attributes their time to phases and counts
/// connections.
#[cfg(unix)]
#[test]
fn socket_metrics_report_phases_and_counters() {
    use hazel::server::json::{self, Json};

    let server = SocketServer::start("metrics");
    let (mut conn, mut replies) = server.connect();
    for request in [
        r#"{"op":"open","session":"s","source":"$slider@0{10}(0 : Int; 100 : Int)"}"#,
        r#"{"op":"render","session":"s"}"#,
    ] {
        let reply = exchange(&mut conn, &mut replies, request);
        assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
    }
    let reply = exchange(&mut conn, &mut replies, r#"{"op":"metrics"}"#);
    let metrics = json::parse(reply.trim_end()).unwrap();
    let phases = metrics.get("phases").and_then(Json::as_arr).unwrap();
    assert!(!phases.is_empty(), "{reply}");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_int)
            .unwrap_or(0)
    };
    assert!(counter("serve_requests") > 0, "{reply}");
    assert!(counter("serve_conns") > 0, "{reply}");
    server.shut_down(&mut conn, &mut replies);
}
