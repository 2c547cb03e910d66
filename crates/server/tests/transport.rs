//! End-to-end socket transport tests: real TCP and Unix-domain
//! connections against a running [`Transport`], covering framing over
//! the wire, the connection cap, idle timeouts, graceful drain, and
//! crash-safe resume from session snapshots, and what one serving thread
//! must not let a client do to the others: starve them by pipelining,
//! stall them by not reading, or hold up a drain by never closing.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use livelit_server::json::{self, Json};
use livelit_server::transport::{
    BindTo, DrainSummary, ShutdownHandle, Transport, TransportConfig, SERVE_STACK_BYTES,
};
use livelit_server::Server;

const SLIDER_DOC: &str = "$slider@0{10}(0 : Int; 100 : Int)";

fn std_server() -> Server {
    Server::with_registry(Arc::new(|| {
        let mut registry = hazel_editor::LivelitRegistry::new();
        livelit_std::register_all(&mut registry);
        registry
    }))
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hztrans-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs a transport on a thread with a serving stack, as `hazel serve`
/// runs it on its main thread.
fn spawn_run(transport: Transport) -> thread::JoinHandle<DrainSummary> {
    thread::Builder::new()
        .stack_size(SERVE_STACK_BYTES)
        .spawn(move || transport.run())
        .expect("spawn the serving thread")
}

/// Binds a TCP transport on a kernel-assigned port and runs it on a
/// background thread. Returns the address, a drain handle, and the
/// join handle yielding the [`DrainSummary`].
fn spawn_tcp(
    server: Server,
    config: TransportConfig,
) -> (SocketAddr, ShutdownHandle, thread::JoinHandle<DrainSummary>) {
    let transport = Transport::bind(&BindTo::Tcp("127.0.0.1:0".into()), server, config)
        .expect("bind 127.0.0.1:0");
    let addr = transport.tcp_addr().expect("tcp addr");
    let handle = transport.shutdown_handle();
    (addr, handle, spawn_run(transport))
}

fn send_line(stream: &mut impl Write, line: &str) {
    stream.write_all(line.as_bytes()).expect("write line");
    stream.write_all(b"\n").expect("write newline");
    stream.flush().expect("flush");
}

fn read_reply(reader: &mut impl BufRead) -> Json {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read reply");
    assert!(n > 0, "peer closed before replying");
    json::parse(line.trim_end()).expect("replies are valid JSON")
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "expected ok reply, got {reply}"
    );
}

fn error_kind(reply: &Json) -> String {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "got {reply}");
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error replies carry a kind")
        .to_string()
}

#[test]
fn tcp_session_round_trips_open_dispatch_render() {
    let (addr, handle, join) = spawn_tcp(std_server(), TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    send_line(
        &mut writer,
        &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
    );
    assert_ok(&read_reply(&mut reader));
    send_line(
        &mut writer,
        "{\"op\":\"dispatch\",\"session\":\"s\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
    );
    assert_ok(&read_reply(&mut reader));
    send_line(&mut writer, "{\"op\":\"render\",\"session\":\"s\"}");
    let render = read_reply(&mut reader);
    assert_ok(&render);
    assert_eq!(render.get("result").and_then(Json::as_str), Some("11"));

    drop(writer);
    drop(reader);
    handle.request_drain();
    let summary = join.join().expect("transport thread");
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.server.session_count(), 1);
}

#[test]
fn tcp_framing_accepts_crlf_and_replies_to_a_final_unterminated_line() {
    let (addr, handle, join) = spawn_tcp(std_server(), TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // CRLF-terminated request.
    writer
        .write_all(
            format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}\r\n")
                .as_bytes(),
        )
        .expect("write");
    writer.flush().expect("flush");
    assert_ok(&read_reply(&mut reader));

    // Final request with no trailing newline: half-close the write side
    // and the server must still reply before EOF.
    writer
        .write_all(b"{\"op\":\"render\",\"session\":\"s\"}")
        .expect("write");
    writer.flush().expect("flush");
    reader
        .get_ref()
        .shutdown(Shutdown::Write)
        .expect("half-close");
    let render = read_reply(&mut reader);
    assert_ok(&render);
    assert_eq!(render.get("result").and_then(Json::as_str), Some("10"));
    // And then EOF.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain to eof");
    assert_eq!(rest, "");

    handle.request_drain();
    join.join().expect("transport thread");
}

#[test]
fn over_cap_connections_get_a_transport_error_then_eof() {
    let config = TransportConfig {
        max_conns: 1,
        ..TransportConfig::default()
    };
    let (addr, handle, join) = spawn_tcp(std_server(), config);

    // First connection occupies the only slot (a request proves it is
    // being served, not just queued).
    let first = TcpStream::connect(addr).expect("connect");
    let mut first_writer = first.try_clone().expect("clone");
    let mut first_reader = BufReader::new(first);
    send_line(&mut first_writer, "{\"op\":\"stats\"}");
    assert_ok(&read_reply(&mut first_reader));

    // Second connection is over the cap: one transport error line, then
    // EOF.
    let second = TcpStream::connect(addr).expect("connect");
    let mut second_reader = BufReader::new(second);
    let refusal = read_reply(&mut second_reader);
    assert_eq!(error_kind(&refusal), "transport");
    let mut rest = String::new();
    second_reader.read_to_string(&mut rest).expect("eof");
    assert_eq!(rest, "");

    // Once the first connection leaves, the slot frees up.
    drop(first_writer);
    drop(first_reader);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut served = false;
    while Instant::now() < deadline {
        let third = TcpStream::connect(addr).expect("connect");
        let mut writer = third.try_clone().expect("clone");
        let mut reader = BufReader::new(third);
        send_line(&mut writer, "{\"op\":\"stats\"}");
        let reply = read_reply(&mut reader);
        if reply.get("ok") == Some(&Json::Bool(true)) {
            served = true;
            break;
        }
        assert_eq!(error_kind(&reply), "transport");
        thread::sleep(Duration::from_millis(20));
    }
    assert!(served, "slot never freed after the first connection closed");

    handle.request_drain();
    let summary = join.join().expect("transport thread");
    assert!(summary.dropped >= 1, "over-cap refusals count as dropped");
}

#[test]
fn idle_connections_are_told_and_closed() {
    let config = TransportConfig {
        idle_timeout: Duration::from_millis(200),
        ..TransportConfig::default()
    };
    let (addr, handle, join) = spawn_tcp(std_server(), config);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    // Send nothing; the server should close us with a transport error.
    let notice = read_reply(&mut reader);
    assert_eq!(error_kind(&notice), "transport");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("eof");
    assert_eq!(rest, "");

    handle.request_drain();
    let summary = join.join().expect("transport thread");
    assert_eq!(summary.dropped, 1);
}

#[test]
fn oversized_lines_get_a_transport_error_and_the_connection_survives() {
    let config = TransportConfig {
        max_line_bytes: 256,
        ..TransportConfig::default()
    };
    let (addr, handle, join) = spawn_tcp(std_server(), config);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    send_line(&mut writer, &"x".repeat(1024));
    let refusal = read_reply(&mut reader);
    assert_eq!(error_kind(&refusal), "transport");

    // Framing resynced: the next request is served normally.
    send_line(&mut writer, "{\"op\":\"stats\"}");
    assert_ok(&read_reply(&mut reader));

    handle.request_drain();
    join.join().expect("transport thread");
}

#[test]
fn shutdown_op_drains_the_whole_transport() {
    let (addr, _handle, join) = spawn_tcp(std_server(), TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    send_line(&mut writer, "{\"op\":\"shutdown\",\"id\":1}");
    let reply = read_reply(&mut reader);
    assert_ok(&reply);
    assert_eq!(reply.get("draining"), Some(&Json::Bool(true)));

    // run() returns without any external drain request.
    let summary = join.join().expect("transport thread");
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.dropped, 0);
}

#[test]
fn unix_socket_serves_and_recovers_a_stale_socket_file() {
    let path = temp_path("uds");

    let run_once = |expect_result: &str| {
        let transport = Transport::bind(
            &BindTo::Unix(path.clone()),
            std_server(),
            TransportConfig::default(),
        )
        .expect("bind uds");
        let handle = transport.shutdown_handle();
        let join = spawn_run(transport);

        let stream = UnixStream::connect(&path).expect("connect uds");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        send_line(
            &mut writer,
            &format!("{{\"op\":\"open\",\"session\":\"s\",\"source\":{SLIDER_DOC:?}}}"),
        );
        assert_ok(&read_reply(&mut reader));
        send_line(&mut writer, "{\"op\":\"render\",\"session\":\"s\"}");
        let render = read_reply(&mut reader);
        assert_ok(&render);
        assert_eq!(
            render.get("result").and_then(Json::as_str),
            Some(expect_result)
        );

        handle.request_drain();
        join.join().expect("transport thread");
    };

    run_once("10");
    // The socket file is still on disk (nothing unlinked it), but its
    // listener is gone — a rebind must treat it as stale and recover.
    assert!(path.exists(), "socket file left behind by the dead server");
    run_once("10");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn kill_and_restart_resumes_sessions_from_snapshots() {
    let snap_dir = temp_path("resume");

    // First life: open two sessions over TCP, mutate one, drain
    // (simulating a SIGTERM) and remember the pre-kill render.
    let mut server = std_server();
    server
        .enable_snapshots(&snap_dir)
        .expect("enable snapshots");
    let (addr, handle, join) = spawn_tcp(server, TransportConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    send_line(
        &mut writer,
        &format!("{{\"op\":\"open\",\"session\":\"a\",\"source\":{SLIDER_DOC:?}}}"),
    );
    assert_ok(&read_reply(&mut reader));
    send_line(
        &mut writer,
        &format!("{{\"op\":\"open\",\"session\":\"b\",\"source\":{SLIDER_DOC:?}}}"),
    );
    assert_ok(&read_reply(&mut reader));
    for _ in 0..3 {
        send_line(
            &mut writer,
            "{\"op\":\"dispatch\",\"session\":\"a\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
        );
        assert_ok(&read_reply(&mut reader));
    }
    send_line(&mut writer, "{\"op\":\"render\",\"session\":\"a\"}");
    let before = read_reply(&mut reader);
    assert_ok(&before);
    drop(writer);
    drop(reader);
    handle.request_drain();
    join.join().expect("transport thread");

    // Oracle: the same acked request history on one uninterrupted
    // server. The restored server must be indistinguishable from it —
    // including diff baselines, so the post-restart render ships the
    // same incremental views the oracle's second render would.
    let mut oracle = std_server();
    let history = [
        format!("{{\"op\":\"open\",\"session\":\"a\",\"source\":{SLIDER_DOC:?}}}"),
        format!("{{\"op\":\"open\",\"session\":\"b\",\"source\":{SLIDER_DOC:?}}}"),
        "{\"op\":\"dispatch\",\"session\":\"a\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}"
            .to_string(),
        "{\"op\":\"dispatch\",\"session\":\"a\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}"
            .to_string(),
        "{\"op\":\"dispatch\",\"session\":\"a\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}"
            .to_string(),
        "{\"op\":\"render\",\"session\":\"a\"}".to_string(),
    ];
    for line in &history {
        oracle.handle_line(line);
    }
    let oracle_render_a = json::parse(&oracle.handle_line("{\"op\":\"render\",\"session\":\"a\"}"))
        .expect("oracle reply parses");
    let oracle_render_b = json::parse(&oracle.handle_line("{\"op\":\"render\",\"session\":\"b\"}"))
        .expect("oracle reply parses");

    // Second life: a fresh server restores from the snapshot dir; a
    // reconnecting client sees its sessions mid-state, byte-identical
    // to the uninterrupted oracle.
    let mut reborn = std_server();
    let report = reborn.enable_snapshots(&snap_dir).expect("restore");
    let mut restored: Vec<_> = report
        .restored
        .iter()
        .map(|(name, lines)| (name.as_str(), *lines))
        .collect();
    restored.sort();
    assert_eq!(restored, vec![("a", 5), ("b", 1)]);
    assert!(report.torn.is_empty(), "clean drain leaves no torn tails");
    assert!(report.failed.is_empty(), "{:?}", report.failed);

    let (addr2, handle2, join2) = spawn_tcp(reborn, TransportConfig::default());
    let stream = TcpStream::connect(addr2).expect("reconnect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    send_line(&mut writer, "{\"op\":\"render\",\"session\":\"a\"}");
    let after = read_reply(&mut reader);
    assert_ok(&after);
    assert_eq!(
        after.get("result").and_then(Json::as_str),
        Some("13"),
        "three acked increments survive the restart"
    );
    assert_eq!(
        after, oracle_render_a,
        "restored render is byte-identical to the uninterrupted oracle"
    );
    send_line(&mut writer, "{\"op\":\"render\",\"session\":\"b\"}");
    let b = read_reply(&mut reader);
    assert_eq!(b, oracle_render_b);

    handle2.request_drain();
    join2.join().expect("transport thread");
    let _ = std::fs::remove_dir_all(&snap_dir);
}

/// A connected client with a read timeout, so a server that stops
/// serving it fails the test instead of hanging it.
fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let writer = stream.try_clone().expect("clone");
    (writer, BufReader::new(stream))
}

/// The server's request total, as a `metrics` reply reports it: requests
/// handled before this one.
fn requests_handled(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> i64 {
    send_line(writer, "{\"op\":\"metrics\"}");
    let reply = read_reply(reader);
    assert_ok(&reply);
    reply
        .get("requests")
        .and_then(Json::as_int)
        .expect("metrics replies count requests")
}

#[test]
fn a_pipelining_client_does_not_starve_another() {
    let (addr, handle, join) = spawn_tcp(std_server(), TransportConfig::default());
    let (mut other, mut other_reader) = client(addr);
    assert_eq!(requests_handled(&mut other, &mut other_reader), 0);

    // 1,000 requests in one write, whose replies are read only at the end.
    let (mut flood, mut flood_reader) = client(addr);
    let requests: String = (0..1000)
        .map(|i| format!("{{\"op\":\"open\",\"session\":\"f{i}\",\"source\":{SLIDER_DOC:?}}}\n"))
        .collect();
    flood
        .write_all(requests.as_bytes())
        .expect("write the flood");

    // The loop takes one request per connection per turn, so the other
    // connection's round trip does not wait for the flood to be handled.
    let before = requests_handled(&mut other, &mut other_reader);
    assert!(
        before < 1 + 1000,
        "the other client waited for all {before} requests before it"
    );
    for _ in 0..1000 {
        assert_ok(&read_reply(&mut flood_reader));
    }

    drop((other, other_reader, flood, flood_reader));
    handle.request_drain();
    assert_eq!(join.join().expect("transport thread").dropped, 0);
}

#[test]
fn a_client_that_never_reads_is_dropped_and_stalls_no_other() {
    let config = TransportConfig {
        write_timeout: Duration::from_millis(200),
        ..TransportConfig::default()
    };
    let (addr, handle, join) = spawn_tcp(std_server(), config);
    let (mut other, mut other_reader) = client(addr);
    send_line(&mut other, "{\"op\":\"stats\"}");
    assert_ok(&read_reply(&mut other_reader));

    // Every reply echoes a 64 KiB id, so replies the client never reads
    // soon fill the socket buffers, and its writes block once the server
    // stops reading it. They fail once the server drops it.
    let (hog, _unread) = client(addr);
    let request = format!("{{\"op\":\"stats\",\"id\":{:?}}}\n", "x".repeat(64 << 10));
    let hog = thread::spawn(move || {
        let mut hog = hog;
        while hog.write_all(request.as_bytes()).is_ok() {}
    });

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round_trips = 0;
    while !hog.is_finished() {
        assert!(
            Instant::now() < deadline,
            "the stalled client was not dropped"
        );
        send_line(&mut other, "{\"op\":\"stats\"}");
        assert_ok(&read_reply(&mut other_reader));
        round_trips += 1;
    }
    hog.join().expect("hog thread");
    assert!(
        round_trips > 1,
        "{round_trips} round trips during the stall"
    );
    send_line(&mut other, "{\"op\":\"stats\"}");
    assert_ok(&read_reply(&mut other_reader));

    drop((other, other_reader));
    handle.request_drain();
    let summary = join.join().expect("transport thread");
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.dropped, 1, "only the client that never read");
}

#[test]
fn a_drain_shares_one_deadline_among_clients_that_never_close() {
    let (addr, handle, join) = spawn_tcp(std_server(), TransportConfig::default());
    let mut clients: Vec<_> = (0..64).map(|_| client(addr)).collect();
    for (writer, reader) in &mut clients {
        send_line(writer, "{\"op\":\"stats\"}");
        assert_ok(&read_reply(reader));
    }

    let started = Instant::now();
    handle.request_drain();
    let summary = join.join().expect("transport thread");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "the drain took {took:?}");
    assert_eq!((summary.accepted, summary.dropped), (64, 0));
    // Every client has read all its replies; what follows is a clean EOF.
    for (_, reader) in &mut clients {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("eof");
        assert_eq!(rest, "");
    }
}
