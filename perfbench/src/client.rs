//! The load generator's client side: spawning `hazel serve`, framing
//! requests on its stdio pipes or loopback TCP sockets, and driving
//! closed loops — one interaction in flight per connection — from a
//! single thread.
//!
//! Framing rule: every request line goes out in ONE write (line plus
//! newline in one buffer) and TCP sockets set `TCP_NODELAY`. A request
//! split over two writes waits on Nagle's algorithm plus the peer's
//! delayed ACK, which costs tens of milliseconds per request on loopback.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::sys;
use crate::workload::{Interaction, Request};

/// How long a single reply may take before the run is declared hung.
const REPLY_TIMEOUT_MS: i32 = 30_000;

/// One byte stream to the server.
enum Pipe {
    Stdio(ChildStdin, ChildStdout),
    Tcp(TcpStream),
}

/// A framed connection: writes whole request lines, reads reply lines.
pub struct Conn {
    pipe: Pipe,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as lines.
    start: usize,
}

impl Conn {
    fn new(pipe: Pipe) -> Conn {
        Conn {
            pipe,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// Sends one request line in a single write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        match &mut self.pipe {
            Pipe::Stdio(stdin, _) => {
                stdin.write_all(&frame)?;
                stdin.flush()
            }
            Pipe::Tcp(s) => s.write_all(&frame),
        }
    }

    fn fd(&self) -> i32 {
        match &self.pipe {
            Pipe::Stdio(_, stdout) => stdout.as_raw_fd(),
            Pipe::Tcp(s) => s.as_raw_fd(),
        }
    }

    /// A complete buffered reply line, if one has arrived.
    fn take_line(&mut self) -> Option<String> {
        let end = self.buf[self.start..].iter().position(|&b| b == b'\n')? + self.start;
        let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
        self.start = end + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(line)
    }

    /// Reads what is available (blocking until something is); `Ok(0)` is
    /// end of stream.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 1 << 16];
        let n = match &mut self.pipe {
            Pipe::Stdio(_, stdout) => stdout.read(&mut chunk)?,
            Pipe::Tcp(s) => s.read(&mut chunk)?,
        };
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Blocks for the next reply line.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            if sys::wait_readable(&[self.fd()], REPLY_TIMEOUT_MS)? == [false] {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
        }
    }

    /// One request/reply round trip.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// How the server is started.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The `hazel` binary.
    pub binary: PathBuf,
    /// Serve over loopback TCP instead of stdio.
    pub tcp: bool,
    /// Keep the metrics layer on (the traced run); otherwise `--no-metrics`.
    pub metrics: bool,
    /// Journal sessions into this directory.
    pub snapshot_dir: Option<PathBuf>,
    /// Where the server's stderr goes.
    pub stderr_path: PathBuf,
}

/// A running `hazel serve` process with its open connections.
pub struct Server {
    child: Child,
    /// When the process was spawned.
    pub spawned: Instant,
    /// Connections, in lane order.
    pub conns: Vec<Conn>,
    /// Per connection: from connect (stdio: spawn) to the first reply.
    pub first_reply: Vec<Duration>,
}

impl Server {
    /// Spawns the server, connects `conns` connections and sends each a
    /// `stats` ping, timing connect-to-first-reply.
    pub fn start(config: &ServerConfig, conns: usize) -> io::Result<Server> {
        let mut cmd = Command::new(&config.binary);
        cmd.arg("serve");
        if config.tcp {
            cmd.args(["--listen", "127.0.0.1:0"]);
        } else {
            cmd.arg("--stdio");
        }
        if !config.metrics {
            cmd.arg("--no-metrics");
        }
        if let Some(dir) = &config.snapshot_dir {
            cmd.arg("--snapshot-dir").arg(dir);
        }
        let stderr = std::fs::File::create(&config.stderr_path)?;
        cmd.stdin(if config.tcp {
            Stdio::null()
        } else {
            Stdio::piped()
        })
        .stdout(if config.tcp {
            Stdio::null()
        } else {
            Stdio::piped()
        })
        .stderr(stderr);
        let spawned = Instant::now();
        // Owned by `server` at once, so every error path below kills it.
        let mut server = Server {
            child: cmd.spawn()?,
            spawned,
            conns: Vec::new(),
            first_reply: Vec::new(),
        };

        let mut connected = Vec::with_capacity(conns);
        if config.tcp {
            let addr = wait_for_listen(&config.stderr_path, &mut server.child)?;
            for _ in 0..conns {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                connected.push((Instant::now(), Conn::new(Pipe::Tcp(stream))));
            }
        } else {
            let stdin = server.child.stdin.take().expect("stdin is piped");
            let stdout = server.child.stdout.take().expect("stdout is piped");
            connected.push((spawned, Conn::new(Pipe::Stdio(stdin, stdout))));
        }
        for (_, conn) in &mut connected {
            conn.send("{\"op\":\"stats\"}")?;
        }
        for (at, mut conn) in connected {
            let reply = conn.recv()?;
            if !reply.starts_with("{\"ok\":true") {
                return Err(io::Error::other(format!("ping refused: {reply}")));
            }
            server.first_reply.push(at.elapsed());
            server.conns.push(conn);
        }
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server: a `shutdown` op over TCP, end of input over
    /// stdio. Waits for the process to exit, killing it after a grace
    /// period.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(Conn {
            pipe: Pipe::Tcp(_), ..
        }) = self.conns.first()
        {
            let _ = self.conns[0].call("{\"op\":\"shutdown\"}");
        }
        self.conns.clear();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                self.child.wait()?;
                return Err(io::Error::other("server did not exit; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads the server's stderr file until it announces its address.
fn wait_for_listen(stderr_path: &Path, child: &mut Child) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let text = std::fs::read_to_string(stderr_path).unwrap_or_default();
        if let Some(addr) = text
            .lines()
            .find_map(|l| l.strip_prefix("hazel serve: listening on "))
            .and_then(|a| a.trim().parse().ok())
        {
            return Ok(addr);
        }
        if child.try_wait()?.is_some() || Instant::now() >= deadline {
            return Err(io::Error::other(format!("server did not listen: {text}")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One recorded span: a protocol call, an interaction, or an in-process
/// library call. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span (0: none).
    pub parent: u64,
    /// What ran, e.g. `proto.render` or `lib.engine.run`.
    pub name: &'static str,
    /// The connection (lane) it ran on.
    pub lane: usize,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// In-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: u64,
    /// Every finished span.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty log timed from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a span id.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        lane: usize,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            lane,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a root span named `name`; returns its result and
    /// duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.id();
        self.push(id, 0, name, 0, start, end);
        (out, end - start)
    }
}

/// What a phase of closed-loop driving observed.
#[derive(Debug, Default)]
pub struct Record {
    /// Client-observed interaction latencies, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was an error, a refusal, or off-oracle (or
    /// that never got a reply).
    pub failed: u64,
    /// Requests answered.
    pub completed: u64,
    /// Reply bytes received (newlines excluded).
    pub reply_bytes: u64,
    /// Sum of per-request round trips, nanoseconds.
    pub rtt_ns: u64,
    /// From the first send to the last reply.
    pub elapsed: Duration,
    /// First failures, for the error report.
    pub failures: Vec<String>,
    /// With logging on: every `(request, reply)` in arrival order.
    pub log: Option<Vec<(String, String)>>,
}

impl Record {
    /// Adds `other`'s observations. With `samples` false only its
    /// correctness counts are kept: the requests still count as attempted
    /// and failed, but none of its timings or volumes do.
    pub fn append(&mut self, other: Record, samples: bool) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        if samples {
            self.latencies_ns.extend(other.latencies_ns);
            self.completed += other.completed;
            self.reply_bytes += other.reply_bytes;
            self.rtt_ns += other.rtt_ns;
            self.elapsed += other.elapsed;
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

struct InFlight {
    requests: Vec<Request>,
    next: usize,
    started: Instant,
    sent: Instant,
    span: u64,
    req_span: u64,
}

/// Drives closed loops over `conns`: each connection has one interaction
/// in flight, and starts its next (from `source(lane)`) as soon as the
/// last reply of the previous one arrives. A lane stops when its source
/// runs dry or `deadline` has passed; interactions already started
/// finish and count. Every reply is checked against its request's oracle.
pub fn drive(
    conns: &mut [Conn],
    source: &mut dyn FnMut(usize) -> Option<Interaction>,
    deadline: Option<Instant>,
    record: &mut Record,
    mut spans: Option<&mut Spans>,
) {
    let began = Instant::now();
    let mut flights: Vec<Option<InFlight>> = Vec::with_capacity(conns.len());
    for (lane, conn) in conns.iter_mut().enumerate() {
        flights.push(start_next(lane, conn, record, &mut spans, deadline, source));
    }
    let mut last = began;

    loop {
        // Handle every reply already buffered before blocking.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for lane in 0..conns.len() {
                let Some(flight) = flights[lane].as_mut() else {
                    continue;
                };
                let Some(reply) = conns[lane].take_line() else {
                    continue;
                };
                progressed = true;
                let now = Instant::now();
                last = now;
                let request = &flight.requests[flight.next];
                record.completed += 1;
                record.reply_bytes += reply.len() as u64;
                record.rtt_ns += nanos(now - flight.sent);
                if let Some(s) = spans.as_deref_mut() {
                    s.push(
                        flight.req_span,
                        flight.span,
                        request.span_name(),
                        lane,
                        flight.sent,
                        now,
                    );
                }
                if !request.check(&reply) {
                    let head: String = reply.chars().take(200).collect();
                    record.fail(format!(
                        "{} -> {head}",
                        request.line.chars().take(120).collect::<String>()
                    ));
                }
                if let Some(log) = record.log.as_mut() {
                    log.push((request.line.clone(), reply));
                }
                flight.next += 1;
                if flight.next < flight.requests.len() {
                    flight.sent = Instant::now();
                    if let Some(s) = spans.as_deref_mut() {
                        flight.req_span = s.id();
                    }
                    record.attempted += 1;
                    if let Err(e) = conns[lane].send(&flight.requests[flight.next].line) {
                        record.fail(format!("send failed: {e}"));
                        flights[lane] = None;
                    }
                    continue;
                }
                record.latencies_ns.push(nanos(now - flight.started));
                if let Some(s) = spans.as_deref_mut() {
                    s.push(flight.span, 0, "interaction", lane, flight.started, now);
                }
                flights[lane] =
                    start_next(lane, &mut conns[lane], record, &mut spans, deadline, source);
            }
        }

        let waiting: Vec<usize> = (0..conns.len()).filter(|&l| flights[l].is_some()).collect();
        if waiting.is_empty() {
            break;
        }
        let fds: Vec<i32> = waiting.iter().map(|&l| conns[l].fd()).collect();
        let ready = match sys::wait_readable(&fds, REPLY_TIMEOUT_MS) {
            Ok(r) if r.iter().any(|&b| b) => r,
            Ok(_) => {
                record.fail("no reply within the timeout".to_owned());
                abandon(&mut flights, record);
                break;
            }
            Err(e) => {
                record.fail(format!("poll failed: {e}"));
                abandon(&mut flights, record);
                break;
            }
        };
        for (&lane, ready) in waiting.iter().zip(ready) {
            if !ready {
                continue;
            }
            match conns[lane].fill() {
                Ok(n) if n > 0 => {}
                Ok(_) | Err(_) => {
                    record.fail("connection closed mid-interaction".to_owned());
                    flights[lane] = None;
                }
            }
        }
    }
    record.elapsed += last.saturating_duration_since(began);
}

/// Marks every in-flight request as failed and drops it.
fn abandon(flights: &mut [Option<InFlight>], record: &mut Record) {
    for f in flights.iter_mut() {
        if f.take().is_some() {
            record.failed += 1;
        }
    }
}

/// Sends the first request of `lane`'s next interaction, unless the
/// deadline passed or the source ran dry.
fn start_next(
    lane: usize,
    conn: &mut Conn,
    record: &mut Record,
    spans: &mut Option<&mut Spans>,
    deadline: Option<Instant>,
    source: &mut dyn FnMut(usize) -> Option<Interaction>,
) -> Option<InFlight> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return None;
    }
    let interaction = source(lane)?;
    let (span, req_span) = match spans.as_deref_mut() {
        Some(s) => (s.id(), s.id()),
        None => (0, 0),
    };
    record.attempted += 1;
    let now = Instant::now();
    if let Err(e) = conn.send(&interaction.requests[0].line) {
        record.fail(format!("send failed: {e}"));
        return None;
    }
    Some(InFlight {
        requests: interaction.requests,
        next: 0,
        started: now,
        sent: now,
        span,
        req_span,
    })
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
