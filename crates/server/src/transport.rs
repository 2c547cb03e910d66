//! Production socket transports for the serve protocol: TCP and
//! Unix-domain listeners with connection caps, idle timeouts, write
//! backpressure, and graceful drain.
//!
//! Hand-rolled on `std` only (zero new dependencies): a nonblocking
//! accept loop polls for connections and shutdown, and each accepted
//! connection gets a handler thread — the connection cap bounds the
//! thread count, so thread-per-connection here is a readiness loop with
//! the OS scheduler doing the multiplexing. Request handling itself is
//! serialized through the shared [`Server`] mutex, preserving the
//! protocol's deterministic one-line-in/one-line-out semantics; the
//! transport's job is I/O overlap, not evaluation parallelism.
//!
//! # Connection state machine
//!
//! ```text
//!          accept
//!            │  over cap? ──► error line, close          (dropped)
//!            ▼
//!         READING ──── line framed ───► HANDLING (server lock)
//!            │ ▲                            │
//!            │ └──── reply + notes written ─┘  (write timeout ► dropped)
//!            │ idle > idle_timeout ──► error line, close (dropped)
//!            │ EOF (client done) ─────► close            (clean)
//!            │ drain flag set ────────► close            (clean)
//! ```
//!
//! Framing (CRLF, final unterminated line, oversized-line recovery) is
//! [`LineReader`], shared with the stdio path. A `drain` —
//! SIGTERM, SIGINT, a `shutdown` op from any connection, or
//! [`ShutdownHandle::request_drain`] — stops the accept loop, lets every
//! in-flight request finish and its reply ship, stops reading further
//! requests, syncs session journals, and returns. Because a request is
//! journaled before its reply ships and never handled without being
//! read, a client that reconnects after a restart resumes by re-sending
//! from its first unacknowledged request — nothing is lost, nothing is
//! applied twice.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use livelit_trace::Counter;

use crate::observe::ServeMetrics;
use crate::wire::{FrameError, LineReader};
use crate::{error_reply, ErrorKind, RequestError, Server};

/// The stack of every thread that serves requests: each socket handler,
/// and the main thread that `hazel serve --stdio` serves on (see
/// [`grow_main_stack`]). Every pass over a program recurses, so this is
/// what [`hazel_lang::parse::MAX_DEPTH`] is measured against. In a release
/// build, input at that bound takes at most about a third of it. An
/// unoptimized build takes about nine times the stack per level, so it
/// gets eight times the stack.
pub const SERVE_STACK_BYTES: usize = if cfg!(debug_assertions) {
    64 << 20
} else {
    8 << 20
};

/// Lets the main thread's stack grow to [`SERVE_STACK_BYTES`]. On Linux
/// the main thread's stack grows on demand up to the soft `RLIMIT_STACK`,
/// so raising that limit, never past the hard one, is enough.
#[cfg(target_os = "linux")]
pub fn grow_main_stack() {
    use std::os::raw::{c_int, c_ulong};

    /// `struct rlimit`: `rlim_t` is an `unsigned long` on Linux.
    #[repr(C)]
    struct RLimit {
        cur: c_ulong,
        max: c_ulong,
    }
    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
    const RLIMIT_STACK: c_int = 3;

    let want = c_ulong::try_from(SERVE_STACK_BYTES).unwrap_or(c_ulong::MAX);
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid `struct rlimit` for getrlimit to write
    // and setrlimit to read.
    unsafe {
        if getrlimit(RLIMIT_STACK, &mut limit) == 0 && limit.cur < want {
            limit.cur = want.min(limit.max);
            setrlimit(RLIMIT_STACK, &limit);
        }
    }
}

/// Elsewhere the main thread keeps the stack the platform gave it.
#[cfg(not(target_os = "linux"))]
pub fn grow_main_stack() {}

/// How often blocked reads and the accept loop wake to poll the drain
/// flag — the upper bound on how stale a shutdown request can go
/// unnoticed.
const POLL_TICK: Duration = Duration::from_millis(50);

/// How long [`Transport::run`] reaps finished handler threads after the
/// drain deadline logic below; see [`TransportConfig::drain_wait`].
const REAP_TICK: Duration = Duration::from_millis(10);

/// Transport tuning. [`TransportConfig::default`] is the `hazel serve`
/// default; the CLI flags override individual fields.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Connections served concurrently; further accepts get a
    /// `transport` error line and an immediate close.
    pub max_conns: usize,
    /// A connection idle longer than this (no complete request framed)
    /// is told so and closed.
    pub idle_timeout: Duration,
    /// A reply write stalled longer than this (client not consuming —
    /// write backpressure) drops the connection rather than wedging a
    /// handler thread.
    pub write_timeout: Duration,
    /// Request lines over this many bytes are rejected (the framer
    /// discards without buffering) with a `transport` error line.
    pub max_line_bytes: usize,
    /// At drain, how long to wait for handler threads to finish before
    /// abandoning the stragglers.
    pub drain_wait: Duration,
    /// How often the accept loop fsyncs session journals. Appends reach
    /// the OS per request, which survives a killed process; this interval
    /// bounds how many acked requests a power loss can take.
    pub sync_interval: Duration,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            max_conns: 1024,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(30),
            max_line_bytes: 4 * 1024 * 1024,
            drain_wait: Duration::from_secs(10),
            sync_interval: Duration::from_secs(5),
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum BindTo {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port —
    /// read it back with [`Transport::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file left by a dead
    /// process is removed and rebound; a live one is an `AddrInUse`
    /// error.
    #[cfg(unix)]
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }
}

/// One accepted connection, TCP or Unix, with a uniform socket surface.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(dur)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }

    fn set_write_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(Some(dur)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(Some(dur)),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

struct Shared {
    server: Mutex<Server>,
    config: TransportConfig,
    /// Shared with [`ShutdownHandle`]s directly (not via the `Shared`
    /// arc) so outstanding handles don't stop the drained server from
    /// being handed back.
    shutdown: Arc<AtomicBool>,
    conns: AtomicUsize,
    accepted: AtomicU64,
    dropped: AtomicU64,
    /// Cloned from the server at bind time, for the connection gauges.
    metrics: Option<ServeMetrics>,
}

fn lock_server(shared: &Shared) -> MutexGuard<'_, Server> {
    shared.server.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheap handle that asks a running [`Transport`] to drain — what the
/// embedding process wires to its own lifecycle (the B19 bench uses it
/// as its in-process `kill -TERM`).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begin a graceful drain: stop accepting, finish in-flight
    /// requests, sync journals, return from [`Transport::run`].
    pub fn request_drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested (by anyone).
    pub fn draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What a completed [`Transport::run`] saw.
pub struct DrainSummary {
    /// Connections accepted over the transport's lifetime.
    pub accepted: u64,
    /// Connections closed early (over the cap, idle, or stalled writes).
    pub dropped: u64,
    /// Handler threads still running when `drain_wait` expired; their
    /// connections were abandoned (the process is exiting anyway).
    pub stranded: usize,
    /// The server, with journals synced — `None` only if stragglers
    /// still hold it.
    pub server: Option<Server>,
}

/// A bound listener plus the shared connection state; [`Transport::run`]
/// serves until drained.
pub struct Transport {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Transport {
    /// Binds the listener and prepares the shared state. The server's
    /// metrics handle (if metrics are enabled) is used for connection
    /// gauges.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, permission, bad address).
    pub fn bind(addr: &BindTo, server: Server, config: TransportConfig) -> io::Result<Transport> {
        let listener = match addr {
            BindTo::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            #[cfg(unix)]
            BindTo::Unix(path) => Listener::Unix(bind_unix(path)?),
        };
        let metrics = server.metrics().cloned();
        Ok(Transport {
            shared: Arc::new(Shared {
                server: Mutex::new(server),
                config,
                shutdown: Arc::new(AtomicBool::new(false)),
                conns: AtomicUsize::new(0),
                accepted: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                metrics,
            }),
            listener,
        })
    }

    /// The bound TCP address (`None` for a Unix listener) — how tests
    /// and benches learn the port after binding `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// A drain handle, cloneable across threads.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shared.shutdown),
        }
    }

    /// Serves until a drain is requested — by [`ShutdownHandle`], by a
    /// `shutdown` op on any connection, or by SIGTERM/SIGINT (when
    /// [`signal::install_term_handler`] was called) — then drains
    /// gracefully and returns what happened.
    pub fn run(self) -> DrainSummary {
        let Transport { shared, listener } = self;
        let _ = listener.set_nonblocking(true);
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        let mut last_sync = Instant::now();
        while !shared.shutdown.load(Ordering::SeqCst) && !signal::term_requested() {
            reap_finished(&mut handles);
            if last_sync.elapsed() >= shared.config.sync_interval {
                let _ = lock_server(&shared).sync_snapshots();
                last_sync = Instant::now();
            }
            match listener.accept() {
                Ok(conn) => {
                    livelit_trace::count(Counter::ServeConns, 1);
                    shared.accepted.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &shared.metrics {
                        m.conn_opened();
                    }
                    if shared.conns.load(Ordering::SeqCst) >= shared.config.max_conns {
                        reject_over_cap(&shared, conn);
                        continue;
                    }
                    shared.conns.fetch_add(1, Ordering::SeqCst);
                    let handler = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .stack_size(SERVE_STACK_BYTES)
                        .spawn(move || {
                            let end = serve_conn(&handler, conn);
                            if end == ConnEnd::Dropped {
                                livelit_trace::count(Counter::ServeConnsDropped, 1);
                                handler.dropped.fetch_add(1, Ordering::Relaxed);
                                if let Some(m) = &handler.metrics {
                                    m.conn_dropped();
                                }
                            }
                            handler.conns.fetch_sub(1, Ordering::SeqCst);
                            if let Some(m) = &handler.metrics {
                                m.conn_closed();
                            }
                        });
                    match spawned {
                        Ok(handle) => handles.push(handle),
                        // No thread to serve it (out of threads or memory):
                        // the connection closes unserved.
                        Err(_) => {
                            shared.conns.fetch_sub(1, Ordering::SeqCst);
                            if let Some(m) = &shared.metrics {
                                m.conn_closed();
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failure (EMFILE under fd pressure,
                // aborted handshake): back off and keep listening.
                Err(_) => std::thread::sleep(POLL_TICK),
            }
        }

        // Drain: no new connections; handler threads see the flag within
        // a poll tick, finish their in-flight request, and exit.
        shared.shutdown.store(true, Ordering::SeqCst);
        livelit_trace::count(Counter::ServeDrains, 1);
        drop(listener);
        let deadline = Instant::now() + shared.config.drain_wait;
        while !handles.is_empty() && Instant::now() < deadline {
            reap_finished(&mut handles);
            if !handles.is_empty() {
                std::thread::sleep(REAP_TICK);
            }
        }
        let stranded = handles.len();
        // Stragglers are detached; the summary says so.
        drop(handles);
        let _ = lock_server(&shared).sync_snapshots();

        let accepted = shared.accepted.load(Ordering::Relaxed);
        let dropped = shared.dropped.load(Ordering::Relaxed);
        let server = Arc::try_unwrap(shared).ok().map(|shared| {
            shared
                .server
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        });
        DrainSummary {
            accepted,
            dropped,
            stranded,
            server,
        }
    }
}

fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn reject_over_cap(shared: &Shared, mut conn: Conn) {
    let _ = conn.set_write_timeout(shared.config.write_timeout);
    let line = transport_error_line(format!(
        "server at connection capacity ({})",
        shared.config.max_conns
    ));
    let _ = write_line(&mut conn, &line);
    livelit_trace::count(Counter::ServeConnsDropped, 1);
    shared.dropped.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &shared.metrics {
        m.conn_dropped();
        m.conn_closed();
    }
}

#[derive(PartialEq, Eq)]
enum ConnEnd {
    /// EOF, or closed by a drain.
    Clean,
    /// Closed early: idle timeout, write stall, or a socket error.
    Dropped,
}

/// Serves one connection until EOF, drop, or drain. See the state
/// machine in the module docs.
fn serve_conn(shared: &Shared, conn: Conn) -> ConnEnd {
    if conn.set_read_timeout(POLL_TICK).is_err()
        || conn.set_write_timeout(shared.config.write_timeout).is_err()
    {
        return ConnEnd::Dropped;
    }
    let Ok(mut writer) = conn.try_clone() else {
        return ConnEnd::Dropped;
    };
    let mut reader = LineReader::new(conn, shared.config.max_line_bytes);
    let mut last_activity = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain between requests: everything read got its reply;
            // everything unread stays unread (and unjournaled), so the
            // client can safely re-send it after reconnecting.
            goodbye(&writer, reader.into_inner());
            return ConnEnd::Clean;
        }
        match reader.next_line() {
            Ok(Some(line)) => {
                last_activity = Instant::now();
                if line.trim().is_empty() {
                    continue;
                }
                let (reply, notes, drain) = {
                    let mut server = lock_server(shared);
                    let reply = server.handle_line(&line);
                    (
                        reply,
                        server.take_notifications(),
                        server.shutdown_requested(),
                    )
                };
                if write_line(&mut writer, &reply).is_err() {
                    return ConnEnd::Dropped;
                }
                for note in notes {
                    if write_line(&mut writer, &note).is_err() {
                        return ConnEnd::Dropped;
                    }
                }
                if drain {
                    shared.shutdown.store(true, Ordering::SeqCst);
                }
            }
            Ok(None) => return ConnEnd::Clean,
            Err(FrameError::TooLong { limit }) => {
                let line = transport_error_line(format!("request line exceeds {limit} bytes"));
                if write_line(&mut writer, &line).is_err() {
                    return ConnEnd::Dropped;
                }
            }
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_activity.elapsed() >= shared.config.idle_timeout {
                    let line = transport_error_line(format!(
                        "idle for {}s, closing",
                        shared.config.idle_timeout.as_secs()
                    ));
                    let _ = write_line(&mut writer, &line);
                    return ConnEnd::Dropped;
                }
            }
            Err(FrameError::Io(_)) => return ConnEnd::Dropped,
        }
    }
}

/// The graceful end of a drained connection: FIN the write side so the
/// client reads every buffered reply and then a clean EOF, and drain
/// whatever requests the client still had in flight — closing with
/// unread bytes in the receive buffer turns the close into a RST, which
/// can destroy replies the client has not read yet and break the
/// acked-implies-processed contract clients resume on.
fn goodbye(writer: &Conn, mut raw: Conn) {
    let _ = writer.shutdown_write();
    let deadline = Instant::now() + 5 * POLL_TICK;
    let mut scratch = [0u8; 4096];
    while Instant::now() < deadline {
        match raw.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

fn write_line(writer: &mut Conn, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// A one-line `transport`-kind error reply, for transport-level
/// refusals (over the cap, idle, oversized lines). Also used by the
/// stdio loop so both transports speak identical framing errors.
pub fn transport_error_line(message: String) -> String {
    error_reply(
        None,
        None,
        &RequestError::new(ErrorKind::Transport, message),
    )
    .to_string()
}

/// Binds a Unix socket, recovering from a stale socket file: if the
/// path is in use but nothing answers a connect, the previous process
/// died without unlinking — remove and rebind.
#[cfg(unix)]
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_err() {
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live server", path.display()),
                ))
            }
        }
        other => other,
    }
}

/// SIGTERM/SIGINT handling with no dependencies: a C `signal(2)` handler
/// that sets a flag [`Transport::run`] (and the stdio loop) polls.
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the termination handler for SIGTERM and SIGINT. Safe to
    /// call more than once.
    pub fn install_term_handler() {
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn term_requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// Non-Unix stub: no signals to install; never requested.
#[cfg(not(unix))]
pub mod signal {
    /// No-op off Unix.
    pub fn install_term_handler() {}

    /// Always `false` off Unix.
    pub fn term_requested() -> bool {
        false
    }
}
