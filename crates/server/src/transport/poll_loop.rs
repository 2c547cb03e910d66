//! The socket loop behind [`Transport`]; see the [`super`] module docs.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use livelit_trace::Counter;

use super::{serve_line, transport_error_line, TransportConfig};
use crate::wire::{FrameError, LineReader};
use crate::Server;

/// How long a failing `accept` (out of descriptors, say) keeps the
/// listener out of the poll set, so the loop does not spin on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long a drain waits, in all, for clients to read their last
/// replies and close: one deadline that every connection shares.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// Where to listen.
#[derive(Debug, Clone)]
pub enum BindTo {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port —
    /// read it back with [`Transport::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file left by a dead
    /// process is removed and rebound; a live one is an `AddrInUse`
    /// error.
    Unix(PathBuf),
}

/// What the loop needs of a listener, TCP or Unix.
trait Listener: AsRawFd + Send {
    /// Accepts a pending connection as a nonblocking socket.
    fn accept_socket(&self) -> io::Result<Box<dyn Socket>>;
}

impl Listener for TcpListener {
    fn accept_socket(&self) -> io::Result<Box<dyn Socket>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

impl Listener for UnixListener {
    fn accept_socket(&self) -> io::Result<Box<dyn Socket>> {
        let (stream, _) = self.accept()?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(stream))
    }
}

/// What the loop needs of an accepted socket, TCP or Unix.
trait Socket: Read + Write + AsRawFd {
    fn shutdown_write(&self) -> io::Result<()>;
}

impl Socket for TcpStream {
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

impl Socket for UnixStream {
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

/// An entry of a [`poll`] set: one descriptor, waiting either to read
/// or to write.
#[repr(C)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn poll_fds(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

impl PollFd {
    /// Waits until `fd` has bytes to read, or an end of stream or
    /// error to report.
    pub fn readable(fd: &(impl AsRawFd + ?Sized)) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Waits until `fd` has room to write, or an error to report.
    pub fn writable(fd: &(impl AsRawFd + ?Sized)) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] found the descriptor ready; the next
    /// read or write then does not block, though it may fail.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// `poll(2)`: waits until an entry of `fds` is ready or `timeout`
/// passes (`None` waits for ever), and returns how many are ready. A
/// signal that interrupts the wait counts as none ready, so the caller
/// looks at its flags again.
///
/// # Errors
///
/// What `poll(2)` reports other than `EINTR`.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    // SAFETY: `fds` is a live, exclusively borrowed array of `nfds`
    // `struct pollfd`-layout entries for the whole call, which is all
    // poll(2) reads and writes.
    let ready = unsafe { poll_fds(fds.as_mut_ptr(), nfds, ms) };
    usize::try_from(ready).or_else(|_| match io::Error::last_os_error() {
        e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        e => Err(e),
    })
}

/// A cheap handle that asks a running [`Transport`] to drain — what
/// the embedding process wires to its own lifecycle (the B19 bench uses
/// it as its in-process `kill -TERM`).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// The write end of the pipe the loop polls.
    poke: Arc<io::PipeWriter>,
}

impl ShutdownHandle {
    /// Begin a graceful drain: stop accepting, finish in-flight
    /// requests, sync journals, return from [`Transport::run`]. Wakes
    /// the loop at once.
    pub fn request_drain(&self) {
        // Only the first request writes, so the pipe never fills. A
        // failed write means the loop is gone and needs no waking.
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = (&*self.poke).write(&[1]);
        }
    }
}

/// What a completed [`Transport::run`] saw.
pub struct DrainSummary {
    /// Connections accepted over the transport's lifetime.
    pub accepted: u64,
    /// Connections closed early (over the cap, idle, stalled writes,
    /// or a reply still unwritten at the drain deadline).
    pub dropped: u64,
    /// The server, with journals synced.
    pub server: Server,
}

/// A bound listener and the server it serves; [`Transport::run`]
/// serves until drained.
pub struct Transport {
    server: Server,
    config: TransportConfig,
    listener: Box<dyn Listener>,
    tcp_addr: Option<SocketAddr>,
    /// The read end of the pipe [`ShutdownHandle`]s write to.
    wake: io::PipeReader,
    handle: ShutdownHandle,
}

impl Transport {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, permission, bad
    /// address), and failures to make the wake pipe.
    pub fn bind(addr: &BindTo, server: Server, config: TransportConfig) -> io::Result<Transport> {
        let (listener, tcp_addr): (Box<dyn Listener>, _) = match addr {
            BindTo::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let bound = listener.local_addr()?;
                (Box::new(listener), Some(bound))
            }
            BindTo::Unix(path) => {
                let listener = bind_unix(path)?;
                listener.set_nonblocking(true)?;
                (Box::new(listener), None)
            }
        };
        let (wake, poke) = io::pipe()?;
        let handle = ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            poke: Arc::new(poke),
        };
        Ok(Transport {
            server,
            config,
            listener,
            tcp_addr,
            wake,
            handle,
        })
    }

    /// The bound TCP address (`None` for a Unix listener) — how tests
    /// and benches learn the port after binding `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A drain handle, cloneable across threads.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Serves on this thread until a drain is requested — by a
    /// [`ShutdownHandle`] (which SIGTERM and SIGINT use after
    /// [`super::signal::drain_on_term`]) or by a `shutdown` op on any
    /// connection — then drains gracefully and returns what happened.
    /// Requests recurse as deep as the nesting bound allows, so the
    /// calling thread needs [`super::SERVE_STACK_BYTES`] of stack.
    pub fn run(mut self) -> DrainSummary {
        let mut listener = Some(self.listener);
        let mut conns: Vec<Conn> = Vec::new();
        let mut listen_at = Instant::now();
        let mut sync_at = listen_at.checked_add(self.config.sync_interval);
        // Set when a drain begins: the deadline it shares.
        let mut drain_by: Option<Instant> = None;
        // A `shutdown` op asked for a drain during this turn.
        let mut drain = false;
        loop {
            let now = Instant::now();
            if drain_by.is_none() && (drain || self.handle.flag.load(Ordering::SeqCst)) {
                // No new connections and no further requests. Every
                // queued reply is finished, then each connection is
                // half-closed and read to its EOF.
                livelit_trace::count(Counter::ServeDrains, 1);
                listener = None;
                for conn in conns.iter().filter(|c| c.out.is_empty()) {
                    let _ = conn.socket().shutdown_write();
                }
                drain_by = Some(now + DRAIN_GRACE);
            }
            if drain_by.is_some_and(|by| conns.is_empty() || by <= now) {
                break;
            }
            if sync_at.is_some_and(|at| at <= now) {
                let _ = self.server.sync_snapshots();
                sync_at = now.checked_add(self.config.sync_interval);
            }
            let mut fds = Vec::with_capacity(conns.len() + 3);
            if drain_by.is_none() {
                fds.push(PollFd::readable(&self.wake));
            }
            let listening = listener.as_deref().filter(|_| listen_at <= now);
            fds.extend(listening.map(PollFd::readable));
            let first = fds.len();
            fds.extend(conns.iter().map(Conn::interest));
            let backoff = listener.is_some() && listening.is_none();
            let wake_at = match drain_by {
                Some(by) => Some(by),
                None if conns.iter().any(Conn::line_ready) => Some(now),
                None => (conns.iter().filter_map(|c| c.deadline(&self.config)))
                    .chain(sync_at)
                    .chain(backoff.then_some(listen_at))
                    .min(),
            };
            let wait = wake_at.map(|at| at.saturating_duration_since(now));
            if poll(&mut fds, wait).is_err() {
                break;
            }
            let now = Instant::now();
            if let Some(l) = listening.filter(|_| fds[first - 1].ready()) {
                if !accept(l, &mut self.server, &self.config, &mut conns, now) {
                    listen_at = now + ACCEPT_BACKOFF;
                }
            }
            let mut at = first;
            conns.retain_mut(|conn| {
                let ready = fds.get(at).is_some_and(PollFd::ready);
                at += 1;
                let end = match drain_by {
                    Some(_) if ready => conn.goodbye(),
                    Some(_) => None,
                    None => conn.turn(&mut self.server, &self.config, ready, now, &mut drain),
                };
                end.map(|end| closed(&mut self.server, end == ConnEnd::Dropped))
                    .is_none()
            });
        }
        for conn in conns {
            // A reply still unwritten at the deadline is lost to its client.
            closed(&mut self.server, !conn.out.is_empty());
        }
        let _ = self.server.sync_snapshots();
        DrainSummary {
            accepted: self.server.conns.accepted,
            dropped: self.server.conns.dropped,
            server: self.server,
        }
    }
}

/// Accepts every pending connection, refusing those over the cap.
/// Returns `false` when `accept` failed and should back off.
fn accept(
    listener: &dyn Listener,
    server: &mut Server,
    config: &TransportConfig,
    conns: &mut Vec<Conn>,
    now: Instant,
) -> bool {
    loop {
        let socket = match listener.accept_socket() {
            Ok(socket) => socket,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Out of descriptors or memory, or an aborted handshake:
            // keep listening after a pause.
            Err(_) => return false,
        };
        livelit_trace::count(Counter::ServeConns, 1);
        server.conns.accepted += 1;
        server.conns.open += 1;
        let mut conn = Conn {
            reader: LineReader::new(socket, config.max_line_bytes),
            out: Vec::new(),
            since: now,
        };
        if conns.len() < config.max_conns {
            conns.push(conn);
        } else {
            let cap = config.max_conns;
            conn.queue(&transport_error_line(format!(
                "server at connection capacity ({cap})"
            )));
            let _ = conn.flush(now);
            closed(server, true);
        }
    }
}

/// Accounts for a connection that ended, early if `dropped`; the caller
/// drops it.
fn closed(server: &mut Server, dropped: bool) {
    server.conns.open -= 1;
    if dropped {
        livelit_trace::count(Counter::ServeConnsDropped, 1);
        server.conns.dropped += 1;
    }
}

#[derive(PartialEq, Eq)]
enum ConnEnd {
    /// EOF, or closed by a drain.
    Clean,
    /// Closed early: idle timeout, write stall, or a socket error.
    Dropped,
}

/// One accepted connection. See the state machine in the module docs.
struct Conn {
    reader: LineReader<Box<dyn Socket>>,
    /// Reply bytes not yet written. While any are pending, the
    /// connection is polled for room to write and not read.
    out: Vec<u8>,
    /// The last request framed or reply byte written. The idle
    /// timeout counts from here while `out` is empty, the write
    /// timeout while it is not.
    since: Instant,
}

impl Conn {
    fn socket(&self) -> &dyn Socket {
        &**self.reader.get_ref()
    }

    fn interest(&self) -> PollFd {
        if self.out.is_empty() {
            PollFd::readable(self.socket())
        } else {
            PollFd::writable(self.socket())
        }
    }

    /// Whether a request is framed already, so the next turn must not
    /// wait for the socket.
    fn line_ready(&self) -> bool {
        self.out.is_empty() && self.reader.has_line()
    }

    fn deadline(&self, config: &TransportConfig) -> Option<Instant> {
        self.since.checked_add(if self.out.is_empty() {
            config.idle_timeout
        } else {
            config.write_timeout
        })
    }

    fn queue(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Writes what it can of `out` without blocking.
    fn flush(&mut self, now: Instant) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.reader.get_mut().write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                    self.since = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One turn: write what the poll found room for, or else frame and
    /// handle at most one request (none once a drain was asked for),
    /// then enforce the timeouts. Returns how the connection ended, if
    /// it did.
    fn turn(
        &mut self,
        server: &mut Server,
        config: &TransportConfig,
        ready: bool,
        now: Instant,
        drain: &mut bool,
    ) -> Option<ConnEnd> {
        if !self.out.is_empty() {
            if ready && self.flush(now).is_err() {
                return Some(ConnEnd::Dropped);
            }
        } else if !*drain && (ready || self.reader.has_line()) {
            match self.reader.next_line() {
                Ok(Some(line)) => {
                    self.since = now;
                    *drain |= serve_line(server, &line, &mut self.out)
                        .expect("writing to a Vec cannot fail");
                }
                Ok(None) => return Some(ConnEnd::Clean),
                Err(e @ FrameError::TooLong { .. }) => {
                    self.queue(&transport_error_line(e.to_string()));
                }
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(FrameError::Io(_)) => return Some(ConnEnd::Dropped),
            }
            if self.flush(now).is_err() {
                return Some(ConnEnd::Dropped);
            }
        }
        if self.deadline(config).is_some_and(|at| at <= now) {
            if self.out.is_empty() {
                let secs = config.idle_timeout.as_secs();
                self.queue(&transport_error_line(format!("idle for {secs}s, closing")));
                let _ = self.flush(now);
            }
            return Some(ConnEnd::Dropped);
        }
        None
    }

    /// One drain turn, for a ready connection. Finishes the queued
    /// reply and then FINs the write side, so the client reads every
    /// reply and then a clean EOF. After that it reads and discards
    /// what the client still sends until the client's EOF: closing
    /// with unread bytes in the receive buffer turns the close into a
    /// RST, which can destroy replies the client has not read yet and
    /// break the acked-implies-processed contract clients resume on.
    fn goodbye(&mut self) -> Option<ConnEnd> {
        if !self.out.is_empty() {
            if self.flush(Instant::now()).is_err() {
                return Some(ConnEnd::Dropped);
            }
            if self.out.is_empty() {
                let _ = self.socket().shutdown_write();
            }
            return None;
        }
        loop {
            match self.reader.next_line() {
                // Unhandled and unjournaled: the client re-sends it
                // after reconnecting.
                Ok(Some(_)) | Err(FrameError::TooLong { .. }) => {}
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => return None,
                // EOF, or the client is gone.
                Ok(None) | Err(FrameError::Io(_)) => return Some(ConnEnd::Clean),
            }
        }
    }
}

/// Binds a Unix socket, recovering from a stale socket file: if the
/// path is in use but nothing answers a connect, the previous process
/// died without unlinking — remove and rebind.
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
