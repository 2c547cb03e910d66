//! Production socket transports for the serve protocol: TCP and
//! Unix-domain listeners with connection caps, idle timeouts, write
//! backpressure, and graceful drain (sockets need a Unix platform).
//!
//! One thread serves every connection. [`Transport::run`] waits in one
//! `poll(2)` call on the listener, every nonblocking connection and a wake
//! pipe, and handles each request on the thread that calls it, on the
//! [`Server`] it owns, under that thread's tracer — as the stdio loop
//! does. Each turn handles at most one request per connection, so a
//! client that pipelines cannot starve another. A long request delays
//! reading from the other connections, as it always delayed handling them.
//!
//! # Connection state machine
//!
//! ```text
//!          accept
//!            │  over cap? ──► error line, close            (dropped)
//!            ▼
//!         READING ── line framed ──► handle, queue reply + notes
//!            ▲  │                          │ not all written at once
//!            │  │                          ▼
//!            │  │                       WRITING: polled for POLLOUT
//!            └──┼──── all written ─────────┘ only, not read
//!               │                          │ no progress > write_timeout
//!               │                          └──► close           (dropped)
//!               │ idle > idle_timeout ──► error line, close    (dropped)
//!               │ EOF (client done) ────► close                (clean)
//!               ▼ drain
//!         GOODBYE: finish the reply, FIN, read to EOF, close    (clean)
//! ```
//!
//! A connection buffers at most one reply and its `watch` notifications,
//! framed by a [`LineReader`] as on stdio. The poll timeout is the nearest
//! deadline: an idle or write timeout, the journal fsync, the end of an
//! accept backoff, or the drain's. A drain — SIGTERM, SIGINT, a `shutdown`
//! op, or [`ShutdownHandle::request_drain`] — wakes the loop at once: it
//! stops accepting and handling requests, finishes every queued reply,
//! then FINs and reads each connection to its EOF under one shared
//! deadline, and syncs the journals. A request is journaled before its
//! reply is queued and never handled unread, so a client that reconnects
//! after a restart resumes from its first unacknowledged request.
//!
//! [`LineReader`]: crate::wire::LineReader

use std::io::{self, Write};
use std::time::Duration;

use crate::{error_reply, ErrorKind, RequestError, Server};

#[cfg(unix)]
pub use poll_loop::{poll, BindTo, DrainSummary, PollFd, ShutdownHandle, Transport};

/// The stack of the thread that serves requests: the main thread that
/// `hazel serve` serves on (see [`grow_main_stack`]), or the thread an
/// in-process caller builds to run [`Transport::run`] on. Every pass over
/// a program recurses, so this is what [`hazel_lang::parse::MAX_DEPTH`] is
/// measured against. In a release build, input at that bound takes at
/// most about a third of it. An unoptimized build takes about nine times
/// the stack per level, so it gets eight times the stack.
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

/// Transport tuning. [`TransportConfig::default`] is the `hazel serve`
/// default; the CLI flags override individual fields.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Connections served concurrently; further accepts get a
    /// `transport` error line and an immediate close.
    pub max_conns: usize,
    /// A connection that frames no request and is written no reply byte
    /// for this long is told so and closed.
    pub idle_timeout: Duration,
    /// A connection whose reply makes no progress for this long (the
    /// client is not reading: write backpressure) is dropped.
    pub write_timeout: Duration,
    /// Request lines over this many bytes are rejected (the framer
    /// discards without buffering) with a `transport` error line.
    pub max_line_bytes: usize,
    /// How often the loop fsyncs session journals. Appends reach the OS
    /// per request, which survives a killed process; this interval bounds
    /// how many acked requests a power loss can take.
    pub sync_interval: Duration,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            max_conns: 1024,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(30),
            max_line_bytes: 4 * 1024 * 1024,
            sync_interval: Duration::from_secs(5),
        }
    }
}

/// The request step both serving loops share: skips a blank line, or
/// handles `line` and writes its reply and then its `watch` notifications
/// to `out` in one write. Returns whether the request asked for a drain.
///
/// # Errors
///
/// Propagates a failed write or flush of `out`; the request was handled
/// (and journaled) all the same.
pub fn serve_line(server: &mut Server, line: &str, out: &mut impl Write) -> io::Result<bool> {
    if line.trim().is_empty() {
        return Ok(false);
    }
    let mut bytes = server.handle_line(line).into_bytes();
    bytes.push(b'\n');
    for note in server.take_notifications() {
        bytes.extend_from_slice(note.as_bytes());
        bytes.push(b'\n');
    }
    out.write_all(&bytes)?;
    out.flush()?;
    Ok(server.shutdown_requested())
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

#[cfg(unix)]
mod poll_loop;

/// SIGTERM/SIGINT handling with no dependencies: a C `signal(2)` handler
/// that asks a [`Transport`] to drain through its [`ShutdownHandle`].
#[cfg(unix)]
pub mod signal {
    use std::os::raw::c_int;
    use std::sync::OnceLock;

    use super::ShutdownHandle;

    static DRAIN: OnceLock<ShutdownHandle> = OnceLock::new();

    extern "C" fn on_term(_signum: c_int) {
        // Only async-signal-safe work: an atomic load, an atomic swap and
        // at most one write(2).
        if let Some(handle) = DRAIN.get() {
            handle.request_drain();
        }
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    /// Makes SIGTERM and SIGINT drain the transport `handle` belongs to
    /// instead of killing the process. The first handle installed stays
    /// for the life of the process, so the pipe the handler writes to is
    /// never closed under it.
    pub fn drain_on_term(handle: ShutdownHandle) {
        let _ = DRAIN.set(handle);
        // SAFETY: `on_term` does only async-signal-safe work (see there).
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }
}
