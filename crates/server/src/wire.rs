//! Wire encoding of view trees and patch scripts, and the line framer
//! shared by every transport.
//!
//! View payloads are the protocol's bulk; the encoding is deterministic
//! (fixed field order) so transcripts can be diffed byte-for-byte in CI.
//! Handler actions are object-language values ([`Action`] = `IExp`); they
//! cross the wire in surface syntax via the pretty printer, the same form
//! the `edit`/`dispatch` requests accept.
//!
//! [`LineReader`] implements the request framing rules once, for stdio
//! and socket transports alike: a request ends at `\n`, an optional
//! preceding `\r` is stripped (CRLF clients are accepted), and a final
//! line at EOF without a trailing newline is still a complete request —
//! a client may close its write side after its last request and still
//! get a reply.

use std::io::{self, Read};

use hazel_lang::pretty::print_iexp;
use livelit_mvu::diff::Patch;
use livelit_mvu::html::{EventKind, Html};
use livelit_mvu::livelit::Action;

use crate::json::{obj, uint, Json};

/// The stable wire name of a DOM event kind.
pub fn event_name(event: EventKind) -> &'static str {
    match event {
        EventKind::Click => "click",
        EventKind::Input => "input",
        EventKind::Drag => "drag",
    }
}

/// Parses a wire event name.
pub fn parse_event(name: &str) -> Option<EventKind> {
    match name {
        "click" => Some(EventKind::Click),
        "input" => Some(EventKind::Input),
        "drag" => Some(EventKind::Drag),
        _ => None,
    }
}

/// One-line surface syntax for an action value, as views emit them.
pub fn action_text(action: &Action) -> String {
    print_iexp(action, usize::MAX)
}

fn attrs_json(attrs: &[(String, String)]) -> Json {
    Json::Arr(
        attrs
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
            .collect(),
    )
}

fn handlers_json(handlers: &[(EventKind, Action)]) -> Json {
    Json::Arr(
        handlers
            .iter()
            .map(|(e, a)| {
                Json::Arr(vec![
                    Json::Str(event_name(*e).to_owned()),
                    Json::Str(action_text(a)),
                ])
            })
            .collect(),
    )
}

/// Encodes a view tree. Node kinds are tagged `"t"`: `"elem"`, `"text"`,
/// `"editor"` (an embedded splice editor the client renders itself), and
/// `"result"` (a splice result view).
pub fn html_json(view: &Html<Action>) -> Json {
    match view {
        Html::Element {
            tag,
            attrs,
            handlers,
            children,
        } => obj([
            ("t", Json::Str("elem".into())),
            ("tag", Json::Str(tag.clone())),
            ("attrs", attrs_json(attrs)),
            ("handlers", handlers_json(handlers)),
            (
                "children",
                Json::Arr(children.iter().map(html_json).collect()),
            ),
        ]),
        Html::Text(s) => obj([
            ("t", Json::Str("text".into())),
            ("text", Json::Str(s.clone())),
        ]),
        Html::Editor { splice, dim } => obj([
            ("t", Json::Str("editor".into())),
            ("splice", uint(splice.0)),
            ("w", uint(dim.width)),
            ("h", uint(dim.height)),
        ]),
        Html::ResultView { splice, dim } => obj([
            ("t", Json::Str("result".into())),
            ("splice", uint(splice.0)),
            ("w", uint(dim.width)),
            ("h", uint(dim.height)),
        ]),
    }
}

fn path_json(path: &[usize]) -> Json {
    Json::Arr(path.iter().map(|&i| uint(i)).collect())
}

/// Encodes one patch operation. Patches address nodes positionally by
/// child-index path from the view root, mirroring [`livelit_mvu::diff()`].
pub fn patch_json(patch: &Patch<Action>) -> Json {
    match patch {
        Patch::Replace(path, node) => obj([
            ("op", Json::Str("replace".into())),
            ("path", path_json(path)),
            ("node", html_json(node)),
        ]),
        Patch::SetText(path, text) => obj([
            ("op", Json::Str("set_text".into())),
            ("path", path_json(path)),
            ("text", Json::Str(text.clone())),
        ]),
        Patch::SetAttrs(path, attrs) => obj([
            ("op", Json::Str("set_attrs".into())),
            ("path", path_json(path)),
            ("attrs", attrs_json(attrs)),
        ]),
        Patch::SetHandlers(path, handlers) => obj([
            ("op", Json::Str("set_handlers".into())),
            ("path", path_json(path)),
            ("handlers", handlers_json(handlers)),
        ]),
        Patch::AppendChild(path, node) => obj([
            ("op", Json::Str("append_child".into())),
            ("path", path_json(path)),
            ("node", html_json(node)),
        ]),
        Patch::TruncateChildren(path, len) => obj([
            ("op", Json::Str("truncate_children".into())),
            ("path", path_json(path)),
            ("len", uint(*len)),
        ]),
    }
}

/// Why the framer could not produce a line.
#[derive(Debug)]
pub enum FrameError {
    /// A line exceeded the configured byte cap. The oversized line has
    /// been discarded (through its newline, or to EOF); the reader is
    /// positioned at the next line and can keep going.
    TooLong {
        /// The configured cap the line blew through.
        limit: usize,
    },
    /// The underlying stream failed. Timeout kinds (`WouldBlock`,
    /// `TimedOut`) are retryable: buffered partial-line bytes are kept,
    /// so calling [`LineReader::next_line`] again resumes mid-line.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            FrameError::Io(e) => write!(f, "transport read failed: {e}"),
        }
    }
}

/// An incremental line framer over any byte stream.
///
/// Framing rules (identical on stdio, TCP, and Unix sockets):
///
/// - a request line ends at `\n`; a preceding `\r` is stripped, so CRLF
///   clients work unchanged;
/// - a final line at EOF **without** a trailing newline is still a
///   complete request — the server replies before hanging up;
/// - invalid UTF-8 is replaced (U+FFFD) rather than killing the
///   connection; the request parser then rejects the line with a
///   structured `parse` error;
/// - lines longer than `max_line` bytes are discarded without being
///   buffered and surfaced as [`FrameError::TooLong`], one error per
///   oversized line, after which framing resynchronizes at the next
///   newline.
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    start: usize,
    max_line: usize,
    /// Inside an oversized line: drop bytes until its newline.
    discarding: bool,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner`, capping accepted lines at `max_line` bytes.
    pub fn new(inner: R, max_line: usize) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            start: 0,
            max_line,
            discarding: false,
            eof: false,
        }
    }

    /// Returns the underlying stream (for shutdown/identity checks).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Unwraps the reader, handing back the stream (buffered-but-unframed
    /// bytes are dropped — used when the transport stops reading requests
    /// at drain and only needs the raw socket to say goodbye).
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Next complete request line, `Ok(None)` at clean end of stream.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLong`] for an oversized line (recoverable — call
    /// again), [`FrameError::Io`] when the stream fails (timeout kinds
    /// are retryable, see [`FrameError`]).
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        loop {
            if let Some(off) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + off;
                let line = Self::strip_cr(&self.buf[self.start..end]);
                let result = if self.discarding || line.len() > self.max_line {
                    self.discarding = false;
                    Err(FrameError::TooLong {
                        limit: self.max_line,
                    })
                } else {
                    Ok(Some(String::from_utf8_lossy(line).into_owned()))
                };
                self.start = end + 1;
                self.compact();
                return result;
            }
            let pending = self.buf.len() - self.start;
            if self.discarding {
                // Mid-oversized-line: drop what we have, keep hunting
                // for the newline without growing the buffer.
                self.buf.clear();
                self.start = 0;
            } else if pending > self.max_line {
                self.buf.clear();
                self.start = 0;
                self.discarding = true;
            }
            if self.eof {
                if self.discarding {
                    self.discarding = false;
                    return Err(FrameError::TooLong {
                        limit: self.max_line,
                    });
                }
                if pending == 0 {
                    return Ok(None);
                }
                // Final request without a trailing newline: still served.
                let line = Self::strip_cr(&self.buf[self.start..]);
                let line = String::from_utf8_lossy(line).into_owned();
                self.buf.clear();
                self.start = 0;
                return Ok(Some(line));
            }
            let mut chunk = [0u8; 8192];
            match self.inner.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    fn strip_cr(line: &[u8]) -> &[u8] {
        line.strip_suffix(b"\r").unwrap_or(line)
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 16 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hazel_lang::IExp;
    use livelit_mvu::html::tags::div;

    #[test]
    fn view_encoding_is_deterministic() {
        let view: Html<Action> = div(vec![Html::text("57")])
            .attr("id", "x")
            .on(EventKind::Click, IExp::Int(1));
        let a = html_json(&view).to_string();
        let b = html_json(&view).to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"t\":\"elem\""));
        assert!(a.contains("[\"click\",\"1\"]"));
    }

    #[test]
    fn event_names_round_trip() {
        for e in [EventKind::Click, EventKind::Input, EventKind::Drag] {
            assert_eq!(parse_event(event_name(e)), Some(e));
        }
        assert_eq!(parse_event("hover"), None);
    }

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case short-read schedule a socket can produce.
    struct Trickle<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.bytes.len() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn lines_of(input: &[u8], max_line: usize) -> Vec<Result<String, String>> {
        let mut reader = LineReader::new(
            Trickle {
                bytes: input,
                pos: 0,
            },
            max_line,
        );
        let mut out = Vec::new();
        loop {
            match reader.next_line() {
                Ok(Some(line)) => out.push(Ok(line)),
                Ok(None) => return out,
                Err(e) => out.push(Err(e.to_string())),
            }
        }
    }

    #[test]
    fn framing_accepts_lf_crlf_and_a_final_unterminated_line() {
        let got = lines_of(b"{\"op\":\"a\"}\r\n{\"op\":\"b\"}\n{\"op\":\"c\"}", 1 << 20);
        assert_eq!(
            got,
            vec![
                Ok("{\"op\":\"a\"}".to_string()),
                Ok("{\"op\":\"b\"}".to_string()),
                Ok("{\"op\":\"c\"}".to_string()),
            ]
        );
        // A final CRLF line cut at EOF after the \r still frames.
        assert_eq!(lines_of(b"x\r", 64), vec![Ok("x".to_string())]);
        // Interior \r is content, not framing.
        assert_eq!(lines_of(b"a\rb\n", 64), vec![Ok("a\rb".to_string())]);
        assert_eq!(lines_of(b"", 64), Vec::new());
        assert_eq!(
            lines_of(b"\n\n", 64),
            vec![Ok(String::new()), Ok(String::new())]
        );
    }

    #[test]
    fn framing_survives_short_reads_mid_line() {
        // Trickle delivers one byte per read; the framer must reassemble
        // lines across arbitrarily many partial reads.
        let input = b"{\"id\":1,\"op\":\"stats\"}\n{\"id\":2,\"op\":\"stats\"}";
        let got = lines_of(input, 1 << 20);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Ok("{\"id\":1,\"op\":\"stats\"}".to_string()));
        assert_eq!(got[1], Ok("{\"id\":2,\"op\":\"stats\"}".to_string()));
    }

    #[test]
    fn framing_resumes_after_a_retryable_timeout() {
        // A reader that times out between every byte: the framer must
        // keep its partial-line buffer across Io errors and finish the
        // line once bytes flow again.
        struct Flaky<'a> {
            bytes: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                self.ready = false;
                if self.pos == self.bytes.len() {
                    return Ok(0);
                }
                out[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut reader = LineReader::new(
            Flaky {
                bytes: b"hello\nworld\n",
                pos: 0,
                ready: false,
            },
            64,
        );
        let mut lines = Vec::new();
        let mut timeouts = 0;
        loop {
            match reader.next_line() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break,
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected frame error: {e}"),
            }
        }
        assert_eq!(lines, vec!["hello".to_string(), "world".to_string()]);
        assert!(timeouts >= 2, "timeouts were surfaced, not swallowed");
    }

    #[test]
    fn oversized_lines_are_discarded_then_framing_resyncs() {
        let mut input = vec![b'x'; 200];
        input.extend_from_slice(b"\nok\n");
        let got = lines_of(&input, 64);
        assert_eq!(got.len(), 2);
        assert!(got[0].as_ref().unwrap_err().contains("exceeds 64 bytes"));
        assert_eq!(got[1], Ok("ok".to_string()));
        // Oversized final line terminated by EOF instead of \n.
        let got = lines_of(&[b'y'; 100], 64);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_err());
        // The whole oversized line landing in a single read chunk must
        // still be rejected (the cap check can't rely on the buffer
        // growing past the limit between reads).
        let mut input = vec![b'z'; 200];
        input.extend_from_slice(b"\nok\n");
        let mut reader = LineReader::new(&input[..], 64);
        assert!(matches!(
            reader.next_line(),
            Err(FrameError::TooLong { limit: 64 })
        ));
        assert_eq!(reader.next_line().unwrap(), Some("ok".to_string()));
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let got = lines_of(b"\xff\xfe\nnext\n", 64);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Ok("\u{fffd}\u{fffd}".to_string()));
        assert_eq!(got[1], Ok("next".to_string()));
    }
}
