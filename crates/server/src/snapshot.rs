//! Crash-safe session persistence: per-session replay journals.
//!
//! Rather than serializing live engine state (caches, retained view
//! arenas, interned term stores — all shared-pointer graphs), the
//! snapshot of a session is the *request journal* that built it: every
//! handled request line addressed to the session, written to the OS
//! before the reply is released to the client. The serving pipeline is
//! deterministic — the property the golden transcripts pin — so
//! replaying a journal through a fresh server reconstructs the
//! document, engine caches, acked view generations, and per-session
//! stats byte-identically.
//!
//! # What an ack survives
//!
//! Each record is handed to the OS with unbuffered `write`s before its
//! reply ships ([`SnapshotStore::append`]), so
//! **acked requests survive a killed process** (`kill -9`, an OOM
//! kill): a client that saw a reply will find that
//! request's effects after a restart. They do **not** necessarily survive
//! a power loss or kernel crash: [`SnapshotStore::sync`] (`sync_data`)
//! runs only every `sync_interval` on sockets (5 s by default) and at
//! drain, and on stdio only at exit, so the acks since the last sync can
//! be lost. A request the server never replied to was never journaled,
//! so clients resume by re-sending from their first unacknowledged
//! request.
//!
//! # Format (version 1)
//!
//! One journal file per session, `*.hzs`, length-prefixed binary:
//!
//! ```text
//! 8 bytes   magic  b"HZSNAP1\n"
//! 4 bytes   u32 LE format version (1)
//! per record:
//!   4 bytes  u32 LE payload length
//!   n bytes  the request line, UTF-8, no trailing newline
//! ```
//!
//! A crash can tear at most the final record (appends are sequential
//! and written per request); [`read_journal`] recovers the intact
//! prefix and flags the torn tail. Anything worse — wrong magic, an
//! unknown version, an impossible record length, a record that is not
//! UTF-8 — is a structured error for that journal (surfaced by the
//! server as a `session`-kind error), never a panic, and never stops
//! the surviving sessions from restoring.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The journal file magic: "HaZel SNAPshot", format generation 1.
pub const MAGIC: &[u8; 8] = b"HZSNAP1\n";
/// The current journal format version.
pub const VERSION: u32 = 1;
/// Journal file extension.
pub const EXTENSION: &str = "hzs";
/// Upper bound on a single record — far above the transport's line cap,
/// so any length beyond it means the file is corrupt, not merely large.
pub const MAX_RECORD: usize = 64 * 1024 * 1024;

/// Why a journal could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file is shorter than the magic + version header.
    TruncatedHeader,
    /// The magic bytes are wrong — not a journal, or scrambled.
    BadMagic,
    /// The header names a version this build does not read.
    UnknownVersion(u32),
    /// A record length field exceeds [`MAX_RECORD`].
    CorruptLength(u64),
    /// A record payload is not UTF-8.
    CorruptEncoding,
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TruncatedHeader => write!(f, "truncated journal header"),
            SnapshotError::BadMagic => write!(f, "bad journal magic"),
            SnapshotError::UnknownVersion(v) => write!(f, "unknown journal version {v}"),
            SnapshotError::CorruptLength(n) => write!(f, "corrupt record length {n}"),
            SnapshotError::CorruptEncoding => write!(f, "corrupt record encoding"),
            SnapshotError::Io(e) => write!(f, "cannot read journal: {e}"),
        }
    }
}

/// A parsed journal: the replayable request lines, plus whether a torn
/// final record (crash mid-append) was dropped to recover them.
#[derive(Debug, PartialEq, Eq)]
pub struct Journal {
    /// The request lines, in append order.
    pub lines: Vec<String>,
    /// A final record was incomplete and was discarded.
    pub torn_tail: bool,
}

/// Reads and validates one journal file.
///
/// # Errors
///
/// [`SnapshotError`] when the header or a record is corrupt; a torn
/// *final* record is not an error (see [`Journal::torn_tail`]).
pub fn read_journal(path: &Path) -> Result<Journal, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(SnapshotError::TruncatedHeader);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4"));
    if version != VERSION {
        return Err(SnapshotError::UnknownVersion(version));
    }
    let mut pos = MAGIC.len() + 4;
    let mut lines = Vec::new();
    let mut torn_tail = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 4 {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        if len > MAX_RECORD {
            return Err(SnapshotError::CorruptLength(len as u64));
        }
        pos += 4;
        if bytes.len() - pos < len {
            torn_tail = true;
            break;
        }
        let line = std::str::from_utf8(&bytes[pos..pos + len])
            .map_err(|_| SnapshotError::CorruptEncoding)?;
        lines.push(line.to_owned());
        pos += len;
    }
    Ok(Journal { lines, torn_tail })
}

/// The on-disk journal set for one snapshot directory: appends request
/// lines per session, deletes journals on `close`, and enumerates
/// journals for restore.
pub struct SnapshotStore {
    dir: PathBuf,
    open: BTreeMap<String, File>,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the directory.
    pub fn open(dir: &Path) -> io::Result<SnapshotStore> {
        std::fs::create_dir_all(dir)?;
        Ok(SnapshotStore {
            dir: dir.to_owned(),
            open: BTreeMap::new(),
        })
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal file for `session`. Names are hex-encoded so any
    /// session name is filesystem-safe; long names keep a hex prefix and
    /// append an FNV-1a fingerprint to stay under name-length limits.
    pub fn journal_path(&self, session: &str) -> PathBuf {
        self.dir.join(format!("{}.{EXTENSION}", file_stem(session)))
    }

    /// Appends one request line to `session`'s journal, handing it to the
    /// OS, and returns the bytes written. Must complete before the reply
    /// ships — that ordering is what lets an ack survive a killed process
    /// (see the module docs; surviving a power loss also needs [`sync`]).
    ///
    /// [`sync`]: SnapshotStore::sync
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the caller decides whether to keep
    /// serving without durability or to drop the session.
    pub fn append(&mut self, session: &str, line: &str) -> io::Result<u64> {
        let mut wrote = 0u64;
        if !self.open.contains_key(session) {
            let path = self.journal_path(session);
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            if file.metadata()?.len() == 0 {
                file.write_all(MAGIC)?;
                file.write_all(&VERSION.to_le_bytes())?;
                wrote += (MAGIC.len() + 4) as u64;
            }
            self.open.insert(session.to_owned(), file);
        }
        let file = self.open.get_mut(session).expect("just inserted");
        let len = u32::try_from(line.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "request line exceeds u32 bytes",
            )
        })?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(line.as_bytes())?;
        wrote += 4 + line.len() as u64;
        Ok(wrote)
    }

    /// Deletes `session`'s journal (the session closed cleanly). Missing
    /// files are fine — the session may never have been journaled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn remove(&mut self, session: &str) -> io::Result<()> {
        self.open.remove(session);
        match std::fs::remove_file(self.journal_path(session)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Forces journal bytes to stable storage (`fsync`) for every open
    /// journal — called on interval and at drain.
    ///
    /// # Errors
    ///
    /// Propagates the first `sync_data` failure.
    pub fn sync(&mut self) -> io::Result<()> {
        for file in self.open.values_mut() {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Every journal file in the directory, sorted by file name for a
    /// deterministic restore order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn journal_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == EXTENSION))
            .collect();
        paths.sort();
        Ok(paths)
    }
}

/// Hex-encodes a session name into a filesystem-safe file stem.
fn file_stem(session: &str) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let hex = |bytes: &[u8]| -> String {
        bytes
            .iter()
            .flat_map(|&b| {
                [
                    HEX[usize::from(b >> 4)] as char,
                    HEX[usize::from(b & 0xf)] as char,
                ]
            })
            .collect()
    };
    let bytes = session.as_bytes();
    if bytes.len() <= 48 {
        format!("s-{}", hex(bytes))
    } else {
        // FNV-1a keeps distinct long names distinct in practice while
        // bounding the file name length.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("s-{}-{h:016x}", hex(&bytes[..24]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hzsnap-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn journal_round_trips_and_close_deletes() {
        let dir = temp_dir("rt");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.append("a", "{\"op\":\"open\"}").expect("append");
        store.append("a", "{\"op\":\"edit\"}").expect("append");
        store.append("b", "{\"op\":\"open\"}").expect("append");
        store.sync().expect("sync");
        assert_eq!(store.journal_paths().expect("paths").len(), 2);

        let journal = read_journal(&store.journal_path("a")).expect("read");
        assert!(!journal.torn_tail);
        assert_eq!(
            journal.lines,
            vec![
                "{\"op\":\"open\"}".to_string(),
                "{\"op\":\"edit\"}".to_string()
            ]
        );

        store.remove("a").expect("remove");
        store.remove("never-journaled").expect("missing is fine");
        assert_eq!(store.journal_paths().expect("paths").len(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopening_appends_without_a_second_header() {
        let dir = temp_dir("reopen");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.append("s", "one").expect("append");
        drop(store);
        let mut store = SnapshotStore::open(&dir).expect("reopen");
        store.append("s", "two").expect("append");
        let journal = read_journal(&store.journal_path("s")).expect("read");
        assert_eq!(journal.lines, vec!["one".to_string(), "two".to_string()]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_tail_recovers_the_intact_prefix() {
        let dir = temp_dir("torn");
        let mut store = SnapshotStore::open(&dir).expect("open");
        store.append("s", "first").expect("append");
        store.append("s", "second-longer-line").expect("append");
        let path = store.journal_path("s");
        let full = std::fs::read(&path).expect("read");
        // Tear at every byte inside the final record (and its length
        // prefix): the first record must always survive.
        let first_end = MAGIC.len() + 4 + 4 + "first".len();
        // `cut == first_end` would be a *clean* one-record journal, so
        // start tearing one byte into the second record's length prefix.
        for cut in first_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncate");
            let journal = read_journal(&path).expect("recovers");
            assert!(journal.torn_tail, "cut at {cut}");
            assert_eq!(journal.lines, vec!["first".to_string()], "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_journals_are_structured_errors_not_panics() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.hzs");

        std::fs::write(&path, b"HZ").expect("write");
        assert_eq!(read_journal(&path), Err(SnapshotError::TruncatedHeader));

        std::fs::write(&path, b"NOTSNAP!\x01\x00\x00\x00").expect("write");
        assert_eq!(read_journal(&path), Err(SnapshotError::BadMagic));

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(read_journal(&path), Err(SnapshotError::UnknownVersion(99)));

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            read_journal(&path),
            Err(SnapshotError::CorruptLength(_))
        ));

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(read_journal(&path), Err(SnapshotError::CorruptEncoding));

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn long_session_names_get_bounded_distinct_stems() {
        let a = "x".repeat(300);
        let b = format!("{}y", "x".repeat(299));
        let sa = file_stem(&a);
        let sb = file_stem(&b);
        assert_ne!(sa, sb);
        assert!(sa.len() < 80, "stem stays under name-length limits");
        assert!(file_stem("plain").starts_with("s-"));
    }
}
