//! Crash-safety properties for session snapshots (the transport PR).
//!
//! The contract: a server killed at an arbitrary point and restored from
//! its snapshot directory is indistinguishable — byte for byte, reply
//! for reply — from one that never died, for every session-addressed
//! request, and damaged journals degrade to structured `session` errors
//! instead of panics or silent data loss.

use std::path::PathBuf;
use std::sync::Arc;

use hazel::server::{ErrorKind, Server};
use integration_tests::XorShift;

const SLIDER_DOC: &str = "$slider@0{10}(0 : Int; 100 : Int)";
const SLIDER_ALT: &str = "$slider@0{25}(0 : Int; 50 : Int)";

fn std_server() -> Server {
    Server::with_registry(Arc::new(|| {
        let mut registry = hazel::editor::LivelitRegistry::new();
        hazel::std::register_all(&mut registry);
        registry
    }))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hzsnapprop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One random session-addressed request line. Sessions are drawn from a
/// small pool so traffic reopens, mutates, renders, and closes the same
/// names — including requests to sessions that don't currently exist
/// (which must not end up in any journal).
fn gen_line(g: &mut XorShift) -> String {
    let session = format!("s{}", g.below(4));
    match g.below(10) {
        0 | 1 => {
            let doc = if g.below(2) == 0 {
                SLIDER_DOC
            } else {
                SLIDER_ALT
            };
            format!("{{\"op\":\"open\",\"session\":{session:?},\"source\":{doc:?}}}")
        }
        2..=4 => {
            let target = if g.below(2) == 0 { "inc" } else { "dec" };
            format!(
                "{{\"op\":\"dispatch\",\"session\":{session:?},\"hole\":0,\
                 \"target\":{target:?},\"event\":\"click\"}}"
            )
        }
        5..=7 => format!("{{\"op\":\"render\",\"session\":{session:?}}}"),
        8 => format!("{{\"op\":\"analyze\",\"session\":{session:?}}}"),
        _ => format!("{{\"op\":\"close\",\"session\":{session:?}}}"),
    }
}

#[test]
fn restore_then_replay_is_byte_identical_to_an_uninterrupted_run() {
    for seed in 0..8u64 {
        let dir = temp_dir(&format!("replay-{seed}"));
        let mut g = XorShift::new(seed);
        let lines: Vec<String> = (0..40).map(|_| gen_line(&mut g)).collect();
        // The kill point: somewhere strictly inside the traffic.
        let cut = 1 + (g.below(lines.len() as u64 - 1) as usize);

        // Oracle: one server, never interrupted, no snapshots.
        let mut oracle = std_server();
        let oracle_replies: Vec<String> = lines.iter().map(|l| oracle.handle_line(l)).collect();

        // Victim: journals every acked request, dies after `cut`
        // lines (drop without any orderly shutdown — each record reaches
        // the OS before its reply ships, so nothing acked is lost).
        let mut victim = std_server();
        victim.enable_snapshots(&dir).expect("enable snapshots");
        for line in &lines[..cut] {
            victim.handle_line(line);
        }
        drop(victim);

        // Reborn: restores the journals, then serves the rest of
        // the traffic. Every reply must match the oracle's reply to
        // the same line, byte for byte.
        let mut reborn = std_server();
        let report = reborn.enable_snapshots(&dir).expect("restore");
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert!(report.torn.is_empty(), "clean kill point, no torn tail");
        for (line, expected) in lines[cut..].iter().zip(&oracle_replies[cut..]) {
            let got = reborn.handle_line(line);
            assert_eq!(&got, expected, "seed={seed} cut={cut} line={line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_journals_recover_the_acked_prefix() {
    let dir = temp_dir("torn");
    let mut server = std_server();
    server.enable_snapshots(&dir).expect("enable snapshots");
    server.handle_line(&format!(
        "{{\"op\":\"open\",\"session\":\"t\",\"source\":{SLIDER_DOC:?}}}"
    ));
    for _ in 0..2 {
        server.handle_line(
            "{\"op\":\"dispatch\",\"session\":\"t\",\"hole\":0,\"target\":\"inc\",\"event\":\"click\"}",
        );
    }
    drop(server);

    // Tear the final record mid-write, as a crash during append would.
    let journal = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "hzs"))
        .expect("journal file");
    let bytes = std::fs::read(&journal).expect("read journal");
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).expect("truncate");

    let mut reborn = std_server();
    let report = reborn.enable_snapshots(&dir).expect("restore");
    assert_eq!(report.torn, vec!["t".to_string()]);
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(
        report.restored,
        vec![("t".to_string(), 2)],
        "open plus the first dispatch survive; the torn second dispatch is dropped"
    );
    // The restored session serves from the recovered prefix: one acked
    // increment.
    let render = reborn.handle_line("{\"op\":\"render\",\"session\":\"t\"}");
    assert!(render.contains("\"result\":\"11\""), "{render}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journals_fail_structurally_and_spare_the_rest() {
    let dir = temp_dir("corrupt");
    let mut server = std_server();
    server.enable_snapshots(&dir).expect("enable snapshots");
    for session in ["keep", "maim"] {
        server.handle_line(&format!(
            "{{\"op\":\"open\",\"session\":{session:?},\"source\":{SLIDER_DOC:?}}}"
        ));
    }
    drop(server);

    // Stomp the magic of one journal; leave the other intact. Journal
    // stems are the hex of the session name.
    let maim_stem: String = "maim".bytes().map(|b| format!("{b:02x}")).collect();
    let maimed = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(&maim_stem))
        })
        .expect("maim journal");
    let mut bytes = std::fs::read(&maimed).expect("read journal");
    bytes[0] = b'X';
    std::fs::write(&maimed, &bytes).expect("corrupt");

    let mut reborn = std_server();
    let report = reborn
        .enable_snapshots(&dir)
        .expect("restore call itself succeeds");
    assert_eq!(report.restored, vec![("keep".to_string(), 1)]);
    assert_eq!(report.failed.len(), 1, "{:?}", report.failed);
    let (file, err) = &report.failed[0];
    assert!(file.contains(&maim_stem), "{file}");
    assert_eq!(err.kind, ErrorKind::Session);
    assert!(
        err.message.contains("magic"),
        "the error names the corruption: {}",
        err.message
    );
    // The intact session serves normally; the corrupt one is simply
    // absent (a structured `session` error, not a crash).
    let ok = reborn.handle_line("{\"op\":\"render\",\"session\":\"keep\"}");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    let gone = reborn.handle_line("{\"op\":\"render\",\"session\":\"maim\"}");
    assert!(gone.contains("\"kind\":\"session\""), "{gone}");
    let _ = std::fs::remove_dir_all(&dir);
}
