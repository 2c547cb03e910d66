//! Deeply nested input must not take `hazel serve` down. Every pass over a
//! program recurses, so the parser and the server refuse input that nests
//! deeper than `MAX_DEPTH`, with a structured error that leaves the
//! session unchanged, while a document exactly at the bound opens, renders
//! and analyzes. Both transports are driven through the real binary: a
//! stack overflow aborts the whole process, which a test inside the server
//! process could not survive to report.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use hazel::editor::{open_module, LivelitRegistry};
use hazel::lang::parse::MAX_DEPTH;

/// A chain of `defs` library definitions under a `$slider` whose max
/// splice reads the last one: the document nests `defs + 2` levels.
fn def_chain(defs: usize) -> String {
    let mut src = String::from("def d0 : Int = 1 ;;\n");
    for i in 1..defs {
        src.push_str(&format!("def d{i} : Int = d{} + 1 ;;\n", i - 1));
    }
    src + &format!("$slider@0{{10}}(0 : Int; d{} : Int)", defs - 1)
}

fn depth_of(src: &str) -> usize {
    let mut registry = LivelitRegistry::new();
    hazel::std::register_all(&mut registry);
    open_module(registry, src).expect("module opens").1.depth()
}

fn json(s: &str) -> String {
    let mut out = String::new();
    hazel::analysis::json_string(&mut out, s);
    out
}

/// Runs the request script through `send`, which returns the reply line
/// or `None` once the server is gone, and checks each reply.
fn refuses_over_bound_input(send: &mut dyn FnMut(&str) -> Option<String>) {
    let at_bound = def_chain(MAX_DEPTH - 2);
    assert_eq!(depth_of(&at_bound), MAX_DEPTH);
    let over_bound = def_chain(MAX_DEPTH - 1);
    assert_eq!(depth_of(&over_bound), MAX_DEPTH + 1);
    let parens = "(".repeat(MAX_DEPTH + 1) + "1" + &")".repeat(MAX_DEPTH + 1);
    // `n` elements fold into `n` nested `Cons`es around a `Nil`; far more
    // than the bound would overflow any serving stack.
    let list = |n: usize| format!("[Int| {}1]", "1, ".repeat(n - 1));
    let long_list = list(64 * MAX_DEPTH);
    let open =
        |s: &str, src: &str| format!(r#"{{"op":"open","session":"{s}","source":{}}}"#, json(src));
    let op = |op: &str, s: &str| format!(r#"{{"op":"{op}","session":"{s}"}}"#);
    let edit = |contents: &str| {
        format!(
            r#"{{"op":"edit","session":"edge","edit":{{"kind":"edit_splice","at":0,"splice":1,"contents":{}}}}}"#,
            json(contents)
        )
    };
    let script = [
        (
            open("other", "$slider@0{7}(0 : Int; 100 : Int)"),
            r#"{"ok":true"#,
        ),
        // Over the parser's bound, and over the document bound.
        (open("parens", &parens), r#"{"ok":false"#),
        (open("list", &long_list), r#"{"ok":false"#),
        (open("chain", &over_bound), r#"{"ok":false"#),
        // A list literal at the bound opens and renders.
        (open("list", &list(MAX_DEPTH - 1)), r#"{"ok":true"#),
        (op("render", "list"), r#""result":"1 :: 1 :: "#),
        // At the bound: opens, renders and analyzes.
        (open("edge", &at_bound), r#"{"ok":true"#),
        (op("render", "edge"), r#""result":"10""#),
        (op("analyze", "edge"), r#"{"ok":true"#),
        // A splice edit that would nest the document one level deeper,
        // and one whose contents are over the parser's bound: both are
        // refused and leave the session as it was.
        (edit("d0 + 1"), r#"{"ok":false"#),
        (edit(&parens), r#"{"ok":false"#),
        (edit(&long_list), r#"{"ok":false"#),
        (op("render", "edge"), r#""result":"10""#),
        (edit("100"), r#"{"ok":true"#),
        // The other session keeps serving.
        (op("render", "other"), r#""result":"7""#),
    ];
    for (request, expected) in script {
        let shown: String = request.chars().take(80).collect();
        let reply = send(&request).unwrap_or_else(|| panic!("server gone after {shown}"));
        assert!(
            reply.contains(expected),
            "{shown}: expected {expected} in {reply}"
        );
    }
}

/// Sends a line and reads the reply line, `None` at end of stream.
fn exchange(to: &mut impl Write, from: &mut impl BufRead, line: &str) -> Option<String> {
    writeln!(to, "{line}").ok()?;
    let mut reply = String::new();
    (from.read_line(&mut reply).ok()? > 0).then_some(reply)
}

#[test]
fn over_bound_input_is_refused_over_stdio() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .args(["serve", "--stdio", "--no-metrics"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    refuses_over_bound_input(&mut |line| exchange(&mut stdin, &mut stdout, line));
    drop(stdin);
    assert!(child.wait().unwrap().success());
}

#[cfg(unix)]
#[test]
fn over_bound_input_is_refused_over_a_socket() {
    let path = std::env::temp_dir().join(format!("hazel-deep-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut child = Command::new(env!("CARGO_BIN_EXE_hazel"))
        .args(["serve", "--no-metrics", "--uds"])
        .arg(&path)
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let conn = (0..200)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::os::unix::net::UnixStream::connect(&path).ok()
        })
        .expect("server listens");
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    refuses_over_bound_input(&mut |line| exchange(&mut writer, &mut reader, line));
    let alive = child.try_wait().unwrap().is_none();
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(alive, "the server process survived");
}
