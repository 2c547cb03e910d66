//! Acceptance tests for the `hazel trace` and `hazel stats` subcommands
//! over the checked-in grading fixtures.
//!
//! The trace subcommand runs under the deterministic test clock, so its
//! JSONL output is byte-identical across runs and across machines — the
//! goldens under `tests/golden/` pin the exact event stream and CI diffs
//! against them. Regenerate with
//! `hazel trace --json examples/<fixture>.hzl > crates/hazel/tests/golden/<fixture>.trace.jsonl`
//! after intentionally changing instrumentation.

use std::process::{Command, Output};

fn fixture_path(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap()
}

fn hazel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hazel"))
        .args(args)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn trace_json_is_byte_deterministic_across_runs() {
    let fixture = fixture_path("grading_clean.hzl");
    let first = hazel(&["trace", "--json", &fixture]);
    let second = hazel(&["trace", "--json", &fixture]);
    assert!(first.status.success(), "{first:?}");
    assert_eq!(first.stdout, second.stdout);
    assert!(!first.stdout.is_empty());
}

#[test]
fn trace_json_matches_the_clean_golden() {
    let out = hazel(&["trace", "--json", &fixture_path("grading_clean.hzl")]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), golden("grading_clean.trace.jsonl"));
}

#[test]
fn trace_json_matches_the_buggy_golden() {
    let out = hazel(&["trace", "--json", &fixture_path("grading_buggy.hzl")]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), golden("grading_buggy.trace.jsonl"));
}

#[test]
fn trace_text_renders_an_indented_tree() {
    let out = hazel(&["trace", "--text", &fixture_path("grading_clean.hzl")]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("▶ engine.run"), "{text}");
    // engine phases are nested one level under engine.run.
    assert!(text.contains("  ▶ engine.collect"), "{text}");
    assert!(text.contains("◀ engine.run"), "{text}");
}

#[test]
fn trace_covers_every_pipeline_layer() {
    let out = hazel(&["trace", "--json", &fixture_path("grading_clean.hzl")]);
    let text = stdout(&out);
    for phase in [
        "\"parse.module\"",
        "\"expand.typed\"",
        "\"cc.collect\"",
        "\"cc.resume_result\"",
        "\"eval\"",
        "\"engine.views\"",
        "\"analysis.pass.hygiene\"",
    ] {
        assert!(text.contains(phase), "missing {phase} in:\n{text}");
    }
    for counter in [
        "\"expansions_performed\"",
        "\"closures_collected\"",
        "\"machine_steps\"",
    ] {
        assert!(text.contains(counter), "missing {counter} in:\n{text}");
    }
}

#[test]
fn stats_prints_the_phase_table() {
    let out = hazel(&["stats", &fixture_path("grading_clean.hzl")]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("phase"), "{text}");
    assert!(text.contains("engine.run"), "{text}");
    assert!(text.contains("counter"), "{text}");
    assert!(text.contains("expansions_performed"), "{text}");
}

#[test]
fn stats_json_has_the_stable_shape() {
    let out = hazel(&["stats", "--json", &fixture_path("grading_clean.hzl")]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.starts_with("{\"spans\":{"), "{text}");
    assert!(text.contains("\"counters\":{"), "{text}");
    assert!(text.contains("\"engine.run\""), "{text}");
}

#[test]
fn trace_usage_and_load_errors_exit_2() {
    let no_file = hazel(&["trace"]);
    assert_eq!(no_file.status.code(), Some(2));
    let bad_flag = hazel(&["trace", "--bogus", "x.hzl"]);
    assert_eq!(bad_flag.status.code(), Some(2));
    let missing = hazel(&["trace", "no_such_file.hzl"]);
    assert_eq!(missing.status.code(), Some(2));
    let stats_missing = hazel(&["stats", "no_such_file.hzl"]);
    assert_eq!(stats_missing.status.code(), Some(2));
}
