//! Acceptance tests for the `hazel metrics` subcommand: the text table
//! and the Prometheus exposition format, both driven by one pipeline run
//! over a real example document.

use std::process::{Command, Output};

fn example() -> String {
    format!(
        "{}/../../examples/grading_clean.hzl",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn metrics(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hazel"))
        .arg("metrics")
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn metrics_text_table_reports_phases_and_counters() {
    let out = metrics(&[&example()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The pipeline always parses and renders; those phases must have hit.
    for phase in ["parse", "collect", "render_diff"] {
        assert!(stdout.contains(phase), "missing {phase} in:\n{stdout}");
    }
    assert!(stdout.contains("p50"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");
    assert!(stdout.contains("machine_steps"), "{stdout}");
}

#[test]
fn metrics_prom_format_is_valid_exposition() {
    let out = metrics(&["--format", "prom", &example()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("# TYPE livelit_phase_latency_ns histogram"),
        "{stdout}"
    );
    assert!(
        stdout.contains("# TYPE livelit_counter_total counter"),
        "{stdout}"
    );
    // Exposition histograms are cumulative and end at +Inf; the +Inf
    // bucket must equal _count for every labeled series.
    let mut inf_buckets = 0;
    for line in stdout.lines().filter(|l| l.contains("le=\"+Inf\"")) {
        inf_buckets += 1;
        let phase = line
            .split("phase=\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap();
        let inf: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        let count_line = stdout
            .lines()
            .find(|l| {
                l.starts_with(&format!(
                    "livelit_phase_latency_ns_count{{phase=\"{phase}\"}}"
                ))
            })
            .unwrap();
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(inf, count, "{line}");
    }
    assert!(inf_buckets >= 2, "{stdout}");
}

#[test]
fn metrics_rejects_bad_format_and_missing_file() {
    let bad = metrics(&["--format", "xml", &example()]);
    assert_eq!(bad.status.code(), Some(2), "{bad:?}");
    let missing = metrics(&["/nonexistent/doc.hzl"]);
    assert_ne!(missing.status.code(), Some(0), "{missing:?}");
}
