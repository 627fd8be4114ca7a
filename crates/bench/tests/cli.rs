//! The `figures` command line rejects what it does not recognise: a typo
//! must not fall through to the full-scale suite.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let out = figures(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: figures"), "{stdout}");
    assert!(!stdout.contains("figure regeneration"), "{stdout}");
}

#[test]
fn what_is_not_recognised_is_rejected_before_anything_runs() {
    for args in [
        &["--figs", "5"][..],
        &["--fig"],
        &["--fig", "nonsense"],
        &["--fig", "5", "--fig", "table2"],
        &["--bench", "hotpath"],
    ] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(!stderr.contains("[--bench"), "no longer offered: {stderr}");
    }
}

#[test]
fn a_single_figure_is_selected() {
    let out = figures(&["--fig", "table2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table II"), "{stdout}");
    assert!(!stdout.contains("Figure"), "only the table ran: {stdout}");
}

#[test]
fn the_smoke_suite_writes_well_formed_csvs() {
    // What no in-process test asserts about the files `--fig all` leaves
    // behind: the header and minimum row count of four CSVs, and the metric
    // families of the timeline (its header, markers and trace are
    // `tests/figure_shapes.rs`'s).
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "--fig", "all"])
        .current_dir(tmp)
        .output()
        .expect("figures binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let read = |name: &str| {
        let path = tmp.join("target/figures").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    for (name, header, min_lines) in [
        (
            "replication.csv",
            "replicas,checkpoint_latency_ms,unavailability_s",
            3,
        ),
        (
            "broker_replication.csv",
            "rf,availability_pct,produce_p99_ms,unavailability_s,leadership_moves",
            3,
        ),
        (
            "scaling.csv",
            "parallelism,throughput_rps,crash_throughput_rps,recovery_s",
            4,
        ),
        (
            "throughput.csv",
            "batch_max_bytes,linger_ms,compression,records_per_sec,produce_p99_ms",
            5,
        ),
    ] {
        let csv = read(name);
        assert_eq!(csv.lines().next(), Some(header), "{name}");
        assert!(csv.lines().count() >= min_lines, "{name}:\n{csv}");
    }
    let timeline = read("timeline.csv");
    for rows in [",lag/", ",records_out,", ",cpu_occupancy,"] {
        assert!(timeline.contains(rows), "timeline.csv has no `{rows}` row");
    }
}
