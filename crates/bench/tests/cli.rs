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
fn unknown_flags_and_missing_values_are_rejected() {
    for args in [&["--figs", "5"][..], &["--fig"], &["--smoke", "--bench"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
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
fn the_hotpath_bench_holds_its_own_floors() {
    // The bench is its own gate: one OK/FAIL line per floor, and the exit
    // status says whether all held. Run where it may write its
    // `target/figures/BENCH_hotpath.json`.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--bench", "hotpath", "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("figures binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let verdicts = |tag: &str| stdout.lines().filter(|l| l.trim().starts_with(tag)).count();
    assert_eq!((verdicts("OK:"), verdicts("FAIL:")), (7, 0), "{stdout}");
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
