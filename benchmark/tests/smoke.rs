//! Self-tests of the benchmark: the smoke preset (1/50 of the record
//! counts, 2 repetitions) runs all four workloads and the layer kernels,
//! and what it reports is held against `BENCHMARK.json`.
//!
//! Run with `cargo test --release`: the tests drive the built executable,
//! and a debug build of the simulator is many times slower.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

use json::Json;

const WORKLOADS: [&str; 4] = [
    "identity-1m",
    "identity-10x100k",
    "replicated-1k",
    "keyed-eo-bounce",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_s2g-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark executable starts")
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn declared() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn items(list: &Json) -> &[Json] {
    match list {
        Json::Arr(items) => items,
        other => panic!("not a list: {other:?}"),
    }
}

fn names(list: &Json) -> Vec<String> {
    items(list)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(obj: &Json) -> Vec<String> {
    obj.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn last_line_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn benchmark_json_declares_the_metric_tables() {
    let b = declared();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(names(b.get("workloads").unwrap()), WORKLOADS);
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

    let e2e = items(b.get("end_to_end").unwrap());
    assert_eq!(e2e.len(), metrics::END_TO_END.len());
    for (got, want) in e2e.iter().zip(&metrics::END_TO_END) {
        assert_eq!(keys(got), ["name", "unit", "better", "bound"]);
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.as_str());
        assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        assert!(want.bound <= 0.25);
    }
    let per_layer = items(b.get("per_layer").unwrap());
    assert_eq!(per_layer.len(), metrics::PER_LAYER.len());
    for (got, want) in per_layer.iter().zip(&metrics::PER_LAYER) {
        assert_eq!(keys(got), ["name", "unit", "better"]);
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better.as_str());
    }
    // A name is used once and is made of letters, digits, `_`, `.`, `-`.
    let mut all: Vec<String> = names(b.get("end_to_end").unwrap());
    all.extend(names(b.get("per_layer").unwrap()));
    all.extend(WORKLOADS.map(String::from));
    for n in &all {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
        assert_eq!(
            all.iter().filter(|m| *m == n).count(),
            1,
            "{n} is declared once"
        );
    }
}

#[test]
fn smoke_preset_reports_every_declared_metric_once_per_workload() {
    let out_file = tmp("smoke.json");
    let t = Instant::now();
    let out = bench(&[
        "run",
        "--seed",
        "7",
        "--out",
        out_file.to_str().unwrap(),
        "--smoke",
    ]);
    println!("smoke preset took {:?}", t.elapsed());
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{printed}");

    let b = declared();
    let result = Json::parse(&std::fs::read_to_string(&out_file).unwrap()).unwrap();
    let env = result.get("environment").expect("environment block");
    for k in [
        "git_commit",
        "rustc",
        "nproc",
        "cpu_model",
        "kernel",
        "calib_ns",
    ] {
        assert!(env.get(k).is_some(), "environment records {k}");
    }
    for w in WORKLOADS {
        let block = result.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        for (section, value_key) in [("end_to_end", "median"), ("per_layer", "value")] {
            let got = block.get(section).unwrap();
            let got_names = keys(got);
            for name in names(b.get(section).unwrap()) {
                assert_eq!(
                    got_names.iter().filter(|n| **n == name).count(),
                    1,
                    "{w} reports {name} exactly once"
                );
                let m = got.get(&name).unwrap();
                assert!(
                    m.get(value_key).and_then(Json::as_f64).is_some(),
                    "{w} {name} has a value"
                );
                assert!(
                    m.get("unit").and_then(Json::as_str).is_some(),
                    "{w} {name} has a unit"
                );
                // Printed by name with its unit, too.
                assert!(printed.contains(&name), "{name} is printed");
            }
        }
        assert_eq!(
            block.get("ops_failed").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        assert!(block.get("ops_attempted").and_then(Json::as_f64).unwrap() > 0.0);
        // Digests repeated across the repetitions and the traced children,
        // and the two-seed check held: nothing was flagged.
        assert_eq!(block.get("problems").map(items).map(<[Json]>::len), Some(0));
        assert_ne!(block.get("sim_digest").and_then(Json::as_str), Some("none"));

        let share = |name: &str| {
            block
                .get("per_layer")
                .and_then(|p| p.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        let total: f64 = ["sim", "net", "proto", "broker.log", "spe", "telemetry"]
            .iter()
            .map(|l| share(&format!("{l}.est_share")))
            .sum::<f64>()
            + share("core.unattributed_share");
        assert!((total - 1.0).abs() < 1e-9, "{w}: shares sum to {total}");
        assert_eq!(share("proto.shared_batch_copies"), 0.0);

        let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}.json"));
        let trace = Json::parse(&std::fs::read_to_string(&trace).expect("trace file")).unwrap();
        let events = items(trace.get("traceEvents").unwrap());
        for span in [
            "workload.build",
            "analyze",
            "run",
            "check",
            "drop",
            "layers",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(span)),
                "{w}: trace has a `{span}` span"
            );
        }
    }
}

#[test]
fn driver_line_has_the_contract_shape() {
    let b = declared();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&[
            "--workload",
            "replicated-1k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "50",
        ]);
        assert!(out.status.success());
        let line = last_line_json(&out);
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        let mut got = keys(metrics);
        let mut want = names(b.get(section).unwrap());
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "--trace {trace} prints exactly the {section} metrics"
        );
        for (name, m) in metrics.as_obj().unwrap() {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
        }
    }
}

#[test]
fn a_panicking_child_fails_its_whole_repetition() {
    // An event limit far too small makes `Scenario::run` panic in the
    // child, the way a livelocked protocol would.
    let out = Command::new(env!("CARGO_BIN_EXE_s2g-benchmark"))
        .args([
            "--workload",
            "identity-10x100k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--scale",
            "50",
        ])
        .env("S2G_BENCH_EVENT_LIMIT", "1000")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    // No repetition completed, so there is no number to print: the run
    // must fail loudly, not hang and not report success.
    assert!(!out.status.success(), "{text}");
    assert!(!text.lines().last().unwrap_or("").starts_with('{'));
}

#[test]
fn unknown_input_is_refused() {
    assert!(!bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .status
    .success());
    assert!(!bench(&["frobnicate"]).status.success());
    assert!(!bench(&[]).status.success());
}

fn result_file(name: &str, rps: [f64; 3], digest: &str, failed: f64) -> PathBuf {
    let metric = |unit: &str, better: &str, bound: f64, q: [f64; 3]| {
        Json::obj([
            ("unit", Json::str(unit)),
            ("better", Json::str(better)),
            ("bound", Json::Num(bound)),
            ("median", Json::Num(q[1])),
            ("q1", Json::Num(q[0])),
            ("q3", Json::Num(q[2])),
            ("n", Json::Num(7.0)),
        ])
    };
    let block = Json::obj([
        ("ops_attempted", Json::Num(1000.0)),
        ("ops_failed", Json::Num(failed)),
        ("sim_digest", Json::str(digest)),
        (
            "end_to_end",
            Json::obj([
                (
                    "records_per_wall_s",
                    metric("records/s", "higher", 0.25, rps),
                ),
                (
                    "cpu_us_per_record",
                    metric("us", "lower", 0.25, [3.0, 3.0, 3.0]),
                ),
                (
                    "peak_rss_mb",
                    metric("MB", "lower", 0.05, [100.0, 100.0, 100.0]),
                ),
                ("setup_s", metric("s", "lower", 0.25, [0.001, 0.001, 0.001])),
            ]),
        ),
        (
            "per_layer",
            Json::obj([(
                "sim.events_per_record",
                Json::obj([("value", Json::Num(3.0)), ("unit", Json::str("count"))]),
            )]),
        ),
    ]);
    let path = tmp(name);
    let file = Json::obj([("workloads", Json::obj([("identity-1m", block)]))]);
    std::fs::write(&path, file.pretty()).unwrap();
    path
}

#[test]
fn compare_gives_a_verdict_per_metric_and_fails_on_regression() {
    let base = result_file("cmp-base.json", [990.0, 1000.0, 1010.0], "aa", 0.0);
    let same = result_file("cmp-same.json", [985.0, 1020.0, 1030.0], "aa", 0.0);
    let slow = result_file("cmp-slow.json", [690.0, 700.0, 710.0], "bb", 0.0);
    let fast = result_file("cmp-fast.json", [1390.0, 1400.0, 1410.0], "aa", 0.0);
    let noisy = result_file("cmp-noisy.json", [500.0, 700.0, 900.0], "aa", 0.0);
    let lossy = result_file("cmp-lossy.json", [990.0, 1000.0, 1010.0], "aa", 5.0);
    let run = |a: &Path, b: &Path| {
        let out = bench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
        )
    };

    let (ok, text) = run(&base, &same);
    assert!(ok && text.matches("unchanged").count() == 4, "{text}");
    let (ok, text) = run(&base, &slow);
    assert!(
        !ok && text.contains("regressed") && text.contains("sim_digest changed"),
        "{text}"
    );
    let (ok, text) = run(&base, &fast);
    assert!(ok && text.contains("improved"), "{text}");
    // A spread wider than the bound settles nothing either way.
    let (ok, text) = run(&base, &noisy);
    assert!(
        ok && text.contains("unresolved") && !text.contains("regressed"),
        "{text}"
    );
    let (ok, text) = run(&base, &lossy);
    assert!(!ok && text.contains("failed share rose"), "{text}");
}
