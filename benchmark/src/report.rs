//! The result file of a full `run`, the environment block in it, and
//! `compare`, which reads two result files.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::measure::{EndToEnd, Outcome, PerLayerResult};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_line(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines().find(|l| l.starts_with(prefix)).map(|l| {
                l[prefix.len()..]
                    .trim_start_matches([':', ' ', '\t'])
                    .trim()
                    .to_string()
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A fixed integer loop, timed. Recorded so that results from two machines
/// can be told apart; never used to rescale anything.
fn calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Where and on what the numbers were taken.
pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::str(file_line("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel",
            Json::str(file_line("/proc/sys/kernel/osrelease", "")),
        ),
        (
            "mem_available_at_start",
            Json::str(file_line("/proc/meminfo", "MemAvailable")),
        ),
        (
            "transparent_hugepage",
            Json::str(file_line("/sys/kernel/mm/transparent_hugepage/enabled", "")),
        ),
        ("calib_ns", Json::Num(calib_ns())),
    ])
}

/// Median, quartiles, sample count and samples of one end-to-end metric.
fn summary(values: &[f64]) -> Vec<(&'static str, Json)> {
    let mut v = values.to_vec();
    if v.is_empty() {
        return vec![("n", Json::Num(0.0))];
    }
    let (q1, q3) = quartiles(&mut v);
    let samples = values.iter().map(|x| Json::Num(*x)).collect();
    vec![
        ("median", Json::Num(median(&mut v))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(v.len() as f64)),
        ("samples", Json::Arr(samples)),
    ]
}

/// One workload's block of the result file.
pub fn workload_block(e: &EndToEnd, layers: &PerLayerResult, combined: &Outcome) -> Json {
    let end_to_end = END_TO_END.iter().map(|m| {
        let mut block = vec![
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ];
        block.extend(summary(&e.values(m.name)));
        (m.name, Json::obj(block))
    });
    // The uncorrected readings and the host-speed correction applied.
    let raw = [
        "raw_records_per_wall_s",
        "raw_cpu_us_per_record",
        "host_slowness",
    ]
    .map(|name| (name, Json::obj(summary(&e.values(name)))));
    let per_layer = PER_LAYER.iter().filter_map(|m| {
        let value = layers.values.get(m.name)?;
        Some((
            m.name,
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ]),
        ))
    });
    Json::obj([
        ("ops_attempted", Json::Num(combined.attempted as f64)),
        ("ops_failed", Json::Num(combined.failed as f64)),
        (
            "sim_digest",
            Json::str(
                combined
                    .digest
                    .map_or("none".into(), |d| format!("{d:016x}")),
            ),
        ),
        (
            "problems",
            Json::Arr(combined.problems.iter().map(Json::str).collect()),
        ),
        ("end_to_end", Json::obj(end_to_end)),
        ("raw", Json::obj(raw)),
        ("per_layer", Json::obj(per_layer)),
    ])
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(j, |j, k| j.get(k))?.as_f64()
}

/// Prints, for every (end-to-end metric, workload), both medians, the
/// delta, the bound and a verdict; lists digest changes, count metrics that
/// differ and any rise in the failed share. Returns whether nothing
/// regressed.
pub fn compare(a: &Json, b: &Json) -> bool {
    let empty: &[(String, Json)] = &[];
    let workloads = |j: &'_ Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .unwrap_or(empty)
            .to_vec()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let mut ok = true;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for (name, ja) in &wa {
        let Some((_, jb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} only in the first file");
            continue;
        };
        for m in &END_TO_END {
            let side = |j: &Json| {
                let at = |k| num(j, &["end_to_end", m.name, k]);
                Some((at("median")?, at("q1")?, at("q3")?))
            };
            let (Some((ma, q1a, q3a)), Some((mb, q1b, q3b))) = (side(ja), side(jb)) else {
                println!("{name:<18} {:<20} missing on one side", m.name);
                ok = false;
                continue;
            };
            let delta = (mb - ma) / ma;
            let worse = match m.better {
                Better::Higher => -delta,
                Better::Lower => delta,
            };
            let wide = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs() > m.bound;
            let verdict = if wide(q1a, q3a, ma) || wide(q1b, q3b, mb) {
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "regressed"
            } else if -worse > m.bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{name:<18} {:<20} {ma:>14.6} {mb:>14.6} {:>+7.1}% {:>5.0}%  {verdict}",
                m.name,
                delta * 100.0,
                m.bound * 100.0
            );
        }
        let digest = |j: &Json| {
            j.get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string()
        };
        if digest(ja) != digest(jb) {
            println!(
                "{name:<18} sim_digest changed: {} -> {}",
                digest(ja),
                digest(jb)
            );
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes"))
        {
            let at = |j: &Json| num(j, &["per_layer", m.name, "value"]);
            if let (Some(x), Some(y)) = (at(ja), at(jb)) {
                if x != y {
                    println!("{name:<18} count {} differs: {x} -> {y}", m.name);
                }
            }
        }
        let failed_share = |j: &Json| {
            let failed = num(j, &["ops_failed"]).unwrap_or(0.0);
            failed / num(j, &["ops_attempted"]).unwrap_or(1.0).max(1.0)
        };
        if failed_share(jb) > failed_share(ja) {
            println!(
                "{name:<18} failed share rose: {} -> {}",
                failed_share(ja),
                failed_share(jb)
            );
            ok = false;
        }
    }
    ok
}
