//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! s2g-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! s2g-benchmark run --seed <n> --out <file> [--smoke]
//! s2g-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! end-to-end metrics untraced or per-layer metrics traced, one JSON object
//! as the last line. `run` measures everything and writes a result file;
//! `compare` reads two of those.

mod alloc;
mod child;
mod json;
mod layers;
mod load;
mod measure;
mod metrics;
mod probe;
mod proc;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use child::Mode;
use json::Json;
use measure::{Budget, Outcome, PerLayerResult, Untraced};
use metrics::{END_TO_END, PER_LAYER};
use proc::ChildResult;
use spans::Spans;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Record counts of the smoke preset are 1/50 of the full ones.
const SMOKE_SCALE: u64 = 50;

struct Args(Vec<String>);

impl Args {
    fn opt(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt(name)
            .ok_or(format!("missing {name}"))?
            .parse()
            .map_err(|_| format!("bad value for {name}"))
    }

    fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        if self.opt(name).is_some() {
            self.parsed(name)
        } else {
            Ok(default)
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.opt("--workload").ok_or("missing --workload")?;
        workloads::by_name(name).ok_or(format!("unknown workload `{name}`"))
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let done = match args.0.first().map(String::as_str) {
        Some("child") => child_main(&args),
        Some("run") => run_main(&args),
        Some("compare") => compare_main(&args),
        Some(a) if a.starts_with("--") => driver_main(&args),
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run --seed <n> --out <file> [--smoke] | compare <a.json> <b.json>"
                .to_string(),
        ),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("s2g-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_main(args: &Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?;
    let text = match args.0.get(1).map(String::as_str) {
        Some("rep") => {
            let mode = Mode::parse(args.opt("--mode").unwrap_or("plain")).ok_or("bad --mode")?;
            child::rep(args.workload()?, seed, args.parsed("--scale")?, mode)
        }
        Some("setup") => child::setup(
            args.workload()?,
            seed,
            args.parsed("--scale")?,
            args.parsed("--iters")?,
        ),
        Some("layers") => {
            let ws: Vec<Workload> = args
                .opt("--workloads")
                .unwrap_or("")
                .split(',')
                .filter_map(workloads::by_name)
                .collect();
            layers::run(seed, args.parsed("--slice")?, &ws)
        }
        Some("probe") => format!("RESULT digest=0 probe_s={}\n", probe::run()),
        _ => return Err("unknown child".into()),
    };
    print!("{text}");
    Ok(true)
}

fn out_dir() -> PathBuf {
    // `cargo run` exports the package directory; a bare executable falls
    // back to where it was built.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn print_metric(name: &str, value: f64, unit: &str) {
    // Set-up times are tens of microseconds, in seconds.
    let digits = if value.abs() < 0.01 { 9 } else { 6 };
    println!("{name:<44} {value:>18.digits$} {unit}");
}

/// The uncorrected readings behind the three host-speed-corrected metrics,
/// and the correction itself: printed and stored, never gated.
const RAW: [(&str, &str); 4] = [
    ("raw_records_per_wall_s", "records/s"),
    ("raw_cpu_us_per_record", "us"),
    ("raw_setup_s", "s"),
    ("host_slowness", "ratio"),
];

fn print_raw(e: &measure::EndToEnd) {
    for (name, unit) in RAW {
        let mut values = e.values(name);
        if !values.is_empty() {
            print_metric(name, stats::median(&mut values), unit);
        }
    }
}

fn print_problems(outcome: &Outcome) {
    for p in &outcome.problems {
        println!("PROBLEM {p}");
    }
}

/// Traces one workload: runs its traced children under a span list that
/// also adopts the kernels' spans, and writes the Chrome trace.
fn trace_workload(
    w: &Workload,
    seed: u64,
    scale: u64,
    kernels: &ChildResult,
    untraced: &Untraced,
    expect_digest: Option<u64>,
) -> PerLayerResult {
    let mut spans = Spans::new();
    let root = spans.enter("benchmark");
    spans.adopt(kernels.spans.clone());
    let mut result =
        measure::per_layer(w, seed, scale, kernels, untraced, expect_digest, &mut spans);
    spans.exit(root);
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json(&format!("{}-{seed}", w.name))));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => result.outcome.problems.push(format!(
            "{}: cannot write {}: {e}",
            w.name,
            path.display()
        )),
    }
    result
}

/// One driver run: `--workload --seed --seconds --trace`.
fn driver_main(args: &Args) -> Result<bool, String> {
    let w = args.workload()?;
    let seed: u64 = args.parsed("--seed")?;
    let seconds: f64 = args.parsed("--seconds")?;
    let trace: u8 = args.parsed("--trace")?;
    let scale: u64 = args.parsed_or("--scale", 1)?;
    if seconds.is_nan() || seconds <= 0.0 || scale == 0 || trace > 1 {
        return Err("need --seconds > 0, --scale >= 1, --trace 0 or 1".into());
    }
    let mut metrics = Vec::new();
    let outcome = if trace == 0 {
        let budget = Budget {
            seconds: Some(seconds),
            min_reps: 3,
            max_reps: 7,
            setup_iters: if scale == 1 { 500 } else { 50 },
            warm_up: true,
        };
        let e = measure::end_to_end(&[w], seed, scale, &budget).remove(0);
        println!("{}: {} timed repetitions", w.name, e.samples.len());
        for m in &END_TO_END {
            let mut values = e.values(m.name);
            if values.is_empty() {
                return Err(format!("no repetition of {} completed", w.name));
            }
            let each: Vec<String> = values.iter().map(|v| format!("{v:.9}")).collect();
            println!("{} per repetition: {}", m.name, each.join(" "));
            let value = stats::median(&mut values);
            print_metric(m.name, value, m.unit);
            metrics.push((m.name, value, m.unit));
        }
        print_raw(&e);
        e.outcome
    } else {
        let ws: Vec<Workload> = [Some(w), w.linearity_partner()]
            .into_iter()
            .flatten()
            .collect();
        let budget = Budget {
            seconds: None,
            min_reps: 1,
            max_reps: 1,
            setup_iters: if scale == 1 { 500 } else { 50 },
            warm_up: false,
        };
        let untraced = measure::end_to_end(&ws, seed, scale, &budget);
        let kernels = measure::kernels(&[w], seed, measure::slice_for(seconds))?;
        let reference = untraced[0]
            .untraced(&untraced)
            .ok_or(format!("no untraced repetition of {} completed", w.name))?;
        let digest = untraced[0].outcome.digest;
        let layers = trace_workload(&w, seed, scale, &kernels, &reference, digest);
        for m in &PER_LAYER {
            if let Some(value) = layers.values.get(m.name) {
                print_metric(m.name, *value, m.unit);
                metrics.push((m.name, *value, m.unit));
            }
        }
        let mut outcome = Outcome::default();
        for part in untraced.iter().map(|e| &e.outcome).chain([&layers.outcome]) {
            outcome.merge(part);
        }
        outcome
    };
    print_problems(&outcome);
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.line());
    Ok(true)
}

/// The full suite: every workload untraced and traced, the kernels once,
/// the checks, one result file.
fn run_main(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?;
    let out = PathBuf::from(args.opt("--out").ok_or("missing --out")?);
    let smoke = args.flag("--smoke");
    let (scale, reps, setup_iters, slice) = if smoke {
        (SMOKE_SCALE, 2, 50, 0.02)
    } else {
        (1, 7, 500, layers::FULL_SLICE_S)
    };
    let env = report::environment();
    let budget = Budget {
        seconds: None,
        min_reps: reps,
        max_reps: reps,
        setup_iters,
        warm_up: true,
    };
    let ws = workloads::ALL;
    let e2e = measure::end_to_end(&ws, seed, scale, &budget);
    let kernels = measure::kernels(&ws, seed, slice)?;

    let mut ok = true;
    let mut blocks = Vec::new();
    for e in &e2e {
        let w = e.workload;
        let Some(reference) = e.untraced(&e2e) else {
            println!("PROBLEM no repetition of {} completed", w.name);
            ok = false;
            continue;
        };
        let layers = trace_workload(&w, seed, scale, &kernels, &reference, e.outcome.digest);
        let mut combined = Outcome::default();
        combined.merge(&e.outcome);
        combined.merge(&layers.outcome);
        if w.name == "keyed-eo-bounce" {
            // The seed must reach the inputs: two seeds, two digests. The
            // smoke scale keeps the two extra children cheap.
            let digest_at = |s: u64| {
                let args = measure::rep_args(&w, s, SMOKE_SCALE, Mode::Plain);
                proc::child(&args, std::time::Duration::from_secs(60)).map(|c| c.digest())
            };
            match (digest_at(seed), digest_at(seed.wrapping_add(1))) {
                (Ok(a), Ok(b)) if a != b => {}
                (Ok(_), Ok(_)) => combined.problems.push(format!(
                    "{}: seeds {seed} and {} give one sim_digest",
                    w.name,
                    seed + 1
                )),
                (a, b) => combined.problems.extend(a.err().into_iter().chain(b.err())),
            }
        }

        println!("\n== {} ({} timed repetitions)", w.name, e.samples.len());
        for m in &END_TO_END {
            let mut values = e.values(m.name);
            if !values.is_empty() {
                let (q1, q3) = stats::quartiles(&mut values);
                print_metric(m.name, stats::median(&mut values), m.unit);
                println!(
                    "{:<44} q1 {q1:.6} q3 {q3:.6} n {} spread {:.1}% of bound {:.0}%",
                    "",
                    values.len(),
                    stats::spread(&mut values) * 100.0,
                    m.bound * 100.0
                );
            }
        }
        print_raw(e);
        for m in &PER_LAYER {
            if let Some(value) = layers.values.get(m.name) {
                print_metric(m.name, *value, m.unit);
            }
        }
        println!(
            "ops_attempted {} ops_failed {} sim_digest {}",
            combined.attempted,
            combined.failed,
            combined
                .digest
                .map_or("none".into(), |d| format!("{d:016x}"))
        );
        print_problems(&combined);
        ok &= combined.correct();
        blocks.push((w.name, report::workload_block(e, &layers, &combined)));
    }
    let result = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::Num(scale as f64)),
        ("environment", env),
        ("workloads", Json::obj(blocks)),
    ]);
    std::fs::write(&out, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("\nresult written to {}", out.display());
    Ok(ok)
}

fn compare_main(args: &Args) -> Result<bool, String> {
    let load = |at: usize| {
        let path = args.0.get(at).ok_or("usage: compare <a.json> <b.json>")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(report::compare(&load(1)?, &load(2)?))
}
