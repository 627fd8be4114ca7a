//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p s2g-bench --bin figures -- \
//!     [--fig <name>|all] [--quick|--smoke] [--help]
//! ```
//!
//! `--help` lists the figure names (the `FIGURES` table below). Anything
//! else on the command line (an unknown flag, a flag missing its
//! value, an unknown figure, a second `--fig`) is rejected with the usage
//! text and exit status 2 before anything runs or prints — a typo must not
//! fall through to the full-scale suite.
//!
//! `--quick` runs reduced parameters; `--smoke` runs the minimal CI preset
//! whose only job is to prove every figure still generates. The emulator's
//! own speed and memory are `benchmark/`'s to measure, not this binary's.
//!
//! Sweeps fan their points across a thread pool (see `s2g_bench::executor`)
//! and merge by input index, so the CSVs are byte-identical at any thread
//! count; set `S2G_BENCH_THREADS=1` to force the sequential path.
//!
//! ASCII renderings go to stdout; CSV data lands under `target/figures/`.

use std::fs;
use std::path::PathBuf;

use s2g_bench::experiments::table2_inventory;
use s2g_bench::{
    broker_recovery_sweep, broker_replication_sweep, compaction_sweep, fig5_sweep, fig6_run,
    fig7a_sweep, fig7b_sweep, fig8_sweep, fig9_sweep, group_by_component, scaling_sweep,
    store_replication_sweep, throughput_sweep, timeline_sweep, Component, Scale,
};
use s2g_broker::CoordinationMode;
use s2g_core::{ascii_chart, ascii_matrix, ascii_table, cdf, csv_series};

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

fn write_csv(name: &str, contents: &str) {
    let path = out_dir().join(name);
    fs::write(&path, contents).expect("write csv");
    println!("  wrote {}", path.display());
}

fn fig5(scale: Scale) {
    println!("\n#### Figure 5: end-to-end latency vs per-component link delay ####");
    let delays = [25u64, 50, 75, 100, 125, 150];
    let data = fig5_sweep(&delays, scale, 42);
    let grouped = group_by_component(&data);
    let series: Vec<(&str, &[(f64, f64)])> =
        grouped.iter().map(|(k, v)| (*k, v.as_slice())).collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 5: word count E2E latency",
            &series,
            64,
            14,
            "link delay (ms)",
            "latency (s)"
        )
    );
    write_csv("fig5.csv", &csv_series("delay_ms", &series));
}

fn fig6(scale: Scale) {
    println!("\n#### Figure 6: network partitioning (ZooKeeper mode) ####");
    let sites = match scale {
        Scale::Full => 10,
        Scale::Quick => 6,
        Scale::Smoke => 3,
    };
    let zk = fig6_run(CoordinationMode::Zk, sites, scale, 1);
    let rows: Vec<(String, &[bool])> = zk
        .matrix
        .received
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("consumer {i}"), r.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_matrix("Fig 6b: delivery matrix (co-located producer)", &rows, 72)
    );
    println!(
        "  acked-but-lost messages: {} | records truncated on heal: {}",
        zk.lost_messages, zk.truncated_records
    );
    println!(
        "{}",
        ascii_chart(
            "Fig 6c: message latency at a remote consumer",
            &[("topic A", &zk.latency_a), ("topic B", &zk.latency_b)],
            64,
            14,
            "delivery time (s)",
            "latency (s)",
        )
    );
    let tx = zk.tx_series.iter();
    let tx_refs: Vec<(&str, &[(f64, f64)])> = tx.map(|(n, v)| (*n, v.as_slice())).collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 6d: sending throughput",
            &tx_refs,
            64,
            12,
            "time (s)",
            "tx (Mbps)"
        )
    );
    println!(
        "  topic-a leadership events on broker 0 (time_s, became_leader): {:?}",
        zk.leader_events
    );
    write_csv(
        "fig6c.csv",
        &csv_series(
            "delivered_s",
            &[("topic_a", &zk.latency_a), ("topic_b", &zk.latency_b)],
        ),
    );
    write_csv("fig6d.csv", &csv_series("time_s", &tx_refs));

    println!("\n  -- same scenario under KRaft coordination (the paper's contrast) --");
    let kraft = fig6_run(CoordinationMode::Kraft, sites, scale, 1);
    println!(
        "  KRaft acked-but-lost messages: {} (expected 0)",
        kraft.lost_messages
    );
}

fn fig7a(scale: Scale) {
    println!("\n#### Figure 7a: Ichinose et al. — throughput vs consumers ####");
    let counts: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8, 16],
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Smoke => &[1, 4],
    };
    let data = fig7a_sweep(counts, 5);
    let series: Vec<(f64, f64)> = data.iter().map(|(n, t)| (*n as f64, *t)).collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 7a: transfer throughput",
            &[("stream2gym", &series)],
            56,
            12,
            "consumers",
            "imgs/s"
        )
    );
    for (n, t) in &data {
        println!("  {n:>2} consumers: {t:>10.0} imgs/s");
    }
    write_csv(
        "fig7a.csv",
        &csv_series("consumers", &[("imgs_per_s", &series)]),
    );
}

fn fig7b(scale: Scale) {
    println!("\n#### Figure 7b: Ocampo et al. — normalized runtime vs users ####");
    let users: &[u32] = match scale {
        Scale::Full => &[20, 40, 60, 80, 100],
        Scale::Quick => &[20, 60, 100],
        Scale::Smoke => &[10, 30],
    };
    let data = fig7b_sweep(users, scale, 3);
    let series: Vec<(f64, f64)> = data.iter().map(|(u, r)| (*u as f64, *r)).collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 7b: normalized slot runtime",
            &[("stream2gym", &series)],
            56,
            12,
            "concurrent users",
            "runtime (x1)"
        )
    );
    for (u, r) in &data {
        println!("  {u:>3} users: {r:.3}x");
    }
    write_csv(
        "fig7b.csv",
        &csv_series("users", &[("normalized_runtime", &series)]),
    );
}

fn fig8(scale: Scale) {
    println!("\n#### Figure 8: accuracy vs the hardware backend ####");
    let delays = [25u64, 50, 75, 100, 125, 150];
    for (sub, component) in [
        ("8a (broker link)", Component::Broker),
        ("8b (SPE link)", Component::Spe),
    ] {
        let data = fig8_sweep(&delays, component, scale, 42);
        let mut emu: Vec<(f64, f64)> = Vec::new();
        let mut hw: Vec<(f64, f64)> = Vec::new();
        for (backend, ms, v) in &data {
            if *backend == "stream2gym" {
                emu.push((*ms as f64, *v));
            } else {
                hw.push((*ms as f64, *v));
            }
        }
        println!(
            "{}",
            ascii_chart(
                &format!("Fig {sub}: emulation vs hardware"),
                &[("stream2gym", &emu), ("hardware", &hw)],
                64,
                12,
                "link delay (ms)",
                "latency (s)",
            )
        );
        let max_gap = emu
            .iter()
            .zip(&hw)
            .map(|((_, a), (_, b))| (a - b).abs() / b.max(1e-9))
            .fold(0.0f64, f64::max);
        println!(
            "  max relative gap between backends: {:.1}%",
            max_gap * 100.0
        );
        write_csv(
            &format!(
                "fig{}.csv",
                if component == Component::Broker {
                    "8a"
                } else {
                    "8b"
                }
            ),
            &csv_series("delay_ms", &[("stream2gym", &emu), ("hardware", &hw)]),
        );
    }
}

fn fig9(scale: Scale) {
    println!("\n#### Figure 9: resource usage vs coordinating sites ####");
    let sites: &[u32] = match scale {
        Scale::Full => &[2, 4, 6, 8, 10],
        Scale::Quick => &[2, 6, 10],
        Scale::Smoke => &[2, 4],
    };
    let sweep32 = fig9_sweep(sites, 32 << 20, scale, 7);
    // Fig 9a: CPU CDFs.
    let cdfs: Vec<(String, Vec<(f64, f64)>)> = sweep32
        .iter()
        .map(|p| {
            (
                format!("{} sites", p.sites),
                cdf(&p.cpu_samples)
                    .into_iter()
                    .map(|(v, f)| (v * 100.0, f))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let cdf_refs: Vec<(&str, &[(f64, f64)])> = cdfs
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 9a: CPU utilization CDF",
            &cdf_refs,
            64,
            12,
            "CPU utilization (%)",
            "CDF"
        )
    );
    // Fig 9b: median CPU.
    let medians: Vec<(f64, f64)> = sweep32
        .iter()
        .map(|p| (p.sites as f64, p.cpu_median * 100.0))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 9b: median CPU usage",
            &[("median", &medians)],
            48,
            10,
            "# of coordinating sites",
            "CPU (%)"
        )
    );
    // Fig 9c: peak memory for 16 vs 32 MB producer buffers.
    let sweep16 = fig9_sweep(sites, 16 << 20, scale, 7);
    let mem32: Vec<(f64, f64)> = sweep32
        .iter()
        .map(|p| (p.sites as f64, p.peak_mem_fraction * 100.0))
        .collect();
    let mem16: Vec<(f64, f64)> = sweep16
        .iter()
        .map(|p| (p.sites as f64, p.peak_mem_fraction * 100.0))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Fig 9c: peak memory usage",
            &[("16 MB", &mem16), ("32 MB", &mem32)],
            48,
            10,
            "# of coordinating sites",
            "peak memory (%)",
        )
    );
    write_csv(
        "fig9b.csv",
        &csv_series("sites", &[("median_cpu_pct", &medians)]),
    );
    write_csv(
        "fig9c.csv",
        &csv_series("sites", &[("mem16_pct", &mem16), ("mem32_pct", &mem32)]),
    );
}

fn recovery(scale: Scale) {
    println!("\n#### Broker recovery latency vs pre-crash log size ####");
    let counts: &[u64] = match scale {
        Scale::Full => &[200, 1_000, 2_500, 5_000, 10_000],
        Scale::Quick => &[100, 400, 800],
        Scale::Smoke => &[50, 200],
    };
    let points = broker_recovery_sweep(counts, scale, 9);
    let replay: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.records as f64, p.replay_latency_s))
        .collect();
    let unavail: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.records as f64, p.unavailability_s))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "broker recovery latency",
            &[("replay", &replay), ("unavailability", &unavail)],
            64,
            12,
            "records in log at crash",
            "latency (s)",
        )
    );
    for p in &points {
        println!(
            "  {:>6} records | {:>3} segments | {:>8} B replayed | replay {:.4}s | unavailable {:.4}s",
            p.records, p.replayed_segments, p.replayed_bytes, p.replay_latency_s, p.unavailability_s
        );
    }
    write_csv(
        "broker_recovery.csv",
        &csv_series(
            "records",
            &[("replay_s", &replay), ("unavailability_s", &unavail)],
        ),
    );
}

fn compaction(scale: Scale) {
    println!("\n#### Bounded recovery: incremental checkpoints + log compaction ####");
    let counts: &[u64] = match scale {
        Scale::Full => &[500, 1_000, 2_500, 5_000, 10_000],
        Scale::Quick => &[200, 600, 1_200],
        Scale::Smoke => &[100, 300],
    };
    let points = compaction_sweep(counts, scale, 13);
    let full_bytes: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.history as f64, p.full_snapshot_bytes as f64))
        .collect();
    let delta_bytes: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.history as f64, p.delta_snapshot_bytes as f64))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "snapshot bytes vs history",
            &[("full", &full_bytes), ("incremental", &delta_bytes)],
            64,
            12,
            "records produced",
            "bytes/ckpt",
        )
    );
    let raw_replay: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.history as f64, p.raw_replay_s))
        .collect();
    let compacted_replay: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.history as f64, p.compacted_replay_s))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "broker replay latency vs history",
            &[("raw log", &raw_replay), ("compacted", &compacted_replay)],
            64,
            12,
            "records produced",
            "replay (s)",
        )
    );
    for p in &points {
        println!(
            "  {:>6} records | snapshot {:>8} B full / {:>6} B delta | replay {:>6} rec {:.4}s raw / {:>5} rec {:.4}s compacted | {:>8} B saved",
            p.history,
            p.full_snapshot_bytes,
            p.delta_snapshot_bytes,
            p.raw_replay_records,
            p.raw_replay_s,
            p.compacted_replay_records,
            p.compacted_replay_s,
            p.replay_saved_bytes,
        );
    }
    write_csv(
        "compaction.csv",
        &csv_series(
            "history",
            &[
                ("full_snapshot_bytes", &full_bytes),
                ("delta_snapshot_bytes", &delta_bytes),
                ("raw_replay_s", &raw_replay),
                ("compacted_replay_s", &compacted_replay),
            ],
        ),
    );
}

fn replication(scale: Scale) {
    println!("\n#### Store replication: checkpoint latency & unavailability vs factor ####");
    let counts: &[usize] = match scale {
        Scale::Full => &[1, 2, 3, 5],
        Scale::Quick => &[1, 3],
        Scale::Smoke => &[1, 3],
    };
    let points = store_replication_sweep(counts, scale, 21);
    let latency_ms: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.replicas as f64, p.checkpoint_latency_s * 1_000.0))
        .collect();
    let unavail: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.replicas as f64, p.unavailability_s))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "checkpoint latency vs replication factor",
            &[("latency (ms)", &latency_ms)],
            56,
            12,
            "store replicas",
            "ms/ckpt",
        )
    );
    println!(
        "{}",
        ascii_chart(
            "durability unavailability around a store-primary crash",
            &[("unavailability (s)", &unavail)],
            56,
            12,
            "store replicas",
            "seconds",
        )
    );
    for p in &points {
        println!(
            "  {:>2} replicas | {:>3} ckpts | {:>8.3} ms/ckpt | unavailable {:>7.3}s | resync {:>5} ops",
            p.replicas,
            p.checkpoints,
            p.checkpoint_latency_s * 1_000.0,
            p.unavailability_s,
            p.resync_ops,
        );
    }
    write_csv(
        "replication.csv",
        &csv_series(
            "replicas",
            &[
                ("checkpoint_latency_ms", &latency_ms),
                ("unavailability_s", &unavail),
            ],
        ),
    );
}

fn broker_replication(scale: Scale) {
    println!("\n#### Broker replication: produce availability & tail latency vs factor ####");
    let rfs: &[u32] = match scale {
        Scale::Full => &[1, 2, 3],
        Scale::Quick => &[1, 3],
        Scale::Smoke => &[1, 3],
    };
    let points = broker_replication_sweep(rfs, scale, 27);
    let avail: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.rf as f64, p.availability_pct))
        .collect();
    let p99: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.rf as f64, p.produce_p99_ms))
        .collect();
    let unavail: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.rf as f64, p.unavailability_s))
        .collect();
    let moves: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.rf as f64, p.leadership_moves as f64))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "produce availability (1s SLO) around a leader crash",
            &[("availability (%)", &avail)],
            56,
            12,
            "replication factor",
            "% in SLO",
        )
    );
    println!(
        "{}",
        ascii_chart(
            "produce unavailability window around a leader crash",
            &[("unavailability (s)", &unavail)],
            56,
            12,
            "replication factor",
            "seconds",
        )
    );
    for p in &points {
        println!(
            "  rf={} | available {:>6.2}% | produce p99 {:>8.2} ms | unavailable {:>6.3}s | {} leadership moves",
            p.rf, p.availability_pct, p.produce_p99_ms, p.unavailability_s, p.leadership_moves,
        );
    }
    write_csv(
        "broker_replication.csv",
        &csv_series(
            "rf",
            &[
                ("availability_pct", &avail),
                ("produce_p99_ms", &p99),
                ("unavailability_s", &unavail),
                ("leadership_moves", &moves),
            ],
        ),
    );
}

fn scaling(scale: Scale) {
    println!("\n#### Scaling: throughput & recovery vs parallelism degree ####");
    let degrees: &[usize] = match scale {
        Scale::Full => &[1, 2, 4, 8],
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Smoke => &[1, 2, 4],
    };
    let points = scaling_sweep(degrees, scale, 33);
    let throughput: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.parallelism as f64, p.throughput_rps))
        .collect();
    let crash_throughput: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.parallelism as f64, p.crash_throughput_rps))
        .collect();
    let recovery: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.parallelism as f64, p.recovery_s))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "keyed job throughput vs parallelism",
            &[
                ("fault-free (rec/s)", &throughput),
                ("one instance crashed (rec/s)", &crash_throughput),
            ],
            56,
            12,
            "parallelism",
            "records/s",
        )
    );
    for p in &points {
        println!(
            "  p={:>2} | {:>9.1} rec/s | crashed {:>9.1} rec/s | recovery {:>6.3}s",
            p.parallelism, p.throughput_rps, p.crash_throughput_rps, p.recovery_s,
        );
    }
    write_csv(
        "scaling.csv",
        &csv_series(
            "parallelism",
            &[
                ("throughput_rps", &throughput),
                ("crash_throughput_rps", &crash_throughput),
                ("recovery_s", &recovery),
            ],
        ),
    );
}

fn timeline(scale: Scale) {
    println!("\n#### Timeline: per-instance lag/throughput around a crash ####");
    let data = timeline_sweep(scale, 17);
    let lag_refs: Vec<(&str, &[(f64, f64)])> = data
        .lag
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "consumer lag per instance",
            &lag_refs,
            64,
            12,
            "time (s)",
            "records behind",
        )
    );
    let thr_refs: Vec<(&str, &[(f64, f64)])> = data
        .throughput
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "processing rate per instance",
            &thr_refs,
            64,
            12,
            "time (s)",
            "records/s",
        )
    );
    println!("  fault & recovery markers:");
    for (t, scope, name) in &data.markers {
        println!("    t={t:>7.3}s  {scope:<16} {name}");
    }
    write_csv("timeline.csv", &data.tidy_csv);
    let trace_path = out_dir().join("timeline_trace.json");
    fs::write(&trace_path, &data.chrome_json).expect("write trace json");
    println!("  wrote {}", trace_path.display());
    let summary =
        s2g_telemetry::validate_chrome_trace(&data.chrome_json).expect("well-formed chrome trace");
    println!(
        "  trace: {} events ({} spans, {} instants) across {} processes",
        summary.events, summary.spans, summary.instants, summary.processes
    );
}

fn throughput(scale: Scale) {
    println!("\n#### Throughput: records/s & produce p99 across the batching grid ####");
    let points = throughput_sweep(scale, 11);
    // One series per (linger, compression) combination, x = batch bytes.
    let mut series: std::collections::BTreeMap<String, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for p in &points {
        let label = format!(
            "linger={}ms{}",
            p.linger_ms,
            if p.compression { " lz4" } else { "" }
        );
        series
            .entry(label)
            .or_default()
            .push((p.batch_max_bytes as f64, p.records_per_sec));
    }
    let refs: Vec<(&str, &[(f64, f64)])> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "records/s vs producer batch size",
            &refs,
            64,
            12,
            "batch_max_bytes",
            "records/s",
        )
    );
    let mut csv =
        String::from("batch_max_bytes,linger_ms,compression,records_per_sec,produce_p99_ms\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{},{},{:.1},{:.3}\n",
            p.batch_max_bytes, p.linger_ms, p.compression, p.records_per_sec, p.produce_p99_ms
        ));
        println!(
            "  {:>6} B | linger {:>2} ms | lz4 {:<5} | {:>9.1} rec/s | produce p99 {:>9.2} ms",
            p.batch_max_bytes, p.linger_ms, p.compression, p.records_per_sec, p.produce_p99_ms,
        );
    }
    write_csv("throughput.csv", &csv);
}

fn table2(_: Scale) {
    println!("\n#### Table II: example applications ####");
    let rows: Vec<Vec<String>> = table2_inventory()
        .into_iter()
        .map(|(name, comps, feat)| vec![name.to_string(), comps.to_string(), feat.to_string()])
        .collect();
    println!(
        "{}",
        ascii_table(
            "Table II",
            &["Application", "Components", "Features"],
            &rows
        )
    );
    println!("  (run each with `cargo run --example <name>`)");
}

/// A `--fig` value and what it runs.
type Figure = (&'static str, fn(Scale));

/// Every `--fig` value but `all`, in the order `all` runs them. The usage
/// text and the dispatch are derived from this table.
const FIGURES: [Figure; 14] = [
    ("table2", table2),
    ("5", fig5),
    ("6", fig6),
    ("7a", fig7a),
    ("7b", fig7b),
    ("8", fig8),
    ("9", fig9),
    ("recovery", recovery),
    ("compaction", compaction),
    ("replication", replication),
    ("broker-replication", broker_replication),
    ("scaling", scaling),
    ("timeline", timeline),
    ("throughput", throughput),
];

/// Prints the usage text and exits: status 0 when asked for (`--help`), 2
/// with `error` on stderr when the command line is rejected.
fn usage(error: Option<String>) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    let text = format!(
        "usage: figures [--fig {}|all]\n               [--quick|--smoke] [--help]",
        names.join("|")
    );
    match error {
        None => {
            println!("{text}");
            std::process::exit(0)
        }
        Some(error) => {
            eprintln!("figures: {error}\n{text}");
            std::process::exit(2)
        }
    }
}

fn main() {
    let (mut scale, mut fig) = (Scale::Full, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--quick" => scale = Scale::Quick,
            "--fig" => {
                let Some(value) = args.next() else {
                    usage(Some("`--fig` needs a value".into()))
                };
                if fig.replace(value).is_some() {
                    usage(Some("`--fig` given more than once".into()));
                }
            }
            "--help" | "-h" => usage(None),
            other => usage(Some(format!("unknown argument `{other}`"))),
        }
    }
    let selected = match fig.as_deref().unwrap_or("all") {
        "all" => &FIGURES[..],
        name => match FIGURES.iter().position(|(known, _)| *known == name) {
            Some(i) => &FIGURES[i..=i],
            None => usage(Some(format!("unknown figure `{name}`"))),
        },
    };
    println!("stream2gym-rs figure regeneration (scale: {scale:?})");
    for (_, run) in selected {
        run(scale);
    }
}
