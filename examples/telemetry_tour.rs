//! A tour of the telemetry subsystem: metrics, time series, and tracing.
//!
//! Runs a checkpointed word-count pipeline whose worker is crashed and
//! restarted mid-stream, with the sampler on a 200 ms interval and the
//! causal tracer enabled, then walks through everything the run recorded:
//! registry totals, tail-quantile latency stats, sampled time series, the
//! fault/recovery markers, and the Chrome-trace export.
//!
//! Run with: `cargo run --release --example telemetry_tour`

use stream2gym::apps::word_count::recovery_scenario;
use stream2gym::net::FaultPlan;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::CheckpointCfg;
use stream2gym::telemetry::validate_chrome_trace;

fn main() {
    let mut sc = recovery_scenario(
        160,
        SimDuration::from_millis(40),
        SimTime::from_secs(30),
        42,
    );
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
    sc.telemetry_interval(SimDuration::from_millis(200));
    sc.with_telemetry_trace(true);
    sc.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_millis(4_500),
        SimDuration::from_millis(1_000),
    ));
    let result = sc.run().expect("valid scenario");
    let tele = &result.telemetry;

    println!("== the metrics registry (always-on counters/gauges/histograms) ==");
    {
        let reg = tele.registry();
        println!(
            "  {} metrics registered across every process scope",
            reg.metrics().len()
        );
        for (scope, name) in [
            ("broker-0", "records_appended"),
            ("wordcount", "records_in"),
            ("wordcount", "records_out"),
        ] {
            if let Some(v) = reg.counter(scope, name) {
                println!("  {scope:<12} {name:<18} = {v}");
            }
        }
        if let Some(h) = reg.histogram("wordcount", "checkpoint_duration_s") {
            let s = h.stats().expect("checkpoints ran");
            println!(
                "  wordcount    checkpoint_duration_s: n={} mean={:.4}s p50={:.4}s p95={:.4}s p99={:.4}s",
                s.count, s.mean, s.p50, s.p95, s.p99
            );
        }
    }

    println!("\n== delivery latency quantiles (MonitorCore + the histogram type) ==");
    {
        let monitor = result.monitor.borrow();
        if let Some(s) = monitor.latency_stats("counts") {
            println!(
                "  counts: n={} mean={:.3}s p50={:.3}s p95={:.3}s p99={:.3}s max={:.3}s",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            );
        }
        println!(
            "  clamped negative latencies: {}",
            monitor.clamped_latencies
        );
    }

    println!("\n== sampled time series (one snapshot per 200 ms of sim time) ==");
    let series = &result.report.metric_series;
    println!("  {} series captured; a selection:", series.len());
    for s in series {
        let interesting = (s.scope == "wordcount" && s.name == "records_out")
            || (s.scope == "broker-0" && s.name == "log_bytes")
            || s.name == "cpu_occupancy";
        if interesting {
            let (t_last, v_last) = s.points.last().copied().expect("sampled");
            println!(
                "  {:<12} {:<16} {} points, last = {:.2} at t={:.1}s",
                s.scope,
                s.name,
                s.points.len(),
                v_last,
                t_last.as_secs_f64()
            );
        }
    }
    let csv = result.report.tidy_csv();
    println!(
        "  tidy CSV export: {} rows, header `{}`",
        csv.lines().count() - 1,
        csv.lines().next().expect("header")
    );

    println!("\n== the causal trace (crash -> recovery, span by span) ==");
    {
        // Fault and recovery phases in full; checkpoint events only inside
        // the crash window, or the steady-state barriers drown the story.
        let window = SimTime::from_millis(3_000)..SimTime::from_millis(8_000);
        let tracer = tele.tracer();
        for e in tracer.events() {
            if e.cat == "fault"
                || e.cat == "recovery"
                || (e.cat == "checkpoint" && window.contains(&e.at))
            {
                println!(
                    "  t={:>7.3}s [{:<10}] {:<12} {}",
                    e.at.as_secs_f64(),
                    e.cat,
                    e.scope,
                    e.name
                );
            }
        }
    }
    let json = tele.chrome_json();
    let summary = validate_chrome_trace(&json).expect("well-formed trace");
    println!(
        "  Chrome-trace JSON: {} events ({} spans, {} instants) across {} processes",
        summary.events, summary.spans, summary.instants, summary.processes
    );
    println!("  (write it to a file and load in chrome://tracing or ui.perfetto.dev)");
}
