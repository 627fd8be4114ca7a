//! Quickstart: the paper's word-count pipeline (Fig. 2a) end to end.
//!
//! Five components on a one-big-switch network: a document producer, a
//! broker, two chained stream jobs (per-document word counts, then running
//! average document length per topic), and a consumer. Prints the measured
//! end-to-end latency per data unit — the quantity Fig. 5 sweeps.
//!
//! Run with: `cargo run --example quickstart`

use stream2gym::apps::word_count::{self, ComponentDelays};
use stream2gym::core::ascii_chart;
use stream2gym::sim::{SimDuration, SimTime};

fn main() {
    let mut scenario = word_count::scenario(
        100,
        SimDuration::from_millis(150),
        ComponentDelays::default(),
        SimTime::from_secs(60),
        42,
    );
    // The per-document latency chart below needs each delivery, not just
    // the always-on folds (counts, mean and quantiles).
    scenario.capture_records();
    println!("running the word-count pipeline on the emulated network...");
    let result = scenario.run().expect("scenario is valid");

    let monitor = result.monitor.borrow();
    println!(
        "pipeline finished: {} documents in, {} running-average outputs delivered",
        result.report.producers[0].stats.acked,
        monitor.delivery_count("avg-words-per-topic")
    );
    if let Some(mean) = monitor.mean_latency("avg-words-per-topic") {
        println!("mean end-to-end latency per document: {mean}");
    }

    // Latency over time, like stream2gym's visualization module would show.
    let series: Vec<(f64, f64)> = monitor
        .latency_series(0, "avg-words-per-topic")
        .iter()
        .map(|(t, lat)| (t.as_secs_f64(), lat.as_secs_f64()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "end-to-end latency per document",
            &[("latency", &series)],
            64,
            12,
            "time (s)",
            "latency (s)",
        )
    );

    println!(
        "simulation processed {} events; peak modeled memory {:.1} GB ({:.0}% of the server)",
        result.report.sim_stats.events_processed,
        result.report.peak_mem_bytes() as f64 / (1u64 << 30) as f64,
        result.report.peak_mem_fraction() * 100.0
    );
}
