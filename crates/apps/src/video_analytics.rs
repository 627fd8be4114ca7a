//! Video analytics — the Ichinose et al. reproduction (§V-C, Fig. 7a).
//!
//! "We replicate the experiment from Ichinose et al. using a single end
//! host that runs a data pipeline containing one broker, one producer, and
//! a varying number of consumers. We use a single topic to ingest data and
//! produce a large number of MNIST images before the first consumer
//! subscribes to the topic to avoid data stalls."
//!
//! Everything is co-located on one 8-core host, so aggregate transfer
//! throughput grows with the consumer count until the cores are saturated
//! and then flattens — the paper's Fig. 7a shape.

use s2g_broker::{BrokerConfig, ConsumerConfig, TopicSpec};
use s2g_core::{Scenario, ServerSpec, SourceSpec};
use s2g_net::LinkSpec;
use s2g_sim::{SimDuration, SimTime};

/// An MNIST frame: 28×28 grayscale pixels plus header.
pub const FRAME_BYTES: usize = 28 * 28 + 16;

/// Images pre-produced into the topic.
pub const FRAMES: u64 = 40_000;

/// Builds the Fig. 7a scenario: one host, one broker, one producer,
/// `consumers` consumers, everything co-located.
pub fn scenario(consumers: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::new("video-analytics");
    sc.seed(seed)
        .duration(SimTime::from_secs(40))
        .server(ServerSpec::default()) // 8 cores, like the original host
        .default_link(LinkSpec::new().latency(SimDuration::from_micros(100)))
        .topic(TopicSpec::new("frames"));
    // Cheap request handling so consumer-side deserialization dominates,
    // as in the original frame-transfer benchmark.
    sc.broker_with(
        "h1",
        BrokerConfig {
            cpu_per_request: SimDuration::from_micros(8),
            cpu_per_record: SimDuration::from_nanos(300),
            fetch_max_records: 1_000,
            ..BrokerConfig::default()
        },
    );
    // Pre-produce the backlog fast (finishes within the first seconds).
    sc.producer(
        "h1",
        SourceSpec::Rate {
            topic: "frames".into(),
            count: FRAMES,
            interval: SimDuration::from_micros(50),
            payload: FRAME_BYTES,
        },
        Default::default(),
    );
    for _ in 0..consumers {
        sc.consumer(
            "h1",
            ConsumerConfig {
                max_poll_records: 1_000,
                // Per-frame decode cost: this is the CPU-bound stage that
                // caps per-consumer throughput at ~1/cost on one core.
                cpu_per_record: SimDuration::from_micros(40),
                ..ConsumerConfig::default()
            },
            &["frames"],
        );
    }
    sc
}

/// Runs one point of the sweep, returning aggregate transfer throughput in
/// images per second (total records fetched by all consumers over the span
/// between the first and last delivery).
pub fn measure_throughput(consumers: usize, seed: u64) -> f64 {
    let mut sc = scenario(consumers, seed);
    sc.capture_records(); // the span below needs each delivery's time
    let result = sc.run().expect("valid scenario");
    let monitor = result.monitor.borrow();
    if monitor.deliveries.is_empty() {
        return 0.0;
    }
    let first = monitor
        .deliveries
        .iter()
        .map(|d| d.delivered)
        .min()
        .expect("non-empty");
    let last = monitor
        .deliveries
        .iter()
        .map(|d| d.delivered)
        .max()
        .expect("non-empty");
    let span = last.saturating_since(first).as_secs_f64().max(1e-6);
    monitor.deliveries.len() as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumers_drain_the_backlog() {
        let result = scenario(2, 3).run().expect("runs");
        // Both consumers eventually fetch the full pre-produced topic.
        assert_eq!(result.total_deliveries() as u64, 2 * FRAMES);
    }

    #[test]
    fn throughput_grows_then_plateaus() {
        // Debug-build-friendly mini-sweep: 1 vs 4 consumers must scale,
        // 8 vs 12 must not (8 cores). The full sweep runs in the benches.
        let t1 = measure_throughput(1, 5);
        let t4 = measure_throughput(4, 5);
        assert!(
            t4 > t1 * 2.5,
            "parallel consumers must scale: {t1:.0} vs {t4:.0}"
        );
    }
}
