//! The Fig. 6 network-partition experiment, narrated — plus the broker
//! *crash* path the partition experiment cannot show.
//!
//! Part 1: ten broker sites in a star, two replicated topics, producers and
//! consumers on every site. The host carrying topic A's leader is
//! disconnected for two minutes. Under ZooKeeper-mode coordination,
//! acknowledged messages silently disappear; the delivery matrix shows the
//! dark band. (A partitioned broker keeps its state — the loss comes from
//! divergence truncation when the network heals.)
//!
//! Part 2: the same topology, but instead of cutting links the fault plan
//! *crashes* the leader's broker process (`FaultPlan::crash_restart_broker`)
//! and restarts it. With a durable broker log
//! (`Scenario::with_recoverable_broker` / `with_durable_broker`) the
//! restarted broker replays its segments and re-registers with the
//! controller: a bounded unavailability window, no loss. See
//! `examples/broker_recovery.rs` for the volatile-vs-durable contrast.
//!
//! Run with: `cargo run --release --example partition_failure`

use stream2gym::broker::{CoordinationMode, TopicSpec};
use stream2gym::core::{ascii_matrix, Scenario, SourceSpec};
use stream2gym::net::{FaultPlan, LinkSpec};
use stream2gym::sim::{SimDuration, SimTime};

const SITES: u32 = 6; // scaled-down default so the example runs quickly
const RUN: u64 = 240;
const CUT_AT: u64 = 80;
const CUT_FOR: u64 = 60;
const WATCHED: [&str; 3] = ["h1", "h2", "h3"];

fn main() {
    network_partition();
    broker_crash();
}

/// Part 1 — the Fig. 6 network partition (links cut, process survives).
fn network_partition() {
    let mut sc = Scenario::new("partition-failure");
    sc.seed(1)
        .duration(SimTime::from_secs(RUN))
        .coordination(CoordinationMode::Zk)
        .default_link(LinkSpec::new().latency_ms(2))
        .topic(TopicSpec::new("topic-a").replication(3).primary(0))
        .topic(TopicSpec::new("topic-b").replication(3).primary(1));
    for i in 0..SITES {
        let host = format!("h{}", i + 1);
        sc.broker(&host);
        sc.producer(
            &host,
            SourceSpec::RandomTopics {
                topics: vec!["topic-a".into(), "topic-b".into()],
                kbps: 30,
                payload: 500,
                until: SimTime::from_secs(RUN - 40),
            },
            Default::default(),
        );
        sc.consumer(&host, Default::default(), &["topic-a", "topic-b"]);
    }
    sc.faults(FaultPlan::new().transient_disconnect(
        "h1",
        SimTime::from_secs(CUT_AT),
        SimDuration::from_secs(CUT_FOR),
    ));
    // Port throughput in 1 s windows, like the paper's Fig. 6d.
    sc.watch_throughput(&WATCHED)
        .telemetry_interval(SimDuration::from_secs(1));

    println!(
        "running {SITES} sites for {RUN}s; disconnecting h1 (topic-a leader) at {CUT_AT}s for {CUT_FOR}s..."
    );
    sc.capture_records(); // the delivery matrix is made of record identities
    let result = sc.run().expect("scenario is valid");

    // The delivery matrix for the producer co-located with the failed broker.
    let matrix = result.delivery_matrix(0);
    let rows: Vec<(String, &[bool])> = matrix
        .received
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("consumer {i}"), r.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_matrix("delivery matrix: producer on h1", &rows, 72)
    );

    let lost = matrix.total_losses();
    println!(
        "{} of {} messages from the co-located producer were never delivered to anyone",
        lost.len(),
        matrix.messages.len()
    );
    let lost_topics: std::collections::BTreeSet<&str> = lost.iter().map(|(t, _, _)| &**t).collect();
    println!("lost messages came from: {lost_topics:?} (the disconnected leader's topic)");

    let b0 = &result.report.brokers[0];
    println!(
        "broker 0: {} records truncated on heal, {} leadership events",
        b0.stats.records_truncated,
        b0.leadership_events.len()
    );
    for host in WATCHED {
        let series = result.report.series(&format!("host-{host}"), "tx_mbps");
        let tx = &series.expect("a watched host").points;
        println!(
            "  {host}: peak tx {:.2} Mbps, mean {:.3} Mbps",
            tx.iter().map(|(_, v)| *v).fold(0.0, f64::max),
            tx.iter().map(|(_, v)| v).sum::<f64>() / tx.len() as f64
        );
    }
    println!("re-run with CoordinationMode::Kraft and acks=all to see zero loss.");
}

/// Part 2 — the broker-crash path: the same leader dies outright (process
/// fault, not a link fault) and comes back with its durable log replayed.
fn broker_crash() {
    println!("\n== part 2: crashing the topic-a leader's broker process ==");
    let mut sc = Scenario::new("broker-crash");
    sc.seed(1)
        .duration(SimTime::from_secs(RUN))
        .coordination(CoordinationMode::Zk)
        .default_link(LinkSpec::new().latency_ms(2))
        .topic(TopicSpec::new("topic-a").replication(3).primary(0))
        .topic(TopicSpec::new("topic-b").replication(3).primary(1))
        .with_recoverable_broker();
    for i in 0..SITES {
        let host = format!("h{}", i + 1);
        sc.broker(&host);
        sc.producer(
            &host,
            SourceSpec::RandomTopics {
                topics: vec!["topic-a".into(), "topic-b".into()],
                kbps: 30,
                payload: 500,
                until: SimTime::from_secs(RUN - 40),
            },
            Default::default(),
        );
        sc.consumer(&host, Default::default(), &["topic-a", "topic-b"]);
    }
    // Crash broker 0 (topic-a's preferred leader) instead of cutting links.
    sc.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_secs(CUT_AT),
        SimDuration::from_secs(CUT_FOR),
    ));
    sc.capture_records(); // the delivery matrix is made of record identities
    let result = sc.run().expect("scenario is valid");
    let b0 = &result.report.brokers[0];
    let rec = b0.recovery.expect("broker 0 was crashed by the plan");
    let fmt = |t: Option<SimTime>| t.map_or("never".to_string(), |t| t.to_string());
    println!(
        "broker 0 crashed at {}, restarted at {}, serving again at {}",
        rec.crashed_at,
        fmt(rec.restarted_at),
        fmt(rec.recovered_at)
    );
    println!(
        "  replayed {} records in {} segments; unavailability window {}",
        rec.replayed_records,
        rec.replayed_segments,
        rec.unavailability()
            .map_or("n/a".to_string(), |d| d.to_string())
    );
    let matrix = result.delivery_matrix(0);
    println!(
        "  messages from the co-located producer lost to everyone: {} of {}",
        matrix.total_losses().len(),
        matrix.messages.len()
    );
    println!(
        "  (crash + durable replay loses nothing — unlike the partition's\n   divergence truncation above, downtime here is latency, not loss)"
    );
}
