//! Ablations over the design choices DESIGN.md calls out: acknowledgement
//! mode, replication factor, and bandwidth shaping.

use stream2gym::broker::TopicSpec;
use stream2gym::core::{Scenario, SourceSpec};
use stream2gym::net::LinkSpec;
use stream2gym::proto::AckMode;
use stream2gym::sim::{SimDuration, SimTime};

fn cluster(name: &str, replication: u32, acks: AckMode, link: LinkSpec, seed: u64) -> Scenario {
    let mut sc = Scenario::new(name);
    sc.seed(seed)
        .duration(SimTime::from_secs(40))
        .default_link(link)
        .topic(TopicSpec::new("events").replication(replication).primary(0));
    for h in ["h1", "h2", "h3"] {
        sc.broker(h);
    }
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "events".into(),
            count: 200,
            interval: SimDuration::from_millis(50),
            payload: 500,
        },
        stream2gym::broker::ProducerConfig {
            acks,
            ..Default::default()
        },
    );
    sc.consumer("hc", Default::default(), &["events"]);
    sc
}

/// `acks=all` waits for ISR replication, so produce-to-deliver latency is
/// strictly higher than `acks=1` on the same cluster.
#[test]
fn acks_all_costs_replication_latency() {
    let link = LinkSpec::new().latency_ms(10);
    let acks1 = cluster("acks1", 3, AckMode::Leader, link, 2)
        .run()
        .expect("runs");
    let acks_all = cluster("acksall", 3, AckMode::All, link, 2)
        .run()
        .expect("runs");
    assert_eq!(acks1.total_deliveries(), 200);
    assert_eq!(acks_all.total_deliveries(), 200);
    // Compare producer-observed ack latency (folded as acks arrive).
    let mean_ack = |r: &stream2gym::core::RunResult| -> f64 {
        let acks = r.report.producers[0].ack_latency.expect("records acked");
        assert_eq!(acks.count, 200);
        acks.mean
    };
    let l1 = mean_ack(&acks1);
    let lall = mean_ack(&acks_all);
    assert!(
        lall > l1 * 1.3,
        "acks=all must pay the replication round trip: {l1:.4}s vs {lall:.4}s"
    );
}

/// Higher replication factors move more bytes: follower fetch traffic is
/// visible in the leader's port counters.
#[test]
fn replication_traffic_scales_with_factor() {
    let link = LinkSpec::new().latency_ms(2);
    let r1 = cluster("r1", 1, AckMode::Leader, link, 4)
        .run()
        .expect("runs");
    let r3 = cluster("r3", 3, AckMode::Leader, link, 4)
        .run()
        .expect("runs");
    let leader_tx = |r: &stream2gym::core::RunResult| {
        let n = r.net.borrow();
        let h1 = n.topology().lookup("h1").expect("leader host");
        n.node_tx_bytes(h1)
    };
    let tx1 = leader_tx(&r1);
    let tx3 = leader_tx(&r3);
    assert!(
        tx3 as f64 > tx1 as f64 * 1.8,
        "replication 3 must roughly triple leader egress: {tx1} vs {tx3}"
    );
}

/// Bandwidth shaping: squeezing the producer's access link below its offered
/// load stretches end-to-end delivery via queueing.
#[test]
fn bandwidth_cap_throttles_delivery() {
    // 500-byte records every 5 ms ≈ 0.8 Mbps offered; cap at 0.4 Mbps.
    let fast = {
        let mut sc = Scenario::new("fast");
        sc.seed(6)
            .duration(SimTime::from_secs(60))
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("events"));
        sc.broker("hb");
        sc.producer(
            "hp",
            SourceSpec::Rate {
                topic: "events".into(),
                count: 500,
                interval: SimDuration::from_millis(5),
                payload: 500,
            },
            Default::default(),
        );
        sc.consumer("hc", Default::default(), &["events"]);
        sc.run().expect("runs")
    };
    let throttled = {
        let mut sc = Scenario::new("throttled");
        sc.seed(6)
            .duration(SimTime::from_secs(60))
            .default_link(LinkSpec::new().latency_ms(2))
            .host_link("hp", LinkSpec::new().latency_ms(2).bandwidth_mbps(0.4))
            .topic(TopicSpec::new("events"));
        sc.broker("hb");
        sc.producer(
            "hp",
            SourceSpec::Rate {
                topic: "events".into(),
                count: 500,
                interval: SimDuration::from_millis(5),
                payload: 500,
            },
            Default::default(),
        );
        sc.consumer("hc", Default::default(), &["events"]);
        sc.run().expect("runs")
    };
    let fast_lat = fast
        .mean_latency("events")
        .expect("deliveries")
        .as_secs_f64();
    let slow_lat = throttled
        .mean_latency("events")
        .expect("deliveries")
        .as_secs_f64();
    assert!(
        slow_lat > fast_lat * 2.0,
        "a link below offered load must queue: {fast_lat:.4}s vs {slow_lat:.4}s"
    );
    assert_eq!(throttled.total_deliveries(), 500, "throttled, not dropped");
}
