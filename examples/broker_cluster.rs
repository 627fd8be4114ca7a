//! Multi-broker partition replication, narrated: a 3-broker cluster
//! replicates every partition (RF=3), a producer writes at `acks=all`,
//! and the partition leader's broker is crashed mid-run.
//!
//! Watch for three things in the output:
//!
//! * the controller detects the dead session and moves partition
//!   leadership to an in-sync replica (`leadership moves`);
//! * the surviving leaders shrink their ISR around the outage and
//!   re-expand it once the restarted broker catches up over replica
//!   fetch with epoch-based truncation;
//! * at `acks=all` no acknowledged record is lost — the produce stall is
//!   the leader-rediscovery window, not a data-loss window. Contrast
//!   with RF=1, where the same crash is a full outage until the broker
//!   returns.
//!
//! Run with: `cargo run --release --example broker_cluster`

use stream2gym::broker::{BrokerConfig, ControllerConfig, ProducerConfig, TopicSpec};
use stream2gym::core::{Scenario, SourceSpec};
use stream2gym::net::{FaultPlan, LinkSpec};
use stream2gym::proto::AckMode;
use stream2gym::sim::{SimDuration, SimTime};

const RECORDS: u64 = 900;
const INTERVAL_MS: u64 = 30;
const CRASH_AT_S: u64 = 12;
const DOWN_FOR_S: u64 = 4;
const RUN_S: u64 = 35;

fn run(rf: u32) -> (f64, f64, u64, u64, u64) {
    let mut sc = Scenario::new("broker-cluster");
    sc.seed(7)
        .duration(SimTime::from_secs(RUN_S))
        .default_link(LinkSpec::new().latency_ms(2))
        .topic(TopicSpec::new("data"));
    // Failure detection tuned so a 4 s outage triggers an election: the
    // 6 s default session timeout would simply wait the crash out.
    let broker_cfg = BrokerConfig {
        heartbeat_interval: SimDuration::from_millis(300),
        session_timeout: SimDuration::from_secs(1),
        replica_fetch_interval: SimDuration::from_millis(10),
        replica_lag_max: SimDuration::from_secs(1),
        ..BrokerConfig::default()
    };
    for h in ["h1", "h2", "h3"] {
        sc.broker_with(h, broker_cfg.clone());
    }
    sc.controller_config(ControllerConfig {
        session_timeout: SimDuration::from_secs(1),
        session_check_interval: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    });
    sc.with_replicated_partitions(rf);
    sc.with_acks(AckMode::All);
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "data".into(),
            count: RECORDS,
            interval: SimDuration::from_millis(INTERVAL_MS),
            payload: 200,
        },
        ProducerConfig {
            request_timeout: SimDuration::from_millis(500),
            ..ProducerConfig::default()
        },
    );
    sc.consumer("hc", Default::default(), &["data"]);
    sc.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_secs(CRASH_AT_S),
        SimDuration::from_secs(DOWN_FOR_S),
    ));

    // Availability and the outage window are read off per-record acks.
    sc.capture_records();
    let result = sc.run().expect("scenario is valid");
    let p = &result.report.producers[0];
    // Availability: the share of records acked within a 1 s SLO (queued
    // records do ack eventually — the delivery timeout is 120 s — but an
    // ack minutes late is an outage as far as the application is
    // concerned).
    let slo = SimDuration::from_secs(1);
    let within_slo = p
        .outcomes
        .iter()
        .filter(|o| o.delivered && o.completed.saturating_since(o.created) <= slo)
        .count();
    let crash_at = SimTime::from_secs(CRASH_AT_S);
    // The produce outage: gap from the crash to the first ack after it.
    let mut completions: Vec<SimTime> = p
        .outcomes
        .iter()
        .filter(|o| o.delivered)
        .map(|o| o.completed)
        .collect();
    completions.sort();
    let outage_s = completions
        .iter()
        .find(|t| **t >= crash_at)
        .map(|t| t.saturating_since(crash_at).as_nanos() as f64 / 1e9)
        .unwrap_or(f64::NAN);
    let (mut moves, mut shrinks, mut expands) = (0, 0, 0);
    for b in &result.report.brokers {
        if let Some(r) = b.recovery {
            moves += r.leadership_moves;
            shrinks = shrinks.max(r.isr_shrinks);
            expands = expands.max(r.isr_expands);
        }
    }
    (
        100.0 * within_slo as f64 / RECORDS as f64,
        outage_s,
        moves,
        shrinks,
        expands,
    )
}

fn main() {
    println!(
        "producing {RECORDS} records at acks=all; crashing broker 0 at \
         {CRASH_AT_S}s for {DOWN_FOR_S}s...\n"
    );
    for rf in [1, 3] {
        let (avail_pct, outage_s, moves, shrinks, expands) = run(rf);
        println!("RF={rf}:");
        println!("  acked within 1s SLO    {avail_pct:.1}%");
        println!("  produce outage         {outage_s:.2}s");
        println!("  leadership moves       {moves}");
        println!("  ISR shrinks/expands    {shrinks}/{expands}");
        if rf == 1 {
            println!("  (no replicas: the outage spans the whole downtime)\n");
        } else {
            println!("  (an in-sync replica took over within the election window)");
        }
    }
}
