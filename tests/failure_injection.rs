//! Failure-injection behaviors beyond the Fig. 6 partition: gray loss,
//! flapping links, host crashes, and CPU caps — the "various operational
//! conditions (e.g., network loads, failure models)" of the paper's §I.

use stream2gym::broker::TopicSpec;
use stream2gym::core::{Scenario, SourceSpec};
use stream2gym::net::{FaultAction, FaultPlan, LinkSpec};
use stream2gym::sim::{SimDuration, SimTime};

fn base_scenario(name: &str, seed: u64) -> Scenario {
    let mut sc = Scenario::new(name);
    sc.seed(seed)
        .duration(SimTime::from_secs(60))
        .default_link(LinkSpec::new().latency_ms(3))
        .topic(TopicSpec::new("events"));
    sc.broker("hb");
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "events".into(),
            count: 300,
            interval: SimDuration::from_millis(50),
            payload: 400,
        },
        Default::default(),
    );
    sc.consumer("hc", Default::default(), &["events"]);
    sc
}

/// Gray failure: a lossy consumer link degrades latency but client retries
/// keep the pipeline correct — every acked record is eventually delivered.
#[test]
fn gray_loss_delays_but_does_not_lose() {
    let clean = base_scenario("clean", 3).run().expect("runs");
    let mut sc = base_scenario("gray", 3);
    sc.host_link("hc", LinkSpec::new().latency_ms(3).loss_pct(20.0));
    let lossy = sc.run().expect("runs");

    assert_eq!(clean.total_deliveries(), 300);
    assert_eq!(
        lossy.total_deliveries(),
        300,
        "fetch retries must mask the gray loss"
    );
    let clean_lat = clean.mean_latency("events").expect("deliveries");
    let lossy_lat = lossy.mean_latency("events").expect("deliveries");
    assert!(
        lossy_lat > clean_lat,
        "20% loss must inflate latency: {clean_lat} vs {lossy_lat}"
    );
    // And the network actually dropped packets.
    assert!(lossy.net.borrow().drops(stream2gym::net::DropCause::Loss) > 0);
}

/// A flapping producer link: delivery completes despite repeated short
/// outages (producer-side request retries).
#[test]
fn flapping_link_is_survivable() {
    let mut sc = base_scenario("flapping", 5);
    sc.faults(FaultPlan::new().flapping_link(
        "hp",
        "s1",
        SimTime::from_secs(5),
        SimDuration::from_secs(2),
        SimDuration::from_secs(8),
        4,
    ));
    let result = sc.run().expect("runs");
    let p = &result.report.producers[0];
    assert!(p.stats.retries > 0, "flaps must force produce retries");
    assert_eq!(
        p.stats.failed, 0,
        "no record may exhaust its delivery timeout"
    );
    assert_eq!(
        result.total_deliveries(),
        300,
        "all records delivered after flaps"
    );
}

/// Crashing the consumer host mid-run: deliveries stop during the outage
/// and the backlog is served after recovery.
#[test]
fn crashed_consumer_catches_up_on_restart() {
    let mut sc = base_scenario("crash", 7);
    sc.faults(
        FaultPlan::new()
            .at(SimTime::from_secs(5), FaultAction::NodeDown("hc".into()))
            .at(SimTime::from_secs(25), FaultAction::NodeUp("hc".into())),
    );
    sc.capture_records(); // each delivery's arrival time is checked below
    let result = sc.run().expect("runs");
    assert_eq!(
        result.total_deliveries(),
        300,
        "backlog must be served after the consumer host recovers"
    );
    // Nothing arrived while the host was down.
    let during_outage = result
        .monitor
        .borrow()
        .deliveries
        .iter()
        .filter(|d| {
            let s = d.delivered.as_secs();
            (6..25).contains(&s)
        })
        .count();
    assert_eq!(during_outage, 0, "a down host receives nothing");
}

/// The `cpuPercentage` cap: halving a host's CPU share slows its stream
/// job's batch runtimes measurably.
#[test]
fn cpu_percentage_cap_slows_processing() {
    use stream2gym::core::{SpeJobSpec, SpeSinkSpec};
    use stream2gym::spe::{Plan, SpeConfig};

    let build = |pct: f64, seed: u64| {
        let mut sc = Scenario::new("cpu-cap");
        sc.seed(seed)
            .duration(SimTime::from_secs(40))
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("in"));
        sc.host_cpu_percentage("hs", pct);
        sc.broker("hb");
        sc.producer(
            "hp",
            SourceSpec::Rate {
                topic: "in".into(),
                count: 2_000,
                interval: SimDuration::from_millis(10),
                payload: 200,
            },
            Default::default(),
        );
        sc.spe_job(
            "hs",
            SpeJobSpec::new(
                "identity",
                vec!["in".into()],
                Plan::new,
                SpeSinkSpec::Collect,
                SpeConfig::default(),
            ),
        );
        sc.run().expect("runs").report.spe["identity"].mean_busy_runtime
    };
    let full = build(100.0, 1);
    let capped = build(25.0, 1);
    assert!(
        capped.as_secs_f64() > full.as_secs_f64() * 2.0,
        "a 25% CPU share must slow batches: {full} vs {capped}"
    );
}
