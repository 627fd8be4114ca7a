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

/// One scenario carrying all five crashable component kinds: a broker, a
/// store replica, an SPE job, a producer stub and a consumer stub.
fn five_kinds(plan: FaultPlan) -> Scenario {
    use stream2gym::core::{SpeJobSpec, SpeSinkSpec};
    use stream2gym::spe::{Plan, SpeConfig};

    let mut sc = base_scenario("five-kinds", 11);
    sc.duration(SimTime::from_secs(30))
        .topic(TopicSpec::new("out"))
        .store("hst", Default::default())
        .spe_job(
            "hj",
            SpeJobSpec::new(
                "identity",
                vec!["events".into()],
                Plan::new,
                SpeSinkSpec::Topic("out".into()),
                SpeConfig::default(),
            ),
        )
        .consumer("hc2", Default::default(), &["out"]);
    sc.faults(plan);
    sc
}

/// The fault executor's edge cases hold for every component kind alike: an
/// unpaired restart and a second crash of a dead target are no-ops, and a
/// crash with no restart still reports from the dead process's remains.
#[test]
fn fault_edge_cases_hold_for_every_component_kind() {
    use stream2gym::core::RunReport;
    type Recovery = fn(&RunReport) -> Option<(SimTime, Option<SimTime>)>;
    let kinds: [(&str, FaultAction, FaultAction, Recovery); 5] = [
        (
            "SPE job",
            FaultAction::CrashProcess("identity".into()),
            FaultAction::RestartProcess("identity".into()),
            |r| {
                let rec = r.spe["identity"].recovery?;
                Some((rec.crashed_at, rec.restarted_at))
            },
        ),
        (
            "producer-0",
            FaultAction::CrashProcess("producer-0".into()),
            FaultAction::RestartProcess("producer-0".into()),
            |r| {
                let rec = r.producers[0].recovery?;
                Some((rec.crashed_at, rec.restarted_at))
            },
        ),
        (
            "consumer-0",
            FaultAction::CrashProcess("consumer-0".into()),
            FaultAction::RestartProcess("consumer-0".into()),
            |r| {
                let rec = r.consumers[0].recovery?;
                Some((rec.crashed_at, rec.restarted_at))
            },
        ),
        (
            "broker 0",
            FaultAction::CrashBroker(0),
            FaultAction::RestartBroker(0),
            |r| {
                let rec = r.brokers[0].recovery?;
                Some((rec.crashed_at, rec.restarted_at))
            },
        ),
        (
            "store replica 0",
            FaultAction::CrashStore(0),
            FaultAction::RestartStore(0),
            |r| {
                let rec = r.stores[0].recovery?;
                Some((rec.crashed_at, rec.restarted_at))
            },
        ),
    ];
    let at = SimTime::from_secs(5);
    let later = SimTime::from_secs(9);
    let report = |plan: FaultPlan| format!("{:?}", five_kinds(plan).run().expect("runs").report);
    let clean = report(FaultPlan::new());
    for (kind, crash, restart, recovery) in kinds {
        assert_eq!(
            report(FaultPlan::new().at(at, restart)),
            clean,
            "{kind}: an unpaired restart must leave the run untouched"
        );
        let once = five_kinds(FaultPlan::new().at(at, crash.clone()))
            .run()
            .expect("runs")
            .report;
        assert_eq!(
            report(FaultPlan::new().at(at, crash.clone()).at(later, crash)),
            format!("{once:?}"),
            "{kind}: crashing a dead target again must change nothing"
        );
        assert_ne!(format!("{once:?}"), clean, "{kind}: the crash took effect");
        assert_eq!(
            recovery(&once),
            Some((at, None)),
            "{kind}: a never-restarted target still reports, from its corpse"
        );
    }
    // The corpse carries the pre-crash counters, not zeros.
    let dead_producer = five_kinds(FaultPlan::new().crash_process("producer-0", at))
        .run()
        .expect("runs")
        .report;
    assert!(dead_producer.producers[0].stats.sent > 0);
}
