//! The scenario analyzer: every `S2G0xx` diagnostic has a trigger/clean
//! pair here, the `run()` deny gate is exercised both ways, and every
//! shipped application scenario must analyze deny-free.

use stream2gym::analyze::Level;
use stream2gym::apps::word_count::{self, running_count_plan, ComponentDelays};
use stream2gym::apps::{
    fraud, maritime, ride_selection, sentiment, traffic_monitor, video_analytics,
};
use stream2gym::broker::{
    BrokerConfig, ConsumerConfig, ControllerConfig, ProducerConfig, TopicSpec,
};
use stream2gym::core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use stream2gym::net::{FaultAction, FaultPlan, LinkSpec, Topology};
use stream2gym::proto::AckMode;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, SpeConfig};
use stream2gym::store::StoreConfig;

/// One declared topic pair, one broker — the smallest healthy cluster.
fn base(name: &str) -> Scenario {
    let mut sc = Scenario::new(name);
    sc.duration(SimTime::from_secs(30))
        .topic(TopicSpec::new("in"))
        .topic(TopicSpec::new("out"))
        .broker("bh1");
    sc
}

fn rate_source(topic: &str, interval: SimDuration, payload: usize) -> SourceSpec {
    SourceSpec::Rate {
        topic: topic.into(),
        count: 50,
        interval,
        payload,
    }
}

fn add_producer(sc: &mut Scenario) {
    sc.producer(
        "ph",
        rate_source("in", SimDuration::from_millis(100), 64),
        Default::default(),
    );
}

fn add_job(sc: &mut Scenario, name: &str) {
    sc.spe_job(
        "jh",
        SpeJobSpec::new(
            name,
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::Topic("out".into()),
            SpeConfig::default(),
        ),
    );
}

fn level_of(sc: &Scenario, code: &str) -> Option<Level> {
    sc.analyze()
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .map(|d| d.level)
}

#[test]
fn s2g001_clients_without_brokers() {
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"));
    sc.consumer("ch", Default::default(), &["in"]);
    assert_eq!(level_of(&sc, "S2G001"), Some(Level::Deny));

    let mut clean = Scenario::new("t");
    clean
        .duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"));
    clean.broker("bh1");
    clean.consumer("ch", Default::default(), &["in"]);
    assert_eq!(level_of(&clean, "S2G001"), None);
}

#[test]
fn s2g002_unknown_topic_with_nearest_hint() {
    let mut sc = base("t");
    sc.producer(
        "ph",
        rate_source("inn", SimDuration::from_millis(100), 64),
        Default::default(),
    );
    let report = sc.analyze();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "S2G002")
        .expect("typo'd topic denied");
    assert_eq!(d.level, Level::Deny);
    assert!(
        d.suggestion.contains("did you mean `in`"),
        "nearest-name hint missing: {}",
        d.suggestion
    );

    let mut clean = base("t");
    add_producer(&mut clean);
    assert_eq!(level_of(&clean, "S2G002"), None);
}

#[test]
fn s2g003_store_sink_without_store() {
    let mut sc = base("t");
    sc.spe_job(
        "jh",
        SpeJobSpec::new(
            "jb",
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::StoreOn {
                host: "sh".into(),
                table: "t".into(),
            },
            SpeConfig::default(),
        ),
    );
    assert_eq!(level_of(&sc, "S2G003"), Some(Level::Deny));

    let mut clean = base("t");
    clean.store("sh", StoreConfig::default());
    clean.spe_job(
        "jh",
        SpeJobSpec::new(
            "jb",
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::StoreOn {
                host: "sh".into(),
                table: "t".into(),
            },
            SpeConfig::default(),
        ),
    );
    assert_eq!(level_of(&clean, "S2G003"), None);
}

#[test]
fn s2g004_duplicate_job_names() {
    let mut sc = base("t");
    add_job(&mut sc, "jb");
    add_job(&mut sc, "jb");
    assert_eq!(level_of(&sc, "S2G004"), Some(Level::Deny));

    let mut clean = base("t");
    add_job(&mut clean, "jb1");
    add_job(&mut clean, "jb2");
    assert_eq!(level_of(&clean, "S2G004"), None);
}

#[test]
fn s2g005_topology_missing_required_host() {
    let link = LinkSpec::new().latency(SimDuration::from_micros(50));
    let mut topo = Topology::new();
    topo.add_host("bh1").unwrap();
    topo.add_host("ctl1").unwrap();
    topo.add_link("bh1", "ctl1", link).unwrap();
    let mut sc = base("t");
    add_producer(&mut sc); // producer on `ph`, absent from the topology
    sc.topology(topo);
    assert_eq!(level_of(&sc, "S2G005"), Some(Level::Deny));

    let mut topo = Topology::new();
    topo.add_host("bh1").unwrap();
    topo.add_host("ctl1").unwrap();
    topo.add_host("ph").unwrap();
    topo.add_link("bh1", "ctl1", link).unwrap();
    topo.add_link("ph", "bh1", link).unwrap();
    let mut clean = base("t");
    add_producer(&mut clean);
    clean.topology(topo);
    assert_eq!(level_of(&clean, "S2G005"), None);
}

#[test]
fn s2g006_unknown_fault_process_with_hint() {
    let mut sc = base("t");
    add_job(&mut sc, "wordcount");
    sc.faults(FaultPlan::new().crash_process("wordcounts", SimTime::from_secs(5)));
    let report = sc.analyze();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "S2G006")
        .expect("typo'd process target denied");
    assert_eq!(d.level, Level::Deny);
    assert!(
        d.suggestion.contains("did you mean `wordcount`"),
        "nearest-target hint missing: {}",
        d.suggestion
    );

    let mut clean = base("t");
    add_job(&mut clean, "wordcount");
    clean.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_secs(5),
        SimDuration::from_secs(2),
    ));
    assert_eq!(level_of(&clean, "S2G006"), None);
}

#[test]
fn s2g006_accepts_stage_instance_grammar() {
    let mut sc = base("t");
    sc.spe_job(
        "jh",
        SpeJobSpec::new(
            "jb",
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::Topic("out".into()),
            SpeConfig::default(),
        )
        .parallelism(2),
    );
    // Full `<job>/<stage>/<instance>`, the `<job>/<instance>` shorthand,
    // and a stub name are all legal targets.
    sc.faults(
        FaultPlan::new()
            .crash_restart("jb/1/0", SimTime::from_secs(4), SimDuration::from_secs(1))
            .crash_restart("jb/1", SimTime::from_secs(8), SimDuration::from_secs(1)),
    );
    assert_eq!(level_of(&sc, "S2G006"), None);

    let mut bad = base("t");
    bad.spe_job(
        "jh",
        SpeJobSpec::new(
            "jb",
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::Topic("out".into()),
            SpeConfig::default(),
        )
        .parallelism(2),
    );
    bad.faults(FaultPlan::new().crash_process("jb/9/9", SimTime::from_secs(4)));
    assert_eq!(level_of(&bad, "S2G006"), Some(Level::Deny));
}

#[test]
fn s2g007_broker_index_out_of_range() {
    let mut sc = base("t");
    add_producer(&mut sc);
    sc.faults(FaultPlan::new().crash_restart_broker(
        5,
        SimTime::from_secs(5),
        SimDuration::from_secs(8),
    ));
    assert_eq!(level_of(&sc, "S2G007"), Some(Level::Deny));

    let mut clean = base("t");
    add_producer(&mut clean);
    clean.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_secs(5),
        SimDuration::from_secs(8),
    ));
    assert_eq!(level_of(&clean, "S2G007"), None);
}

#[test]
fn s2g008_store_replica_out_of_range() {
    let mut sc = base("t");
    sc.store("sh", StoreConfig::default());
    sc.faults(FaultPlan::new().crash_restart_store(
        3,
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
    ));
    assert_eq!(level_of(&sc, "S2G008"), Some(Level::Deny));

    let mut clean = base("t");
    clean.store("sh", StoreConfig::default());
    clean.with_replicated_store(2);
    clean.faults(FaultPlan::new().crash_restart_store(
        1,
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
    ));
    assert_eq!(level_of(&clean, "S2G008"), None);
}

#[test]
fn s2g009_key_groups_below_parallelism() {
    let job = |groups: u32| {
        SpeJobSpec::new(
            "jb",
            vec!["in".into()],
            running_count_plan,
            SpeSinkSpec::Topic("out".into()),
            SpeConfig::default(),
        )
        .parallelism(4)
        .key_groups(groups)
    };
    let mut sc = base("t");
    sc.spe_job("jh", job(2));
    assert_eq!(level_of(&sc, "S2G009"), Some(Level::Deny));

    let mut clean = base("t");
    clean.spe_job("jh", job(8));
    assert_eq!(level_of(&clean, "S2G009"), None);
}

#[test]
fn s2g010_shuffle_namespace_squatting() {
    let mut sc = base("t");
    sc.topic(TopicSpec::new("__shuffle.jb.1"));
    assert_eq!(level_of(&sc, "S2G010"), Some(Level::Deny));
    assert_eq!(level_of(&base("t"), "S2G010"), None);
}

#[test]
fn s2g011_replication_above_broker_count() {
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in").replication(2))
        .broker("bh1");
    assert_eq!(level_of(&sc, "S2G011"), Some(Level::Deny));

    // The scenario-wide override is capped, not denied.
    let mut capped = Scenario::new("t");
    capped
        .duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"))
        .broker("bh1")
        .broker("bh2")
        .with_replicated_partitions(3);
    assert_eq!(level_of(&capped, "S2G011"), Some(Level::Warn));

    let mut clean = Scenario::new("t");
    clean
        .duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in").replication(2))
        .broker("bh1")
        .broker("bh2");
    assert_eq!(level_of(&clean, "S2G011"), None);
}

#[test]
fn s2g012_min_insync_above_replication() {
    let strict = BrokerConfig {
        min_insync_replicas: 2,
        ..BrokerConfig::default()
    };
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"))
        .broker_with("bh1", strict.clone())
        .with_acks(AckMode::All);
    add_producer(&mut sc);
    assert_eq!(level_of(&sc, "S2G012"), Some(Level::Deny));

    // Without an acks=all producer the knob is inert: warn, not deny.
    let mut inert = Scenario::new("t");
    inert
        .duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"))
        .broker_with("bh1", strict);
    add_producer(&mut inert);
    assert_eq!(level_of(&inert, "S2G012"), Some(Level::Warn));

    let mut clean = base("t");
    add_producer(&mut clean);
    assert_eq!(level_of(&clean, "S2G012"), None);
}

#[test]
fn s2g013_transactional_sink_without_exactly_once() {
    let mut sc = base("t");
    add_job(&mut sc, "jb");
    sc.with_transactional_sinks();
    assert_eq!(level_of(&sc, "S2G013"), Some(Level::Deny));

    // At-least-once checkpointing is not enough either.
    let mut alo = base("t");
    add_job(&mut alo, "jb");
    alo.with_transactional_sinks()
        .with_checkpointing(CheckpointCfg::at_least_once(SimDuration::from_secs(2)));
    assert_eq!(level_of(&alo, "S2G013"), Some(Level::Deny));

    let mut clean = base("t");
    add_job(&mut clean, "jb");
    clean
        .with_transactional_sinks()
        .with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(2)));
    assert_eq!(level_of(&clean, "S2G013"), None);
}

#[test]
fn s2g014_heartbeat_at_or_above_session_timeout() {
    let slow = BrokerConfig {
        heartbeat_interval: SimDuration::from_secs(10),
        ..BrokerConfig::default()
    };
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"))
        .broker_with("bh1", slow);
    add_producer(&mut sc);
    assert_eq!(level_of(&sc, "S2G014"), Some(Level::Deny));

    let mut clean = base("t");
    add_producer(&mut clean);
    assert_eq!(level_of(&clean, "S2G014"), None);
}

#[test]
fn s2g015_outage_shorter_than_failure_detection() {
    // The PR-7 trap: default 6 s session timeout waits out a 4 s outage.
    let replicated = |down_for: SimDuration| {
        let mut sc = Scenario::new("t");
        sc.duration(SimTime::from_secs(40))
            .topic(TopicSpec::new("in"))
            .broker("bh1")
            .broker("bh2")
            .with_replicated_partitions(2);
        sc.producer(
            "ph",
            rate_source("in", SimDuration::from_millis(100), 64),
            Default::default(),
        );
        sc.faults(FaultPlan::new().crash_restart_broker(0, SimTime::from_secs(10), down_for));
        sc
    };
    assert_eq!(
        level_of(&replicated(SimDuration::from_secs(4)), "S2G015"),
        Some(Level::Warn)
    );
    assert_eq!(
        level_of(&replicated(SimDuration::from_secs(10)), "S2G015"),
        None
    );
}

#[test]
fn s2g016_replicated_but_acks_leader() {
    let cluster = |acks: Option<AckMode>| {
        let mut sc = Scenario::new("t");
        sc.duration(SimTime::from_secs(10))
            .topic(TopicSpec::new("in"))
            .broker("bh1")
            .broker("bh2")
            .with_replicated_partitions(2);
        if let Some(a) = acks {
            sc.with_acks(a);
        }
        add_producer(&mut sc);
        sc
    };
    assert_eq!(level_of(&cluster(None), "S2G016"), Some(Level::Warn));
    assert_eq!(level_of(&cluster(Some(AckMode::All)), "S2G016"), None);
}

#[test]
fn s2g017_unbatched_acks_all_queueing_collapse() {
    let cluster = |interval: SimDuration| {
        let mut sc = Scenario::new("t");
        sc.duration(SimTime::from_secs(10))
            .topic(TopicSpec::new("in"))
            .broker("bh1")
            .broker("bh2")
            .with_replicated_partitions(2)
            .with_acks(AckMode::All)
            .with_batching(false);
        sc.producer("ph", rate_source("in", interval, 64), Default::default());
        sc
    };
    // 1 ms between records, ~50 ms replication round trip: collapse.
    assert_eq!(
        level_of(&cluster(SimDuration::from_millis(1)), "S2G017"),
        Some(Level::Warn)
    );
    assert_eq!(
        level_of(&cluster(SimDuration::from_millis(500)), "S2G017"),
        None
    );
}

#[test]
fn s2g018_retention_below_checkpoint_interval() {
    let with_retention = |age: SimDuration| {
        let mut sc = base("t");
        add_job(&mut sc, "jb");
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(5)))
            .with_log_retention(Some(age), None);
        sc
    };
    assert_eq!(
        level_of(&with_retention(SimDuration::from_secs(1)), "S2G018"),
        Some(Level::Warn)
    );
    assert_eq!(
        level_of(&with_retention(SimDuration::from_secs(20)), "S2G018"),
        None
    );
}

#[test]
fn s2g019_batch_bytes_below_payload() {
    let with_cap = |cap: usize| {
        let mut sc = base("t");
        sc.batch_max_bytes(cap);
        sc.producer(
            "ph",
            rate_source("in", SimDuration::from_millis(100), 2048),
            Default::default(),
        );
        sc
    };
    assert_eq!(level_of(&with_cap(512), "S2G019"), Some(Level::Warn));
    assert_eq!(level_of(&with_cap(65536), "S2G019"), None);
}

#[test]
fn s2g020_read_committed_without_transactions() {
    let consumer = |read_committed: bool| {
        let mut sc = base("t");
        add_producer(&mut sc);
        let cfg = ConsumerConfig {
            read_committed,
            ..ConsumerConfig::default()
        };
        sc.consumer("ch", cfg, &["in"]);
        sc
    };
    assert_eq!(level_of(&consumer(true), "S2G020"), Some(Level::Warn));
    assert_eq!(level_of(&consumer(false), "S2G020"), None);
}

#[test]
fn s2g021_fault_after_run_ends() {
    let fault_at = |secs: u64| {
        let mut sc = base("t");
        add_producer(&mut sc);
        sc.faults(FaultPlan::new().crash_restart_broker(
            0,
            SimTime::from_secs(secs),
            SimDuration::from_secs(8),
        ));
        sc
    };
    // Base duration is 30 s.
    assert_eq!(level_of(&fault_at(40), "S2G021"), Some(Level::Warn));
    assert_eq!(level_of(&fault_at(10), "S2G021"), None);
}

#[test]
fn s2g022_client_on_internal_shuffle_topic() {
    let consumer_on = |topic: &str| {
        let mut sc = base("t");
        sc.spe_job(
            "jh",
            SpeJobSpec::new(
                "jb",
                vec!["in".into()],
                running_count_plan,
                SpeSinkSpec::Topic("out".into()),
                SpeConfig::default(),
            )
            .parallelism(2),
        );
        sc.consumer("ch", Default::default(), &[topic]);
        sc
    };
    // `running_count_plan` splits at its key_by, so stage 1's shuffle
    // topic `__shuffle.jb.1` exists — peeking at it warns.
    assert_eq!(
        level_of(&consumer_on("__shuffle.jb.1"), "S2G022"),
        Some(Level::Warn)
    );
    assert_eq!(level_of(&consumer_on("out"), "S2G022"), None);
}

#[test]
fn s2g023_replica_lag_below_fetch_interval() {
    let with_lag = |lag: SimDuration| {
        let cfg = BrokerConfig {
            replica_lag_max: lag,
            ..BrokerConfig::default()
        };
        let mut sc = Scenario::new("t");
        sc.duration(SimTime::from_secs(10))
            .topic(TopicSpec::new("in"))
            .broker_with("bh1", cfg.clone())
            .broker_with("bh2", cfg)
            .with_replicated_partitions(2);
        add_producer(&mut sc);
        sc
    };
    // Default replica_fetch_interval is 50 ms; a 60 ms lag bound flaps.
    assert_eq!(
        level_of(&with_lag(SimDuration::from_millis(60)), "S2G023"),
        Some(Level::Warn)
    );
    assert_eq!(
        level_of(&with_lag(SimDuration::from_secs(10)), "S2G023"),
        None
    );
}

#[test]
fn s2g024_crashing_sole_durability_store() {
    let with_replicas = |n: usize| {
        let mut sc = base("t");
        add_job(&mut sc, "jb");
        sc.store("sh", StoreConfig::default());
        sc.with_replicated_store(n);
        sc.with_durable_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(2)), "sh");
        sc.faults(FaultPlan::new().crash_restart_store(
            0,
            SimTime::from_secs(5),
            SimDuration::from_secs(5),
        ));
        sc
    };
    assert_eq!(level_of(&with_replicas(1), "S2G024"), Some(Level::Warn));
    assert_eq!(level_of(&with_replicas(3), "S2G024"), None);
}

#[test]
fn s2g025_restart_without_crash() {
    let mut sc = base("t");
    add_producer(&mut sc);
    sc.faults(FaultPlan::new().at(SimTime::from_secs(5), FaultAction::RestartBroker(0)));
    assert_eq!(level_of(&sc, "S2G025"), Some(Level::Warn));

    let mut clean = base("t");
    add_producer(&mut clean);
    clean.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_secs(5),
        SimDuration::from_secs(8),
    ));
    assert_eq!(level_of(&clean, "S2G025"), None);
}

#[test]
fn s2g026_host_override_names_no_host() {
    let link = LinkSpec::new().latency(SimDuration::from_micros(50));
    let mut sc = base("t");
    add_producer(&mut sc); // hosts: bh1, ph, ctl1
    sc.host_link("pf", link).host_cpu_percentage("bh2", 50.0);
    let report = sc.analyze();
    assert_eq!(level_of(&sc, "S2G026"), Some(Level::Warn));
    let flagged: Vec<&str> = (report.diagnostics.iter())
        .filter(|d| d.code == "S2G026")
        .map(|d| d.suggestion.as_str())
        .collect();
    assert_eq!(flagged.len(), 2, "one per misspelt override: {report}");
    assert!(flagged[0].contains("did you mean `ph`"), "{report}");
    assert!(flagged[1].contains("did you mean `bh1`"), "{report}");

    // With an explicit topology the topology's nodes are the host layout.
    let mut topo = Topology::new();
    for host in ["bh1", "ctl1", "ph"] {
        topo.add_host(host).unwrap();
    }
    topo.add_link("bh1", "ctl1", link).unwrap();
    topo.add_link("ph", "bh1", link).unwrap();
    let mut explicit = base("t");
    add_producer(&mut explicit);
    explicit.topology(topo).host_cpu_percentage("ctl2", 50.0);
    assert_eq!(level_of(&explicit, "S2G026"), Some(Level::Warn));

    let mut clean = base("t");
    add_producer(&mut clean);
    clean.host_link("ph", link).host_cpu_percentage("bh1", 50.0);
    assert_eq!(level_of(&clean, "S2G026"), None);
}

/// Where a self-re-arming period lives: on the scenario itself, or in the
/// config of a component, which the case zeroes one field of.
enum Period {
    Scenario(fn(&mut Scenario)),
    Controller(fn(&mut ControllerConfig)),
    Broker(fn(&mut BrokerConfig)),
    Producer(fn(&mut ProducerConfig)),
    Consumer(fn(&mut ConsumerConfig)),
    Job(fn(&mut SpeConfig)),
    Store(fn(&mut StoreConfig)),
}

impl Period {
    /// Adds the owning component to `sc`, default but for the one field.
    fn zero_in(self, sc: &mut Scenario) {
        fn edited<C: Default>(edit: fn(&mut C)) -> C {
            let mut cfg = C::default();
            edit(&mut cfg);
            cfg
        }
        match self {
            Period::Scenario(edit) => edit(sc),
            Period::Controller(edit) => {
                sc.controller_config(edited(edit));
            }
            Period::Broker(edit) => {
                sc.broker_with("bh2", edited(edit));
            }
            Period::Producer(edit) => {
                let source = rate_source("in", SimDuration::from_millis(100), 64);
                sc.producer("ph", source, edited(edit));
            }
            Period::Consumer(edit) => {
                sc.consumer("ch", edited(edit), &["in"]);
            }
            Period::Job(edit) => {
                let (source, sink) = (vec!["in".into()], SpeSinkSpec::Topic("out".into()));
                let job = SpeJobSpec::new("j", source, running_count_plan, sink, edited(edit));
                sc.spe_job("jh", job);
            }
            Period::Store(edit) => {
                sc.store("sh", edited(edit));
            }
        }
    }
}

#[test]
fn s2g027_zero_self_rearming_periods() {
    const Z: SimDuration = SimDuration::ZERO;
    // One case per period: the knob the diagnostic names and where to zero
    // it. Each of these analyzed clean before the rule existed and then
    // span at t=0 (the telemetry one panicked in the builder).
    let cases = [
        (
            "checkpoint.interval",
            Period::Scenario(|sc| {
                add_job(sc, "j");
                sc.with_checkpointing(CheckpointCfg::exactly_once(Z));
            }),
        ),
        (
            "checkpoint.interval",
            Period::Job(|c| c.checkpoint = Some(CheckpointCfg::at_least_once(Z))),
        ),
        (
            "telemetry_interval",
            Period::Scenario(|sc| {
                sc.telemetry_interval(Z);
            }),
        ),
        (
            "session_check_interval",
            Period::Controller(|c| c.session_check_interval = Z),
        ),
        (
            "preferred_election_delay",
            Period::Controller(|c| c.preferred_election_delay = Z),
        ),
        (
            "replica_fetch_interval",
            Period::Broker(|c| c.replica_fetch_interval = Z),
        ),
        (
            "isr_check_interval",
            Period::Broker(|c| c.isr_check_interval = Z),
        ),
        (
            "heartbeat_interval",
            Period::Broker(|c| c.heartbeat_interval = Z),
        ),
        (
            "background_interval",
            Period::Broker(|c| c.background_interval = Z),
        ),
        (
            "background_interval",
            Period::Producer(|c| c.background_interval = Z),
        ),
        (
            "request_timeout",
            Period::Producer(|c| c.request_timeout = Z),
        ),
        ("poll_interval", Period::Consumer(|c| c.poll_interval = Z)),
        (
            "background_interval",
            Period::Consumer(|c| c.background_interval = Z),
        ),
        (
            "group_heartbeat_interval",
            Period::Consumer(|c| {
                (c.group, c.group_membership) = (Some("g".into()), true);
                c.group_heartbeat_interval = Z;
            }),
        ),
        ("batch_interval", Period::Job(|c| c.batch_interval = Z)),
        (
            "background_interval",
            Period::Job(|c| c.background_interval = Z),
        ),
        (
            "consumer.poll_interval",
            Period::Job(|c| c.consumer.poll_interval = Z),
        ),
        (
            "producer.request_timeout",
            Period::Job(|c| c.producer.request_timeout = Z),
        ),
        (
            "background_interval",
            Period::Store(|c| c.background_interval = Z),
        ),
        (
            "group_heartbeat_interval",
            Period::Store(|c| c.group_heartbeat_interval = Z),
        ),
    ];
    for (i, (knob, period)) in cases.into_iter().enumerate() {
        let mut sc = base("t");
        // A store group only heartbeats with someone to heartbeat to.
        sc.with_replicated_store(2);
        period.zero_in(&mut sc);
        let report = sc.analyze();
        let hits: Vec<_> = (report.diagnostics.iter())
            .filter(|d| d.code == "S2G027")
            .collect();
        assert_eq!(hits.len(), 1, "case {i} ({knob}): {report}");
        assert_eq!(hits[0].level, Level::Deny, "case {i}");
        assert_eq!(hits[0].knobs, [knob], "case {i}");
        let refused = sc.run().expect_err("run() must refuse, not spin");
        assert!(refused.has("S2G027"), "case {i} ({knob}): {refused}");
    }

    // Zero where zero means "off", or where nothing re-arms on it, is fine.
    let mut clean = base("t");
    add_producer(&mut clean);
    add_job(&mut clean, "j");
    clean.with_telemetry(false).telemetry_interval(Z);
    Period::Consumer(|c| c.auto_commit_interval = Z).zero_in(&mut clean);
    // An unreplicated store has no group to heartbeat to.
    Period::Store(|c| c.group_heartbeat_interval = Z).zero_in(&mut clean);
    assert_eq!(level_of(&clean, "S2G027"), None);
    clean.run().expect("runs to its end");
}

#[test]
fn report_collects_every_violation_not_just_the_first() {
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(10))
        .topic(TopicSpec::new("in"))
        .topic(TopicSpec::new("out"));
    // No broker, two unknown topics, duplicate job names: all reported.
    sc.consumer("ch", Default::default(), &["nope-1"]);
    sc.consumer("ch2", Default::default(), &["nope-2"]);
    add_job(&mut sc, "jb");
    add_job(&mut sc, "jb");
    let report = sc.analyze();
    assert!(report.has("S2G001"), "missing no-broker: {report}");
    assert!(report.has("S2G004"), "missing duplicate job: {report}");
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.code == "S2G002")
            .count(),
        2,
        "both unknown topics reported"
    );
    assert!(report.denials().count() >= 4);
}

#[test]
fn report_orders_denials_first_and_serializes() {
    let mut sc = base("t");
    add_producer(&mut sc);
    // One deny (unknown topic) and one warn (restart without crash).
    sc.consumer("ch", Default::default(), &["typo"]);
    sc.faults(FaultPlan::new().at(SimTime::from_secs(5), FaultAction::RestartBroker(0)));
    let report = sc.analyze();
    assert!(report.has_deny() && report.warnings().count() > 0);
    let first = &report.diagnostics[0];
    assert_eq!(first.level, Level::Deny, "denials sort first");

    let json = report.to_json();
    assert!(json.contains("\"code\":\"S2G002\""), "json: {json}");
    assert!(json.contains("\"level\":\"deny\""), "json: {json}");
    let tidy = report.to_tidy();
    assert!(
        tidy.lines().all(|l| l.split('\t').count() >= 4),
        "tidy lines are tab-separated: {tidy}"
    );
}

#[test]
fn run_refuses_deny_diagnostics() {
    let mut sc = base("t");
    sc.consumer("ch", Default::default(), &["typo"]);
    let err = sc.run().expect_err("deny diagnostics must gate run()");
    assert!(err.has("S2G002"), "error carries the diagnostics: {err}");
    assert!(
        err.to_string().contains("S2G002"),
        "display names the code: {err}"
    );
}

#[test]
fn run_deny_gate_can_be_overridden() {
    // A transactional sink without checkpointing is denied by default…
    let mut sc = Scenario::new("t");
    sc.duration(SimTime::from_secs(3))
        .topic(TopicSpec::new("in"))
        .topic(TopicSpec::new("out"))
        .broker("bh1");
    add_job(&mut sc, "jb");
    sc.with_transactional_sinks();
    assert!(sc.analyze().has_deny());
    // …but an explicit override lets the (well-defined, if pointless)
    // run proceed.
    sc.allow_deny_diagnostics();
    sc.run().expect("override runs the scenario anyway");
}

#[test]
fn analyze_is_pure_and_repeatable() {
    let mut sc = base("t");
    add_producer(&mut sc);
    add_job(&mut sc, "jb");
    let a = sc.analyze();
    let b = sc.analyze();
    assert_eq!(a.codes(), b.codes());
    assert!(a.is_clean(), "healthy scenario analyzes clean: {a}");
}

#[test]
fn every_shipped_app_scenario_analyzes_deny_free() {
    let day = SimTime::from_secs(40);
    let cases: Vec<(&str, Scenario)> = vec![
        (
            "word-count",
            word_count::scenario(
                10,
                SimDuration::from_millis(100),
                ComponentDelays::default(),
                day,
                7,
            ),
        ),
        (
            "word-count-recovery",
            word_count::recovery_scenario(50, SimDuration::from_millis(50), day, 7),
        ),
        (
            "word-count-parallel",
            word_count::parallel_recovery_scenario(50, SimDuration::from_millis(50), day, 7, 4),
        ),
        ("fraud", fraud::scenario(40, 20, day, 7)),
        ("maritime", maritime::scenario(20, day, 7)),
        ("ride-selection", ride_selection::scenario(20, day, 7)),
        ("sentiment", sentiment::scenario(20, day, 7)),
        ("traffic-monitor", traffic_monitor::scenario(4, day, 7)),
        ("video-analytics", video_analytics::scenario(2, 7)),
    ];
    for (name, sc) in cases {
        let report = sc.analyze();
        assert!(
            !report.has_deny(),
            "shipped scenario `{name}` has deny diagnostics:\n{report}"
        );
    }
}
