//! Determinism: identical seeds reproduce identical runs — the property
//! that makes emulated experiments replayable and debuggable.

use s2g_bench::{fig6_run, Scale};
use stream2gym::apps::word_count::{self, recovery_scenario, ComponentDelays};
use stream2gym::broker::CoordinationMode;
use stream2gym::net::FaultPlan;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, CheckpointMode};

#[test]
fn word_count_runs_reproduce_exactly() {
    let run = |seed: u64| {
        let mut sc = word_count::scenario(
            20,
            SimDuration::from_millis(100),
            ComponentDelays::default(),
            SimTime::from_secs(20),
            seed,
        );
        sc.capture_records();
        let result = sc.run().expect("runs");
        let monitor = result.monitor.borrow();
        let lat: Vec<(u64, u64)> = monitor
            .latency_series(0, "avg-words-per-topic")
            .iter()
            .map(|(t, l)| (t.as_nanos(), l.as_nanos()))
            .collect();
        (result.report.sim_stats.events_processed, lat)
    };
    assert_eq!(run(5), run(5), "same seed, same run");
    // (The word-count workload itself is deterministic, so different seeds
    // may legitimately coincide — seed sensitivity is asserted on the
    // stochastic partition workload below.)
}

#[test]
fn crash_recovery_runs_reproduce_exactly() {
    let run = |seed: u64, mode: CheckpointMode| {
        let mut sc = recovery_scenario(
            100,
            SimDuration::from_millis(50),
            SimTime::from_secs(25),
            seed,
        );
        sc.with_checkpointing(CheckpointCfg::new(SimDuration::from_secs(1), mode));
        sc.faults(FaultPlan::new().crash_restart(
            "wordcount",
            SimTime::from_millis(3_700),
            SimDuration::from_millis(800),
        ));
        sc.capture_records();
        let result = sc.run().expect("runs");
        let matrix = result.delivery_matrix(0);
        let spe = result.report.spe["wordcount"].clone();
        let lat: Vec<(u64, u64)> = result
            .monitor
            .borrow()
            .latency_series(0, "counts")
            .iter()
            .map(|(t, l)| (t.as_nanos(), l.as_nanos()))
            .collect();
        (
            matrix,
            lat,
            spe.recovery,
            spe.checkpoints,
            spe.record_counts,
            result.report.sim_stats,
        )
    };
    for mode in [CheckpointMode::ExactlyOnce, CheckpointMode::AtLeastOnce] {
        assert_eq!(
            run(11, mode),
            run(11, mode),
            "same seed must reproduce the crash/recover run exactly ({mode:?})"
        );
    }
}

#[test]
fn partition_experiment_reproduces_exactly() {
    let run = |seed: u64| {
        let d = fig6_run(CoordinationMode::Zk, 3, Scale::Quick, seed);
        let topic_mix: Vec<std::rc::Rc<str>> = d
            .matrix
            .messages
            .iter()
            .map(|(t, _, _)| t.clone())
            .collect();
        (
            topic_mix,
            d.lost_messages,
            d.truncated_records,
            d.matrix.delivery_rate().to_bits(),
        )
    };
    assert_eq!(run(9), run(9), "same seed, same partition run");
    // The random-topic producers make different seeds visibly different.
    assert_ne!(
        run(9).0,
        run(10).0,
        "different seeds produce different message mixes"
    );
}

#[test]
fn broker_bounce_runs_reproduce_exactly() {
    use stream2gym::store::StoreConfig;
    let run = |seed: u64, durable_store: bool| {
        let mut sc = recovery_scenario(
            100,
            SimDuration::from_millis(50),
            SimTime::from_secs(25),
            seed,
        );
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
        if durable_store {
            sc.store("h6", StoreConfig::default());
            sc.with_durable_broker("h6");
        } else {
            sc.with_recoverable_broker();
        }
        sc.faults(FaultPlan::new().crash_restart_broker(
            0,
            SimTime::from_millis(3_700),
            SimDuration::from_millis(1_200),
        ));
        sc.capture_records();
        let result = sc.run().expect("runs");
        let broker = result.report.brokers[0].clone();
        (
            result.delivery_matrix(0),
            broker.recovery,
            broker.stats.log_flushes,
            broker.stats.records_appended,
            broker.stats.duplicates_filtered,
            result.report.sim_stats,
        )
    };
    for durable in [false, true] {
        assert_eq!(
            run(13, durable),
            run(13, durable),
            "same seed must reproduce the broker-bounce run exactly (durable_store={durable})"
        );
    }
}

/// The CI determinism gate: a fault-heavy scenario — producer stub crash,
/// SPE worker crash, broker bounce, and a network partition, with
/// incremental checkpointing and log compaction both on — run twice with
/// the same seed, diffing the full run reports.
#[test]
fn fault_heavy_runs_reproduce_exactly() {
    let run = |seed: u64| -> String {
        let mut sc = recovery_scenario(
            100,
            SimDuration::from_millis(50),
            SimTime::from_secs(25),
            seed,
        );
        sc.with_checkpointing(
            CheckpointCfg::exactly_once(SimDuration::from_secs(1)).incremental(4),
        );
        sc.with_recoverable_broker();
        sc.with_log_compaction();
        sc.faults(
            FaultPlan::new()
                .crash_restart(
                    "producer-0",
                    SimTime::from_millis(2_000),
                    SimDuration::from_millis(700),
                )
                .crash_restart(
                    "wordcount",
                    SimTime::from_millis(4_300),
                    SimDuration::from_millis(800),
                )
                .crash_restart_broker(
                    0,
                    SimTime::from_millis(9_000),
                    SimDuration::from_millis(1_200),
                )
                .transient_disconnect("h5", SimTime::from_secs(13), SimDuration::from_secs(2)),
        );
        sc.capture_records();
        let result = sc.run().expect("runs");
        // Diff the whole observable surface: producer/consumer/broker/SPE
        // reports, the delivery matrix, and the kernel counters.
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.consumers,
            result.report.brokers,
            result.report.spe,
            result.delivery_matrix(0),
            result.report.sim_stats,
        )
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a, b, "same seed must reproduce the fault-heavy run exactly");
    assert_ne!(
        a,
        run(18),
        "a different seed must shift the fault-heavy run"
    );
}

/// The replicated-store half of the determinism gate: transactional sinks
/// over a 3-replica store group, with the group primary crashed and
/// restarted mid-run (failover, client rotation, op-log resync) plus an SPE
/// worker crash — run twice with the same seed, diffing the full run
/// reports including the store-replica reports.
#[test]
fn store_failover_runs_reproduce_exactly() {
    use stream2gym::store::StoreConfig;
    let run = |seed: u64| -> String {
        let mut sc = recovery_scenario(
            100,
            SimDuration::from_millis(50),
            SimTime::from_secs(25),
            seed,
        );
        sc.store("h6", StoreConfig::default());
        sc.with_replicated_store(3);
        sc.with_durable_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)), "h6");
        sc.with_transactional_sinks();
        sc.faults(
            FaultPlan::new()
                .crash_restart_store(0, SimTime::from_millis(3_900), SimDuration::from_secs(3))
                .crash_restart(
                    "wordcount",
                    SimTime::from_millis(9_300),
                    SimDuration::from_millis(800),
                ),
        );
        let result = sc.run().expect("runs");
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.consumers,
            result.report.brokers,
            result.report.stores,
            result.report.spe,
            result.report.sim_stats,
        )
    };
    let a = run(29);
    let b = run(29);
    assert_eq!(
        a, b,
        "same seed must reproduce the store-failover run exactly"
    );
}

/// The parallel half of the determinism gate: a `parallelism(4)` keyed job
/// with transactional sinks, one keyed-stage instance crashed and
/// restarted, plus a broker bounce — run twice with the same seed, diffing
/// the full run reports including every stage instance's.
#[test]
fn parallel_fault_runs_reproduce_exactly() {
    use stream2gym::apps::word_count::parallel_recovery_scenario;
    let run = |seed: u64| -> String {
        let mut sc = parallel_recovery_scenario(
            120,
            SimDuration::from_millis(40),
            SimTime::from_secs(25),
            seed,
            4,
        );
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
        sc.with_transactional_sinks();
        sc.with_recoverable_broker();
        sc.faults(
            FaultPlan::new()
                .crash_restart(
                    "wordcount/1/1",
                    SimTime::from_millis(3_300),
                    SimDuration::from_millis(800),
                )
                .crash_restart_broker(
                    0,
                    SimTime::from_millis(8_000),
                    SimDuration::from_millis(1_200),
                ),
        );
        sc.capture_records();
        let result = sc.run().expect("runs");
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.brokers,
            result.report.spe,
            result.report.spe_instances,
            result.delivery_matrix(0),
            result.report.sim_stats,
        )
    };
    let a = run(31);
    let b = run(31);
    assert_eq!(a, b, "same seed must reproduce the parallel run exactly");
    assert_ne!(a, run(32), "a different seed must shift the parallel run");
}

/// The replicated-partition half of the determinism gate: a 3-broker
/// cluster at RF=3 and `acks=all` with the partitions' initial leader
/// killed mid-run and a follower bounced later (election, epoch-fenced
/// catch-up, ISR shrink/expand) — run twice with the same seed, diffing
/// the full run reports including each broker's recovery report.
#[test]
fn replicated_partition_fault_runs_reproduce_exactly() {
    use stream2gym::apps::word_count::{running_count_plan, word_stream};
    use stream2gym::broker::{
        BrokerConfig, CollectingSink, ConsumerProcess, ControllerConfig, ProducerConfig, TopicSpec,
    };
    use stream2gym::core::{MonitoredSink, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
    use stream2gym::net::LinkSpec;
    use stream2gym::proto::AckMode;
    use stream2gym::spe::SpeConfig;

    let run = |seed: u64| -> (String, u64) {
        let mut sc = Scenario::new("replicated-partition-determinism");
        sc.seed(seed)
            .duration(SimTime::from_secs(30))
            .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
            .topic(TopicSpec::new("words").partitions(4))
            .topic(TopicSpec::new("counts"));
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
        sc.with_replicated_partitions(3);
        sc.with_acks(AckMode::All);
        sc.producer(
            "hp",
            SourceSpec::Items {
                topic: "words".into(),
                items: word_stream(300, seed),
                interval: SimDuration::from_millis(50),
            },
            ProducerConfig {
                request_timeout: SimDuration::from_millis(500),
                ..ProducerConfig::default()
            },
        );
        sc.spe_job(
            "h4",
            SpeJobSpec::new(
                "wordcount",
                vec!["words".into()],
                running_count_plan,
                SpeSinkSpec::Topic("counts".into()),
                SpeConfig {
                    batch_interval: SimDuration::from_millis(250),
                    ..SpeConfig::default()
                },
            ),
        );
        sc.consumer("h5", Default::default(), &["counts"]);
        sc.faults(
            FaultPlan::new()
                // Leadership round-robins across brokers, so killing
                // broker 0 deposes the leaders of its partition share.
                .crash_restart_broker(0, SimTime::from_secs(6), SimDuration::from_secs(3))
                // The second bounce catches broker 2 as a follower for the
                // moved partitions: epoch-based truncation on rejoin.
                .crash_restart_broker(2, SimTime::from_secs(13), SimDuration::from_secs(3)),
        );
        sc.capture_records();
        let result = sc.run().expect("runs");
        let moves: u64 = result
            .report
            .brokers
            .iter()
            .filter_map(|b| b.recovery)
            .map(|r| r.leadership_moves)
            .sum();
        // The aggregate reports don't carry record *content* (this
        // workload's timing is fixed-interval, so two seeds can tie on
        // every counter); fold the consumer's sink bytes in so seed
        // sensitivity is visible.
        let sink: Vec<Vec<u8>> = {
            let cp = result
                .sim
                .process_ref::<ConsumerProcess>(result.consumer_pids[0])
                .expect("consumer");
            let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
            let s = (monitored.inner() as &dyn std::any::Any)
                .downcast_ref::<CollectingSink>()
                .expect("collecting sink");
            s.deliveries
                .iter()
                .map(|(_, _, r)| r.value.to_vec())
                .collect()
        };
        let diff = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.consumers,
            result.report.brokers,
            result.report.spe,
            result.delivery_matrix(0),
            result.report.sim_stats,
            sink,
        );
        (diff, moves)
    };
    let a = run(43);
    let b = run(43);
    assert_eq!(
        a, b,
        "same seed must reproduce the replicated-partition run exactly"
    );
    assert_ne!(
        a.0,
        run(44).0,
        "a different seed must shift the replicated-partition run"
    );
    // The gate only bites if the machinery actually ran: the crashes must
    // have moved real partition leadership.
    assert!(
        a.1 > 0,
        "the leader kill must register leadership moves in the reports"
    );
}

/// Telemetry determinism: with the sampler on a fine interval and the
/// causal tracer enabled, a fault-heavy seeded run emits byte-identical
/// metric time series and trace event sequences every time — and enabling
/// telemetry never shifts the simulation itself (the sampler is a pure
/// observer spawned after every other process, so pids are unchanged).
#[test]
fn telemetry_runs_reproduce_exactly() {
    let run = |seed: u64, trace: bool| {
        let mut sc = recovery_scenario(
            100,
            SimDuration::from_millis(50),
            SimTime::from_secs(25),
            seed,
        );
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
        sc.telemetry_interval(SimDuration::from_millis(200));
        sc.with_telemetry_trace(trace);
        sc.faults(FaultPlan::new().crash_restart(
            "wordcount",
            SimTime::from_millis(3_700),
            SimDuration::from_millis(800),
        ));
        sc.capture_records();
        let result = sc.run().expect("runs");
        let behavior = format!(
            "{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.spe,
            result.delivery_matrix(0)
        );
        (
            result.report.tidy_csv(),
            result.telemetry.chrome_json(),
            behavior,
        )
    };
    let (csv_a, trace_a, behavior_a) = run(19, true);
    let (csv_b, trace_b, behavior_b) = run(19, true);
    assert_eq!(csv_a, csv_b, "same seed, same metric time series");
    assert_eq!(trace_a, trace_b, "same seed, same trace events");
    assert_eq!(behavior_a, behavior_b, "same seed, same behavior");
    assert!(
        trace_a.contains("fault:crash"),
        "fault markers in the trace"
    );
    // Tracing off must leave the simulated behavior untouched.
    let (_, _, behavior_off) = run(19, false);
    assert_eq!(
        behavior_a, behavior_off,
        "toggling the tracer must not change the run"
    );
}
