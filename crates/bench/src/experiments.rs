//! The paper's evaluation experiments, one function per table/figure.

use std::collections::{BTreeMap, HashSet};

use s2g_apps::{traffic_monitor, video_analytics, word_count};
use s2g_broker::{CoordinationMode, ProducerConfig, TopicSpec};
use s2g_core::{median, DeliveryMatrix, Scenario, SourceSpec};
use s2g_net::{FaultPlan, LinkSpec, NetworkConfig};
use s2g_proto::AckMode;
use s2g_sim::{SimDuration, SimTime};

/// Experiment scale: `Full` matches the paper's parameters; `Quick` is a
/// reduced version for debug-build tests; `Smoke` is the tiny CI preset
/// that exists only to prove the figure code still runs end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters.
    Full,
    /// Reduced durations/volumes with identical code paths.
    Quick,
    /// Minimal durations/volumes for the CI `figures-smoke` job.
    Smoke,
}

/// The pipeline component whose access link is being delayed (Fig. 5/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Producer link.
    Producer,
    /// Broker link.
    Broker,
    /// Stream-processing engine link(s).
    Spe,
    /// Consumer link.
    Consumer,
}

impl Component {
    /// All four components, in the paper's legend order.
    pub const ALL: [Component; 4] = [
        Component::Producer,
        Component::Broker,
        Component::Spe,
        Component::Consumer,
    ];

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Component::Producer => "Producer link",
            Component::Broker => "Broker link",
            Component::Spe => "SPE link",
            Component::Consumer => "Consumer link",
        }
    }
}

fn delays_for(component: Component, delay: SimDuration) -> word_count::ComponentDelays {
    let mut d = word_count::ComponentDelays::default();
    match component {
        Component::Producer => d.producer = delay,
        Component::Broker => d.broker = delay,
        Component::Spe => d.spe = delay,
        Component::Consumer => d.consumer = delay,
    }
    d
}

/// **Fig. 5** — end-to-end latency of the word-count pipeline as one
/// component's link delay varies (others < 10 ms). Returns
/// `(component, delay_ms, mean_latency_seconds)` triples.
pub fn fig5_sweep(delays_ms: &[u64], scale: Scale, seed: u64) -> Vec<(Component, u64, f64)> {
    let (files, interval, duration) = match scale {
        Scale::Full => (100, SimDuration::from_millis(400), SimTime::from_secs(120)),
        Scale::Quick => (25, SimDuration::from_millis(300), SimTime::from_secs(45)),
        Scale::Smoke => (8, SimDuration::from_millis(200), SimTime::from_secs(15)),
    };
    let points: Vec<(Component, u64)> = Component::ALL
        .iter()
        .flat_map(|&component| delays_ms.iter().map(move |&ms| (component, ms)))
        .collect();
    crate::executor::parallel_map(&points, |&(component, ms)| {
        let sc = word_count::scenario(
            files,
            interval,
            delays_for(component, SimDuration::from_millis(ms)),
            duration,
            seed,
        );
        let result = sc.run().expect("valid scenario");
        let mean = result
            .mean_latency("avg-words-per-topic")
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN);
        (component, ms, mean)
    })
}

/// The hosts whose port throughput Fig. 6d plots.
const FIG6_WATCHED: [&str; 3] = ["h1", "h2", "h3"];

/// Everything Fig. 6 reports about the partition experiment.
#[derive(Debug)]
pub struct Fig6Data {
    /// Fig. 6b: delivery matrix of the co-located producer.
    pub matrix: DeliveryMatrix,
    /// Fig. 6c: per-topic latency series at a remote consumer
    /// (`(delivered_s, latency_s)`).
    pub latency_a: Vec<(f64, f64)>,
    /// Same for topic B.
    pub latency_b: Vec<(f64, f64)>,
    /// Fig. 6d: per-host transmit throughput, `(host, (time_s, Mbps))` in
    /// 1 s windows.
    pub tx_series: Vec<(&'static str, Vec<(f64, f64)>)>,
    /// Records truncated by the healed leader (the silent loss).
    pub truncated_records: u64,
    /// Messages acked to the producer yet delivered to no one.
    pub lost_messages: usize,
    /// Leadership events on the original topic-A leader (time, became).
    pub leader_events: Vec<(f64, bool)>,
}

/// **Fig. 6** — the network-partition experiment: `sites` broker sites in a
/// star, two replicated topics, 30 Kbps producers everywhere; the host
/// carrying topic A's leader is disconnected for ~20% of the run.
pub fn fig6_run(mode: CoordinationMode, sites: u32, scale: Scale, seed: u64) -> Fig6Data {
    let (run_s, cut_at, cut_for) = match scale {
        Scale::Full => (600u64, 240u64, 120u64),
        Scale::Quick => (240, 80, 60),
        Scale::Smoke => (100, 35, 25),
    };
    let mut sc = Scenario::new("fig6-partition");
    sc.seed(seed)
        .duration(SimTime::from_secs(run_s))
        .coordination(mode)
        .default_link(LinkSpec::new().latency_ms(2))
        .topic(TopicSpec::new("topic-a").replication(3).primary(0))
        .topic(TopicSpec::new("topic-b").replication(3).primary(1));
    let acks = match mode {
        CoordinationMode::Zk => AckMode::Leader,
        CoordinationMode::Kraft => AckMode::All,
    };
    for i in 0..sites {
        let host = format!("h{}", i + 1);
        sc.broker(&host);
        sc.producer(
            &host,
            SourceSpec::RandomTopics {
                topics: vec!["topic-a".into(), "topic-b".into()],
                kbps: 30,
                payload: 500,
                until: SimTime::from_secs(run_s.saturating_sub(40)),
            },
            ProducerConfig {
                acks,
                ..ProducerConfig::default()
            },
        );
        sc.consumer(&host, Default::default(), &["topic-a", "topic-b"]);
    }
    sc.faults(FaultPlan::new().transient_disconnect(
        "h1",
        SimTime::from_secs(cut_at),
        SimDuration::from_secs(cut_for),
    ));
    sc.watch_throughput(&FIG6_WATCHED)
        .telemetry_interval(SimDuration::from_secs(1));
    // Fig. 6b/6c are made of record identities: who got which message when.
    sc.capture_records();
    let result = sc.run().expect("valid scenario");

    let matrix = result.delivery_matrix(0);
    let lost_messages = {
        let producer = &result.report.producers[0];
        let core = result.monitor.borrow();
        // Each `(topic, seq)` of producer 0 that reached a remote consumer.
        let remote: HashSet<(&str, u64)> = (core.deliveries.iter())
            .filter(|d| d.producer == producer.id && d.consumer != 0)
            .map(|d| (&*d.topic, d.seq))
            .collect();
        (producer.outcomes.iter())
            .filter(|o| o.delivered && !remote.contains(&(&*o.topic, o.seq)))
            .count()
    };
    // A remote consumer's latency series (consumer on the second site).
    let core = result.monitor.borrow();
    let series = |topic: &str| -> Vec<(f64, f64)> {
        core.latency_series(1, topic)
            .iter()
            .map(|(t, lat)| (t.as_secs_f64(), lat.as_secs_f64()))
            .collect()
    };
    let latency_a = series("topic-a");
    let latency_b = series("topic-b");
    drop(core);
    let ta = s2g_proto::TopicPartition::new("topic-a", 0);
    let leader_events = result.report.brokers[0]
        .leadership_events
        .iter()
        .filter(|(_, tp, _)| *tp == ta)
        .map(|(t, _, became)| (t.as_secs_f64(), *became))
        .collect();
    Fig6Data {
        matrix,
        latency_a,
        latency_b,
        tx_series: (FIG6_WATCHED.iter())
            .map(|host| {
                let series = result.report.series(&format!("host-{host}"), "tx_mbps");
                (*host, series.expect("a watched host").as_secs())
            })
            .collect(),
        truncated_records: result.report.brokers[0].stats.records_truncated,
        lost_messages,
        leader_events,
    }
}

/// **Fig. 7a** — the Ichinose et al. reproduction: transfer throughput
/// (images/s) vs number of consumers on one 8-core host.
pub fn fig7a_sweep(consumer_counts: &[usize], seed: u64) -> Vec<(usize, f64)> {
    crate::executor::parallel_map(consumer_counts, |&n| {
        (n, video_analytics::measure_throughput(n, seed))
    })
}

/// **Fig. 7b** — the Ocampo et al. reproduction: mean per-slot runtime
/// normalized by the first user count's result.
pub fn fig7b_sweep(user_counts: &[u32], scale: Scale, seed: u64) -> Vec<(u32, f64)> {
    let duration = match scale {
        Scale::Full => SimTime::from_secs(60),
        Scale::Quick => SimTime::from_secs(25),
        Scale::Smoke => SimTime::from_secs(12),
    };
    // One traffic_monitor sweep per point so the counts fan out in
    // parallel; each inner call still runs its own complete scenario.
    let raw: Vec<(u32, SimDuration)> = crate::executor::parallel_map(user_counts, |&u| {
        traffic_monitor::sweep(&[u], duration, seed)
            .pop()
            .expect("one point per count")
    });
    let base = raw
        .first()
        .map(|(_, d)| d.as_secs_f64())
        .unwrap_or(1.0)
        .max(1e-9);
    raw.into_iter()
        .map(|(u, d)| (u, d.as_secs_f64() / base))
        .collect()
}

/// **Fig. 8** — accuracy vs the "hardware testbed": the word-count pipeline
/// under the emulation backend and the hardware-model backend, varying the
/// broker (or SPE) link delay. Returns `(backend, delay_ms, latency_s)`.
pub fn fig8_sweep(
    delays_ms: &[u64],
    component: Component,
    scale: Scale,
    seed: u64,
) -> Vec<(&'static str, u64, f64)> {
    let (files, interval, duration) = match scale {
        Scale::Full => (100, SimDuration::from_millis(400), SimTime::from_secs(120)),
        Scale::Quick => (25, SimDuration::from_millis(300), SimTime::from_secs(45)),
        Scale::Smoke => (8, SimDuration::from_millis(200), SimTime::from_secs(15)),
    };
    let points: Vec<(&'static str, u64)> = ["stream2gym", "hardware"]
        .iter()
        .flat_map(|&backend| delays_ms.iter().map(move |&ms| (backend, ms)))
        .collect();
    crate::executor::parallel_map(&points, |&(backend, ms)| {
        let net_cfg = match backend {
            "hardware" => NetworkConfig::hardware(),
            _ => NetworkConfig::default(),
        };
        let mut sc = word_count::scenario(
            files,
            interval,
            delays_for(component, SimDuration::from_millis(ms)),
            duration,
            seed,
        );
        sc.network_profile(net_cfg);
        let result = sc.run().expect("valid scenario");
        let mean = result
            .mean_latency("avg-words-per-topic")
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN);
        (backend, ms, mean)
    })
}

/// One point of the Fig. 9 resource sweep.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Number of coordinating sites.
    pub sites: u32,
    /// CPU utilization samples (fraction of the whole server).
    pub cpu_samples: Vec<f64>,
    /// Median CPU utilization.
    pub cpu_median: f64,
    /// Peak memory as a fraction of server memory.
    pub peak_mem_fraction: f64,
}

/// **Fig. 9** — resource usage of the Fig. 6a scenario as the number of
/// coordinating sites varies, for a given producer buffer size.
pub fn fig9_sweep(
    site_counts: &[u32],
    buffer_memory: usize,
    scale: Scale,
    seed: u64,
) -> Vec<Fig9Point> {
    let run_s = match scale {
        Scale::Full => 300u64,
        Scale::Quick => 90,
        Scale::Smoke => 30,
    };
    crate::executor::parallel_map(site_counts, |&sites| {
        let mut sc = Scenario::new("fig9-resources");
        sc.seed(seed)
            .duration(SimTime::from_secs(run_s))
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("topic-a").replication(2).primary(0))
            .topic(TopicSpec::new("topic-b").replication(2).primary(1));
        for i in 0..sites {
            let host = format!("h{}", i + 1);
            sc.broker(&host);
            sc.producer(
                &host,
                SourceSpec::RandomTopics {
                    topics: vec!["topic-a".into(), "topic-b".into()],
                    kbps: 30,
                    payload: 500,
                    until: SimTime::from_secs(run_s),
                },
                ProducerConfig {
                    buffer_memory,
                    ..ProducerConfig::default()
                },
            );
            sc.consumer(&host, Default::default(), &["topic-a", "topic-b"]);
        }
        let result = sc.run().expect("valid scenario");
        let cpu_samples = result.report.cpu_samples();
        Fig9Point {
            sites,
            cpu_median: median(&cpu_samples).unwrap_or(0.0),
            cpu_samples,
            peak_mem_fraction: result.report.peak_mem_fraction(),
        }
    })
}

/// One point of the broker-recovery sweep.
#[derive(Debug, Clone, Copy)]
pub struct BrokerRecoveryPoint {
    /// Records in the log when the broker crashed.
    pub records: u64,
    /// Restart-to-serving latency (durable-log replay), seconds.
    pub replay_latency_s: f64,
    /// Crash-to-serving latency (the unavailability window), seconds.
    pub unavailability_s: f64,
    /// Encoded segment bytes read back during replay.
    pub replayed_bytes: u64,
    /// Segments read back during replay.
    pub replayed_segments: u64,
}

/// **Broker recovery latency** — the ROADMAP follow-up figure: a producer
/// fills one topic through a broker whose log is persisted via a store
/// server ([`Scenario::with_durable_broker`]); once production finishes the
/// broker is crashed and restarted, and the restarted instance replays its
/// segments before serving. Returns one point per pre-crash log size, with
/// replay latency growing in the number of persisted segments.
pub fn broker_recovery_sweep(
    record_counts: &[u64],
    scale: Scale,
    seed: u64,
) -> Vec<BrokerRecoveryPoint> {
    use s2g_store::StoreConfig;
    let interval = match scale {
        Scale::Full => SimDuration::from_millis(2),
        Scale::Quick | Scale::Smoke => SimDuration::from_millis(4),
    };
    crate::executor::parallel_map(record_counts, |&n| {
        let produce_ms = interval.as_millis() * n + 500;
        let crash_at = SimTime::from_millis(produce_ms + 1_000);
        let duration = crash_at + SimDuration::from_secs(12);
        let mut sc = Scenario::new("broker-recovery");
        sc.seed(seed)
            .duration(duration)
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("data"));
        sc.broker("h1");
        sc.store("h2", StoreConfig::default());
        // A bandwidth-limited store link makes replay time scale with
        // the bytes read back, not just the per-blob round trips.
        sc.host_link("h2", LinkSpec::new().latency_ms(2).bandwidth_mbps(50.0));
        sc.with_durable_broker("h2");
        sc.producer(
            "h3",
            SourceSpec::Rate {
                topic: "data".into(),
                count: n,
                interval,
                payload: 200,
            },
            Default::default(),
        );
        sc.consumer("h4", Default::default(), &["data"]);
        sc.faults(FaultPlan::new().crash_restart_broker(0, crash_at, SimDuration::from_secs(1)));
        let result = sc.run().expect("valid scenario");
        let rec = result.report.brokers[0]
            .recovery
            .expect("broker crash recorded");
        BrokerRecoveryPoint {
            records: rec.replayed_records,
            replay_latency_s: rec
                .replay_latency()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            unavailability_s: rec
                .unavailability()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            replayed_bytes: rec.replayed_bytes,
            replayed_segments: rec.replayed_segments,
        }
    })
}

/// One point of the bounded-recovery (compaction/incremental) sweep.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPoint {
    /// Records produced (the history length).
    pub history: u64,
    /// Size of the final full snapshot under full checkpointing — grows
    /// with total state.
    pub full_snapshot_bytes: u64,
    /// Largest delta under incremental checkpointing — bounded by churn
    /// per interval, ≈ flat in history.
    pub delta_snapshot_bytes: u64,
    /// Records replayed by the restarted broker on the raw (uncompacted)
    /// log — grows with history.
    pub raw_replay_records: u64,
    /// Segment bytes replayed on the raw log.
    pub raw_replay_bytes: u64,
    /// Restart-to-serving latency on the raw log, seconds.
    pub raw_replay_s: f64,
    /// Records replayed with compaction on — bounded by live keys.
    pub compacted_replay_records: u64,
    /// Segment bytes replayed with compaction on.
    pub compacted_replay_bytes: u64,
    /// Restart-to-serving latency with compaction on, seconds.
    pub compacted_replay_s: f64,
    /// Bytes the cleaner reclaimed before the crash (the replay savings).
    pub replay_saved_bytes: u64,
}

/// **Bounded recovery** — the `--fig compaction` sweep: how recovery cost
/// scales with history length, with and without the two bounding
/// mechanisms.
///
/// * **Snapshot half**: a stateful word-count job over an ever-growing key
///   space checkpoints every interval. Under full snapshots the final
///   capture is `O(total keys)` = `O(history)`; under incremental
///   checkpointing each delta carries only the keys touched since the last
///   capture, so mean delta bytes stay ≈ flat.
/// * **Replay half**: a keyed producer cycles a fixed key set through a
///   durable broker that is crashed and restarted after production. On the
///   raw log, replay cost is `O(history)`; with keyed compaction the
///   cleaner keeps only the latest record per key, so replay is bounded by
///   live data.
pub fn compaction_sweep(history_counts: &[u64], scale: Scale, seed: u64) -> Vec<CompactionPoint> {
    use s2g_broker::RateSource;
    use s2g_spe::{CheckpointCfg, Plan, Value};
    use s2g_store::StoreConfig;

    let interval = match scale {
        Scale::Full => SimDuration::from_millis(2),
        Scale::Quick | Scale::Smoke => SimDuration::from_millis(4),
    };
    const LIVE_KEYS: u64 = 32;

    // Snapshot half: unique-keyed records into a running count, so state
    // (and full snapshots) grow with history while per-interval churn is
    // constant.
    let snapshot_run = |n: u64, incremental: bool| -> u64 {
        let produce_ms = interval.as_millis() * n + 500;
        let duration = SimTime::from_millis(produce_ms + 4_000);
        let mut sc = Scenario::new("compaction-snapshots");
        sc.seed(seed)
            .duration(duration)
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("events"));
        sc.broker("h1");
        sc.producer(
            "h2",
            SourceSpec::Custom {
                topics: vec!["events".into()],
                make: Box::new(move || {
                    // Every record a fresh key: key space == history.
                    Box::new(RateSource::new("events", n, interval).key_space(n.max(1)))
                }),
            },
            Default::default(),
        );
        sc.spe_job(
            "h3",
            s2g_core::SpeJobSpec::new(
                "keycount",
                vec!["events".into()],
                || {
                    Plan::new().stateful("count", Value::Int(0), |state, e| {
                        let k = state.as_int().unwrap_or(0) + 1;
                        *state = Value::Int(k);
                        vec![e.clone()]
                    })
                },
                s2g_core::SpeSinkSpec::Collect,
                Default::default(),
            ),
        );
        let cfg = CheckpointCfg::exactly_once(SimDuration::from_millis(500));
        sc.with_checkpointing(if incremental { cfg.incremental(8) } else { cfg });
        let result = sc.run().expect("valid scenario");
        let stats = result.report.spe["keycount"].checkpoints;
        if incremental {
            // The per-capture cost ceiling: the largest delta, bounded by
            // churn per interval. (The mean would be diluted by the empty
            // post-production deltas.)
            if stats.delta_checkpoints == 0 {
                stats.last_snapshot_bytes
            } else {
                stats.max_delta_bytes
            }
        } else {
            stats.last_full_bytes
        }
    };

    // Replay half: a fixed key set updated over and over through a durable
    // broker, crashed and restarted after production.
    let replay_run = |n: u64, compaction: bool| -> (u64, u64, f64, u64) {
        let produce_ms = interval.as_millis() * n + 500;
        let crash_at = SimTime::from_millis(produce_ms + 2_000);
        let duration = crash_at + SimDuration::from_secs(12);
        let mut sc = Scenario::new("compaction-replay");
        sc.seed(seed)
            .duration(duration)
            .default_link(LinkSpec::new().latency_ms(2))
            .topic(TopicSpec::new("data"));
        let broker_cfg = s2g_broker::BrokerConfig {
            log_segment_max_records: 64,
            // Clean aggressively so the pre-crash log is compacted even in
            // short runs.
            log_cleanup_interval: SimDuration::from_millis(250),
            ..Default::default()
        };
        sc.broker_with("h1", broker_cfg);
        sc.store("h2", StoreConfig::default());
        sc.host_link("h2", LinkSpec::new().latency_ms(2).bandwidth_mbps(50.0));
        sc.with_durable_broker("h2");
        if compaction {
            sc.with_log_compaction();
        }
        sc.producer(
            "h3",
            SourceSpec::Custom {
                topics: vec!["data".into()],
                make: Box::new(move || {
                    Box::new(
                        RateSource::new("data", n, interval)
                            .payload_bytes(200)
                            .key_space(LIVE_KEYS),
                    )
                }),
            },
            Default::default(),
        );
        sc.consumer("h4", Default::default(), &["data"]);
        sc.faults(FaultPlan::new().crash_restart_broker(0, crash_at, SimDuration::from_secs(1)));
        let result = sc.run().expect("valid scenario");
        let rec = result.report.brokers[0]
            .recovery
            .expect("broker crash recorded");
        (
            rec.replayed_records,
            rec.replayed_bytes,
            rec.replay_latency()
                .map(|d| d.as_secs_f64())
                .unwrap_or(f64::NAN),
            rec.replay_saved_bytes,
        )
    };

    crate::executor::parallel_map(history_counts, |&n| {
        let full_snapshot_bytes = snapshot_run(n, false);
        let delta_snapshot_bytes = snapshot_run(n, true);
        let (raw_records, raw_bytes, raw_s, _) = replay_run(n, false);
        let (c_records, c_bytes, c_s, saved) = replay_run(n, true);
        CompactionPoint {
            history: n,
            full_snapshot_bytes,
            delta_snapshot_bytes,
            raw_replay_records: raw_records,
            raw_replay_bytes: raw_bytes,
            raw_replay_s: raw_s,
            compacted_replay_records: c_records,
            compacted_replay_bytes: c_bytes,
            compacted_replay_s: c_s,
            replay_saved_bytes: saved,
        }
    })
}

/// One point of the store-replication sweep.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationPoint {
    /// Store-group replication factor.
    pub replicas: usize,
    /// Checkpoints persisted during the run.
    pub checkpoints: u64,
    /// Mean accept-to-durable checkpoint latency, seconds — what quorum
    /// round trips through the replicated store cost per capture.
    pub checkpoint_latency_s: f64,
    /// Longest gap between consecutive durable checkpoints spanning the
    /// store-primary crash, seconds — the durability-tier unavailability
    /// window (failover + client rotation for a group, full restart for a
    /// standalone store).
    pub unavailability_s: f64,
    /// Ops the restarted replica pulled from a peer while resyncing (0 for
    /// a standalone store, which restarts empty).
    pub resync_ops: u64,
}

/// **Store replication** — the `--fig replication` sweep: a checkpointed
/// word-count pipeline persists through a store group of varying size while
/// the fault plan kills (and later restarts) the group's primary
/// mid-checkpoint. Per replication factor it reports the steady-state
/// checkpoint latency (quorum round trips make captures dearer) and the
/// durability-tier unavailability around the crash (failover makes crashes
/// cheaper) — the classic latency-vs-availability trade.
pub fn store_replication_sweep(
    replica_counts: &[usize],
    scale: Scale,
    seed: u64,
) -> Vec<ReplicationPoint> {
    use s2g_spe::CheckpointCfg;
    use s2g_store::StoreConfig;

    let (records, interval) = match scale {
        Scale::Full => (4_000u64, SimDuration::from_millis(2)),
        Scale::Quick => (800, SimDuration::from_millis(4)),
        Scale::Smoke => (300, SimDuration::from_millis(4)),
    };
    let produce_ms = interval.as_millis() * records + 500;
    let crash_at = SimTime::from_millis(produce_ms / 2);
    let duration = SimTime::from_millis(produce_ms + 10_000);
    crate::executor::parallel_map(replica_counts, |&n| {
        let mut sc = word_count::recovery_scenario(records as usize, interval, duration, seed);
        sc.store("h6", StoreConfig::default());
        sc.with_replicated_store(n);
        sc.with_durable_checkpointing(
            CheckpointCfg::exactly_once(SimDuration::from_millis(500)),
            "h6",
        );
        sc.with_transactional_sinks();
        sc.faults(FaultPlan::new().crash_restart_store(0, crash_at, SimDuration::from_secs(2)));
        let result = sc.run().expect("valid scenario");
        let spe = &result.report.spe["wordcount"];
        let log = &spe.checkpoint_log;
        let checkpoints = log.len() as u64;
        // Steady-state latency: captures fully persisted before the
        // crash (the crash-stalled persist belongs to the
        // unavailability metric, not here).
        let steady: Vec<f64> = log
            .iter()
            .filter(|(_, d)| *d < crash_at)
            .map(|(a, d)| d.saturating_since(*a).as_secs_f64())
            .collect();
        let steady_stats = s2g_telemetry::summarize(&steady);
        // The unavailability window: the longest durable-to-durable gap
        // that spans the crash instant (falling back to crash→end when
        // no checkpoint landed afterwards).
        let mut unavailability = 0.0f64;
        let mut prev = SimTime::ZERO;
        let mut covered = false;
        for (_, durable) in log {
            if prev <= crash_at && *durable >= crash_at {
                unavailability = durable.saturating_since(prev.max(crash_at)).as_secs_f64();
                covered = true;
            }
            prev = *durable;
        }
        if !covered {
            unavailability = duration.saturating_since(crash_at).as_secs_f64();
        }
        let resync_ops = result.report.stores[0].recovery.map_or(0, |r| r.sync_ops);
        ReplicationPoint {
            replicas: n,
            checkpoints,
            checkpoint_latency_s: steady_stats.map_or(f64::NAN, |s| s.mean),
            unavailability_s: unavailability,
            resync_ops,
        }
    })
}

/// One point of the broker-replication sweep.
#[derive(Debug, Clone, Copy)]
pub struct BrokerReplicationPoint {
    /// Topic replication factor.
    pub rf: u32,
    /// Percentage of produced records acked within the 1-second SLO —
    /// records created during the leader outage blow it unless a follower
    /// takes over quickly.
    pub availability_pct: f64,
    /// 99th-percentile produce ack latency over acked records,
    /// milliseconds. `acks=all` pays follower round trips at steady state
    /// and election time across the crash.
    pub produce_p99_ms: f64,
    /// The produce-unavailability window: the longest gap between
    /// consecutive acked records spanning the leader crash, seconds. At
    /// RF=1 it is the full crash-to-recovery window; with followers it
    /// shrinks to the election time.
    pub unavailability_s: f64,
    /// Partitions whose leadership moved to a surviving broker during the
    /// outage (from `BrokerRecoveryReport::leadership_moves`).
    pub leadership_moves: u64,
}

/// **Broker replication** — the `--fig broker-replication` sweep: a
/// single-partition topic is produced at `acks=all` through a 3-broker
/// cluster while the fault plan kills (and 4 s later restarts) the
/// partition leader mid-run. Per replication factor it reports produce
/// availability and tail latency around the crash: at RF=1 the partition
/// is dark until the broker returns, while at RF=3 a follower is elected
/// within the session timeout and acked produce continues — availability
/// up, unavailability down, with the steady-state `acks=all` latency tax
/// as the price.
pub fn broker_replication_sweep(
    rfs: &[u32],
    scale: Scale,
    seed: u64,
) -> Vec<BrokerReplicationPoint> {
    // The produce window must span the whole outage (crash + 4 s restart
    // delay + catch-up) or every point just measures backlog drain; keep
    // the rate modest so steady-state records ack well inside the SLO.
    let (records, interval) = match scale {
        Scale::Full => (4_000u64, SimDuration::from_millis(10)),
        Scale::Quick => (800, SimDuration::from_millis(25)),
        Scale::Smoke => (300, SimDuration::from_millis(40)),
    };
    let produce_ms = interval.as_millis() * records + 500;
    let crash_at = SimTime::from_millis(produce_ms / 2);
    let duration = SimTime::from_millis(produce_ms + 5_000);
    let slo = SimDuration::from_secs(1);
    crate::executor::parallel_map(rfs, |&rf| {
        let mut sc = Scenario::new(format!("broker-replication-rf{rf}"));
        sc.seed(seed).duration(duration);
        // Failure detection must beat the outage or no election happens
        // at any RF: tighten heartbeats and the controller session so
        // the dead leader is expired in ~1 s of its 4 s downtime.
        let broker_cfg = s2g_broker::BrokerConfig {
            heartbeat_interval: SimDuration::from_millis(300),
            session_timeout: SimDuration::from_secs(1),
            // Followers fetch near-continuously (Kafka's replica
            // fetcher long-polls): with the 50 ms default, every
            // `acks=all` batch pays a full fetch cycle and the
            // one-inflight-per-partition producer can't keep up with
            // the record rate.
            replica_fetch_interval: SimDuration::from_millis(10),
            ..Default::default()
        };
        sc.broker_with("h1", broker_cfg.clone());
        sc.broker_with("h2", broker_cfg.clone());
        sc.broker_with("h3", broker_cfg);
        sc.controller_config(s2g_broker::ControllerConfig {
            session_timeout: SimDuration::from_secs(1),
            session_check_interval: SimDuration::from_millis(250),
            ..Default::default()
        });
        sc.topic(TopicSpec::new("data"));
        sc.with_replicated_partitions(rf);
        sc.with_acks(AckMode::All);
        sc.producer(
            "h4",
            SourceSpec::Rate {
                topic: "data".into(),
                count: records,
                interval,
                payload: 200,
            },
            // A tight request timeout bounds leader rediscovery: a
            // produce aimed at the dead leader and the follow-up
            // metadata probe each give up after 500 ms instead of the
            // 2 s default, so the client finds the elected leader soon
            // after the controller installs it.
            ProducerConfig {
                request_timeout: SimDuration::from_millis(500),
                ..Default::default()
            },
        );
        sc.consumer("h5", Default::default(), &["data"]);
        sc.faults(FaultPlan::new().crash_restart_broker(0, crash_at, SimDuration::from_secs(4)));
        // Availability and the outage window are read off per-record acks.
        sc.capture_records();
        let result = sc.run().expect("valid scenario");
        let outcomes = &result.report.producers[0].outcomes;
        let total = outcomes.len().max(1) as f64;
        let within_slo = outcomes
            .iter()
            .filter(|o| o.delivered && o.completed.saturating_since(o.created) <= slo)
            .count() as f64;
        let lat_ms: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.delivered)
            .map(|o| o.completed.saturating_since(o.created).as_secs_f64() * 1e3)
            .collect();
        let lat_stats = s2g_telemetry::summarize(&lat_ms);
        // The produce-unavailability window: the gap from the crash to
        // the first ack at or after it (falling back to crash→end when
        // produce never resumed).
        let mut acked: Vec<SimTime> = outcomes
            .iter()
            .filter(|o| o.delivered)
            .map(|o| o.completed)
            .collect();
        acked.sort_unstable();
        let unavailability = acked
            .iter()
            .find(|t| **t >= crash_at)
            .map(|t| t.saturating_since(crash_at).as_secs_f64())
            .unwrap_or_else(|| duration.saturating_since(crash_at).as_secs_f64());
        let leadership_moves = result.report.brokers[0]
            .recovery
            .map_or(0, |r| r.leadership_moves);
        BrokerReplicationPoint {
            rf,
            availability_pct: 100.0 * within_slo / total,
            produce_p99_ms: lat_stats.map_or(f64::NAN, |s| s.p99),
            unavailability_s: unavailability,
            leadership_moves,
        }
    })
}

/// One point of the scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Instances per stage.
    pub parallelism: usize,
    /// Fault-free records through the job per second of run time.
    pub throughput_rps: f64,
    /// Same with one keyed-stage instance crashed mid-run.
    pub crash_throughput_rps: f64,
    /// Crash-to-first-processed-batch latency of the crashed worker,
    /// seconds.
    pub recovery_s: f64,
}

/// **Scaling** — the `--fig scaling` sweep: a compute-bound keyed
/// word-count job (per-record CPU far above what one worker can sustain at
/// the offered rate) runs at parallelism 1/2/4/8, with and without a
/// mid-run crash of one keyed-stage instance. Throughput grows with the
/// parallelism degree until the offered rate is met — the dominant knob
/// PDSP-Bench identifies — while recovery latency stays roughly flat
/// (only the crashed instance's key groups restore).
pub fn scaling_sweep(parallelisms: &[usize], scale: Scale, seed: u64) -> Vec<ScalingPoint> {
    use s2g_broker::TopicSpec;
    use s2g_core::{SpeJobSpec, SpeSinkSpec};
    use s2g_spe::{CheckpointCfg, SpeConfig};

    // Per-record CPU is set so one worker is far below the offered rate —
    // the sweep then shows throughput climbing with the parallelism degree
    // until the offered rate is met.
    let (records, interval_ms, cpu_ms, tail_ms) = match scale {
        Scale::Full => (4_000u64, 2u64, 8u64, 8_000u64),
        Scale::Quick => (800, 5, 30, 8_000),
        Scale::Smoke => (300, 5, 30, 6_000),
    };
    let produce_ms = records * interval_ms + 500;
    let crash_at = SimTime::from_millis(produce_ms / 2);
    let duration = SimTime::from_millis(produce_ms + tail_ms);
    let run = |parallelism: usize, crash: bool| -> (f64, f64) {
        let mut sc = Scenario::new("scaling");
        sc.seed(seed)
            .duration(duration)
            .topic(TopicSpec::new("events").partitions(8))
            .topic(TopicSpec::new("counts"));
        sc.broker("h0");
        sc.producer(
            "hp",
            SourceSpec::Custom {
                topics: vec!["events".into()],
                make: Box::new(move || {
                    Box::new(
                        s2g_broker::RateSource::new(
                            "events",
                            records,
                            SimDuration::from_millis(interval_ms),
                        )
                        .payload_bytes(64)
                        .key_space(32),
                    )
                }),
            },
            ProducerConfig::default(),
        );
        let mut job = SpeJobSpec::new(
            "scalecount",
            vec!["events".into()],
            || {
                use s2g_spe::{Event, Plan, Value};
                Plan::new()
                    .key_by("by-payload", |e| {
                        e.key.clone().unwrap_or_else(|| {
                            e.value.as_str().unwrap_or("").chars().take(8).collect()
                        })
                    })
                    .stateful("count", Value::Int(0), |state, e| {
                        let n = state.as_int().unwrap_or(0) + 1;
                        *state = Value::Int(n);
                        vec![Event {
                            value: Value::Int(n),
                            ..e.clone()
                        }]
                    })
            },
            SpeSinkSpec::Topic("counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(250),
                scheduling_overhead: SimDuration::from_millis(10),
                cpu_per_record: SimDuration::from_millis(cpu_ms),
                startup_cpu: SimDuration::from_millis(200),
                max_batch_records: 64,
                ..SpeConfig::default()
            },
        );
        if parallelism > 1 {
            job = job.parallelism(parallelism);
        }
        sc.spe_job("hs", job);
        sc.consumer("hc", Default::default(), &["counts"]);
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
        if crash {
            let target = if parallelism > 1 {
                format!("scalecount/1/{}", 1.min(parallelism - 1))
            } else {
                "scalecount".to_string()
            };
            sc.faults(FaultPlan::new().crash_restart(
                &target,
                crash_at,
                SimDuration::from_millis(800),
            ));
        }
        let result = sc.run().expect("valid scenario");
        let spe = &result.report.spe["scalecount"];
        let throughput = spe.record_counts.1 as f64 / duration.as_secs_f64();
        let recovery = spe
            .recovery
            .and_then(|r| r.recovery_latency())
            .map(|d| d.as_secs_f64())
            .unwrap_or(f64::NAN);
        (throughput, recovery)
    };
    crate::executor::parallel_map(parallelisms, |&p| {
        let (throughput_rps, _) = run(p, false);
        let (crash_throughput_rps, recovery_s) = run(p, true);
        ScalingPoint {
            parallelism: p,
            throughput_rps,
            crash_throughput_rps,
            recovery_s,
        }
    })
}

/// Everything the `--fig timeline` figure plots: per-instance telemetry
/// series around a crash→recovery window, plus the raw exports behind them.
#[derive(Debug, Clone)]
pub struct TimelineData {
    /// Per-instance consumer lag (records behind the broker high
    /// watermark), summed across the instance's partitions:
    /// `(instance, (seconds, lag))`.
    pub lag: Vec<(String, Vec<(f64, f64)>)>,
    /// Per-instance processing rate in records/s, derived from successive
    /// sampler snapshots of the cumulative `records_out` counter.
    pub throughput: Vec<(String, Vec<(f64, f64)>)>,
    /// Fault and recovery-phase markers from the causal trace:
    /// `(seconds, scope, event)`.
    pub markers: Vec<(f64, String, String)>,
    /// The run's full tidy-CSV metric export (`t_s,scope,metric,value`).
    pub tidy_csv: String,
    /// The run's Chrome-trace JSON export — load it in `chrome://tracing`
    /// or Perfetto to walk the crash→recovery window span by span.
    pub chrome_json: String,
}

/// **Timeline** — the `--fig timeline` figure: a parallelism-2 keyed
/// word-count job runs with the telemetry sampler on a fine interval and
/// the causal tracer enabled while the fault plan crashes (and later
/// restarts) one keyed-stage instance mid-run. The figure shows consumer
/// lag ballooning on the crashed instance and draining after recovery,
/// per-instance throughput dipping and rebounding, and markers for the
/// fault and every recovery phase pulled straight from the trace.
pub fn timeline_sweep(scale: Scale, seed: u64) -> TimelineData {
    use s2g_core::{SpeJobSpec, SpeSinkSpec};
    use s2g_spe::{CheckpointCfg, SpeConfig};

    let (records, interval_ms, tail_ms) = match scale {
        Scale::Full => (4_000u64, 2u64, 8_000u64),
        Scale::Quick => (800, 5, 8_000),
        Scale::Smoke => (300, 5, 6_000),
    };
    // Unlike the scaling sweep this job is consumer-bound, not
    // batch-CPU-bound: per-record deserialization caps each instance's
    // drain rate at ~1.25x its offered rate, so the backlog a crash builds
    // up sits in the broker and shows as consumer lag until it drains.
    let consumer_cpu = SimDuration::from_micros(interval_ms * 1_600);
    let produce_ms = records * interval_ms + 500;
    let crash_at = SimTime::from_millis(produce_ms / 2);
    let duration = SimTime::from_millis(produce_ms + tail_ms);
    let mut sc = Scenario::new("timeline");
    sc.seed(seed)
        .duration(duration)
        .topic(TopicSpec::new("events").partitions(4))
        .topic(TopicSpec::new("counts"));
    sc.telemetry_interval(SimDuration::from_millis(100));
    sc.with_telemetry_trace(true);
    // A small fetch cap makes the broker dole the backlog out gradually, so
    // consumer lag is visible at sampler ticks instead of collapsing to
    // zero inside a single fetch round trip.
    sc.broker_with(
        "h0",
        s2g_broker::BrokerConfig {
            fetch_max_records: 5,
            ..Default::default()
        },
    );
    sc.producer(
        "hp",
        SourceSpec::Custom {
            topics: vec!["events".into()],
            make: Box::new(move || {
                Box::new(
                    s2g_broker::RateSource::new(
                        "events",
                        records,
                        SimDuration::from_millis(interval_ms),
                    )
                    .payload_bytes(64)
                    .key_space(32),
                )
            }),
        },
        ProducerConfig::default(),
    );
    let job = SpeJobSpec::new(
        "timeline",
        vec!["events".into()],
        || {
            use s2g_spe::{Event, Plan, Value};
            Plan::new()
                .key_by("by-payload", |e| {
                    e.key
                        .clone()
                        .unwrap_or_else(|| e.value.as_str().unwrap_or("").chars().take(8).collect())
                })
                .stateful("count", Value::Int(0), |state, e| {
                    let n = state.as_int().unwrap_or(0) + 1;
                    *state = Value::Int(n);
                    vec![Event {
                        value: Value::Int(n),
                        ..e.clone()
                    }]
                })
        },
        SpeSinkSpec::Topic("counts".into()),
        SpeConfig {
            batch_interval: SimDuration::from_millis(250),
            scheduling_overhead: SimDuration::from_millis(10),
            cpu_per_record: SimDuration::from_millis(2),
            startup_cpu: SimDuration::from_millis(200),
            max_batch_records: 64,
            consumer: s2g_broker::ConsumerConfig {
                cpu_per_record: consumer_cpu,
                ..Default::default()
            },
            ..SpeConfig::default()
        },
    )
    .parallelism(2)
    // Few key groups concentrate each instance's backlog into a couple of
    // shuffle partitions, where it registers as per-partition lag instead
    // of vanishing below one fetch's worth per partition.
    .key_groups(4);
    sc.spe_job("hs", job);
    sc.consumer("hc", Default::default(), &["counts"]);
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
    sc.faults(FaultPlan::new().crash_restart(
        "timeline/1/1",
        crash_at,
        SimDuration::from_millis(2_000),
    ));
    let result = sc.run().expect("valid scenario");

    // Per-instance lag: sum each instance's per-partition gauges at every
    // sampler tick. Per-instance throughput: differentiate the cumulative
    // records-out counter between consecutive ticks.
    let mut lag_by_instance: BTreeMap<String, BTreeMap<SimTime, f64>> = BTreeMap::new();
    let mut throughput: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for s in &result.report.metric_series {
        if !s.scope.starts_with("timeline/") {
            continue;
        }
        if s.name.starts_with("lag/") {
            let agg = lag_by_instance.entry(s.scope.clone()).or_default();
            for (t, v) in &s.points {
                *agg.entry(*t).or_insert(0.0) += *v;
            }
        } else if s.name == "records_out" {
            let mut rate = Vec::new();
            let mut prev: Option<(SimTime, f64)> = None;
            for (t, v) in &s.points {
                if let Some((pt, pv)) = prev {
                    let dt = t.saturating_since(pt).as_secs_f64();
                    if dt > 0.0 {
                        rate.push((t.as_secs_f64(), (v - pv) / dt));
                    }
                }
                prev = Some((*t, *v));
            }
            throughput.push((s.scope.clone(), rate));
        }
    }
    let lag = lag_by_instance
        .into_iter()
        .map(|(scope, pts)| {
            let series = pts.into_iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
            (scope, series)
        })
        .collect();
    let markers = result
        .telemetry
        .tracer()
        .events()
        .iter()
        .filter(|e| e.cat == "fault" || e.cat == "recovery")
        .map(|e| (e.at.as_secs_f64(), e.scope.clone(), e.name.clone()))
        .collect();
    TimelineData {
        lag,
        throughput,
        markers,
        tidy_csv: result.telemetry.tidy_csv(),
        chrome_json: result.telemetry.chrome_json(),
    }
}

/// **Table II** — the application inventory: `(name, components, feature)`.
pub fn table2_inventory() -> Vec<(&'static str, u32, &'static str)> {
    vec![
        ("Word count", 5, "Multiple stream processing jobs"),
        ("Ride selection", 5, "Structured data, stateful processing"),
        ("Sentiment analysis", 3, "Unstructured data"),
        ("Maritime monitoring", 4, "Persistent storage"),
        ("Fraud detection", 5, "Machine learning prediction"),
    ]
}

/// One batching setting of [`hotpath_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct HotpathPoint {
    /// Human-readable setting label (`unbatched`, `batch-64k`, ...).
    pub setting: &'static str,
    /// Producer `batch.size` in bytes (1 when batching is disabled).
    pub batch_max_bytes: usize,
    /// Producer linger in milliseconds (0 when batching is disabled).
    pub linger_ms: u64,
    /// Whether batch compression was on.
    pub compression: bool,
    /// Simulated end-to-end records per second: records delivered at the
    /// sink consumer divided by the last delivery's simulated time.
    pub records_per_sec: f64,
    /// 99th-percentile produce ack latency over acked records,
    /// milliseconds. Unbatched at saturation this balloons (every record
    /// queues behind one-request-per-record round trips).
    pub produce_p99_ms: f64,
    /// Records that made it to the sink consumer within the run window.
    pub delivered: u64,
    /// [`RunReport::shared_batch_copies`](s2g_core::RunReport) for the
    /// run — the zero-copy data plane keeps this at 0.
    pub shared_batch_copies: u64,
}

/// Batching knobs for one hot-path run.
#[derive(Debug, Clone, Copy)]
struct HotpathCfg {
    batching: bool,
    batch_max_bytes: usize,
    linger_ms: u64,
    compression: bool,
}

/// Runs the produce→fetch→operator→fetch loop once: a saturating
/// single-partition producer, an identity-map SPE job, and a monitored
/// sink consumer. Returns `(records_per_sec, produce_p99_ms, delivered,
/// shared_batch_copies)`.
fn hotpath_run(
    records: u64,
    interval: SimDuration,
    duration: SimTime,
    seed: u64,
    cfg: HotpathCfg,
) -> (f64, f64, u64, u64) {
    use s2g_broker::ConsumerConfig;
    use s2g_core::{SpeJobSpec, SpeSinkSpec};
    use s2g_spe::SpeConfig;

    // Fast polling keeps the fetch path from capping throughput: the knob
    // under test is the produce path (per-request CPU + RPC framing), not
    // the poll cadence.
    let fast_consumer = ConsumerConfig {
        poll_interval: SimDuration::from_millis(5),
        max_poll_records: 5_000,
        ..Default::default()
    };
    let mut sc = Scenario::new("hotpath");
    sc.seed(seed)
        .duration(duration)
        .topic(TopicSpec::new("hot"))
        .topic(TopicSpec::new("out"));
    sc.broker("h0");
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "hot".into(),
            count: records,
            interval,
            payload: 64,
        },
        ProducerConfig::default(),
    );
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "hotmap",
            vec!["hot".into()],
            || s2g_spe::Plan::new().map("ident", |e| e),
            SpeSinkSpec::Topic("out".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(10),
                scheduling_overhead: SimDuration::from_millis(1),
                cpu_per_record: SimDuration::from_micros(2),
                startup_cpu: SimDuration::from_millis(100),
                consumer: fast_consumer.clone(),
                ..SpeConfig::default()
            },
        ),
    );
    sc.consumer("hc", fast_consumer, &["out"]);
    if cfg.batching {
        sc.batch_max_bytes(cfg.batch_max_bytes);
        sc.linger_ms(cfg.linger_ms);
        sc.with_compression(cfg.compression);
    } else {
        sc.with_batching(false);
    }
    // The last delivery time and the exact ack p99 need every record.
    sc.capture_records();
    let result = sc.run().expect("valid scenario");
    let (delivered, last) = {
        let core = result.monitor.borrow();
        let mut count = 0u64;
        let mut last = SimTime::ZERO;
        for d in core.for_topic("out") {
            count += 1;
            last = last.max(d.delivered);
        }
        (count, last)
    };
    let rps = if last > SimTime::ZERO {
        delivered as f64 / last.as_secs_f64()
    } else {
        0.0
    };
    let lat_ms: Vec<f64> = result.report.producers[0]
        .outcomes
        .iter()
        .filter(|o| o.delivered)
        .map(|o| o.completed.saturating_since(o.created).as_secs_f64() * 1e3)
        .collect();
    let p99 = s2g_telemetry::summarize(&lat_ms).map_or(f64::NAN, |s| s.p99);
    (rps, p99, delivered, result.report.shared_batch_copies)
}

/// Saturating offered load per scale: `(records, interval, duration)`.
/// The offered rate (40-50k records/s) sits far above what the
/// one-request-per-record baseline can move, so the sweep measures each
/// setting's ceiling rather than the source's.
fn hotpath_load(scale: Scale) -> (u64, SimDuration, SimTime) {
    match scale {
        Scale::Full => (40_000, SimDuration::from_micros(20), SimTime::from_secs(6)),
        Scale::Quick => (8_000, SimDuration::from_micros(20), SimTime::from_secs(3)),
        Scale::Smoke => (2_000, SimDuration::from_micros(25), SimTime::from_secs(2)),
    }
}

/// **Hotpath** — the unbatched-vs-batched contrast: the same
/// produce→fetch→operator→fetch loop at five batching settings, from the
/// one-record-per-request baseline to 64 KiB compressed batches. The
/// records/s are simulated, so they are a property of the cost model and
/// the same on any machine: `tests/figure_shapes.rs` asserts the contrast
/// and `tests/executor_determinism.rs` replays the sweep at two thread
/// counts. (How fast the emulator itself runs is `benchmark/`'s question.)
pub fn hotpath_sweep(scale: Scale, seed: u64) -> Vec<HotpathPoint> {
    let (records, interval, duration) = hotpath_load(scale);
    let settings: [(&'static str, HotpathCfg); 5] = [
        (
            "unbatched",
            HotpathCfg {
                batching: false,
                batch_max_bytes: 1,
                linger_ms: 0,
                compression: false,
            },
        ),
        (
            "batch-4k",
            HotpathCfg {
                batching: true,
                batch_max_bytes: 4 * 1024,
                linger_ms: 1,
                compression: false,
            },
        ),
        (
            "batch-16k",
            HotpathCfg {
                batching: true,
                batch_max_bytes: 16 * 1024,
                linger_ms: 2,
                compression: false,
            },
        ),
        (
            "batch-64k",
            HotpathCfg {
                batching: true,
                batch_max_bytes: 64 * 1024,
                linger_ms: 5,
                compression: false,
            },
        ),
        (
            "batch-64k-lz4",
            HotpathCfg {
                batching: true,
                batch_max_bytes: 64 * 1024,
                linger_ms: 5,
                compression: true,
            },
        ),
    ];
    crate::executor::parallel_map(&settings, |&(setting, cfg)| {
        let (records_per_sec, produce_p99_ms, delivered, shared_batch_copies) =
            hotpath_run(records, interval, duration, seed, cfg);
        HotpathPoint {
            setting,
            batch_max_bytes: cfg.batch_max_bytes,
            linger_ms: cfg.linger_ms,
            compression: cfg.compression,
            records_per_sec,
            produce_p99_ms,
            delivered,
            shared_batch_copies,
        }
    })
}

/// One point of the `--fig throughput` sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Producer `batch.size` in bytes.
    pub batch_max_bytes: usize,
    /// Producer linger in milliseconds.
    pub linger_ms: u64,
    /// Whether batch compression was on.
    pub compression: bool,
    /// Simulated end-to-end records per second.
    pub records_per_sec: f64,
    /// 99th-percentile produce ack latency, milliseconds.
    pub produce_p99_ms: f64,
}

/// **Throughput** — the `--fig throughput` sweep: simulated records/s and
/// produce p99 across the batching grid (`batch_max_bytes` ×
/// `linger_ms` × compression on/off) on the hot-path loop. The shape the
/// figure demonstrates: throughput climbs steeply with batch size until
/// the offered rate is met, extra linger mostly trades produce latency,
/// and compression shaves wire bytes for a CPU surcharge.
pub fn throughput_sweep(scale: Scale, seed: u64) -> Vec<ThroughputPoint> {
    let (records, interval, duration) = hotpath_load(scale);
    let (bytes, lingers): (&[usize], &[u64]) = match scale {
        Scale::Full => (&[1_024, 4_096, 16_384, 65_536], &[1, 5]),
        Scale::Quick => (&[1_024, 65_536], &[1, 5]),
        Scale::Smoke => (&[1_024, 65_536], &[2]),
    };
    let mut grid = Vec::new();
    for &batch_max_bytes in bytes {
        for &linger_ms in lingers {
            for compression in [false, true] {
                grid.push((batch_max_bytes, linger_ms, compression));
            }
        }
    }
    crate::executor::parallel_map(&grid, |&(batch_max_bytes, linger_ms, compression)| {
        let cfg = HotpathCfg {
            batching: true,
            batch_max_bytes,
            linger_ms,
            compression,
        };
        let (records_per_sec, produce_p99_ms, _, _) =
            hotpath_run(records, interval, duration, seed, cfg);
        ThroughputPoint {
            batch_max_bytes,
            linger_ms,
            compression,
            records_per_sec,
            produce_p99_ms,
        }
    })
}

/// Collects results per component into labeled series for plotting.
pub fn group_by_component(
    data: &[(Component, u64, f64)],
) -> BTreeMap<&'static str, Vec<(f64, f64)>> {
    let mut map: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for (c, ms, v) in data {
        map.entry(c.label()).or_default().push((*ms as f64, *v));
    }
    map
}
