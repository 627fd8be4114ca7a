//! Broker crash/restart with a durable log: replay fidelity and
//! consumer-group offset survival, exercised directly on the simulator.

use std::any::Any;
use std::collections::BTreeMap;

use s2g_broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
    ControllerConfig, CoordinationMode, PartitionLog, ProducerClient, ProducerConfig,
    ProducerProcess, RateSource, TopicSpec, ZkController,
};
use s2g_proto::{BrokerId, Offset, ProducerId, TopicPartition};
use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};
use s2g_store::{blob_map, BlobClient, BlobMap};

const CONTROLLER_PID: ProcessId = ProcessId(0);
const BROKER_PID: ProcessId = ProcessId(1);

fn peer_map() -> BTreeMap<BrokerId, ProcessId> {
    [(BrokerId(0), BROKER_PID)].into()
}

fn broker_cfg() -> BrokerConfig {
    BrokerConfig {
        log_segment_max_records: 16,
        ..BrokerConfig::default()
    }
}

fn make_broker(store: &BlobMap, recover: bool, incarnation: u64) -> Broker {
    let mut b = Broker::new(
        BrokerId(0),
        broker_cfg(),
        CoordinationMode::Zk,
        vec![CONTROLLER_PID],
        peer_map(),
    );
    b.set_durability(BlobClient::shared(store.clone()), recover);
    b.set_incarnation(incarnation);
    b
}

/// Spawns controller + durable broker; returns the shared log store.
fn spawn_cluster(sim: &mut Sim, topics: &[TopicSpec]) -> BlobMap {
    let store = blob_map();
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER_PID)].into();
    let ctl = sim.spawn(Box::new(ZkController::new(
        ControllerConfig::default(),
        brokers,
        topics,
    )));
    assert_eq!(ctl, CONTROLLER_PID);
    let b = sim.spawn(Box::new(make_broker(&store, false, 0)));
    assert_eq!(b, BROKER_PID);
    store
}

#[test]
fn broker_restart_replays_identical_log() {
    let mut sim = Sim::new(3);
    let store = spawn_cluster(&mut sim, &[TopicSpec::new("events")]);
    let producer = ProducerClient::new(
        ProducerId(0),
        ProducerConfig::default(),
        BROKER_PID,
        peer_map(),
        0,
    );
    let source = RateSource::new("events", 100, SimDuration::from_millis(10)).payload_bytes(64);
    sim.spawn(Box::new(ProducerProcess::new(producer, Box::new(source))));
    sim.run_until(SimTime::from_secs(5));

    // Capture the pre-crash log from the corpse.
    let corpse = sim.kill(BROKER_PID).expect("broker was alive");
    let dead = (corpse.as_ref() as &dyn Any)
        .downcast_ref::<Broker>()
        .expect("broker corpse");
    let tp = TopicPartition::new("events", 0);
    let pre = dead.log(&tp).expect("partition log exists");
    assert_eq!(pre.log_end(), Offset(100), "all records appended pre-crash");
    assert!(pre.segment_count() > 1, "log rolled into segments");
    let pre_end = pre.log_end();
    let pre_hw = pre.high_watermark();
    let values = |log: &PartitionLog| -> Vec<String> {
        log.entries().map(|(_, _, r)| r.value_utf8()).collect()
    };
    let pre_values = values(pre);
    let pre_stats = dead.stats();
    assert!(pre_stats.log_flushes > 0, "flushes happened pre-crash");

    // Respawn with recovery from the same backend.
    sim.respawn(BROKER_PID, Box::new(make_broker(&store, true, 1)));
    sim.run_until(SimTime::from_secs(8));

    let live = sim.process_ref::<Broker>(BROKER_PID).expect("respawned");
    assert!(!live.is_recovering(), "replay completed");
    let log = live.log(&tp).expect("partition log rebuilt");
    assert_eq!(log.log_end(), pre_end, "log end survives the bounce");
    assert_eq!(log.high_watermark(), pre_hw, "high watermark survives");
    let post_values = values(log);
    assert_eq!(post_values, pre_values, "replayed log equals pre-crash log");

    let rec = live.recovery_info().expect("recovery recorded");
    assert_eq!(rec.replayed_records, 100);
    assert!(rec.replayed_segments > 1);
    assert!(rec.replayed_bytes > 0);
    assert!(rec.recovered_at.is_some());
}

#[test]
fn group_offsets_survive_broker_bounce() {
    let mut sim = Sim::new(7);
    let store = spawn_cluster(&mut sim, &[TopicSpec::new("events")]);
    let producer = ProducerClient::new(
        ProducerId(0),
        ProducerConfig::default(),
        BROKER_PID,
        peer_map(),
        0,
    );
    let source = RateSource::new("events", 200, SimDuration::from_millis(20)).payload_bytes(32);
    sim.spawn(Box::new(ProducerProcess::new(producer, Box::new(source))));
    let consumer = ConsumerClient::new(
        ConsumerConfig {
            group: Some("g1".into()),
            auto_commit_interval: SimDuration::from_millis(200),
            ..ConsumerConfig::default()
        },
        BROKER_PID,
        peer_map(),
        vec!["events".into()],
    );
    let cons_pid = sim.spawn(Box::new(ConsumerProcess::new(
        0,
        consumer,
        Box::new(CollectingSink::default()),
    )));

    // Let some records flow and some commits land, then bounce the broker.
    sim.run_until(SimTime::from_secs(2));
    let tp = TopicPartition::new("events", 0);
    let corpse = sim.kill(BROKER_PID).expect("alive");
    let dead = (corpse.as_ref() as &dyn Any)
        .downcast_ref::<Broker>()
        .expect("broker corpse");
    let committed_before = dead
        .committed_offset("g1", &tp)
        .expect("commits landed before the crash");
    assert!(committed_before > Offset::ZERO);

    sim.run_until(SimTime::from_millis(2_500));
    sim.respawn(BROKER_PID, Box::new(make_broker(&store, true, 1)));
    sim.run_until(SimTime::from_secs(10));

    let live = sim.process_ref::<Broker>(BROKER_PID).expect("respawned");
    let committed_after = live
        .committed_offset("g1", &tp)
        .expect("group offsets replayed from the durable meta");
    assert!(
        committed_after >= committed_before,
        "committed position {committed_after} regressed below pre-crash {committed_before}"
    );
    // The consumer kept fetching across the bounce and never reset.
    let cons = sim
        .process_ref::<ConsumerProcess>(cons_pid)
        .expect("consumer");
    assert_eq!(cons.client().stats().offset_resets, 0);
    let delivered = cons
        .sink_as::<CollectingSink>()
        .expect("collecting sink")
        .deliveries
        .len();
    assert_eq!(delivered, 200, "every record delivered despite the bounce");
}

#[test]
fn restart_without_recovery_starts_empty() {
    let mut sim = Sim::new(11);
    let store = spawn_cluster(&mut sim, &[TopicSpec::new("events")]);
    let producer = ProducerClient::new(
        ProducerId(0),
        ProducerConfig::default(),
        BROKER_PID,
        peer_map(),
        0,
    );
    let source = RateSource::new("events", 50, SimDuration::from_millis(10)).payload_bytes(64);
    sim.spawn(Box::new(ProducerProcess::new(producer, Box::new(source))));
    sim.run_until(SimTime::from_secs(3));
    sim.kill(BROKER_PID).expect("alive");
    // Respawn WITHOUT recovery: the log backend is ignored on boot.
    sim.respawn(BROKER_PID, Box::new(make_broker(&store, false, 1)));
    sim.run_until(SimTime::from_millis(3_100));
    let live = sim.process_ref::<Broker>(BROKER_PID).expect("respawned");
    let tp = TopicPartition::new("events", 0);
    let end = live.log(&tp).map(|l| l.log_end()).unwrap_or_default();
    assert!(
        end < Offset(50),
        "without replay the log restarts (mostly) empty, got {end}"
    );
    assert!(live.recovery_info().is_none());
}
