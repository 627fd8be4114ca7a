//! Purging a partition below what its reader committed (`DeleteRecords`),
//! replica by replica, on a 3-broker cluster at RF 3:
//!
//! * the leader clamps the bound to its high watermark, and a bound at or
//!   below its log start does nothing;
//! * each follower drops the same segments once a fetch reply tells it the
//!   leader's new start;
//! * a follower restarted empty copies only what the leader still holds;
//! * on a durable broker, a purged segment's blob is deleted only after the
//!   manifest that no longer lists it was flushed.

use std::collections::BTreeMap;

use s2g_broker::{
    Broker, BrokerConfig, BrokerLogMeta, ControllerConfig, CoordinationMode, ProducerClient,
    ProducerConfig, ProducerProcess, RateSource, TopicSpec, ZkController, BROKER_LOG_RETRY_TAG,
};
use s2g_proto::{AckMode, BrokerId, ClientRpc, Offset, ProducerId, TopicPartition};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use s2g_store::{BlobClient, StoreRpc};

const N_BROKERS: u32 = 3;
const RECORDS: u64 = 200;
const SEGMENT: usize = 16;
const CONTROLLER: ProcessId = ProcessId(0);

fn tp() -> TopicPartition {
    TopicPartition::new("events", 0)
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// Sends one `DeleteRecords` for [`tp`] as it starts: the reader's request,
/// without the reader.
struct Purge(ProcessId, Offset);

impl Process for Purge {
    fn name(&self) -> &str {
        "purge"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let parts = vec![(tp(), self.1)];
        ctx.send(self.0, ClientRpc::DeleteRecords { parts });
    }

    fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
}

/// A store that answers every write and delete at once and keeps, in
/// arrival order, each delete's key and each meta blob put.
#[derive(Default)]
struct Recorder {
    log: Vec<Stored>,
}

enum Stored {
    Meta(String, BrokerLogMeta),
    Deleted(String),
}

impl Process for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        match *downcast::<StoreRpc>(msg).expect("brokers speak StoreRpc here") {
            StoreRpc::Put { corr, key, value } => {
                if key.ends_with("/meta") {
                    let meta = BrokerLogMeta::decode(&value).expect("a meta blob");
                    self.log.push(Stored::Meta(key, meta));
                }
                ctx.send(from, StoreRpc::PutAck { corr });
            }
            StoreRpc::Delete { corr, key } => {
                self.log.push(Stored::Deleted(key));
                ctx.send(
                    from,
                    StoreRpc::DeleteAck {
                        corr,
                        existed: true,
                    },
                );
            }
            other => panic!("unexpected store rpc {other:?}"),
        }
    }
}

struct Cluster {
    sim: Sim,
    brokers: BTreeMap<BrokerId, ProcessId>,
    cfg: BrokerConfig,
    recorder: Option<ProcessId>,
}

impl Cluster {
    /// Controller, three brokers with 16-record segments (durable over a
    /// [`Recorder`] when `durable`) and, once `followers_down` brokers 1
    /// and 2 are killed, a producer of [`RECORDS`] records, run until the
    /// leader has appended them all. Sessions and replica lag are an hour
    /// long, so no broker leaves the ISR by itself.
    fn build(durable: bool, followers_down: bool) -> Cluster {
        let mut sim = Sim::new(9);
        let brokers: BTreeMap<BrokerId, ProcessId> = (0..N_BROKERS)
            .map(|i| (BrokerId(i), ProcessId(1 + i)))
            .collect();
        let hour = SimDuration::from_secs(3_600);
        let topics = [TopicSpec::new("events").replication(3).primary(0)];
        let ctl = ControllerConfig {
            session_timeout: hour,
            ..ControllerConfig::default()
        };
        let ctl = ZkController::new(ctl, brokers.clone(), &topics);
        assert_eq!(sim.spawn(Box::new(ctl)), CONTROLLER);
        let cfg = BrokerConfig {
            log_segment_max_records: SEGMENT,
            replica_fetch_interval: SimDuration::from_millis(10),
            replica_lag_max: hour,
            ..BrokerConfig::default()
        };
        let recorder = durable.then_some(ProcessId(1 + N_BROKERS));
        let mut cluster = Cluster {
            sim,
            brokers,
            cfg,
            recorder,
        };
        for i in 0..N_BROKERS {
            let b = cluster.broker_process(i);
            assert_eq!(cluster.sim.spawn(Box::new(b)), cluster.pid(i));
        }
        if let Some(pid) = recorder {
            assert_eq!(cluster.sim.spawn(Box::<Recorder>::default()), pid);
        }
        cluster.sim.run_until(ms(500));
        assert!(cluster.broker(0).is_leader(&tp()), "the primary leads");
        if followers_down {
            cluster.sim.kill(cluster.pid(1)).expect("alive");
            cluster.sim.kill(cluster.pid(2)).expect("alive");
        }
        let acks = if followers_down {
            AckMode::Leader
        } else {
            AckMode::All
        };
        let pcfg = ProducerConfig {
            acks,
            ..ProducerConfig::default()
        };
        let client = ProducerClient::new(ProducerId(0), pcfg, cluster.pid(0), cluster.peers(), 0);
        let source = RateSource::new("events", RECORDS, SimDuration::from_millis(10));
        let producer = ProducerProcess::new(client, Box::new(source.payload_bytes(32)));
        let now = cluster.sim.now();
        cluster.sim.spawn_at(now, Box::new(producer));
        cluster.sim.run_until(ms(6_000));
        let log = cluster.broker(0).log(&tp()).expect("hosted");
        assert_eq!(log.log_end(), Offset(RECORDS), "every record appended");
        cluster
    }

    fn pid(&self, i: u32) -> ProcessId {
        self.brokers[&BrokerId(i)]
    }

    fn peers(&self) -> BTreeMap<BrokerId, ProcessId> {
        self.brokers.clone()
    }

    /// Broker `i`, empty.
    fn broker_process(&self, i: u32) -> Broker {
        let mut b = Broker::new(
            BrokerId(i),
            self.cfg.clone(),
            CoordinationMode::Zk,
            vec![CONTROLLER],
            self.peers(),
        );
        if let Some(store) = self.recorder {
            let blobs = BlobClient::new(vec![store], BROKER_LOG_RETRY_TAG);
            b.set_durability(blobs);
        }
        b
    }

    /// Respawns broker `i` empty, as its next incarnation.
    fn restart(&mut self, i: u32) {
        let b = self.broker_process(i);
        self.sim.respawn(self.pid(i), Box::new(b));
    }

    fn broker(&self, i: u32) -> &Broker {
        self.sim.process_ref::<Broker>(self.pid(i)).expect("live")
    }

    /// Runs the next `ms` milliseconds.
    fn after(&mut self, ms: u64) {
        let until = self.sim.now() + SimDuration::from_millis(ms);
        self.sim.run_until(until);
    }

    /// `DeleteRecords` of [`tp`] below `offset`, sent to broker `i` now.
    fn purge(&mut self, i: u32, offset: u64) {
        let (to, now) = (self.pid(i), self.sim.now());
        self.sim.spawn_at(now, Box::new(Purge(to, Offset(offset))));
    }

    /// Broker `i`'s log start, segment bases and retained bytes for [`tp`].
    fn shape(&self, i: u32) -> (Offset, Vec<u64>, usize) {
        let log = self.broker(i).log(&tp()).expect("hosted");
        let bases = log.segments().iter().map(|s| s.base_offset().value());
        (log.log_start(), bases.collect(), log.retained_bytes())
    }
}

/// The head segments a purge to `start` drops: those wholly below it.
fn bases_from(start: u64) -> Vec<u64> {
    let first = start / SEGMENT as u64 * SEGMENT as u64;
    (first..RECORDS).step_by(SEGMENT).collect()
}

#[test]
fn a_purge_is_clamped_to_the_high_watermark() {
    let mut c = Cluster::build(false, true);
    let log = c.broker(0).log(&tp()).expect("hosted");
    assert_eq!(log.high_watermark(), Offset::ZERO, "no follower holds any");
    let unpurged = c.shape(0);
    c.purge(0, 1_000);
    c.after(100);
    assert_eq!(
        c.shape(0),
        unpurged,
        "nothing is committed, so nothing goes"
    );
    assert_eq!(unpurged.1, bases_from(0));
    // The followers come back, catch up, and commit the whole log: the
    // same bound now stops at the high watermark.
    c.restart(1);
    c.restart(2);
    c.after(2_000);
    assert_eq!(
        c.broker(0).log(&tp()).unwrap().high_watermark(),
        Offset(RECORDS)
    );
    c.purge(0, 1_000);
    c.after(100);
    let (start, bases, _) = c.shape(0);
    assert_eq!(start, Offset(RECORDS), "clamped to the high watermark");
    assert_eq!(
        bases,
        [192],
        "every sealed segment went; the active one stays"
    );
    assert_eq!(c.broker(0).stats().segments_retired, 12);
}

#[test]
fn a_lower_or_stale_purge_does_nothing() {
    let mut c = Cluster::build(false, false);
    let before = c.shape(0).2;
    c.purge(0, 100);
    c.after(100);
    let purged = c.shape(0);
    assert_eq!((purged.0, &purged.1), (Offset(100), &bases_from(100)));
    assert!(
        purged.2 < before,
        "the dropped segments' bytes are released"
    );
    let retired = c.broker(0).stats();
    for bound in [60, 100, 0] {
        c.purge(0, bound);
        c.after(100);
        assert_eq!(c.shape(0), purged, "a purge to {bound} moved the log");
        let stats = c.broker(0).stats();
        assert_eq!(
            (stats.segments_retired, stats.retired_bytes),
            (retired.segments_retired, retired.retired_bytes)
        );
    }
    // A purge sent to a follower is refused: only the leader purges.
    c.purge(1, 150);
    c.after(100);
    assert!((0..N_BROKERS).all(|i| c.shape(i) == purged));
}

#[test]
fn followers_drop_the_same_segments_after_their_next_fetch() {
    let mut c = Cluster::build(false, false);
    let unpurged = c.shape(1);
    c.purge(0, 100);
    // The request's one hop: the leader has purged, and no reply has told
    // a follower yet.
    let purged_at = c.sim.now() + SimDuration::from_micros(10);
    c.sim.run_until(purged_at);
    assert_eq!(c.shape(0).0, Offset(100));
    assert_eq!(c.shape(1), unpurged);
    assert_eq!(c.shape(2), unpurged);
    c.after(100);
    let leader = c.shape(0);
    for i in 1..N_BROKERS {
        assert_eq!(c.shape(i), leader, "broker {i}");
        let stats = c.broker(i).stats();
        assert_eq!(stats.segments_retired, 6, "broker {i}");
        assert_eq!(c.broker(i).retained_bytes(), leader.2 as u64);
    }
}

#[test]
fn a_follower_restarted_empty_catches_up_from_the_leader_log_start() {
    let mut c = Cluster::build(false, false);
    c.purge(0, 100);
    c.after(500);
    c.sim.kill(c.pid(1)).expect("alive");
    c.after(500);
    c.restart(1);
    c.after(3_000);
    let (leader, follower) = (c.broker(0), c.broker(1));
    assert!(!follower.is_leader(&tp()));
    assert_eq!(
        follower.log_fingerprint(&tp()),
        leader.log_fingerprint(&tp())
    );
    let log = |b: &Broker| {
        let log = b.log(&tp()).expect("hosted");
        let first = log.entries().next().map(|(o, _, _)| o);
        (log.log_start(), first, log.log_end())
    };
    assert_eq!(log(follower), log(leader));
    assert_eq!(
        log(leader),
        (Offset(100), Some(Offset(96)), Offset(RECORDS))
    );
    // Only the retained range was copied: the first segment, which the
    // start cuts, and what follows it.
    assert_eq!(follower.stats().records_appended, RECORDS - 96);
}

#[test]
fn purged_segment_blobs_are_deleted_only_after_the_manifest_flush() {
    let mut c = Cluster::build(true, false);
    c.purge(0, 100);
    c.after(2_000);
    let recorder = c.recorder.expect("durable");
    let log = &c.sim.process_ref::<Recorder>(recorder).unwrap().log;
    // The manifest each broker flushed last, as the deletes arrive.
    let mut manifest: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut deleted: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for stored in log {
        match stored {
            Stored::Meta(key, meta) => {
                let prefix = key.trim_end_matches("/meta").to_string();
                let (_, _, _, bases) = meta.partitions.iter().find(|p| p.0 == tp()).unwrap();
                manifest.insert(prefix, bases.clone());
            }
            Stored::Deleted(key) => {
                let (segment, base) = key.rsplit_once('/').expect("a segment key");
                let prefix = segment.trim_end_matches("/events-0").to_string();
                let base: u64 = base.parse().expect("a segment base");
                let listed = &manifest[&prefix];
                assert!(
                    !listed.contains(&base),
                    "{key} deleted while {prefix}'s flushed manifest still lists it"
                );
                deleted.entry(prefix).or_default().push(base);
            }
        }
    }
    let purged: Vec<u64> = (0..96).step_by(SEGMENT).collect();
    for i in 0..N_BROKERS {
        let prefix = format!("brokerlog/b{i}");
        assert_eq!(deleted.get(&prefix), Some(&purged), "{prefix}");
        assert_eq!(manifest[&prefix], bases_from(100), "{prefix}");
    }
}
