//! The replica fetch protocol, request by request: one fetch per leader per
//! tick with a part per followed partition, parts served and rejected on
//! their own under one request-wide record cap, and one catch-up chain per
//! follower however many ticks pass.
//!
//! A real [`Broker`] is driven by puppets standing in for its controller,
//! its clients and its peer brokers: a puppet sends what the test tells it
//! to (so the message has a sender the broker can answer) and keeps what it
//! hears.

use std::collections::BTreeMap;

use s2g_broker::{Broker, BrokerConfig, CoordinationMode};
use s2g_proto::{
    AckMode, BrokerId, ClientRpc, ControllerRpc, CorrelationId, ErrorCode, LeaderEpoch, LogRun,
    Offset, ProducerId, Record, RecordBatch, ReplicaFetchPart, ReplicaFetchedPart, ReplicaRpc,
    TopicPartition, RPC_OVERHEAD,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

/// Tells a puppet to send `msg` to `to`.
#[derive(Debug)]
struct Say {
    to: ProcessId,
    msg: Box<dyn Message>,
}
impl Message for Say {}

#[derive(Default)]
struct Puppet {
    replica: Vec<(SimTime, ReplicaRpc)>,
}

impl Process for Puppet {
    fn name(&self) -> &str {
        "puppet"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        match downcast::<Say>(msg) {
            Ok(say) => ctx.send_boxed(say.to, say.msg),
            // Heartbeats and produce acks are of no interest here.
            Err(other) => {
                if let Ok(rpc) = downcast::<ReplicaRpc>(other) {
                    self.replica.push((ctx.now(), *rpc));
                }
            }
        }
    }
}

/// Pid 0 is the controller (and client) puppet; broker `i` is pid `i + 1`,
/// real when `real[i]` and a puppet otherwise.
struct Cluster {
    sim: Sim,
}

const CTL: ProcessId = ProcessId(0);
const TRANSIT: SimDuration = SimDuration::from_micros(10);

fn pid(broker: u32) -> ProcessId {
    ProcessId(broker + 1)
}

fn tp(partition: u32) -> TopicPartition {
    TopicPartition::new("t", partition)
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

impl Cluster {
    fn new(cfg: &BrokerConfig, real: &[bool]) -> Cluster {
        let mut sim = Sim::new(1);
        assert_eq!(sim.spawn(Box::new(Puppet::default())), CTL);
        let peers: BTreeMap<BrokerId, ProcessId> = (0..real.len() as u32)
            .map(|i| (BrokerId(i), pid(i)))
            .collect();
        for (i, real) in real.iter().enumerate() {
            let id = BrokerId(i as u32);
            let spawned = if *real {
                let mode = CoordinationMode::Zk;
                let broker = Broker::new(id, cfg.clone(), mode, vec![CTL], peers.clone());
                sim.spawn(Box::new(broker))
            } else {
                sim.spawn(Box::new(Puppet::default()))
            };
            assert_eq!(spawned, pid(id.0));
        }
        Cluster { sim }
    }

    /// Has puppet `from` send `msg` to `to`, now.
    fn say(&mut self, from: ProcessId, to: ProcessId, msg: impl Message) {
        let msg = Box::new(msg);
        self.sim.inject_at(self.sim.now(), from, Say { to, msg });
    }

    /// The controller tells broker `to` who leads `partition` at `epoch`,
    /// brokers 0 and 1 being its replicas and in sync.
    fn leader_and_isr(&mut self, to: u32, partition: u32, leader: u32, epoch: u64) {
        let both = vec![BrokerId(0), BrokerId(1)];
        let rpc = ControllerRpc::LeaderAndIsr {
            tp: tp(partition),
            leader: Some(BrokerId(leader)),
            isr: both.clone(),
            epoch: LeaderEpoch(epoch),
            replicas: both,
        };
        self.say(CTL, pid(to), rpc);
    }

    /// A client produces records with sequence numbers `seqs` to the real
    /// leader `to`, under `acks=1`.
    fn produce(&mut self, to: u32, partition: u32, seqs: std::ops::Range<u64>) {
        let rpc = ClientRpc::ProduceRequest {
            corr: CorrelationId(seqs.start),
            tp: tp(partition),
            batch: RecordBatch::from_records(seqs.map(|s| record(partition, s)).collect()),
            acks: AckMode::Leader,
            epoch: LeaderEpoch(1),
            txn: None,
        };
        self.say(CTL, pid(to), rpc);
    }

    /// What puppet broker `i` has heard from its peers since last asked.
    fn heard(&mut self, broker: u32) -> Vec<(SimTime, ReplicaRpc)> {
        let puppet = self.sim.process_mut::<Puppet>(pid(broker));
        std::mem::take(&mut puppet.expect("a puppet").replica)
    }

    fn broker(&self, i: u32) -> &Broker {
        self.sim
            .process_ref::<Broker>(pid(i))
            .expect("a real broker")
    }

    fn log_end(&self, broker: u32, partition: u32) -> u64 {
        let log = self.broker(broker).log(&tp(partition));
        log.map_or(0, |l| l.log_end().value())
    }
}

fn record(partition: u32, seq: u64) -> Record {
    Record::keyless(vec![b'x'; 16], SimTime::ZERO).from_producer(ProducerId(partition), seq)
}

/// The parts of a fetch as `(partition, log end)`, with its correlation id.
fn asked(rpc: &ReplicaRpc) -> (CorrelationId, Vec<(u32, u64)>) {
    let ReplicaRpc::Fetch { corr, from, parts } = rpc else {
        panic!("not a fetch: {rpc:?}");
    };
    assert_eq!(*from, BrokerId(0));
    let parts = parts.iter().map(|p| (p.tp.partition, p.log_end.value()));
    (*corr, parts.collect())
}

/// A leader's answer for `partition`: the records at `offsets`, all of
/// `epoch`, under a high watermark just past them.
fn served(partition: u32, offsets: std::ops::Range<u64>, epoch: u64) -> ReplicaFetchedPart {
    let run = LogRun {
        base: Offset(offsets.start),
        epoch: LeaderEpoch(epoch),
        batch: offsets.clone().map(|o| record(partition, o)).collect(),
    };
    ReplicaFetchedPart {
        runs: vec![run],
        high_watermark: Offset(offsets.end),
        epoch: LeaderEpoch(epoch),
        ..ReplicaFetchedPart::rejected(tp(partition), ErrorCode::None)
    }
}

#[test]
fn one_fetch_per_leader_per_tick_with_parts_in_partition_order() {
    let cfg = BrokerConfig {
        replica_fetch_interval: SimDuration::from_millis(10),
        ..BrokerConfig::default()
    };
    let mut c = Cluster::new(&cfg, &[true, false, false]);
    // Broker 0 follows partitions 0 and 2 from broker 1, 1 and 3 from
    // broker 2, and leads partition 4 itself.
    c.sim.run_until(ms(1));
    for (partition, leader) in [(0, 1), (1, 2), (2, 1), (3, 2), (4, 0)] {
        c.leader_and_isr(0, partition, leader, 1);
    }
    // Nobody answers: every tick asks again all the same.
    c.sim.run_until(ms(35));
    let mut corrs = Vec::new();
    for (leader, follows) in [(1, [(0, 0), (2, 0)]), (2, [(1, 0), (3, 0)])] {
        let fetches = c.heard(leader);
        let at: Vec<SimTime> = fetches.iter().map(|(at, _)| *at).collect();
        assert_eq!(at, [10, 20, 30].map(|t| ms(t) + TRANSIT), "one per tick");
        for (_, rpc) in &fetches {
            let (corr, parts) = asked(rpc);
            assert_eq!(parts, follows, "leader {leader}");
            assert_eq!(rpc.wire_size(), RPC_OVERHEAD + 2 * (1 + 24));
            corrs.push(corr.0);
        }
    }
    corrs.sort_unstable();
    corrs.dedup();
    assert_eq!(
        corrs.len(),
        6,
        "every request has a correlation id of its own"
    );
}

#[test]
fn a_superseded_reply_is_applied_but_only_the_latest_continues_the_catch_up() {
    let cfg = BrokerConfig {
        replica_fetch_interval: SimDuration::from_millis(10),
        replica_fetch_max_records: 4,
        ..BrokerConfig::default()
    };
    let mut c = Cluster::new(&cfg, &[true, false]);
    c.sim.run_until(ms(1));
    c.leader_and_isr(0, 0, 1, 1);
    // Two ticks, two requests for the same range; the second supersedes
    // the first.
    c.sim.run_until(ms(25));
    let requests = c.heard(1);
    let [(first, _), (second, _)] = [asked(&requests[0].1), asked(&requests[1].1)];
    assert_eq!(requests.len(), 2);
    let reply = |corr, part| ReplicaRpc::FetchResponse {
        corr,
        parts: vec![part],
    };
    // A full reply to the superseded request: its records are kept, and
    // that is all.
    c.say(pid(1), pid(0), reply(first, served(0, 0..4, 1)));
    c.sim.run_until(ms(27));
    assert_eq!(c.log_end(0, 0), 4);
    assert!(c.heard(1).is_empty(), "a superseded reply starts no chain");
    // The same records in reply to the latest request: nothing new to
    // append, but this one is the chain, and the reply was full.
    c.say(pid(1), pid(0), reply(second, served(0, 0..4, 1)));
    c.sim.run_until(ms(28));
    let stats = c.broker(0).stats();
    assert_eq!(
        (stats.records_appended, stats.replica_records_redundant),
        (4, 4)
    );
    let chained = c.heard(1);
    assert_eq!(
        chained.len(),
        1,
        "the latest reply was still awaited, and chains"
    );
    assert_eq!(asked(&chained[0].1).1, [(0, 4)]);
    assert!(chained[0].0 < ms(28), "at once, not at the next tick");
    // The tick at 30 ms leaves the chain's request alone: it is 3 ms old,
    // a catch-up in progress, and asking again would fetch its range
    // twice. Unanswered for a whole interval, it is given up on.
    c.sim.run_until(ms(35));
    assert!(
        c.heard(1).is_empty(),
        "a tick spares a fetch younger than itself"
    );
    c.sim.run_until(ms(45));
    let again = c.heard(1);
    assert_eq!(again.len(), 1);
    let (fourth, parts) = asked(&again[0].1);
    assert_eq!((again[0].0, parts), (ms(40) + TRANSIT, vec![(0, 4)]));
    // A reply that is not full ends the chain until the next tick.
    c.say(pid(1), pid(0), reply(fourth, served(0, 4..6, 1)));
    c.sim.run_until(ms(49));
    assert_eq!(c.log_end(0, 0), 6);
    assert!(c.heard(1).is_empty());
    c.sim.run_until(ms(51));
    assert_eq!(asked(&c.heard(1)[0].1).1, [(0, 6)]);
}

#[test]
fn parts_are_served_in_order_under_one_cap_and_a_part_not_led_answers_its_own_error() {
    let cfg = BrokerConfig {
        replica_fetch_max_records: 4,
        ..BrokerConfig::default()
    };
    let mut c = Cluster::new(&cfg, &[true, false]);
    c.sim.run_until(ms(1));
    // Broker 0 leads partitions 0 (3 records) and 2 (2 records); it has
    // never heard of partition 1.
    c.leader_and_isr(0, 0, 0, 1);
    c.leader_and_isr(0, 2, 0, 1);
    c.sim.run_until(ms(2));
    c.produce(0, 0, 0..3);
    c.produce(0, 2, 0..2);
    c.sim.run_until(ms(3));
    let fetch = |corr, ends: &[(u32, u64)]| ReplicaRpc::Fetch {
        corr: CorrelationId(corr),
        from: BrokerId(1),
        parts: ends
            .iter()
            .map(|&(partition, end)| ReplicaFetchPart {
                tp: tp(partition),
                log_end: Offset(end),
                epoch: LeaderEpoch(1),
            })
            .collect(),
    };
    c.say(pid(1), pid(0), fetch(77, &[(0, 0), (1, 0), (2, 0)]));
    c.sim.run_until(ms(4));
    let replies = c.heard(1);
    assert_eq!(replies.len(), 1, "one reply to one request");
    let (at, ReplicaRpc::FetchResponse { corr, parts }) = &replies[0] else {
        panic!("not a reply: {replies:?}");
    };
    assert_eq!(*corr, CorrelationId(77));
    let shape: Vec<(u32, ErrorCode, Vec<u64>)> = parts
        .iter()
        .map(|p| {
            let entries = p.runs.iter().flat_map(LogRun::entries);
            let offsets = entries.map(|(offset, _, _)| offset.value()).collect();
            (p.tp.partition, p.error, offsets)
        })
        .collect();
    // Partition 0 takes three of the request's four records, the partition
    // not led here is refused without disturbing the others, and partition
    // 2 gets the one record that is left.
    assert_eq!(
        shape,
        [
            (0, ErrorCode::None, vec![0, 1, 2]),
            (1, ErrorCode::NotLeader, vec![]),
            (2, ErrorCode::None, vec![0]),
        ]
    );
    // The request's CPU cost is charged once, over all four records.
    let cost = cfg.cpu_per_request + cfg.cpu_per_record * 4;
    assert_eq!(*at, ms(3) + TRANSIT + cost + TRANSIT);
    assert_eq!(c.broker(0).stats().replica_fetches, 1);
    // Caught up on partition 0, one record short on partition 2: the
    // follower's log ends are what the watermarks now stand on.
    c.say(pid(1), pid(0), fetch(78, &[(0, 3), (2, 1)]));
    c.sim.run_until(ms(5));
    let replies = c.heard(1);
    let (_, ReplicaRpc::FetchResponse { parts, .. }) = &replies[0] else {
        panic!("not a reply: {replies:?}");
    };
    let shape: Vec<(usize, bool)> = parts.iter().map(|p| (p.records(), p.seqs_ride)).collect();
    assert_eq!(shape, [(0, true), (1, false)]);
    let hw = |partition| {
        c.broker(0)
            .log(&tp(partition))
            .expect("led")
            .high_watermark()
    };
    assert_eq!((hw(0), hw(2)), (Offset(3), Offset(1)));
}

#[test]
fn a_truncating_part_truncates_its_partition_alone() {
    let mut c = Cluster::new(&BrokerConfig::default(), &[true, false]);
    c.sim.run_until(ms(1));
    c.leader_and_isr(0, 0, 1, 1);
    c.leader_and_isr(0, 1, 1, 1);
    c.sim.run_until(ms(2));
    let reply = |parts| ReplicaRpc::FetchResponse {
        corr: CorrelationId(0),
        parts,
    };
    // Under the old reign the follower took five records of partition 0
    // and two of partition 1.
    let old = vec![served(0, 0..5, 1), served(1, 0..2, 1)];
    c.say(pid(1), pid(0), reply(old));
    c.sim.run_until(ms(3));
    assert_eq!((c.log_end(0, 0), c.log_end(0, 1)), (5, 2));
    // The new leader's history of partition 0 parts from it at offset 3.
    let truncating = ReplicaFetchedPart {
        truncate_to: Some(Offset(3)),
        ..served(0, 3..6, 2)
    };
    c.say(pid(1), pid(0), reply(vec![truncating, served(1, 2..3, 1)]));
    c.sim.run_until(ms(4));
    let stats = c.broker(0).stats();
    assert_eq!(stats.records_truncated, 2);
    assert_eq!(stats.replica_records_redundant, 0);
    let log = c.broker(0).log(&tp(0)).expect("hosted");
    let epochs: Vec<u64> = (0..6)
        .map(|o| log.epoch_at(Offset(o)).expect("present").0)
        .collect();
    assert_eq!(epochs, [1, 1, 1, 2, 2, 2]);
    assert_eq!(c.log_end(0, 1), 3, "the other part was applied as it was");
}

#[test]
fn a_follower_far_behind_on_two_partitions_catches_up_without_refetching() {
    // Both brokers are real; broker 1 learns its role only after broker 0
    // has taken 3 000 records on each of two partitions.
    let cfg = BrokerConfig::default();
    let mut c = Cluster::new(&cfg, &[true, true]);
    c.sim.run_until(ms(1));
    for partition in [0, 1] {
        c.leader_and_isr(0, partition, 0, 1);
    }
    c.sim.run_until(ms(2));
    for partition in [0, 1] {
        for batch in 0..6 {
            c.produce(0, partition, batch * 500..(batch + 1) * 500);
        }
    }
    c.sim.run_until(ms(40));
    assert_eq!((c.log_end(0, 0), c.log_end(0, 1)), (3_000, 3_000));
    for partition in [0, 1] {
        c.leader_and_isr(1, partition, 0, 1);
    }
    // The tick at 50 ms starts the catch-up; the cap of 1 000 records is
    // the request's, so it takes six full replies (partition 0's three,
    // then partition 1's) and a seventh that is not full. That chain is
    // over well before the second tick.
    c.sim.run_until(ms(99));
    assert_eq!((c.log_end(1, 0), c.log_end(1, 1)), (3_000, 3_000));
    for partition in [0, 1] {
        let of = |b| c.broker(b).log_fingerprint(&tp(partition));
        assert_eq!(of(0), of(1), "partition {partition}");
    }
    assert_eq!(c.broker(0).stats().replica_fetches, 7);
    let follower = c.broker(1).stats();
    assert_eq!(follower.records_appended, 6_000);
    assert_eq!(follower.replica_records_redundant, 0);
}
