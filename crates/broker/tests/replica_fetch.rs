//! The replica fetch protocol, request by request: one fetch outstanding per
//! leader with a part per followed partition, held at the leader until
//! there is something to send, parts served and rejected on their own under
//! one request-wide record cap, and replies reaching only the incarnation
//! that asked.
//!
//! A real [`Broker`] is driven by puppets standing in for its controller,
//! its clients and its peer brokers: a puppet sends what the test tells it
//! to (so the message has a sender the broker can answer) and keeps what it
//! hears.

use std::collections::BTreeMap;

use s2g_broker::{Broker, BrokerConfig, CoordinationMode, FETCH_MAX_WAIT};
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
        Cluster::in_mode(CoordinationMode::Zk, cfg, real)
    }

    fn in_mode(mode: CoordinationMode, cfg: &BrokerConfig, real: &[bool]) -> Cluster {
        let mut sim = Sim::new(1);
        assert_eq!(sim.spawn(Box::new(Puppet::default())), CTL);
        let peers: BTreeMap<BrokerId, ProcessId> = (0..real.len() as u32)
            .map(|i| (BrokerId(i), pid(i)))
            .collect();
        for (i, real) in real.iter().enumerate() {
            let id = BrokerId(i as u32);
            let spawned = if *real {
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

/// A fetch from broker 1 with a part `(partition, log end)` per entry of
/// `ends`, all at epoch 1.
fn fetch(corr: u64, ends: &[(u32, u64)]) -> ReplicaRpc {
    ReplicaRpc::Fetch {
        corr: CorrelationId(corr),
        from: BrokerId(1),
        parts: (ends.iter())
            .map(|&(partition, end)| ReplicaFetchPart {
                tp: tp(partition),
                log_end: Offset(end),
                epoch: LeaderEpoch(1),
            })
            .collect(),
    }
}

/// A reply as a puppet heard it: when, to which request, and the
/// `(records, error)` of each part.
type Reply = (SimTime, u64, Vec<(usize, ErrorCode)>);

/// The replies among what a puppet heard.
fn replies(heard: Vec<(SimTime, ReplicaRpc)>) -> Vec<Reply> {
    let reply = |(at, rpc)| match rpc {
        ReplicaRpc::FetchResponse { corr, parts } => {
            let parts = parts.iter().map(|p| (p.records(), p.error)).collect();
            Some((at, corr.0, parts))
        }
        ReplicaRpc::Fetch { .. } => None,
    };
    heard.into_iter().filter_map(reply).collect()
}

/// Broker 0 leads partition 0 (and 1 when `two`), and broker 1's first
/// fetch at the log end has been answered (it learnt the transaction state
/// from it); a second, `corr` 2, is on its way and arrives at 2 ms.
fn held_at_log_end(cfg: &BrokerConfig, two: bool) -> Cluster {
    let mut c = Cluster::new(cfg, &[true, false]);
    c.sim.run_until(ms(1));
    let led: &[u32] = if two { &[0, 1] } else { &[0] };
    for partition in led {
        c.leader_and_isr(0, *partition, 0, 1);
    }
    c.sim.run_until(ms(1) + TRANSIT * 3);
    let ends: Vec<(u32, u64)> = led.iter().map(|p| (*p, 0)).collect();
    c.say(pid(1), pid(0), fetch(1, &ends));
    c.sim.run_until(ms(2) - TRANSIT);
    assert_eq!(replies(c.heard(1)).len(), 1, "the first fetch is news");
    c.say(pid(1), pid(0), fetch(2, &ends));
    c.sim.run_until(ms(2));
    c
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
fn a_new_leader_is_asked_at_once_and_a_reply_sends_the_next_fetch_with_every_part() {
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
    // Each leader is asked at once: the first role names its partition
    // alone, and the second is added to that outstanding fetch by a fetch
    // naming it alone. Nobody answers, and nobody is asked again.
    c.sim.run_until(ms(900));
    let mut corrs = Vec::new();
    for (leader, first, second) in [(1, 0, 2), (2, 1, 3)] {
        let fetches = c.heard(leader);
        let asks: Vec<(SimTime, Vec<(u32, u64)>)> = fetches
            .iter()
            .map(|(at, rpc)| (*at, asked(rpc).1))
            .collect();
        let at = ms(1) + TRANSIT * 2;
        assert_eq!(asks, [(at, vec![(first, 0)]), (at, vec![(second, 0)])]);
        corrs.extend(fetches.iter().map(|(_, rpc)| asked(rpc).0));
    }
    // Unanswered past its give-up age (two waits and a 100 ms background
    // interval, 1.1 s), a fetch is given up at the next background tick
    // (1.2 s) and asked again, whole, after the 10 ms backoff.
    assert_eq!(cfg.replica_fetch_give_up(), SimDuration::from_millis(1_100));
    c.sim.run_until(ms(1_300));
    for (leader, follows) in [(1, [(0, 0), (2, 0)]), (2, [(1, 0), (3, 0)])] {
        let fetches = c.heard(leader);
        assert_eq!(fetches.len(), 1, "leader {leader}");
        let (corr, parts) = asked(&fetches[0].1);
        assert_eq!(fetches[0].0, ms(1_210) + TRANSIT);
        assert_eq!(parts, follows);
        assert_eq!(fetches[0].1.wire_size(), RPC_OVERHEAD + 2 * (1 + 24));
        corrs.push(corr);
        // Its reply, however empty, sends the next fetch at once.
        let reply = ReplicaRpc::FetchResponse {
            corr,
            parts: follows.iter().map(|(p, _)| served(*p, 0..0, 1)).collect(),
        };
        c.say(pid(leader), pid(0), reply);
    }
    c.sim.run_until(ms(1_301));
    for leader in [1, 2] {
        let next = c.heard(leader);
        assert_eq!(next.len(), 1, "leader {leader}");
        corrs.push(asked(&next[0].1).0);
    }
    let n = corrs.len();
    corrs.sort_unstable_by_key(|c| c.0);
    corrs.dedup();
    assert_eq!(
        corrs.len(),
        n,
        "every request has a correlation id of its own"
    );
}

#[test]
fn a_superseded_reply_is_applied_but_only_the_latest_sends_the_next_fetch() {
    let cfg = BrokerConfig {
        replica_fetch_interval: SimDuration::from_millis(10),
        ..BrokerConfig::default()
    };
    let mut c = Cluster::new(&cfg, &[true, false]);
    c.sim.run_until(ms(1));
    c.leader_and_isr(0, 0, 1, 1);
    c.sim.run_until(ms(2));
    c.leader_and_isr(0, 1, 1, 1);
    // The second role adds partition 1 to the fetch outstanding at broker
    // 1: a fetch naming it alone, which supersedes the first.
    c.sim.run_until(ms(3));
    let requests = c.heard(1);
    let [(first, p0), (second, p1)] = [asked(&requests[0].1), asked(&requests[1].1)];
    assert_eq!((p0, p1), (vec![(0, 0)], vec![(1, 0)]));
    let reply = |corr, parts| ReplicaRpc::FetchResponse { corr, parts };
    // A reply to the superseded request: its records are kept, and that
    // is all.
    c.say(pid(1), pid(0), reply(first, vec![served(0, 0..4, 1)]));
    c.sim.run_until(ms(4));
    assert_eq!(c.log_end(0, 0), 4);
    assert!(c.heard(1).is_empty(), "a superseded reply sends nothing");
    // The same records in reply to the latest request: nothing new to
    // append, but this one was awaited, and the next fetch, naming every
    // partition, goes out at once, full or not.
    c.say(pid(1), pid(0), reply(second, vec![served(0, 0..4, 1)]));
    c.sim.run_until(ms(5));
    let stats = c.broker(0).stats();
    assert_eq!(
        (stats.records_appended, stats.replica_records_redundant),
        (4, 4)
    );
    let next = c.heard(1);
    assert_eq!(next.len(), 1);
    let (third, parts) = asked(&next[0].1);
    assert_eq!(parts, [(0, 4), (1, 0)]);
    assert!(next[0].0 < ms(5), "at once");
    // A refused part holds the next fetch back for the backoff.
    let refused = ReplicaFetchedPart::rejected(tp(1), ErrorCode::NotLeader);
    c.say(
        pid(1),
        pid(0),
        reply(third, vec![served(0, 4..6, 1), refused]),
    );
    c.sim.run_until(ms(14));
    assert_eq!(c.log_end(0, 0), 6, "the other part is applied");
    assert!(c.heard(1).is_empty(), "nothing before the backoff");
    c.sim.run_until(ms(16));
    let again = c.heard(1);
    assert_eq!(asked(&again[0].1).1, [(0, 6), (1, 0)]);
    assert_eq!(
        again[0].0,
        ms(5) + TRANSIT + cfg.replica_fetch_interval + TRANSIT
    );
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
    // Each role starts the catch-up at once: the first names partition 0,
    // the second adds partition 1 by naming it alone. The cap of 1 000
    // records is the request's, so the six replies are full ones, and the
    // seventh fetch, at both log ends, is held: nothing is fetched twice.
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

#[test]
fn an_empty_fetch_is_held_until_the_next_append_and_then_gets_its_records() {
    let cfg = BrokerConfig::default();
    let mut c = held_at_log_end(&cfg, false);
    c.sim.run_until(ms(50));
    assert!(c.heard(1).is_empty(), "nothing to send: held");
    c.produce(0, 0, 0..3);
    c.sim.run_until(ms(51));
    // The append answers it at once, with that append's records.
    let cost = cfg.cpu_per_request + cfg.cpu_per_record * 3;
    let at = ms(50) + TRANSIT + cost + TRANSIT;
    assert_eq!(replies(c.heard(1)), [(at, 2, vec![(3, ErrorCode::None)])]);
    assert_eq!(c.broker(0).stats().replica_fetches, 2);
}

#[test]
fn an_idle_fetch_is_answered_empty_at_the_first_background_tick_past_its_wait() {
    let cfg = BrokerConfig::default();
    let mut c = held_at_log_end(&cfg, false);
    let arrived = ms(2);
    c.sim.run_until(arrived + FETCH_MAX_WAIT);
    assert!(c.heard(1).is_empty(), "held for the whole wait");
    let latest = arrived + FETCH_MAX_WAIT + cfg.background_interval + cfg.cpu_per_request + TRANSIT;
    c.sim.run_until(latest);
    let got = replies(c.heard(1));
    assert_eq!(got.len(), 1);
    let (at, corr, parts) = &got[0];
    assert_eq!((*corr, parts.as_slice()), (2, &[(0, ErrorCode::None)][..]));
    assert!(
        *at >= arrived + FETCH_MAX_WAIT && *at <= latest,
        "answered at {at}"
    );
}

#[test]
fn a_fetch_a_leader_may_still_hold_is_not_given_up_under_a_long_background_interval() {
    let cfg = BrokerConfig {
        background_interval: SimDuration::from_millis(800),
        replica_fetch_interval: SimDuration::from_millis(10),
        ..BrokerConfig::default()
    };
    let mut c = Cluster::new(&cfg, &[true, false]);
    // Broker 0 follows partition 0 from broker 1 and asks it at 500 ms.
    c.sim.run_until(ms(500));
    c.leader_and_isr(0, 0, 1, 1);
    let sent = ms(500) + TRANSIT;
    // A leader with the same background interval may answer as late as one
    // wait and one 800 ms tick later. Broker 0's tick at 1.6 s finds the
    // fetch 1.1 s old: past two waits, but not past its give-up age.
    let latest = sent + FETCH_MAX_WAIT + cfg.background_interval - SimDuration::from_millis(1);
    c.sim.run_until(latest);
    let fetches = c.heard(1);
    assert_eq!(fetches.len(), 1, "asked again while the leader may hold it");
    let (corr, _) = asked(&fetches[0].1);
    let reply = ReplicaRpc::FetchResponse {
        corr,
        parts: vec![served(0, 0..0, 1)],
    };
    c.say(pid(1), pid(0), reply);
    // The reply sends the next fetch at once, and nothing else follows.
    c.sim.run_until(ms(2_500));
    let next = c.heard(1);
    let at = latest + TRANSIT * 2;
    assert_eq!(next.iter().map(|(t, _)| *t).collect::<Vec<_>>(), [at]);
}

#[test]
fn the_end_of_a_reign_answers_held_fetches_not_leader_at_once() {
    let cfg = BrokerConfig::default();
    let mut c = held_at_log_end(&cfg, false);
    c.sim.run_until(ms(10));
    // Broker 1 is made leader: broker 0 steps down, and the fetch it holds
    // is answered at once with the refusal.
    c.leader_and_isr(0, 0, 1, 2);
    c.sim.run_until(ms(11));
    let at = ms(10) + TRANSIT + cfg.cpu_per_request + TRANSIT;
    assert_eq!(
        replies(c.heard(1)),
        [(at, 2, vec![(0, ErrorCode::NotLeader)])]
    );
}

#[test]
fn a_newer_fetch_replaces_the_held_one_and_takes_over_the_parts_it_does_not_name() {
    let cfg = BrokerConfig::default();
    let mut c = held_at_log_end(&cfg, true);
    // A second fetch for both partitions replaces the first; a third,
    // naming partition 1 alone, replaces that and keeps its partition 0.
    c.say(pid(1), pid(0), fetch(3, &[(0, 0), (1, 0)]));
    c.sim.run_until(ms(3));
    c.say(pid(1), pid(0), fetch(4, &[(1, 0)]));
    c.sim.run_until(ms(10));
    assert!(c.heard(1).is_empty(), "replaced fetches are not answered");
    c.produce(0, 0, 0..2);
    c.sim.run_until(ms(11));
    let got = replies(c.heard(1));
    let parts = vec![(2, ErrorCode::None), (0, ErrorCode::None)];
    assert_eq!(
        got.iter()
            .map(|(_, corr, p)| (*corr, p.clone()))
            .collect::<Vec<_>>(),
        [(4, parts)]
    );
    assert_eq!(c.broker(0).stats().replica_fetches, 4);
}

#[test]
fn a_follower_held_at_the_log_end_past_replica_lag_max_stays_in_the_isr() {
    let cfg = BrokerConfig {
        replica_lag_max: SimDuration::from_millis(100),
        isr_check_interval: SimDuration::from_millis(50),
        ..BrokerConfig::default()
    };
    let mut c = held_at_log_end(&cfg, false);
    let isr = |c: &Cluster| c.broker(0).isr(&tp(0)).expect("leads");
    // Silent for four lag bounds, but its fetch is held at the log end.
    c.sim.run_until(ms(450));
    assert_eq!(isr(&c), [BrokerId(0), BrokerId(1)]);
    assert_eq!(c.broker(0).stats().isr_shrinks, 0);
    // Answered at its deadline (600 ms) and not asked again, the follower
    // is silent, and out of the ISR past the bound.
    c.sim.run_until(ms(800));
    assert_eq!(isr(&c), [BrokerId(0)]);
    assert_eq!(c.broker(0).stats().isr_shrinks, 1);
}

#[test]
fn a_reply_to_an_earlier_incarnation_is_dropped_and_counted() {
    let mut c = Cluster::new(&BrokerConfig::default(), &[true, false]);
    // Broker 0 is its process's first respawn.
    c.sim.kill(pid(0)).expect("real");
    let peers = (0..2).map(|i| (BrokerId(i), pid(i))).collect();
    let (cfg, mode) = (BrokerConfig::default(), CoordinationMode::Zk);
    let broker = Broker::new(BrokerId(0), cfg, mode, vec![CTL], peers);
    c.sim.respawn(pid(0), Box::new(broker));
    c.sim.run_until(ms(1));
    c.leader_and_isr(0, 0, 1, 1);
    c.sim.run_until(ms(2));
    let fetches = c.heard(1);
    let reply = |corr, part| ReplicaRpc::FetchResponse {
        corr,
        parts: vec![part],
    };
    // What the crashed incarnation's first fetch was owed, late: records
    // and a truncation this incarnation never asked for.
    let stale = ReplicaFetchedPart {
        truncate_to: Some(Offset(0)),
        ..served(0, 0..3, 1)
    };
    c.say(pid(1), pid(0), reply(CorrelationId(0), stale));
    c.sim.run_until(ms(3));
    assert_eq!(c.log_end(0, 0), 0, "a stale reply is not applied");
    assert_eq!(c.broker(0).stats().stale_replica_replies, 1);
    assert!(c.heard(1).is_empty(), "nor does it send a fetch");
    // Its own fetch's reply is, and sends the next.
    let (corr, _) = asked(&fetches[0].1);
    assert_eq!(corr, CorrelationId(1 << 32));
    c.say(pid(1), pid(0), reply(corr, served(0, 0..3, 1)));
    c.sim.run_until(ms(4));
    assert_eq!(c.log_end(0, 0), 3);
    assert_eq!(asked(&c.heard(1)[0].1).0, CorrelationId((1 << 32) + 1));
}

#[test]
fn a_respawned_follower_does_not_take_over_what_its_last_incarnation_left_held() {
    let cfg = BrokerConfig::default();
    let mut c = held_at_log_end(&cfg, true);
    // Broker 1 comes back as its process's first respawn and names
    // partition 1 alone: the fetch its crashed incarnation left held is
    // dropped whole, partition 0 with it, since what that incarnation
    // claimed of its log says nothing of this one's.
    c.say(pid(1), pid(0), fetch((1 << 32) + 1, &[(1, 0)]));
    c.sim.run_until(ms(10));
    c.produce(0, 0, 0..2);
    c.sim.run_until(ms(20));
    assert!(c.heard(1).is_empty(), "no part for partition 0 is held");
    c.produce(0, 1, 0..2);
    c.sim.run_until(ms(21));
    let got = replies(c.heard(1));
    let shape: Vec<(u64, Vec<(usize, ErrorCode)>)> = got
        .into_iter()
        .map(|(_, corr, parts)| (corr, parts))
        .collect();
    assert_eq!(shape, [((1 << 32) + 1, vec![(2, ErrorCode::None)])]);
}

#[test]
fn a_leader_that_finds_itself_fenced_refuses_each_held_fetch_once_at_its_next_tick() {
    // A KRaft broker whose heartbeats go unanswered is fenced once its 6 s
    // session lapsed. Broker 0 leads partitions 0 and 1 over brokers 1 and
    // 2, and holds a fetch of both from each, sent at 5.75 s.
    let cfg = BrokerConfig::default();
    let mut c = Cluster::in_mode(CoordinationMode::Kraft, &cfg, &[true, false, false]);
    c.sim.run_until(ms(1));
    let all = vec![BrokerId(0), BrokerId(1), BrokerId(2)];
    for partition in [0, 1] {
        let rpc = ControllerRpc::LeaderAndIsr {
            tp: tp(partition),
            leader: Some(BrokerId(0)),
            isr: all.clone(),
            epoch: LeaderEpoch(1),
            replicas: all.clone(),
        };
        c.say(CTL, pid(0), rpc);
    }
    let fetch_from = |follower: u32, corr: u64| ReplicaRpc::Fetch {
        corr: CorrelationId(corr),
        from: BrokerId(follower),
        parts: (0..2)
            .map(|partition| ReplicaFetchPart {
                tp: tp(partition),
                log_end: Offset(0),
                epoch: LeaderEpoch(1),
            })
            .collect(),
    };
    // The first fetch of each is news (the transaction state); the
    // second, at the log end, is held.
    c.sim.run_until(ms(2));
    for (follower, corr) in [(1, 1), (2, 1)] {
        c.say(pid(follower), pid(0), fetch_from(follower, corr));
    }
    c.sim.run_until(ms(5_750));
    for follower in [1, 2] {
        assert_eq!(replies(c.heard(follower)).len(), 1, "the first is news");
        c.say(pid(follower), pid(0), fetch_from(follower, 2));
    }
    c.sim.run_until(ms(6_100));
    assert!(c.heard(1).is_empty() && c.heard(2).is_empty(), "both held");
    // The tick at 6.1 s is the first to find the session lapsed; the
    // fetches' own deadline is 150 ms further on. Each is refused once,
    // every part `Fenced`, and nothing follows.
    c.sim.run_until(ms(7_000));
    let fenced = vec![(0, ErrorCode::Fenced), (0, ErrorCode::Fenced)];
    for follower in [1, 2] {
        let got = replies(c.heard(follower));
        assert_eq!(got.len(), 1, "one answer to follower {follower}: {got:?}");
        let (at, corr, parts) = &got[0];
        assert_eq!((*corr, parts), (2, &fenced));
        assert!(*at > ms(6_100) && *at < ms(6_250), "answered at {at}");
    }
}
