//! The park/wake contract of client fetches.
//!
//! Broker side, a real [`Broker`] driven by puppets standing in for its
//! controller, clients, peers and store: a fetch that finds nothing to read
//! is held on its partition and answered when a read from its offset has
//! something to say (an append, a high-watermark advance, a commit marker
//! for a read-committed reader, a flush on a durable broker), `NotLeader`
//! at once when the reign ends, `Fenced` from the first background tick of
//! a fenced broker, and empty from the first tick past `FETCH_MAX_WAIT`.
//!
//! Client side: a fetch that died with its leader ends in one `timeouts`
//! count; an empty answer that came back early is retried by the poll
//! timer, never at round-trip rate; a reply for a partition the client no
//! longer owns is dropped; and one poll timer is armed, never two.

mod common;

use std::collections::BTreeMap;

use common::{cluster, stats, stub, Answer, TRANSIT};
use s2g_broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
    ControllerConfig, CoordinationMode, TopicSpec, ZkController, BROKER_LOG_CORR_BASE,
    FETCH_MAX_WAIT,
};
use s2g_proto::{
    AckMode, BrokerId, ClientRpc, ControllerRpc, CorrelationId, ErrorCode, LeaderEpoch, Offset,
    ProducerId, Record, RecordBatch, ReplicaFetchPart, ReplicaRpc, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use s2g_store::{BlobClient, StoreRpc};

/// Tells a puppet to send `msg` to `to`.
#[derive(Debug)]
struct Say {
    to: ProcessId,
    msg: Box<dyn Message>,
}
impl Message for Say {}

/// A fetch response as a puppet heard it: when, the correlation id, how
/// many records, the next offset, the error.
type Fetched = (SimTime, u64, usize, Offset, ErrorCode);

#[derive(Default)]
struct Puppet {
    fetched: Vec<Fetched>,
    /// The correlation ids of the store puts heard, unanswered.
    puts: Vec<u64>,
}

impl Process for Puppet {
    fn name(&self) -> &str {
        "puppet"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let msg = match downcast::<Say>(msg) {
            Ok(say) => return ctx.send_boxed(say.to, say.msg),
            Err(other) => other,
        };
        let msg = match downcast::<StoreRpc>(msg) {
            Ok(rpc) => {
                if let StoreRpc::Put { corr, .. } = *rpc {
                    self.puts.push(corr);
                }
                return;
            }
            Err(other) => other,
        };
        // Heartbeats, produce acks and replica replies are of no interest.
        if let Ok(rpc) = downcast::<ClientRpc>(msg) {
            if let ClientRpc::FetchResponse {
                corr,
                batch,
                next_offset,
                error,
                ..
            } = *rpc
            {
                let heard = (ctx.now(), corr.0, batch.len(), next_offset, error);
                self.fetched.push(heard);
            }
        }
    }
}

/// Pid 0 is the puppet controller and client, pid 1 the real broker 0,
/// pids 2 and 3 puppets: brokers 1 and 2, and pid 3 the store as well.
const CTL: ProcessId = ProcessId(0);
const BROKER: ProcessId = ProcessId(1);
const STORE: ProcessId = ProcessId(3);
const ME: BrokerId = BrokerId(0);

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn tp() -> TopicPartition {
    TopicPartition::new("t", 0)
}

struct Rig {
    sim: Sim,
}

impl Rig {
    fn new(mode: CoordinationMode, durable: bool) -> Rig {
        let mut sim = Sim::new(1);
        assert_eq!(sim.spawn(Box::new(Puppet::default())), CTL);
        let peers: BTreeMap<BrokerId, ProcessId> =
            (0..3).map(|i| (BrokerId(i), ProcessId(i + 1))).collect();
        let mut broker = Broker::new(ME, BrokerConfig::default(), mode, vec![CTL], peers);
        if durable {
            let blobs = BlobClient::new(vec![STORE], BROKER_LOG_CORR_BASE, 0);
            broker.set_durability(blobs, false);
        }
        assert_eq!(sim.spawn(Box::new(broker)), BROKER);
        sim.spawn(Box::new(Puppet::default()));
        assert_eq!(sim.spawn(Box::new(Puppet::default())), STORE);
        Rig { sim }
    }

    /// Has puppet `from` send `msg` to the broker, now.
    fn say(&mut self, from: ProcessId, msg: impl Message) {
        let (to, msg) = (BROKER, Box::new(msg));
        self.sim.inject_at(self.sim.now(), from, Say { to, msg });
    }

    /// The controller names `leader` at `epoch` over an ISR of `isr`
    /// brokers, which are the replicas too.
    fn leader_and_isr(&mut self, leader: BrokerId, epoch: u64, isr: &[BrokerId]) {
        let rpc = ControllerRpc::LeaderAndIsr {
            tp: tp(),
            leader: Some(leader),
            isr: isr.to_vec(),
            epoch: LeaderEpoch(epoch),
            replicas: isr.to_vec(),
        };
        self.say(CTL, rpc);
    }

    fn fetch(&mut self, corr: u64, read_committed: bool) {
        let rpc = ClientRpc::FetchRequest {
            corr: CorrelationId(corr),
            tp: tp(),
            offset: Offset(0),
            max_records: 100,
            read_committed,
        };
        self.say(CTL, rpc);
    }

    /// One record from producer 7, under leader epoch 1.
    fn produce(&mut self, acks: AckMode, txn: Option<u64>) {
        let record = Record::keyless(vec![b'x'; 16], SimTime::ZERO).from_producer(ProducerId(7), 0);
        let rpc = ClientRpc::ProduceRequest {
            corr: CorrelationId(1_000),
            tp: tp(),
            batch: RecordBatch::from_records(vec![record]),
            acks,
            epoch: LeaderEpoch(1),
            txn,
        };
        self.say(CTL, rpc);
    }

    /// The fetch responses the client puppet has heard since last asked.
    fn fetched(&mut self) -> Vec<Fetched> {
        let puppet = self.sim.process_mut::<Puppet>(CTL).expect("a puppet");
        std::mem::take(&mut puppet.fetched)
    }

    fn broker(&self) -> &Broker {
        self.sim.process_ref::<Broker>(BROKER).expect("the broker")
    }

    /// `(fetches, fetches_parked, fetches_expired)`.
    fn waits(&self) -> (u64, u64, u64) {
        let s = self.broker().stats();
        (s.fetches, s.fetches_parked, s.fetches_expired)
    }

    /// A rig whose broker leads the partition alone from 1 ms and holds one
    /// fetch, corr 1, from 100 ms.
    fn holding_one(mode: CoordinationMode, durable: bool) -> Rig {
        let mut rig = Rig::new(mode, durable);
        rig.sim.run_until(ms(1));
        rig.leader_and_isr(ME, 1, &[ME]);
        rig.sim.run_until(ms(100));
        rig.fetch(1, false);
        rig.sim.run_until(ms(200));
        assert_eq!(rig.fetched(), [], "nothing to read, nothing said");
        assert_eq!(rig.waits(), (1, 1, 0));
        rig
    }

    /// Runs one more millisecond and returns the one fetch response heard
    /// in it.
    fn answered_within_a_ms(&mut self) -> (u64, usize, Offset, ErrorCode) {
        let from = self.sim.now();
        self.sim.run_until(from + SimDuration::from_millis(1));
        let fetched = self.fetched();
        assert_eq!(fetched.len(), 1, "one answer after {from}: {fetched:?}");
        let (_, corr, records, next, error) = fetched[0];
        (corr, records, next, error)
    }
}

#[test]
fn an_append_wakes_a_held_fetch() {
    let mut rig = Rig::holding_one(CoordinationMode::Zk, false);
    rig.produce(AckMode::Leader, None);
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 1, Offset(1), ErrorCode::None));
    assert_eq!(rig.waits(), (1, 1, 0), "woken, not expired");
}

#[test]
fn a_high_watermark_advance_wakes_a_held_fetch() {
    let mut rig = Rig::new(CoordinationMode::Zk, false);
    let isr = [ME, BrokerId(1), BrokerId(2)];
    rig.sim.run_until(ms(1));
    rig.leader_and_isr(ME, 1, &isr);
    rig.sim.run_until(ms(100));
    rig.fetch(1, false);
    rig.sim.run_until(ms(200));
    // Appended under acks=all: below the watermark until both followers
    // hold it.
    rig.produce(AckMode::All, None);
    for follower in [1u32, 2] {
        rig.sim.run_until(ms(200 + 50 * u64::from(follower)));
        assert_eq!(rig.fetched(), [], "follower {follower} has yet to fetch");
        let part = ReplicaFetchPart {
            tp: tp(),
            log_end: Offset(1),
            epoch: LeaderEpoch(1),
        };
        let rpc = ReplicaRpc::Fetch {
            corr: CorrelationId(u64::from(follower)),
            from: BrokerId(follower),
            parts: vec![part],
        };
        rig.say(ProcessId(follower + 1), rpc);
    }
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 1, Offset(1), ErrorCode::None));
}

#[test]
fn a_commit_marker_wakes_a_read_committed_fetch_and_the_staged_append_does_not() {
    let mut rig = Rig::new(CoordinationMode::Zk, false);
    rig.sim.run_until(ms(1));
    rig.leader_and_isr(ME, 1, &[ME]);
    rig.sim.run_until(ms(100));
    rig.fetch(1, true);
    rig.fetch(2, false);
    rig.sim.run_until(ms(200));
    rig.produce(AckMode::Leader, Some(1));
    let answer = rig.answered_within_a_ms();
    assert_eq!(
        answer,
        (2, 1, Offset(1), ErrorCode::None),
        "the staged record wakes the read-uncommitted reader alone"
    );
    rig.sim.run_until(ms(300));
    assert_eq!(rig.fetched(), []);
    let rpc = ClientRpc::EndTxn {
        corr: CorrelationId(1_001),
        producer: ProducerId(7),
        txn: 1,
        commit: true,
    };
    rig.say(CTL, rpc);
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 1, Offset(1), ErrorCode::None));
    assert_eq!(rig.waits(), (2, 2, 0));
}

/// A consumer never reads what a crash can still lose: on a broker with a
/// durable log a record is readable once the flush covering it completed.
/// Here the store sits on the broker's puts: the produce is appended and
/// under the watermark, and its flush in flight.
#[test]
fn a_flush_completing_wakes_a_fetch_held_below_the_durable_end() {
    let mut rig = Rig::new(CoordinationMode::Zk, true);
    rig.sim.run_until(ms(1));
    rig.leader_and_isr(ME, 1, &[ME]);
    rig.sim.run_until(ms(100));
    rig.produce(AckMode::Leader, None);
    rig.sim.run_until(ms(150));
    let log = rig.broker().log(&tp()).expect("hosted");
    assert_eq!(
        (log.log_end(), log.high_watermark()),
        (Offset(1), Offset(1))
    );
    rig.fetch(1, false);
    rig.sim.run_until(ms(200));
    assert_eq!(rig.fetched(), [], "appended, not yet durable: not readable");
    assert_eq!(rig.waits(), (1, 1, 0));
    let store = rig.sim.process_mut::<Puppet>(STORE).expect("the store");
    let puts = std::mem::take(&mut store.puts);
    assert_eq!(puts.len(), 2, "one segment and the meta blob");
    for corr in puts {
        rig.say(STORE, StoreRpc::PutAck { corr });
    }
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 1, Offset(1), ErrorCode::None));
}

#[test]
fn the_end_of_a_reign_answers_held_fetches_not_leader_at_once() {
    let other = BrokerId(1);
    // A step-down to follower, and the loss of every role.
    for replicas in [&[ME, other][..], &[other]] {
        let mut rig = Rig::holding_one(CoordinationMode::Zk, false);
        rig.leader_and_isr(other, 2, replicas);
        let answer = rig.answered_within_a_ms();
        assert_eq!(answer, (1, 0, Offset(0), ErrorCode::NotLeader));
        assert_eq!(rig.broker().stats().rejected_not_leader, 1);
        assert_eq!(rig.waits(), (1, 1, 0));
    }
}

#[test]
fn a_held_fetch_is_answered_empty_by_the_first_background_tick_past_its_deadline() {
    // Held from 100 ms, due from 600 ms; the broker's background tick runs
    // every 100 ms from its start at 0, and the fetch arrived a transit
    // after the 100 ms one.
    let mut rig = Rig::holding_one(CoordinationMode::Zk, false);
    assert_eq!(FETCH_MAX_WAIT, SimDuration::from_millis(500));
    rig.sim.run_until(ms(700));
    assert_eq!(rig.fetched(), [], "due, but no tick since");
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 0, Offset(0), ErrorCode::None));
    assert_eq!(rig.waits(), (1, 1, 1), "parked, and expired");
}

#[test]
fn a_broker_that_finds_itself_fenced_refuses_its_held_fetches() {
    // A KRaft broker whose heartbeats go unanswered is fenced once its 6 s
    // session lapsed: the fetch arrives before that and is held.
    let mut rig = Rig::new(CoordinationMode::Kraft, false);
    rig.sim.run_until(ms(1));
    rig.leader_and_isr(ME, 1, &[ME]);
    rig.sim.run_until(ms(5_750));
    rig.fetch(1, false);
    rig.sim.run_until(ms(6_100));
    assert_eq!(rig.fetched(), []);
    assert_eq!(rig.waits(), (1, 1, 0));
    // The tick at 6.1 s is the first to find the session lapsed; the
    // fetch's own deadline is 150 ms further on.
    let answer = rig.answered_within_a_ms();
    assert_eq!(answer, (1, 0, Offset(0), ErrorCode::Fenced));
    assert_eq!(rig.broker().stats().rejected_fenced, 1);
    assert_eq!(rig.waits(), (1, 1, 0));
}

// ------------------------------------------------------------ client side

/// Controller (pid 0), one real broker (pid 1) and its topic `t` of
/// `partitions` partitions.
fn real_cluster(partitions: u32) -> Sim {
    let mut sim = Sim::new(1);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(ME, BROKER)].into();
    let topics = [TopicSpec::new("t").partitions(partitions)];
    let controller = ZkController::new(ControllerConfig::default(), brokers.clone(), &topics);
    assert_eq!(sim.spawn(Box::new(controller)), CTL);
    let (cfg, mode) = (BrokerConfig::default(), CoordinationMode::Zk);
    let broker = Broker::new(ME, cfg, mode, vec![CTL], brokers);
    assert_eq!(sim.spawn(Box::new(broker)), BROKER);
    sim
}

fn spawn_consumer(sim: &mut Sim, idx: u32, cfg: ConsumerConfig) -> ProcessId {
    let brokers: BTreeMap<BrokerId, ProcessId> = [(ME, BROKER)].into();
    let client = ConsumerClient::new(cfg, BROKER, brokers, vec!["t".into()]);
    let sink = Box::new(CollectingSink::default());
    let start = sim.now();
    sim.spawn_at(start, Box::new(ConsumerProcess::new(idx, client, sink)))
}

fn consumer(sim: &Sim, pid: ProcessId) -> &ConsumerProcess {
    sim.process_ref::<ConsumerProcess>(pid).expect("a consumer")
}

#[test]
fn a_fetch_held_by_a_leader_that_crashes_is_one_timeout() {
    let mut sim = real_cluster(1);
    let pid = spawn_consumer(&mut sim, 0, ConsumerConfig::default());
    // The first poll (100 ms) sends a fetch, held and answered empty by the
    // tick at 700 ms; the one that follows at once dies with the broker.
    sim.run_until(ms(900));
    assert_eq!(stats(&sim, pid).fetches, 2);
    sim.kill(BROKER).expect("alive");
    sim.run_until(ms(2_700));
    assert_eq!(stats(&sim, pid).timeouts, 0, "two seconds are not up");
    sim.run_until(ms(2_701));
    let s = stats(&sim, pid);
    assert_eq!((s.timeouts, s.fetches), (1, 3), "given up on, asked again");
    sim.run_until(ms(4_700));
    assert_eq!(stats(&sim, pid).timeouts, 1, "and counted once");
}

#[test]
fn an_early_empty_answer_is_retried_by_the_poll_timer_not_at_round_trip_rate() {
    // A broker that does not hold fetches answers every one of them empty
    // at once: a client that fetched again on every such answer would spin
    // at round-trip rate (20 µs here).
    let at_once = |_, now| Answer::At(now, 0);
    let (mut sim, pid) = cluster(1, SimDuration::from_millis(100), at_once);
    sim.run_until(SimTime::from_secs(2));
    // Each fetch goes out one poll interval after the answer to the one
    // before it came in.
    let period = SimDuration::from_millis(100) + TRANSIT * 2;
    let arrived: Vec<SimTime> = (0..19).map(|n| ms(100) + TRANSIT + period * n).collect();
    assert_eq!(stub(&sim).fetches, arrived);
    assert_eq!(stats(&sim, pid).fetches, 19);
}

#[test]
fn a_reply_for_a_partition_rebalanced_away_is_dropped() {
    let mut sim = real_cluster(2);
    let member = |id: &str| ConsumerConfig {
        group: Some("g".into()),
        group_membership: true,
        group_member_id: id.into(),
        ..ConsumerConfig::default()
    };
    let a = spawn_consumer(&mut sim, 0, member("a"));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(consumer(&sim, a).client().group_assignment().len(), 2);
    // A second member takes one partition over; `a` hears of it by its
    // next heartbeat, rejoins, and is left with the other, a fetch of the
    // lost one still held by the broker.
    let b = spawn_consumer(&mut sim, 1, member("b"));
    let owned = |sim: &Sim, pid| consumer(sim, pid).client().group_assignment();
    while owned(&sim, a).len() != 1 || owned(&sim, b).len() != 1 {
        assert!(sim.now() < SimTime::from_secs(5), "no rebalance");
        sim.run_until(sim.now() + SimDuration::from_millis(1));
    }
    let lost = owned(&sim, b)[0].clone();
    assert_ne!(owned(&sim, a)[0], lost);
    // A record for the lost partition answers both members' held fetches.
    let epoch = sim.process_ref::<Broker>(BROKER).expect("the broker");
    let epoch = epoch.leader_epoch(&lost).expect("leads");
    let produce = ClientRpc::ProduceRequest {
        corr: CorrelationId(1),
        tp: lost.clone(),
        batch: RecordBatch::from_records(vec![Record::keyless(vec![b'x'], sim.now())]),
        acks: AckMode::Leader,
        epoch,
        txn: None,
    };
    sim.inject_at(sim.now(), BROKER, produce);
    sim.run_until(sim.now() + SimDuration::from_millis(50));
    let delivered = |pid| {
        let sink = consumer(&sim, pid).sink_as::<CollectingSink>();
        sink.expect("collecting").deliveries.len()
    };
    assert_eq!(
        (delivered(a), delivered(b)),
        (0, 1),
        "the owner's to deliver"
    );
    let s = stats(&sim, a);
    assert_eq!((s.stale_replies, s.records), (1, 0), "consumed and dropped");
    assert_eq!(stats(&sim, b).stale_replies, 0);
}

/// A respawn reuses the process id and a fresh client numbers its requests
/// from the start again, so the answer to a fetch the crashed incarnation
/// left held (here its second, from offset 20) would pass for the answer to
/// the respawn's own second fetch (from offset 10) and move it past records
/// it never saw, did the incarnation not set the two apart.
#[test]
fn a_reply_to_the_incarnation_before_a_respawn_completes_nothing() {
    let script = |nth, now| match nth {
        1 => Answer::At(now, 20),
        2 => Answer::At(ms(900), 3),
        3 => Answer::At(now, 10),
        4 => Answer::At(ms(2_000), 3),
        _ => Answer::At(now + FETCH_MAX_WAIT, 0),
    };
    let poll_interval = SimDuration::from_millis(100);
    let (mut sim, pid) = cluster(1, poll_interval, script);
    let read = |sim: &Sim| {
        let client = consumer(sim, pid).client();
        let s = client.stats();
        let position = client.position(&TopicPartition::new("t", 0));
        (s.records, position, s.stale_replies)
    };
    sim.run_until(ms(300));
    assert_eq!(read(&sim), (20, Offset(20), 0));
    assert_eq!(stub(&sim).held, 1, "its next fetch is held");
    sim.kill(pid).expect("alive");
    sim.run_until(ms(400));
    // Without a group the respawn starts over, with a fresh sink.
    sim.respawn(pid, Box::new(common::consumer(poll_interval, 1)));
    sim.run_until(ms(800));
    assert_eq!(read(&sim), (10, Offset(10), 0));
    assert_eq!(stub(&sim).held, 2, "its second fetch is held as well");
    sim.run_until(ms(1_000));
    assert_eq!(read(&sim), (10, Offset(10), 1), "counted, and dropped");
    sim.run_until(ms(2_100));
    assert_eq!(read(&sim), (13, Offset(13), 1), "every record, once");
}

#[test]
fn one_poll_timer_is_armed_whatever_the_answers() {
    // A second of each: fetches held and answered empty, answered empty at
    // once, refused, and lost (given up on two seconds later), then held
    // again.
    let script = |_, now: SimTime| match now.as_nanos() / 1_000_000_000 {
        0 | 6.. => Answer::At(now + FETCH_MAX_WAIT, 0),
        1 => Answer::At(now, 0),
        2 => Answer::Error(ErrorCode::NotLeader),
        _ => Answer::Never,
    };
    let (mut sim, pid) = cluster(3, SimDuration::from_millis(20), script);
    // A message is in flight for 10 µs and polls are 20 ms apart, so every
    // millisecond is within a few steps of an instant with none in flight.
    // What is live in the queue then is the stub's own timers, the consumer
    // process's background tick, and the client's poll timer: always one.
    let mut at = ms(1);
    while at < SimTime::from_secs(8) {
        sim.run_until(at);
        let quiet = (0..20).any(|_| {
            let timers = sim.queue_diag().live_events - stub(&sim).held;
            if timers != 2 {
                sim.run_until(sim.now() + SimDuration::from_micros(5));
            }
            timers == 2
        });
        assert!(quiet, "around {at}: {:?}", sim.queue_diag());
        at += SimDuration::from_millis(1);
    }
    let s = stats(&sim, pid);
    assert!(s.timeouts >= 3 && s.fetches > 100, "{s:?}");
}
