//! A consumer fetch's timeout is noticed by the poll the consumer already
//! runs; nothing is armed per fetch.
//!
//! * A fetch whose reply never comes is counted once in `stats.timeouts`,
//!   by the first poll at or after `sent + 2 s`, and that poll fetches the
//!   partition again; the reply, arriving later still, is ignored.
//! * Answered fetches leave nothing behind in the event queue. (When every
//!   fetch armed a 2 s timer and cancelled it a millisecond later, each
//!   left a tombstone that sat in the queue's overflow heap for 2 s and was
//!   then popped as an event: 280 000 of the 2.5 M events of one benchmark
//!   run, `docs/performance.md`.)

use std::collections::BTreeMap;

use s2g_broker::{CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess, ConsumerStats};
use s2g_proto::{
    BrokerId, ClientRpc, ErrorCode, LeaderEpoch, Offset, PartitionMetadata, Record, RecordBatch,
    TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

const TOPIC: &str = "t";
const BROKER: ProcessId = ProcessId(0);

/// Leads the topic's one, empty partition and answers every fetch at once
/// with nothing, except the `withhold`-th (from 1): that one is answered at
/// `late_at`, with a record. Keeps when each fetch arrived.
struct StubBroker {
    withhold: usize,
    late_at: SimTime,
    late: Option<(ProcessId, ClientRpc)>,
    fetches: Vec<SimTime>,
}

impl Process for StubBroker {
    fn name(&self) -> &str {
        "stub-broker"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let tp = TopicPartition::new(TOPIC, 0);
        match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
            ClientRpc::MetadataRequest { corr } => {
                let partitions = vec![PartitionMetadata {
                    tp,
                    leader: Some(BrokerId(0)),
                    epoch: LeaderEpoch(0),
                    isr: vec![BrokerId(0)],
                    replicas: vec![BrokerId(0)],
                }];
                ctx.send(from, ClientRpc::MetadataResponse { corr, partitions });
            }
            ClientRpc::FetchRequest { corr, offset, .. } => {
                self.fetches.push(ctx.now());
                let reply = |batch: RecordBatch| ClientRpc::FetchResponse {
                    corr,
                    tp: tp.clone(),
                    next_offset: Offset(offset.value() + batch.len() as u64),
                    high_watermark: Offset(batch.len() as u64),
                    batch,
                    error: ErrorCode::None,
                };
                if self.fetches.len() == self.withhold {
                    let record = Record::keyless(vec![7u8], ctx.now());
                    self.late = Some((from, reply(RecordBatch::from_records(vec![record]))));
                    ctx.set_timer_at(self.late_at, 0);
                } else {
                    ctx.send(from, reply(RecordBatch::new()));
                }
            }
            other => panic!("unexpected rpc {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let (to, reply) = self.late.take().expect("armed with a reply");
        ctx.send(to, reply);
    }
}

fn cluster(poll_interval: SimDuration, withhold: usize, late_at: SimTime) -> (Sim, ProcessId) {
    let mut sim = Sim::new(1);
    let broker = sim.spawn(Box::new(StubBroker {
        withhold,
        late_at,
        late: None,
        fetches: Vec::new(),
    }));
    assert_eq!(broker, BROKER);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER)].into();
    let cfg = ConsumerConfig {
        poll_interval,
        ..ConsumerConfig::default()
    };
    let client = ConsumerClient::new(cfg, BROKER, brokers, vec![TOPIC.into()]);
    let sink = Box::new(CollectingSink::default());
    let consumer = sim.spawn(Box::new(ConsumerProcess::new(0, client, sink)));
    (sim, consumer)
}

fn stats(sim: &Sim, consumer: ProcessId) -> ConsumerStats {
    let process = sim.process_ref::<ConsumerProcess>(consumer);
    process.expect("consumer").client().stats()
}

fn fetches(sim: &Sim) -> &[SimTime] {
    &sim.process_ref::<StubBroker>(BROKER)
        .expect("broker")
        .fetches
}

#[test]
fn a_lost_fetch_times_out_at_the_first_poll_past_its_deadline() {
    // Polls at 300, 600, ... ms. The second fetch (sent at 600 ms) is not
    // answered, so it is overdue from 2 600 ms: the poll at 2 700 ms is the
    // first to see that.
    let ms = SimTime::from_millis;
    let (mut sim, consumer) = cluster(SimDuration::from_millis(300), 2, ms(3_000));
    sim.run_until(ms(2_650));
    assert_eq!(
        stats(&sim, consumer).timeouts,
        0,
        "overdue, but no poll yet"
    );
    assert_eq!(fetches(&sim).len(), 2, "nothing new while one is in flight");
    sim.run_until(ms(2_750));
    assert_eq!(stats(&sim, consumer).timeouts, 1);
    // The same poll fetched the partition again.
    let transit = SimDuration::from_micros(10);
    assert_eq!(
        fetches(&sim),
        [ms(300) + transit, ms(600) + transit, ms(2_700) + transit]
    );
    // The reply to the fetch given up on arrives at 3 s with a record in
    // it, and is dropped: no delivery, no second timeout, polling goes on.
    sim.run_until(ms(4_000));
    let s = stats(&sim, consumer);
    assert_eq!((s.timeouts, s.records), (1, 0));
    assert_eq!(fetches(&sim).len(), 7);
    assert_eq!(s.fetches, 7);
}

#[test]
fn answered_fetches_leave_no_residue_in_the_queue() {
    let (mut sim, consumer) = cluster(SimDuration::from_millis(1), usize::MAX, SimTime::MAX);
    // From 3 s on, the tombstone of the one metadata request's timeout has
    // been popped too.
    for secs in [3, 7, 11] {
        sim.run_until(SimTime::from_secs(secs));
        assert_eq!(sim.queue_diag().residue, 0, "at {secs} s");
    }
    let s = stats(&sim, consumer);
    assert!(s.fetches >= 10_000, "{s:?}");
    assert_eq!(s.timeouts, 0);
    assert_eq!(
        sim.stats().timers_cancelled,
        1,
        "the metadata timeout alone"
    );
}
